//! The committer (paper §II-B): issues the merged test pattern as remote
//! commands to the slave system and records execution status.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use ptest_automata::{Alphabet, Sym};
use ptest_bridge::CmdId;
use ptest_master::MultiCoreSystem;
use ptest_pcore::{Priority, ProgramId, Service, SvcError, SvcReply, SvcRequest, TaskId};
use ptest_soc::{CoreId, Cycles};

use crate::pattern::MergedPattern;
use crate::record::{MasterState, StateRecord};

/// Configuration of the committer.
#[derive(Debug, Clone)]
pub struct CommitterConfig {
    /// How long a command may remain unanswered before the committer
    /// declares a timeout (the crash-detection path).
    pub response_timeout: Cycles,
    /// The slave program each pattern's `task_create` starts (cycled if
    /// fewer programs than patterns).
    pub programs: Vec<ProgramId>,
    /// Stack size for created tasks (`None` = kernel default; the paper's
    /// stress test uses 512 bytes).
    pub stack_bytes: Option<u32>,
    /// Width of the per-pattern priority band; pattern `i` draws its
    /// unique priorities from `[1 + i·band, band + i·band]`.
    pub priority_band: u8,
    /// Cycles the master waits between completing one command and issuing
    /// the next, modelling the Linux-side latency of the real bridge (a
    /// remote command on the OMAP costs far more than one DSP cycle).
    /// Without pacing, an entire merged pattern executes before the slave
    /// tasks run a single instruction.
    pub inter_command_gap: u64,
}

impl Default for CommitterConfig {
    fn default() -> CommitterConfig {
        CommitterConfig {
            response_timeout: Cycles::new(50_000),
            programs: Vec::new(),
            stack_bytes: None,
            priority_band: 15,
            inter_command_gap: 16,
        }
    }
}

/// Error constructing a committer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitterError {
    /// A pattern symbol is not one of the Table I services.
    UnknownService {
        /// The symbol's rendered name.
        symbol: String,
    },
    /// No slave programs were configured for `task_create`.
    NoPrograms,
    /// Too many patterns for the priority space
    /// (`patterns × priority_band` must stay below 255).
    TooManyPatterns {
        /// Patterns requested.
        patterns: usize,
        /// Maximum supported with the configured band.
        max: usize,
    },
}

impl fmt::Display for CommitterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitterError::UnknownService { symbol } => {
                write!(f, "pattern symbol `{symbol}` is not a pCore service")
            }
            CommitterError::NoPrograms => write!(f, "committer needs at least one slave program"),
            CommitterError::TooManyPatterns { patterns, max } => {
                write!(
                    f,
                    "{patterns} patterns exceed the priority space (max {max})"
                )
            }
        }
    }
}

impl std::error::Error for CommitterError {}

/// Progress status of the committer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitterStatus {
    /// Still issuing/awaiting commands.
    Running,
    /// Every step of the merged pattern has completed.
    Done,
    /// A command exceeded the response timeout (silent slave).
    TimedOut {
        /// The unanswered command.
        cmd: CmdId,
    },
    /// The slave reported a kernel panic.
    SlaveCrashed,
}

/// The execution record of one merged-pattern step.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecRecord {
    /// Position in the merged pattern.
    pub step_index: usize,
    /// Source pattern index.
    pub pattern: usize,
    /// The service this step encodes.
    pub service: Service,
    /// The concrete request issued (`None` if the step was skipped).
    pub request: Option<SvcRequest>,
    /// The slave's answer (`None` while in flight or skipped).
    pub result: Option<Result<SvcReply, SvcError>>,
    /// Issue time.
    pub issued_at: Option<Cycles>,
    /// Completion time.
    pub completed_at: Option<Cycles>,
    /// `true` if the step could not be issued (e.g. no bound task because
    /// an earlier `task_create` failed) and was recorded as skipped.
    pub skipped: bool,
}

/// The committer: a resumable state machine stepped once per system
/// cycle. It issues one command at a time and waits for its response
/// before the next step, so the slaves observe services in exactly the
/// merged order — the property that makes the pattern merger "act as a
/// scheduler".
///
/// On an N-slave [`MultiCoreSystem`], pattern `i`'s commands are routed
/// to slave `i mod N` ([`Committer::slave_of`]), so a merged pattern
/// exercises cross-core interleavings; on the dual-core platform
/// (`N = 1`) everything targets slave 0 exactly as before.
#[derive(Debug, Clone)]
pub struct Committer {
    merged: MergedPattern,
    cfg: CommitterConfig,
    service_of: HashMap<Sym, Service>,
    pos: usize,
    bound: Vec<Option<TaskId>>,
    bands: PriorityBands,
    progress: Vec<usize>,
    /// Per-pattern symbol projections, interned so every state record of
    /// a pattern shares one allocation instead of cloning the buffer.
    pattern_syms: Vec<Arc<[Sym]>>,
    last_completed: Vec<Option<Service>>,
    awaiting: Option<(CmdId, usize, Cycles)>,
    /// Earliest time the next command may be issued (pacing).
    next_issue_at: Cycles,
    records: Vec<ExecRecord>,
    status: CommitterStatus,
    commands_issued: u64,
    error_replies: u64,
    skipped_steps: u64,
}

/// Disjoint priority bands, one per pattern (for the random tester, one
/// per worker): band `i` holds priorities `1 + i·band ..`, handed out in
/// rotation, so tasks of different patterns never share a priority.
#[derive(Debug, Clone)]
pub struct PriorityBands {
    band: u8,
    issued: Vec<u8>,
}

impl PriorityBands {
    /// `patterns` bands of `band` priorities each.
    ///
    /// # Errors
    ///
    /// [`CommitterError::TooManyPatterns`] if the bands overflow the
    /// priority space.
    pub fn new(patterns: usize, band: u8) -> Result<PriorityBands, CommitterError> {
        let max = usize::from(u8::MAX / band.max(1));
        if patterns > max {
            return Err(CommitterError::TooManyPatterns { patterns, max });
        }
        Ok(PriorityBands {
            band,
            issued: vec![0; patterns],
        })
    }

    /// The next priority of `pattern`'s band.
    pub fn next(&mut self, pattern: usize) -> Priority {
        let offset = self.issued[pattern] % self.band.max(1);
        self.issued[pattern] = self.issued[pattern].wrapping_add(1);
        // `pattern < u8::MAX / band`, checked at construction, keeps the
        // priority in range.
        Priority::new(1 + (pattern as u8) * self.band + offset)
    }
}

impl Committer {
    /// Builds a committer for a merged pattern.
    ///
    /// # Errors
    ///
    /// [`CommitterError`] if the pattern uses non-service symbols, no
    /// programs are configured, or the priority space is exceeded.
    pub fn new(
        merged: MergedPattern,
        alphabet: &Alphabet,
        cfg: CommitterConfig,
    ) -> Result<Committer, CommitterError> {
        if cfg.programs.is_empty() {
            return Err(CommitterError::NoPrograms);
        }
        let n_patterns = merged
            .steps()
            .iter()
            .map(|s| s.pattern + 1)
            .max()
            .unwrap_or(0);
        let bands = PriorityBands::new(n_patterns, cfg.priority_band)?;
        let mut service_of = HashMap::new();
        for step in merged.steps() {
            if let std::collections::hash_map::Entry::Vacant(e) = service_of.entry(step.sym) {
                let name = alphabet.name(step.sym).unwrap_or("?");
                let svc: Service = name.parse().map_err(|_| CommitterError::UnknownService {
                    symbol: name.to_owned(),
                })?;
                e.insert(svc);
            }
        }
        let records = merged
            .steps()
            .iter()
            .enumerate()
            .map(|(i, s)| ExecRecord {
                step_index: i,
                pattern: s.pattern,
                service: service_of[&s.sym],
                request: None,
                result: None,
                issued_at: None,
                completed_at: None,
                skipped: false,
            })
            .collect();
        let pattern_syms = (0..n_patterns).map(|i| merged.project(i).into()).collect();
        Ok(Committer {
            cfg,
            service_of,
            pos: 0,
            bound: vec![None; n_patterns],
            bands,
            progress: vec![0; n_patterns],
            pattern_syms,
            last_completed: vec![None; n_patterns],
            awaiting: None,
            next_issue_at: Cycles::ZERO,
            records,
            status: CommitterStatus::Running,
            commands_issued: 0,
            error_replies: 0,
            skipped_steps: 0,
            merged,
        })
    }

    /// Current status.
    #[must_use]
    pub fn status(&self) -> CommitterStatus {
        self.status
    }

    /// Whether the committer has reached a terminal status.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.status != CommitterStatus::Running
    }

    /// Commands issued so far.
    #[must_use]
    pub fn commands_issued(&self) -> u64 {
        self.commands_issued
    }

    /// Error replies received so far.
    #[must_use]
    pub fn error_replies(&self) -> u64 {
        self.error_replies
    }

    /// Steps skipped (no bound task).
    #[must_use]
    pub fn skipped_steps(&self) -> u64 {
        self.skipped_steps
    }

    /// The per-step execution records.
    #[must_use]
    pub fn records(&self) -> &[ExecRecord] {
        &self.records
    }

    /// The merged pattern being executed.
    #[must_use]
    pub fn merged(&self) -> &MergedPattern {
        &self.merged
    }

    /// The slave task currently bound to pattern `i`.
    #[must_use]
    pub fn bound_task(&self, pattern: usize) -> Option<TaskId> {
        self.bound.get(pattern).copied().flatten()
    }

    /// The slave core pattern `pattern`'s commands are routed to on a
    /// system with `slave_count` slaves: `pattern mod slave_count`.
    #[must_use]
    pub fn slave_of(pattern: usize, slave_count: usize) -> usize {
        pattern % slave_count.max(1)
    }

    /// Advances the committer by (at most) one action: consume a pending
    /// response, time out, or issue the next command. Call once per
    /// system cycle after [`MultiCoreSystem::step`].
    pub fn step(&mut self, sys: &mut MultiCoreSystem) -> CommitterStatus {
        if self.status != CommitterStatus::Running {
            return self.status;
        }
        // 1. Consume responses (draining in place keeps the system's
        //    inbox buffer alive across cycles — no per-step allocation).
        for resp in sys.drain_responses() {
            let Some((awaited, step_idx, _)) = self.awaiting else {
                continue; // late response after timeout handling
            };
            if resp.id != awaited {
                continue;
            }
            let pattern = self.records[step_idx].pattern;
            self.records[step_idx].result = Some(resp.result);
            self.records[step_idx].completed_at = Some(resp.completed_at);
            self.progress[pattern] += 1;
            self.last_completed[pattern] = Some(self.records[step_idx].service);
            match &resp.result {
                Ok(SvcReply::Created(task)) => {
                    self.bound[pattern] = Some(*task);
                }
                Ok(_) => {
                    if matches!(
                        self.records[step_idx].service,
                        Service::Delete | Service::Yield
                    ) {
                        self.bound[pattern] = None;
                    }
                }
                Err(SvcError::KernelPanicked) => {
                    self.error_replies += 1;
                    self.status = CommitterStatus::SlaveCrashed;
                    self.awaiting = None;
                    return self.status;
                }
                Err(_) => {
                    self.error_replies += 1;
                    // A failed create leaves the pattern unbound; later
                    // steps of the lifecycle will be skipped.
                }
            }
            self.awaiting = None;
            self.next_issue_at = resp
                .completed_at
                .checked_add(Cycles::new(self.cfg.inter_command_gap))
                .unwrap_or(resp.completed_at);
        }
        // 2. Timeout?
        if let Some((cmd, _, issued_at)) = self.awaiting {
            if sys.now().since(issued_at) > self.cfg.response_timeout {
                self.status = CommitterStatus::TimedOut { cmd };
            }
            return self.status;
        }
        // 3. Issue the next step (respecting the pacing gap).
        if self.pos >= self.merged.len() {
            self.status = CommitterStatus::Done;
            return self.status;
        }
        if sys.now() < self.next_issue_at {
            return self.status;
        }
        let step_idx = self.pos;
        let pattern = self.records[step_idx].pattern;
        let service = self.records[step_idx].service;
        let request = match service {
            Service::Create => {
                let program = self.cfg.programs[pattern % self.cfg.programs.len()];
                let priority = self.bands.next(pattern);
                Some(SvcRequest::Create {
                    program,
                    priority,
                    stack_bytes: self.cfg.stack_bytes,
                })
            }
            Service::Delete => self.bound[pattern].map(|task| SvcRequest::Delete { task }),
            Service::Suspend => self.bound[pattern].map(|task| SvcRequest::Suspend { task }),
            Service::Resume => self.bound[pattern].map(|task| SvcRequest::Resume { task }),
            Service::ChangePriority => {
                if let Some(task) = self.bound[pattern] {
                    let priority = self.bands.next(pattern);
                    Some(SvcRequest::ChangePriority { task, priority })
                } else {
                    None
                }
            }
            Service::Yield => self.bound[pattern].map(|task| SvcRequest::Yield { task }),
        };
        let Some(request) = request else {
            // No bound task (an earlier create failed): record a skip.
            self.records[step_idx].skipped = true;
            self.skipped_steps += 1;
            self.progress[pattern] += 1;
            self.pos += 1;
            return self.status;
        };
        let slave = Committer::slave_of(pattern, sys.slave_count());
        match sys.issue_to(slave, request) {
            Ok(cmd) => {
                self.records[step_idx].request = Some(request);
                self.records[step_idx].issued_at = Some(sys.now());
                self.awaiting = Some((cmd, step_idx, sys.now()));
                self.commands_issued += 1;
                self.pos += 1;
            }
            Err(_) => { /* command ring full: retry next cycle */ }
        }
        self.status
    }

    /// The earliest cycle at which this committer can next *act* on its
    /// own clock, given the current cycle `now` — the committer's
    /// contribution to the event-driven trial loop's fast-forward
    /// horizon. `None` means the committer is terminal and will never
    /// act again (no upper bound on skipping).
    ///
    /// Response arrivals are deliberately *not* modelled here: a
    /// response needs in-flight bridge traffic, which already
    /// disqualifies fast-forwarding at the system level
    /// ([`MultiCoreSystem::certify`]). What remains are the
    /// committer's two self-timed events: declaring a response timeout
    /// (`issued_at + response_timeout + 1`, the first cycle
    /// `now.since(issued_at) > response_timeout` holds) and issuing the
    /// next command once the pacing gap expires (`next_issue_at`).
    #[must_use]
    pub fn next_event_cycle(&self, now: Cycles) -> Option<u64> {
        if self.status != CommitterStatus::Running {
            return None;
        }
        if let Some((_, _, issued_at)) = self.awaiting {
            return Some(issued_at.get() + self.cfg.response_timeout.get() + 1);
        }
        if self.pos >= self.merged.len() {
            // The next `step` flips to `Done`; don't skip over it.
            return Some(now.get() + 1);
        }
        // A full command ring can defer an issue past `next_issue_at`;
        // never skip while an issue is (or may be) pending.
        Some(self.next_issue_at.get().max(now.get() + 1))
    }

    /// The Definition-2 state record of pattern `i` (see Figure 4).
    #[must_use]
    pub fn state_record(&self, pattern: usize, sys: &MultiCoreSystem) -> Option<StateRecord> {
        let syms = self.pattern_syms.get(pattern)?.clone();
        let master_state = if let Some((_, step_idx, _)) = self.awaiting {
            if self.records[step_idx].pattern == pattern {
                MasterState::AwaitingResponse(self.records[step_idx].service)
            } else {
                self.idle_master_state(pattern, &syms)
            }
        } else {
            self.idle_master_state(pattern, &syms)
        };
        let slave = Committer::slave_of(pattern, sys.slave_count());
        let slave_task = self.bound[pattern];
        let slave_state = slave_task.and_then(|t| sys.kernel_of(slave).task_state(t));
        Some(StateRecord {
            pattern_index: pattern,
            slave_core: CoreId::slave(slave),
            master_state,
            slave_task,
            slave_state,
            test_pattern: syms,
            sequence_number: self.progress[pattern],
        })
    }

    fn idle_master_state(&self, pattern: usize, syms: &[Sym]) -> MasterState {
        if self.progress[pattern] >= syms.len() {
            MasterState::Finished
        } else if let Some(svc) = self.last_completed[pattern] {
            MasterState::Issuing(svc)
        } else {
            MasterState::Idle
        }
    }

    /// State records for every pattern (the dump the bug detector writes
    /// into bug reports).
    #[must_use]
    pub fn state_records(&self, sys: &MultiCoreSystem) -> Vec<StateRecord> {
        (0..self.pattern_syms.len())
            .filter_map(|i| self.state_record(i, sys))
            .collect()
    }

    /// The set of services used by a pattern symbol, for coverage
    /// accounting.
    #[must_use]
    pub fn service_of(&self, sym: Sym) -> Option<Service> {
        self.service_of.get(&sym).copied()
    }

    /// Consumes the committer, handing the merged pattern and per-step
    /// execution records to the report without cloning either — the
    /// trial engine's assembly path.
    #[must_use]
    pub fn into_parts(self) -> (MergedPattern, Vec<ExecRecord>) {
        (self.merged, self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::PatternGenerator;
    use crate::merger::{MergeOp, PatternMerger};
    use ptest_automata::GenerateOptions;
    use ptest_master::{MultiCoreSystem, SystemConfig};
    use ptest_pcore::Program;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_to_completion(
        sys: &mut MultiCoreSystem,
        committer: &mut Committer,
        max: u64,
    ) -> CommitterStatus {
        for _ in 0..max {
            sys.step();
            let status = committer.step(sys);
            if status != CommitterStatus::Running {
                return status;
            }
        }
        CommitterStatus::Running
    }

    fn setup(n: usize, s: usize, op: MergeOp, seed: u64) -> (MultiCoreSystem, Committer) {
        let mut sys = MultiCoreSystem::new(SystemConfig::default());
        let prog = sys.kernel_of_mut(0).register_program(
            Program::new(vec![ptest_pcore::Op::Compute(30), ptest_pcore::Op::Exit]).unwrap(),
        );
        let generator = PatternGenerator::pcore_paper().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let patterns = generator.generate_batch(&mut rng, n, GenerateOptions::sized(s));
        let merged = PatternMerger::new().merge(&patterns, op);
        let committer = Committer::new(
            merged,
            generator.regex().alphabet(),
            CommitterConfig {
                programs: vec![prog],
                ..CommitterConfig::default()
            },
        )
        .unwrap();
        (sys, committer)
    }

    #[test]
    fn executes_full_merged_pattern() {
        let (mut sys, mut committer) = setup(3, 8, MergeOp::cyclic(), 1);
        let status = run_to_completion(&mut sys, &mut committer, 2_000_000);
        assert_eq!(status, CommitterStatus::Done);
        assert!(committer.commands_issued() > 0);
        // Every non-skipped record has a result.
        for r in committer.records() {
            assert!(r.skipped || r.result.is_some(), "unresolved step {r:?}");
        }
    }

    #[test]
    fn create_binds_and_terminal_unbinds() {
        let (mut sys, mut committer) = setup(1, 6, MergeOp::Sequential, 2);
        // A sized pattern may stop mid-lifecycle (Algorithm 2 emits at
        // most `s` services); the binding must reflect whether the last
        // executed service was terminal.
        let ends_terminal = committer
            .records()
            .last()
            .is_some_and(|r| r.service.is_terminal());
        let status = run_to_completion(&mut sys, &mut committer, 2_000_000);
        assert_eq!(status, CommitterStatus::Done);
        if ends_terminal {
            assert_eq!(committer.bound_task(0), None, "TD/TY must unbind");
        } else {
            assert!(
                committer.bound_task(0).is_some(),
                "open lifecycle stays bound"
            );
        }
    }

    #[test]
    fn slave_order_matches_merged_order() {
        // Because the committer awaits each response, the kernel services
        // execute in exactly merged order; verify via kernel svc counter.
        let (mut sys, mut committer) = setup(2, 6, MergeOp::cyclic(), 3);
        let total_steps = committer.merged().len() as u64;
        let skipped_expected = 0;
        let status = run_to_completion(&mut sys, &mut committer, 2_000_000);
        assert_eq!(status, CommitterStatus::Done);
        assert_eq!(committer.skipped_steps(), skipped_expected);
        assert_eq!(sys.snapshot_of(0).svc_count, total_steps);
    }

    #[test]
    fn state_records_have_fig4_fields() {
        let (mut sys, mut committer) = setup(2, 6, MergeOp::cyclic(), 4);
        // Run partially.
        for _ in 0..200 {
            sys.step();
            committer.step(&mut sys);
        }
        let records = committer.state_records(&sys);
        assert_eq!(records.len(), 2);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.pattern_index, i);
            // Sized generation may absorb before reaching s = 6 services.
            assert!(!r.test_pattern.is_empty() && r.test_pattern.len() <= 6);
            assert!(r.sequence_number <= r.test_pattern.len());
        }
        run_to_completion(&mut sys, &mut committer, 2_000_000);
        let records = committer.state_records(&sys);
        for r in &records {
            assert_eq!(r.master_state, MasterState::Finished);
            assert!(r.remaining().is_empty());
        }
    }

    #[test]
    fn rejects_unknown_symbols() {
        let mut alphabet = Alphabet::new();
        let bogus = alphabet.intern("NOT_A_SERVICE");
        let merged = MergedPattern::new(vec![crate::pattern::MergedStep {
            pattern: 0,
            sym: bogus,
        }]);
        let err = Committer::new(
            merged,
            &alphabet,
            CommitterConfig {
                programs: vec![ProgramId(0)],
                ..CommitterConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CommitterError::UnknownService { .. }));
    }

    #[test]
    fn rejects_empty_program_list() {
        let merged = MergedPattern::default();
        let err = Committer::new(merged, &Alphabet::new(), CommitterConfig::default()).unwrap_err();
        assert_eq!(err, CommitterError::NoPrograms);
    }

    #[test]
    fn priority_bands_stay_disjoint() {
        let (mut sys, mut committer) = setup(4, 10, MergeOp::cyclic(), 5);
        let status = run_to_completion(&mut sys, &mut committer, 3_000_000);
        assert_eq!(status, CommitterStatus::Done);
        // No PriorityInUse errors may have occurred.
        for r in committer.records() {
            if let Some(Err(e)) = &r.result {
                assert!(
                    !matches!(e, SvcError::PriorityInUse(_)),
                    "band collision: {r:?}"
                );
            }
        }
    }

    #[test]
    fn crash_surfaces_as_slave_crashed() {
        let mut cfg = SystemConfig::default();
        cfg.kernel.heap_bytes = 2 * 1024;
        cfg.kernel.gc_fault = ptest_pcore::GcFaultMode::LeakDeadBlocks { leak_every: 1 };
        let mut sys = MultiCoreSystem::new(cfg);
        let prog = sys
            .kernel_of_mut(0)
            .register_program(Program::exit_immediately());
        let generator = PatternGenerator::pcore_paper().unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        // Heavy churn: one pattern with many lifecycles.
        let patterns = generator.generate_batch(&mut rng, 1, GenerateOptions::cyclic(400));
        let merged = PatternMerger::new().merge(&patterns, MergeOp::Sequential);
        let mut committer = Committer::new(
            merged,
            generator.regex().alphabet(),
            CommitterConfig {
                programs: vec![prog],
                ..CommitterConfig::default()
            },
        )
        .unwrap();
        let status = run_to_completion(&mut sys, &mut committer, 5_000_000);
        assert!(
            matches!(
                status,
                CommitterStatus::SlaveCrashed | CommitterStatus::TimedOut { .. }
            ),
            "leaky GC under churn must kill the slave: {status:?}"
        );
        assert!(sys.slave_crashed());
    }
}
