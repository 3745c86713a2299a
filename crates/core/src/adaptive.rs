//! The adaptive testing procedure (paper Algorithm 1).
//!
//! `AdaptiveTest(RE, n, s, op)`:
//!
//! 1. generate `n` test patterns of size `s` from the PFA built over
//!    `RE` and the probability distribution;
//! 2. merge them into one interleaved pattern under `op`;
//! 3. fork the bug detector;
//! 4. let the committer issue the merged pattern to the slave while the
//!    detector monitors.
//!
//! [`AdaptiveTest::run`] performs the whole procedure on a fresh
//! [`MultiCoreSystem`] and returns a [`TestReport`]. Reports carry the
//! full configuration and seed: [`AdaptiveTest::reproduce`] re-runs a
//! report's scenario and arrives at the same outcome — the paper's bug
//! reproduction story, made checkable.

use ptest_automata::{ProbabilityAssignment, Regex};
use ptest_master::{MemoryModelSpec, MultiCoreSystem, PreemptionSpec, ScheduleSpec, SystemConfig};
use ptest_pcore::ProgramId;
use ptest_soc::Cycles;

use crate::committer::{CommitterError, CommitterStatus};
use crate::coverage::CoverageReport;
use crate::detector::{Bug, BugKind, DetectorConfig};
use crate::merger::MergeOp;
use crate::pattern::{MergedPattern, TestPattern};
use crate::scenario::Scenario;
use crate::trial::TrialEngine;

/// Full configuration of one adaptive-test run (Algorithm 1's inputs
/// plus the environmental knobs of this reproduction).
#[derive(Debug, Clone)]
pub struct AdaptiveTestConfig {
    /// The regular expression `RE` describing slave-service order.
    pub regex_source: String,
    /// The probability distribution `PD`.
    pub pd: ProbabilityAssignment,
    /// `n`: number of test patterns (= controlled slave processes).
    pub n: usize,
    /// `s`: size of each test pattern.
    pub s: usize,
    /// `op`: the merge policy.
    pub op: MergeOp,
    /// Master seed; all nondeterminism in the run derives from it.
    pub seed: u64,
    /// Generate patterns cyclically (restart life cycles) — the stress-
    /// test mode of case study 1.
    pub cyclic_generation: bool,
    /// Simulation budget in cycles.
    pub max_cycles: u64,
    /// Detector cadence: observe every this many cycles.
    pub check_interval: u64,
    /// Grace period after the committer finishes, letting slave tasks
    /// drain before the final no-progress checks.
    pub drain_cycles: u64,
    /// Detector thresholds.
    pub detector: DetectorConfig,
    /// Committer knobs (programs are supplied by the scenario setup).
    pub response_timeout: Cycles,
    /// Master-side pacing between commands (see
    /// [`CommitterConfig::inter_command_gap`](crate::CommitterConfig::inter_command_gap)).
    pub inter_command_gap: u64,
    /// Stack size for created tasks.
    pub stack_bytes: Option<u32>,
    /// System (kernel/scheduler) configuration.
    pub system: SystemConfig,
    /// How slave kernels are scheduled against each other
    /// ([`ScheduleSpec::LockStep`] reproduces the historical behaviour
    /// bit for bit; see the `ptest_master::sched` module).
    pub schedule: ScheduleSpec,
    /// Schedule seed override. `None` (the default) derives the seed
    /// from the trial's pattern seed, so single-trial runs stay a
    /// one-seed story; campaigns set it per trial to explore schedules
    /// independently of patterns. Reports echo the seed actually used,
    /// making every bug replayable from its `(seed, schedule_seed)`
    /// pair.
    pub schedule_seed: Option<u64>,
    /// How shared-variable stores propagate between slave kernels
    /// ([`MemoryModelSpec::SeqCst`] reproduces the historical
    /// sequentially-consistent mirroring bit for bit; see the
    /// `ptest_master::mem` module).
    pub memory: MemoryModelSpec,
    /// Memory seed override, mirroring `schedule_seed`: `None` derives
    /// the seed from the trial's pattern seed; campaigns set it per
    /// trial. Reports echo the seed actually used, completing the
    /// replayable `(seed, schedule_seed, memory_seed)` triple.
    pub memory_seed: Option<u64>,
    /// The preemption/interrupt axis: quantum time slices inside each
    /// slave kernel, seeded per-slave clock skew, and deterministic
    /// interrupt injection (see `ptest_master::preempt`). The inert
    /// default reproduces the historical unpreempted platform bit for
    /// bit.
    pub preemption: PreemptionSpec,
    /// Interrupt/preemption seed override, mirroring `schedule_seed`:
    /// `None` derives the seed from the trial's pattern seed; campaigns
    /// set it per trial. Reports echo the seed actually used, completing
    /// the replayable `(seed, schedule_seed, memory_seed, irq_seed)`
    /// quadruple. Under the inert default `preemption` the seed is
    /// recorded but has no behavioural effect.
    pub irq_seed: Option<u64>,
}

impl Default for AdaptiveTestConfig {
    fn default() -> AdaptiveTestConfig {
        AdaptiveTestConfig {
            regex_source: Regex::pcore_task_lifecycle().source().to_owned(),
            pd: ProbabilityAssignment::weights([
                ("TC", 1.0),
                ("TCH", 0.6),
                ("TS", 0.2),
                ("TD", 0.1),
                ("TY", 0.1),
                ("TR", 1.0),
            ]),
            n: 4,
            s: 8,
            op: MergeOp::cyclic(),
            seed: 2009,
            cyclic_generation: false,
            max_cycles: 2_000_000,
            check_interval: 500,
            drain_cycles: 60_000,
            detector: DetectorConfig::default(),
            response_timeout: Cycles::new(50_000),
            inter_command_gap: 16,
            stack_bytes: None,
            system: SystemConfig::default(),
            schedule: ScheduleSpec::LockStep,
            schedule_seed: None,
            memory: MemoryModelSpec::SeqCst,
            memory_seed: None,
            preemption: PreemptionSpec::default(),
            irq_seed: None,
        }
    }
}

/// Error running the adaptive test.
#[derive(Debug)]
pub enum AdaptiveTestError {
    /// The regular expression failed to parse.
    Regex(ptest_automata::ParseRegexError),
    /// The PFA could not be built from the distribution.
    Pfa(ptest_automata::PfaError),
    /// The committer rejected the configuration.
    Committer(CommitterError),
    /// [`SystemConfig::validate`] rejected the system configuration.
    System(String),
}

impl std::fmt::Display for AdaptiveTestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptiveTestError::Regex(e) => write!(f, "regex error: {e}"),
            AdaptiveTestError::Pfa(e) => write!(f, "pfa error: {e}"),
            AdaptiveTestError::Committer(e) => write!(f, "committer error: {e}"),
            AdaptiveTestError::System(e) => write!(f, "system config error: {e}"),
        }
    }
}

impl std::error::Error for AdaptiveTestError {}

/// Outcome of one adaptive-test run.
#[derive(Debug)]
pub struct TestReport {
    /// Bugs found, in detection order.
    pub bugs: Vec<Bug>,
    /// Remote commands issued by the committer.
    pub commands_issued: u64,
    /// Error replies received.
    pub error_replies: u64,
    /// Virtual cycles consumed.
    pub cycles: u64,
    /// Final committer status.
    pub committer_status: CommitterStatus,
    /// Whether the merged pattern was fully delivered.
    pub completed: bool,
    /// Pattern coverage over the service DFA.
    pub coverage: CoverageReport,
    /// Per-step execution records (request, reply, timing) of the
    /// committer.
    pub exec_records: Vec<crate::committer::ExecRecord>,
    /// The generated patterns (for inspection/replay).
    pub patterns: Vec<TestPattern>,
    /// The merged pattern that was executed.
    pub merged: MergedPattern,
    /// The schedule seed the trial ran under (also echoed into
    /// `config.schedule_seed`): together with `config.seed` it replays
    /// the trial — including any reported bug — byte for byte.
    pub schedule_seed: u64,
    /// The memory seed the trial ran under (also echoed into
    /// `config.memory_seed`).
    pub memory_seed: u64,
    /// The interrupt/preemption seed the trial ran under (also echoed
    /// into `config.irq_seed`), completing the replayable
    /// `(seed, schedule_seed, memory_seed, irq_seed)` quadruple.
    pub irq_seed: u64,
    /// Echo of the run configuration (reproduction input).
    pub config: AdaptiveTestConfig,
}

impl TestReport {
    /// Whether any bug of the given discriminant was found.
    #[must_use]
    pub fn found<F: Fn(&BugKind) -> bool>(&self, pred: F) -> bool {
        self.bugs.iter().any(|b| pred(&b.kind))
    }

    /// Commands issued before the first bug was detected, or all
    /// commands if none was (the "commands to detection" metric of the
    /// baseline comparisons).
    #[must_use]
    pub fn commands_to_first_bug(&self) -> Option<u64> {
        if self.bugs.is_empty() {
            None
        } else {
            Some(self.commands_issued)
        }
    }

    /// Error replies caused by *illegal service orders* (suspend twice,
    /// resume a running task, duplicate priorities, …) as opposed to
    /// benign races with task self-exit or resource exhaustion. pTest's
    /// PFA guarantees this is zero — the legality property the paper's
    /// "rational order" patterns buy over random testing.
    #[must_use]
    pub fn ordering_errors(&self) -> usize {
        use ptest_pcore::SvcError;
        self.exec_records
            .iter()
            .filter(|r| {
                matches!(
                    r.result,
                    Some(Err(SvcError::AlreadySuspended(_)
                        | SvcError::NotSuspended(_)
                        | SvcError::PriorityInUse(_)
                        | SvcError::NoSuchProgram(_)))
                )
            })
            .count()
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let bug_list = if self.bugs.is_empty() {
            "no bugs".to_owned()
        } else {
            self.bugs
                .iter()
                .map(|b| b.kind.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        };
        let sched = match self.config.schedule {
            ScheduleSpec::LockStep => String::new(),
            spec => format!(" sched={} sched_seed={}", spec.label(), self.schedule_seed),
        };
        let mem = match self.config.memory {
            MemoryModelSpec::SeqCst => String::new(),
            spec => format!(" mem={} mem_seed={}", spec.label(), self.memory_seed),
        };
        let preempt = if self.config.preemption.is_inert() {
            String::new()
        } else {
            format!(
                " preempt={} irq_seed={}",
                self.config.preemption.label(),
                self.irq_seed
            )
        };
        format!(
            "n={} s={} op={:?} seed={}{}{}{}: {} cmds, {} errors, {} cycles, {:?} -> {}",
            self.config.n,
            self.config.s,
            self.config.op,
            self.config.seed,
            sched,
            mem,
            preempt,
            self.commands_issued,
            self.error_replies,
            self.cycles,
            self.committer_status,
            bug_list
        )
    }
}

/// The adaptive testing tool (Algorithm 1).
#[derive(Debug)]
pub struct AdaptiveTest;

impl AdaptiveTest {
    /// Runs the full procedure on a fresh system.
    ///
    /// `setup` prepares the slave for the scenario — registering task
    /// programs, creating semaphores/mutexes, seeding shared variables —
    /// and returns the programs that `task_create` commands should start
    /// (one per pattern, cycled if shorter).
    ///
    /// This is a thin single-trial wrapper over [`TrialEngine`], the
    /// engine the campaign layer fans out across worker threads: compile
    /// the PFA pipeline once, run one trial at the configured seed.
    ///
    /// # Errors
    ///
    /// [`AdaptiveTestError`] if the regex, distribution, or committer
    /// configuration is invalid.
    pub fn run(
        cfg: AdaptiveTestConfig,
        setup: impl FnOnce(&mut MultiCoreSystem) -> Vec<ProgramId>,
    ) -> Result<TestReport, AdaptiveTestError> {
        let seed = cfg.seed;
        TrialEngine::new(cfg)?.run_trial(seed, setup)
    }

    /// Runs one seeded trial of a [`Scenario`] (its base configuration
    /// with `seed` substituted).
    ///
    /// # Errors
    ///
    /// As for [`AdaptiveTest::run`].
    pub fn run_scenario(
        scenario: &dyn Scenario,
        seed: u64,
    ) -> Result<TestReport, AdaptiveTestError> {
        TrialEngine::new(scenario.base_config())?.run_trial(seed, |sys| scenario.setup(sys))
    }

    /// Re-runs the scenario of a report (same configuration, same seed).
    /// Determinism guarantees the same outcome; integration tests assert
    /// it.
    ///
    /// # Errors
    ///
    /// As for [`AdaptiveTest::run`].
    pub fn reproduce(
        report: &TestReport,
        setup: impl FnOnce(&mut MultiCoreSystem) -> Vec<ProgramId>,
    ) -> Result<TestReport, AdaptiveTestError> {
        AdaptiveTest::run(report.config.clone(), setup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_pcore::{Op, Program};

    fn quick_setup(sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        vec![sys
            .kernel_of_mut(0)
            .register_program(Program::new(vec![Op::Compute(20), Op::Exit]).unwrap())]
    }

    #[test]
    fn healthy_run_finds_no_bugs() {
        let cfg = AdaptiveTestConfig {
            n: 3,
            s: 6,
            seed: 42,
            ..AdaptiveTestConfig::default()
        };
        let report = AdaptiveTest::run(cfg, quick_setup).unwrap();
        assert!(report.completed, "{}", report.summary());
        assert!(report.bugs.is_empty(), "{}", report.summary());
        assert!(report.commands_issued > 0);
        assert!(report.coverage.transition_coverage() > 0.0);
    }

    #[test]
    fn gc_fault_is_found_under_stress() {
        let mut cfg = AdaptiveTestConfig {
            n: 4,
            s: 64,
            cyclic_generation: true,
            seed: 7,
            op: MergeOp::RoundRobin { chunk: 1 },
            ..AdaptiveTestConfig::default()
        };
        cfg.system.kernel.heap_bytes = 8 * 1024;
        cfg.system.kernel.gc_fault = ptest_pcore::GcFaultMode::LeakDeadBlocks { leak_every: 1 };
        let report = AdaptiveTest::run(cfg, quick_setup).unwrap();
        assert!(
            report.found(|k| matches!(
                k,
                BugKind::SlaveCrash { .. } | BugKind::CommandTimeout { .. }
            )),
            "{}",
            report.summary()
        );
        // The bug report carries reproduction material.
        let bug = &report.bugs[0];
        assert!(!bug.state_records.is_empty());
        assert!(!bug.trace_tail.is_empty());
    }

    #[test]
    fn reproduce_reaches_same_outcome() {
        let mut cfg = AdaptiveTestConfig {
            n: 4,
            s: 48,
            cyclic_generation: true,
            seed: 99,
            ..AdaptiveTestConfig::default()
        };
        cfg.system.kernel.heap_bytes = 8 * 1024;
        cfg.system.kernel.gc_fault = ptest_pcore::GcFaultMode::LeakDeadBlocks { leak_every: 1 };
        let first = AdaptiveTest::run(cfg, quick_setup).unwrap();
        let again = AdaptiveTest::reproduce(&first, quick_setup).unwrap();
        assert_eq!(first.bugs.len(), again.bugs.len());
        for (a, b) in first.bugs.iter().zip(&again.bugs) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.detected_at, b.detected_at, "bit-for-bit reproduction");
        }
        assert_eq!(first.commands_issued, again.commands_issued);
        assert_eq!(first.cycles, again.cycles);
    }

    #[test]
    fn different_seeds_generate_different_patterns() {
        let a = AdaptiveTest::run(
            AdaptiveTestConfig {
                seed: 1,
                ..AdaptiveTestConfig::default()
            },
            quick_setup,
        )
        .unwrap();
        let b = AdaptiveTest::run(
            AdaptiveTestConfig {
                seed: 2,
                ..AdaptiveTestConfig::default()
            },
            quick_setup,
        )
        .unwrap();
        assert_ne!(a.patterns, b.patterns);
    }

    #[test]
    fn run_scenario_matches_closure_run() {
        let scenario = crate::FnScenario::new(
            "quick",
            AdaptiveTestConfig {
                n: 3,
                s: 6,
                ..AdaptiveTestConfig::default()
            },
            quick_setup,
        );
        let via_scenario = AdaptiveTest::run_scenario(&scenario, 42).unwrap();
        let via_closure = AdaptiveTest::run(
            AdaptiveTestConfig {
                n: 3,
                s: 6,
                seed: 42,
                ..AdaptiveTestConfig::default()
            },
            quick_setup,
        )
        .unwrap();
        assert_eq!(via_scenario.patterns, via_closure.patterns);
        assert_eq!(via_scenario.cycles, via_closure.cycles);
    }

    #[test]
    fn bad_regex_is_reported() {
        let cfg = AdaptiveTestConfig {
            regex_source: "((".to_owned(),
            ..AdaptiveTestConfig::default()
        };
        assert!(matches!(
            AdaptiveTest::run(cfg, quick_setup),
            Err(AdaptiveTestError::Regex(_))
        ));
    }

    #[test]
    fn unbuildable_system_is_an_error_not_a_panic() {
        let mut cfg = AdaptiveTestConfig::default();
        cfg.system.slaves = 0;
        assert!(matches!(
            crate::TrialEngine::new(cfg),
            Err(AdaptiveTestError::System(e)) if e.starts_with("slaves:")
        ));
    }
}
