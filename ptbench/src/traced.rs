//! The traced trial: a copy of `TrialEngine`'s trial loop built from the
//! stack's public calls only, with a timer around each call into a layer.
//!
//! The copy exists so the benchmark can say where a trial's time goes
//! without instrumenting the program itself. It must produce exactly what
//! `TrialEngine` produces: every traced trial is compared with the
//! engine's own run of the same seeds ([`TracedTrial::agrees_with`]).
//! Per-call timers slow a trial down, so end-to-end numbers never come
//! from traced runs.

use std::time::Instant;

use ptest::automata::GenerateOptions;
use ptest::core::coverage;
use ptest::master::{IdleHorizon, MemoryModel, Scheduler, SnapshotCache};
use ptest::{
    AdaptiveTestConfig, Bug, BugDetector, BugKind, Committer, CommitterConfig, CommitterStatus,
    MemoryModelSpec, MultiCoreSystem, PatternMerger, PreemptionSpec, Scenario, ScheduleSpec,
    TestPattern, TestReport, TrialEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything that selects one trial: the seed quadruple, the
/// exploration specs, and optionally an explicit pattern set (a
/// minimized reproducer) in place of generated patterns.
#[derive(Debug, Clone, Copy)]
pub struct TrialInput<'a> {
    /// Pattern seed.
    pub seed: u64,
    /// Schedule seed.
    pub schedule_seed: u64,
    /// Memory seed.
    pub memory_seed: u64,
    /// Interrupt/preemption seed.
    pub irq_seed: u64,
    /// Schedule spec.
    pub schedule: ScheduleSpec,
    /// Memory-model spec.
    pub memory: MemoryModelSpec,
    /// Preemption spec.
    pub preemption: PreemptionSpec,
    /// Explicit patterns replacing generation.
    pub patterns: Option<&'a [TestPattern]>,
}

/// Host time (ns) spent in each layer and the layers' deterministic
/// counts, summed over traced trials.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Traced trials.
    pub trials: u64,
    /// `PatternGenerator::generate_batch`.
    pub generate_ns: u64,
    /// Symbols generated.
    pub symbols: u64,
    /// `PatternMerger::merge`.
    pub merge_ns: u64,
    /// System, scenario setup, preemption, committer, detector,
    /// scheduler and memory-model construction.
    pub build_ns: u64,
    /// Horizon queries and idle fast-forward.
    pub ff_ns: u64,
    /// Horizon queries made.
    pub horizon_queries: u64,
    /// Queries that skipped at least one cycle.
    pub ff_hits: u64,
    /// Cycles fast-forwarded.
    pub skipped_cycles: u64,
    /// `MultiCoreSystem::step_explored`.
    pub step_ns: u64,
    /// Cycles executed one by one.
    pub exec_cycles: u64,
    /// `Committer::step`.
    pub committer_ns: u64,
    /// Commands issued.
    pub commands: u64,
    /// `BugDetector::observe_cached`.
    pub detector_ns: u64,
    /// Detector observations.
    pub observes: u64,
    /// Bugs reported.
    pub bugs: u64,
    /// `coverage::measure`.
    pub coverage_ns: u64,
    /// Loop bookkeeping between the timed calls.
    pub loop_ns: u64,
}

impl LayerTotals {
    /// Host time of the traced trials, every layer included.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.generate_ns
            + self.merge_ns
            + self.build_ns
            + self.ff_ns
            + self.step_ns
            + self.committer_ns
            + self.detector_ns
            + self.coverage_ns
            + self.loop_ns
    }

    /// Adds `other`'s times and counts to these.
    pub fn add(&mut self, other: &LayerTotals) {
        self.trials += other.trials;
        self.generate_ns += other.generate_ns;
        self.symbols += other.symbols;
        self.merge_ns += other.merge_ns;
        self.build_ns += other.build_ns;
        self.ff_ns += other.ff_ns;
        self.horizon_queries += other.horizon_queries;
        self.ff_hits += other.ff_hits;
        self.skipped_cycles += other.skipped_cycles;
        self.step_ns += other.step_ns;
        self.exec_cycles += other.exec_cycles;
        self.committer_ns += other.committer_ns;
        self.commands += other.commands;
        self.detector_ns += other.detector_ns;
        self.observes += other.observes;
        self.bugs += other.bugs;
        self.coverage_ns += other.coverage_ns;
        self.loop_ns += other.loop_ns;
    }

    /// The deterministic counts, named as the benchmark reports them.
    #[must_use]
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("generator.symbols", self.symbols),
            ("system.exec_cycles", self.exec_cycles),
            ("trial.skipped_cycles", self.skipped_cycles),
            ("trial.horizon_queries", self.horizon_queries),
            ("trial.ff_hits", self.ff_hits),
            ("committer.commands", self.commands),
            ("detector.observes", self.observes),
            ("detector.bugs", self.bugs),
        ]
    }
}

/// What a traced trial produced — the fields compared with the engine.
#[derive(Debug)]
pub struct TracedTrial {
    /// Cycles simulated, executed and skipped.
    pub cycles: u64,
    /// Commands issued.
    pub commands_issued: u64,
    /// Error replies received.
    pub error_replies: u64,
    /// Bugs detected, in detection order.
    pub bugs: Vec<Bug>,
    /// The patterns the trial ran.
    pub patterns: Vec<TestPattern>,
    /// What the preemption axis did during the trial.
    pub preemption: PreemptionActivity,
}

/// How much a trial's preemption axis acted before the trial ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreemptionActivity {
    /// Quantum expiries that switched tasks, over all slave kernels.
    pub quantum_preemptions: u64,
    /// Planned interrupts that fired.
    pub interrupts_fired: usize,
    /// Largest lead of a slave's local clock over system time.
    pub max_clock_lead: u64,
}

impl TracedTrial {
    /// Whether the traced trial equals the engine's report: cycles,
    /// commands, error replies, patterns and the bug list (kind, core and
    /// detection cycle of every bug, in order).
    #[must_use]
    pub fn agrees_with(&self, report: &TestReport) -> bool {
        self.cycles == report.cycles
            && self.commands_issued == report.commands_issued
            && self.error_replies == report.error_replies
            && self.patterns == report.patterns
            && self.bugs.len() == report.bugs.len()
            && self.bugs.iter().zip(&report.bugs).all(|(a, b)| {
                a.kind == b.kind && a.core == b.core && a.detected_at == b.detected_at
            })
    }
}

/// Time since the previous split, in nanoseconds. Splits chain, so one
/// clock read closes one region and opens the next.
struct Lap(Instant);

impl Lap {
    fn split(&mut self) -> u64 {
        let now = Instant::now();
        let ns = u64::try_from((now - self.0).as_nanos()).unwrap_or(u64::MAX);
        self.0 = now;
        ns
    }
}

/// Runs one trial of `scenario` on `engine`'s compiled configuration,
/// timing each layer into `totals`. Mirrors `TrialEngine`'s trial loop
/// step for step; `cache` is the detector's snapshot cache, reused across
/// trials like the engine's scratch.
///
/// # Errors
///
/// The committer's rejection of the configuration, as text.
pub fn run_traced(
    engine: &TrialEngine,
    scenario: &dyn Scenario,
    input: &TrialInput<'_>,
    cache: &mut SnapshotCache,
    totals: &mut LayerTotals,
) -> Result<TracedTrial, String> {
    let cfg = AdaptiveTestConfig {
        seed: input.seed,
        schedule_seed: Some(input.schedule_seed),
        schedule: input.schedule,
        memory_seed: Some(input.memory_seed),
        memory: input.memory,
        irq_seed: Some(input.irq_seed),
        preemption: input.preemption,
        ..engine.config().clone()
    };
    let generator = engine.generator();
    let mut lap = Lap(Instant::now());
    totals.trials += 1;

    let patterns = match input.patterns {
        Some(explicit) => explicit.to_vec(),
        None => {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let opts = if cfg.cyclic_generation {
                GenerateOptions::cyclic(cfg.s)
            } else {
                GenerateOptions::sized(cfg.s)
            };
            let generated = generator.generate_batch(&mut rng, cfg.n, opts);
            totals.symbols += generated.iter().map(|p| p.len() as u64).sum::<u64>();
            generated
        }
    };
    totals.generate_ns += lap.split();

    let merged = PatternMerger::new().merge(&patterns, cfg.op);
    totals.merge_ns += lap.split();

    let mut sys = MultiCoreSystem::new(cfg.system.clone());
    let programs = scenario.setup(&mut sys);
    sys.install_preemption(&cfg.preemption, input.irq_seed);
    let mut committer = Committer::new(
        merged,
        generator.regex().alphabet(),
        CommitterConfig {
            response_timeout: cfg.response_timeout,
            programs,
            stack_bytes: cfg.stack_bytes,
            priority_band: 15,
            inter_command_gap: cfg.inter_command_gap,
        },
    )
    .map_err(|e| format!("committer rejected the trial: {e:?}"))?;
    let mut detector = BugDetector::new(cfg.detector);
    let mut scheduler: Option<Box<dyn Scheduler>> = cfg
        .schedule
        .scheduler(cfg.system.slaves, input.schedule_seed);
    let mut memory_model: Option<Box<dyn MemoryModel>> = cfg.memory.model(input.memory_seed);
    cache.reset();
    totals.build_ns += lap.split();

    let fast_forward = engine.fast_forward_enabled();
    let mut bugs: Vec<Bug> = Vec::new();
    let mut cycles = 0u64;
    let mut done_at: Option<u64> = None;
    while cycles < cfg.max_cycles {
        if fast_forward {
            totals.horizon_queries += 1;
            let sys_horizon = sys.quiescent_horizon();
            let model_horizon = memory_model
                .as_deref()
                .map_or(IdleHorizon::Unbounded, MemoryModel::idle_horizon);
            if sys_horizon != IdleHorizon::Unknown && model_horizon != IdleHorizon::Unknown {
                let mut target = (cycles / cfg.check_interval + 1) * cfg.check_interval;
                if let IdleHorizon::Until(h) = sys_horizon {
                    target = target.min(h);
                }
                if let IdleHorizon::Until(h) = model_horizon {
                    target = target.min(h);
                }
                if let Some(event) = committer.next_event_cycle(sys.now()) {
                    target = target.min(event);
                }
                if let Some(done) = done_at {
                    target = target.min(done + cfg.drain_cycles);
                }
                target = target.min(cfg.max_cycles);
                if target > cycles + 1 {
                    let skip = target - cycles - 1;
                    match scheduler.as_deref_mut() {
                        None => sys.fast_forward_idle(skip),
                        Some(sched) => sys.fast_forward_idle_with(skip, sched),
                    }
                    cycles += skip;
                    totals.skipped_cycles += skip;
                    totals.ff_hits += 1;
                }
            }
            totals.ff_ns += lap.split();
        }
        cycles += 1;
        totals.exec_cycles += 1;
        sys.step_explored(scheduler.as_deref_mut(), memory_model.as_deref_mut());
        totals.step_ns += lap.split();
        let status = committer.step(&mut sys);
        totals.committer_ns += lap.split();
        let committer_done = status != CommitterStatus::Running;
        if committer_done && done_at.is_none() {
            done_at = Some(cycles);
        }
        if cycles.is_multiple_of(cfg.check_interval) {
            totals.loop_ns += lap.split();
            bugs.extend(detector.observe_cached(&sys, Some(&committer), committer_done, cache));
            totals.observes += 1;
            totals.detector_ns += lap.split();
        }
        let fatal = bugs.iter().any(|b| {
            matches!(
                b.kind,
                BugKind::SlaveCrash { .. }
                    | BugKind::CommandTimeout { .. }
                    | BugKind::Deadlock { .. }
                    | BugKind::CrossCoreDeadlock { .. }
                    | BugKind::Livelock { .. }
            )
        });
        if fatal {
            totals.loop_ns += lap.split();
            break;
        }
        if let Some(done) = done_at {
            let quiescent = sys.kernel_of(0).live_task_count() == 0;
            if quiescent || cycles - done >= cfg.drain_cycles {
                totals.loop_ns += lap.split();
                bugs.extend(detector.observe_cached(&sys, Some(&committer), true, cache));
                totals.observes += 1;
                totals.detector_ns += lap.split();
                break;
            }
        }
        totals.loop_ns += lap.split();
    }

    std::hint::black_box(coverage::measure(
        &patterns,
        generator.dfa(),
        generator.regex().alphabet(),
    ));
    totals.coverage_ns += lap.split();

    totals.commands += committer.commands_issued();
    totals.bugs += bugs.len() as u64;
    let planned = cfg
        .preemption
        .interrupts
        .map_or(0, |irq| irq.active_injections());
    let now = sys.now();
    let preemption = PreemptionActivity {
        quantum_preemptions: sys.total_preemptions(),
        interrupts_fired: planned.saturating_sub(sys.pending_injections()),
        max_clock_lead: (0..cfg.system.slaves)
            .map(|slave| {
                sys.local_time_of(slave, now)
                    .get()
                    .saturating_sub(now.get())
            })
            .max()
            .unwrap_or(0),
    };
    Ok(TracedTrial {
        cycles,
        commands_issued: committer.commands_issued(),
        error_replies: committer.error_replies(),
        bugs,
        patterns,
        preemption,
    })
}
