//! The single-trial execution engine underlying [`AdaptiveTest`] and the
//! campaign layer.
//!
//! Compiling the regular expression and attaching the probability
//! distribution (`ConvertToNFA` + `ConstructPFA` of Algorithm 2) is the
//! expensive, trial-independent part of a run. A [`TrialEngine`] performs
//! it **once**; [`TrialEngine::run_trial`] then executes arbitrarily many
//! seeded trials against the compiled PFA — which is what lets a campaign
//! fan hundreds of trials across worker threads without recompiling per
//! trial. [`AdaptiveTest::run`] is a thin wrapper: compile, run one
//! trial.
//!
//! The engine's cycle loop is public as [`CycleLoop`]: the baseline
//! testers and Figure 1's scripted runs step their systems in the same
//! loop, each with its own [`Driver`] in the committer's place.
//!
//! [`AdaptiveTest`]: crate::AdaptiveTest
//! [`AdaptiveTest::run`]: crate::AdaptiveTest::run

use ptest_automata::{GenerateOptions, Regex};
use ptest_master::{
    IdleHorizon, MasterEvent, MemoryModel, MemoryModelSpec, MultiCoreSystem, Scheduler,
    SnapshotCache, SystemConfig,
};
use ptest_pcore::{KernelEvent, ProgramId};
use ptest_soc::{Cycles, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adaptive::{AdaptiveTestConfig, AdaptiveTestError, TestReport};
use crate::committer::{Committer, CommitterConfig, CommitterStatus};
use crate::coverage;
use crate::detector::{Bug, BugDetector, DetectorConfig};
use crate::generator::PatternGenerator;
use crate::merger::PatternMerger;
use crate::pattern::TestPattern;
use crate::scenario::Scenario;

/// The event timeline of one trial, captured when a caller requests
/// tracing via [`TrialOverrides::capture_trace`]: every kernel's trace
/// ring plus the master system's, as left at end of trial. A captured
/// trial builds its rings at the configured capacities
/// ([`SystemConfig::trace_capacity`] and its kernel's): each ring holds
/// its last that-many events, and `dropped` counts the rest. A trial
/// that captures nothing keeps only the detector's trace tail
/// ([`uncaptured_system`]). Capturing also enables the kernels' access
/// tracing
/// ([`trace_accesses`](ptest_pcore::KernelConfig::trace_accesses)), so
/// shared-variable reads/writes, fences and semaphore hand-offs appear in
/// the timeline — the raw material of a root-cause interleaving report.
///
/// The events are the typed values the rings recorded
/// ([`KernelEvent`], [`MasterEvent`]); each renders its timeline line
/// (`[at core kind] detail`) through `Display`, so a consumer renders
/// only the events it shows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrialTrace {
    /// Per-slave kernel trace events, in per-kernel chronological order.
    pub kernels: Vec<Vec<TraceEvent<KernelEvent>>>,
    /// Master-side system trace events (commands, threads, injected
    /// interrupts, semaphore links).
    pub master: Vec<TraceEvent<MasterEvent>>,
    /// Per-slave count of the events each kernel's ring has dropped
    /// ([`TraceBuffer::dropped`](ptest_soc::TraceBuffer::dropped)).
    pub dropped: Vec<u64>,
}

/// Per-trial overrides of a compiled [`TrialEngine`]'s configuration,
/// taken by [`TrialEngine::run_scenario_trial_overridden`]. Each field
/// defaults to "no override".
#[derive(Default)]
pub struct TrialOverrides<'a> {
    /// Replaces the compiled [`ScheduleSpec`](ptest_master::ScheduleSpec)
    /// for this trial (campaign budget rotation, schedule shrink).
    pub schedule: Option<ptest_master::ScheduleSpec>,
    /// Replaces the compiled [`MemoryModelSpec`] for this trial.
    pub memory: Option<MemoryModelSpec>,
    /// Replaces the compiled
    /// [`PreemptionSpec`](ptest_master::PreemptionSpec) for this trial
    /// (campaign preemption rotation, interrupt-mask shrink).
    pub preemption: Option<ptest_master::PreemptionSpec>,
    /// Replaces the trial's interrupt/preemption seed (campaign irq
    /// stream, quadruple replay). `None` falls back to the compiled
    /// configuration's [`irq_seed`](crate::AdaptiveTestConfig::irq_seed)
    /// override, then to derivation from the pattern seed.
    pub irq_seed: Option<u64>,
    /// Replaces the generated patterns: the trial skips PFA generation
    /// and runs exactly these patterns through the same merge → commit →
    /// detect path. The shrink loop of reproducer minimization feeds
    /// candidate pattern sets through here, so every candidate is a full
    /// deterministic trial.
    pub patterns: Option<&'a [TestPattern]>,
    /// Captures the trial's event timeline (and enables kernel access
    /// tracing for this trial) into the given buffer. The trial builds
    /// its rings at the configured capacities; without a capture it
    /// builds them only as long as the detector's trace tail
    /// ([`uncaptured_system`]).
    pub capture_trace: Option<&'a mut TrialTrace>,
}

/// A compiled adaptive-test configuration: the PFA pipeline built once,
/// reusable across any number of seeded trials (and across threads — the
/// engine is `Send + Sync`).
#[derive(Debug, Clone)]
pub struct TrialEngine {
    config: AdaptiveTestConfig,
    /// What an uncaptured trial builds ([`uncaptured_system`]).
    uncaptured_system: SystemConfig,
    generator: PatternGenerator,
    fast_forward: bool,
}

/// Reusable working memory for
/// [`TrialEngine::run_scenario_trial_overridden`]. A campaign
/// worker keeps one of these for its whole lifetime, so the buffers the
/// trial hot loop churns through — the epoch-keyed per-kernel snapshot
/// cache with its task lists and wait edges — reach a steady state after
/// the first trial and stop allocating. The cache's epoch bookkeeping is
/// reset at the start of every trial, so scratch reuse never leaks state
/// between trials.
#[derive(Debug, Default)]
pub struct TrialScratch {
    cache: SnapshotCache,
}

impl TrialScratch {
    /// An empty scratch; buffers grow to steady state on first use.
    #[must_use]
    pub fn new() -> TrialScratch {
        TrialScratch::default()
    }
}

/// The default schedule, memory and interrupt seeds of a trial, each
/// derived from its pattern seed on its own decorrelated stream: a plain
/// `(config, seed)` run stays a one-seed reproduction story. Used when
/// the configuration overrides none of them. Re-exported from
/// [`ptest_soc::seed`].
pub use ptest_soc::seed::{derived_irq_seed, derived_memory_seed, derived_schedule_seed};

impl TrialEngine {
    /// Compiles `config`'s regular expression and probability
    /// distribution into a reusable engine.
    ///
    /// # Errors
    ///
    /// [`AdaptiveTestError::System`] if the system configuration cannot
    /// be built, else [`AdaptiveTestError`] if the regex or distribution
    /// is invalid.
    pub fn new(config: AdaptiveTestConfig) -> Result<TrialEngine, AdaptiveTestError> {
        config
            .system
            .validate()
            .map_err(AdaptiveTestError::System)?;
        let regex = Regex::parse(&config.regex_source).map_err(AdaptiveTestError::Regex)?;
        let generator = PatternGenerator::new(regex, &config.pd).map_err(AdaptiveTestError::Pfa)?;
        Ok(TrialEngine {
            uncaptured_system: uncaptured_system(&config.system, &config.detector),
            config,
            generator,
            fast_forward: true,
        })
    }

    /// Enables or disables fast-forward for trials run by this engine:
    /// windows in which every kernel is idle, spins in a steady loop
    /// that keeps its core, or polls and yields in a steady rotation
    /// ([`Kernel::fast_forward`](ptest_pcore::Kernel::fast_forward)) are
    /// applied in closed form, across the detector's observe points up
    /// to its next deadline ([`CycleLoop`]). Fast-forward is a pure
    /// latency optimisation — reports are byte-identical either way (the
    /// equivalence suite pins this) — so the switch exists for
    /// validation and debugging only, and disabled it is the reference.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Whether fast-forward over idle windows, steady loops and yielding
    /// rotations is active for this engine.
    #[must_use]
    pub fn fast_forward_enabled(&self) -> bool {
        self.fast_forward
    }

    /// The compiled pattern generator (PFA + legality oracle).
    #[must_use]
    pub fn generator(&self) -> &PatternGenerator {
        &self.generator
    }

    /// The configuration this engine was compiled from, as passed: a
    /// trial that captures no trace builds shorter rings than its
    /// `system` names ([`uncaptured_system`]).
    #[must_use]
    pub fn config(&self) -> &AdaptiveTestConfig {
        &self.config
    }

    /// Runs one seeded trial: generate, merge, fork the detector, commit
    /// (Algorithm 1 lines 1–10). `seed` overrides the configured seed and
    /// is echoed into the report, so every campaign trial is individually
    /// reproducible via [`AdaptiveTest::reproduce`]. The schedule, memory
    /// and interrupt seeds are the configuration's overrides, else
    /// derived from `seed`.
    ///
    /// [`AdaptiveTest::reproduce`]: crate::AdaptiveTest::reproduce
    ///
    /// # Errors
    ///
    /// [`AdaptiveTestError::Committer`] if the committer rejects the
    /// configuration (no programs, too many patterns, …).
    pub fn run_trial(
        &self,
        seed: u64,
        setup: impl FnOnce(&mut MultiCoreSystem) -> Vec<ProgramId>,
    ) -> Result<TestReport, AdaptiveTestError> {
        let (schedule_seed, memory_seed, _) = self.default_seeds(seed);
        self.run_trial_inner(
            seed,
            schedule_seed,
            memory_seed,
            TrialOverrides::default(),
            setup,
            &mut TrialScratch::new(),
        )
    }

    /// The general trial entry point: runs one trial of a [`Scenario`]
    /// at an explicit `(pattern seed, schedule seed, memory seed)`
    /// triple under arbitrary [`TrialOverrides`] — the fourth seed
    /// ([`TrialOverrides::irq_seed`]), explicit schedule/memory/preemption
    /// specs (a campaign's rotation), an explicit pattern set (the
    /// minimization shrink loop's candidate trials), and optional
    /// full-trace capture (the root-cause replay). `scratch` is
    /// caller-owned working memory: a campaign worker keeps one for its
    /// whole lifetime, and reuse never leaks state between trials.
    ///
    /// # Errors
    ///
    /// As for [`TrialEngine::run_trial`].
    pub fn run_scenario_trial_overridden(
        &self,
        scenario: &dyn Scenario,
        seed: u64,
        schedule_seed: u64,
        memory_seed: u64,
        overrides: TrialOverrides<'_>,
        scratch: &mut TrialScratch,
    ) -> Result<TestReport, AdaptiveTestError> {
        self.run_trial_inner(
            seed,
            schedule_seed,
            memory_seed,
            overrides,
            |sys| scenario.setup(sys),
            scratch,
        )
    }

    /// The `(schedule, memory, irq)` seeds of a trial at pattern seed
    /// `seed` whose caller names none: each is the configuration's
    /// override, else derived from `seed` on its own stream.
    fn default_seeds(&self, seed: u64) -> (u64, u64, u64) {
        let cfg = &self.config;
        (
            cfg.schedule_seed
                .unwrap_or_else(|| derived_schedule_seed(seed)),
            cfg.memory_seed.unwrap_or_else(|| derived_memory_seed(seed)),
            cfg.irq_seed.unwrap_or_else(|| derived_irq_seed(seed)),
        )
    }

    /// The shared trial core behind both entry points. `overrides`
    /// replaces the compiled configuration's specs, interrupt seed or
    /// generated patterns for this trial only — a campaign's rotation
    /// varies the specs per trial without recompiling the PFA pipeline,
    /// and the minimization shrink loop replaces patterns while keeping
    /// everything else replayable.
    fn run_trial_inner(
        &self,
        seed: u64,
        schedule_seed: u64,
        memory_seed: u64,
        overrides: TrialOverrides<'_>,
        setup: impl FnOnce(&mut MultiCoreSystem) -> Vec<ProgramId>,
        scratch: &mut TrialScratch,
    ) -> Result<TestReport, AdaptiveTestError> {
        let TrialOverrides {
            schedule,
            memory,
            preemption,
            irq_seed,
            patterns: pattern_override,
            capture_trace,
        } = overrides;
        let irq_seed = irq_seed.unwrap_or_else(|| self.default_seeds(seed).2);
        let mut cfg = AdaptiveTestConfig {
            seed,
            schedule_seed: Some(schedule_seed),
            schedule: schedule.unwrap_or(self.config.schedule),
            memory_seed: Some(memory_seed),
            memory: memory.unwrap_or(self.config.memory),
            irq_seed: Some(irq_seed),
            preemption: preemption.unwrap_or(self.config.preemption),
            ..self.config.clone()
        };
        let system = if capture_trace.is_some() {
            cfg.system.kernel.trace_accesses = true;
            cfg.system.clone()
        } else {
            self.uncaptured_system.clone()
        };

        // --- Algorithm 1, lines 1-3: generate T[1..n].
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let opts = if cfg.cyclic_generation {
            GenerateOptions::cyclic(cfg.s)
        } else {
            GenerateOptions::sized(cfg.s)
        };
        let patterns = match pattern_override {
            Some(explicit) => explicit.to_vec(),
            None => self.generator.generate_batch(&mut rng, cfg.n, opts),
        };

        // --- Line 4: merge.
        let merged = PatternMerger::new().merge(&patterns, cfg.op);

        // --- System + committer + detector (lines 5-10).
        let mut sys = MultiCoreSystem::new(system);
        let programs = setup(&mut sys);
        // After setup, so scenarios can install their ISR handlers
        // first; the inert default installs nothing (the golden-fixture
        // fast path).
        sys.install_preemption(&cfg.preemption, irq_seed);
        let mut committer = Committer::new(
            merged,
            self.generator.regex().alphabet(),
            CommitterConfig {
                response_timeout: cfg.response_timeout,
                programs,
                stack_bytes: cfg.stack_bytes,
                priority_band: 15,
                inter_command_gap: cfg.inter_command_gap,
            },
        )
        .map_err(AdaptiveTestError::Committer)?;
        // Lock-step compiles to no scheduler at all: the trial drives the
        // plain `step()` path, bit-identical to the pre-scheduler engine
        // (the golden fixtures pin this).
        let mut scheduler: Option<Box<dyn Scheduler>> =
            cfg.schedule.scheduler(cfg.system.slaves, schedule_seed);
        // Sequential consistency compiles to no model at all: the trial
        // drives the `None` arms below, bit-identical to the pre-memory
        // engine (the golden fixtures pin this).
        let mut memory_model: Option<Box<dyn MemoryModel>> = cfg.memory.model(memory_seed);

        let cycle_loop = CycleLoop {
            detector: cfg.detector,
            check_interval: cfg.check_interval,
            max_cycles: cfg.max_cycles,
            drain_cycles: cfg.drain_cycles,
            fast_forward: self.fast_forward,
        };
        let (bugs, cycles) = cycle_loop.run(
            &mut sys,
            &mut committer,
            scheduler.as_deref_mut(),
            memory_model.as_deref_mut(),
            &mut scratch.cache,
        );

        if let Some(trace) = capture_trace {
            trace.kernels = (0..cfg.system.slaves)
                .map(|i| sys.kernel_of(i).trace().iter().copied().collect())
                .collect();
            trace.master = sys.trace().iter().cloned().collect();
            trace.dropped = (0..cfg.system.slaves)
                .map(|i| sys.kernel_of(i).trace().dropped())
                .collect();
        }

        let coverage = coverage::measure(
            &patterns,
            self.generator.dfa(),
            self.generator.regex().alphabet(),
        );
        let commands_issued = committer.commands_issued();
        let error_replies = committer.error_replies();
        let committer_status = committer.status();
        let (merged, exec_records) = committer.into_parts();
        Ok(TestReport {
            bugs,
            commands_issued,
            error_replies,
            cycles,
            committer_status,
            completed: committer_status == CommitterStatus::Done,
            coverage,
            exec_records,
            patterns,
            merged,
            schedule_seed,
            memory_seed,
            irq_seed,
            config: cfg,
        })
    }
}

/// The system a trial that captures no trace builds from `system`. Such
/// a trial reads one trace: the failing kernel's last
/// [`DetectorConfig::trace_tail`] events ([`Bug::trace_tail`]). So each
/// kernel ring keeps that many (at least 1, at most
/// `system.kernel.trace_capacity`), and the master ring, which no
/// uncaptured trial reads, keeps 1. Every ring evicts oldest first, so
/// the tail is the one a full ring would report. A captured trial
/// ([`TrialOverrides::capture_trace`]) builds `system` as configured.
#[must_use]
pub fn uncaptured_system(system: &SystemConfig, detector: &DetectorConfig) -> SystemConfig {
    let mut kept = system.clone();
    kept.kernel.trace_capacity = system.kernel.trace_capacity.min(detector.trace_tail.max(1));
    kept.trace_capacity = 1;
    kept
}

/// What the cycle loop drives after each platform cycle: the master side
/// of a tester. [`Committer`] drives a merged pattern, a baseline tester
/// can drive its own command stream, and `()` drives nothing (the system's
/// own tasks and master threads are the whole test).
pub trait Driver {
    /// Drives one cycle before the detector observes it: consume
    /// responses and (the committer) issue or time out commands. Returns
    /// whether the driver is done, which opens the detector's
    /// no-progress rules and starts the drain.
    fn step(&mut self, sys: &mut MultiCoreSystem) -> bool;

    /// Ends a cycle the loop did not stop in, after the observation: a
    /// driver that issues only past the cycle's stop rules (the random
    /// tester) issues here. The default does nothing.
    fn issue(&mut self, _sys: &mut MultiCoreSystem) {}

    /// The first future cycle at which [`Driver::step`] or
    /// [`Driver::issue`] could act without a platform event prompting it
    /// (an issue, a timeout, becoming done), or `None` if only platform
    /// events can. Fast-forward never skips past it, and never skips the
    /// first cycle of a run.
    fn next_event_cycle(&self, now: Cycles) -> Option<u64>;

    /// The committer whose Definition-2 state records go into bug
    /// reports, if the driver has one.
    fn committer(&self) -> Option<&Committer> {
        None
    }
}

impl Driver for Committer {
    fn step(&mut self, sys: &mut MultiCoreSystem) -> bool {
        Committer::step(self, sys) != CommitterStatus::Running
    }

    fn next_event_cycle(&self, now: Cycles) -> Option<u64> {
        Committer::next_event_cycle(self, now)
    }

    fn committer(&self) -> Option<&Committer> {
        Some(self)
    }
}

impl Driver for () {
    fn step(&mut self, _: &mut MultiCoreSystem) -> bool {
        true
    }

    fn next_event_cycle(&self, _: Cycles) -> Option<u64> {
        None
    }
}

/// The cycle loop every tester runs: the trial engine, the baseline
/// testers and Figure 1's scripted runs differ only in their [`Driver`].
/// Each cycle it steps the platform, then the driver, observes on the
/// detector's cadence, and stops at the first fatal bug, once slave 0 is
/// quiescent after the driver is done, after the drain, or at the budget;
/// a cycle it does not stop in ends with [`Driver::issue`].
/// Cycles count from the system's time at the start of [`CycleLoop::run`].
///
/// With fast-forward on, stretches in which the platform is idle or
/// steady are skipped in closed form: the loop asks
/// [`MultiCoreSystem::certify`] for a [`Window`](ptest_master::Window)
/// and hands it to [`MultiCoreSystem::advance`]. Such a window normally
/// ends at the next observe point. Once the driver is done and the
/// platform has been steady for an observe interval, it ends at the
/// observe point of the detector's [deadline](BugDetector::deadline)
/// instead: the first at which starvation, livelock or a command timeout
/// could be reported. That needs every task that moves to retire an op
/// within each interval, which holds when the window's
/// [turn](ptest_master::Window::turn) fits in an interval: for lock-step
/// platforms whose steady rotations turn within one, and for idle ones
/// under any schedule. Every executed observe point is still observed,
/// so reports are the same either way.
#[derive(Debug, Clone, Copy)]
pub struct CycleLoop {
    /// Detector thresholds; the loop runs a fresh detector.
    pub detector: DetectorConfig,
    /// Detector cadence in cycles.
    pub check_interval: u64,
    /// Simulation budget in cycles.
    pub max_cycles: u64,
    /// Cycles to keep running after the driver is done.
    pub drain_cycles: u64,
    /// Whether idle and steady windows are applied in closed form; off
    /// is the reference ([`TrialEngine::set_fast_forward`]).
    pub fast_forward: bool,
}

impl CycleLoop {
    /// Runs `sys` under `driver` until a stop rule fires, returning the
    /// bugs detected and the cycles run. `None` on the scheduler or
    /// memory axis selects that axis's historical fast path.
    pub fn run<D: Driver>(
        &self,
        sys: &mut MultiCoreSystem,
        driver: &mut D,
        mut scheduler: Option<&mut (dyn Scheduler + '_)>,
        mut memory_model: Option<&mut (dyn MemoryModel + '_)>,
        cache: &mut SnapshotCache,
    ) -> (Vec<Bug>, u64) {
        let mut detector = BugDetector::new(self.detector);
        let start = sys.now().get();
        let interval = self.check_interval;
        cache.reset();
        let mut bugs: Vec<Bug> = Vec::new();
        let mut cycles = 0u64;
        let mut done_at: Option<u64> = None;
        // Each kernel's change epoch before the cycle being executed.
        let mut epochs = Vec::with_capacity(sys.slave_count());
        // Whether every kernel whose change epoch moved in the last
        // executed cycle may be steady (in particular, whether the cycle
        // was quiet: no epoch moved at all). The first cycle always
        // executes: a driver may be done from its first step on.
        let mut settled = false;
        // Detector deadlines: whether every cycle executed since the last
        // observation sat inside a certified window, whether
        // every task moving there retires an op within each interval (as
        // checked when the first window after that observation opened),
        // and the observe point of the detector's deadline, if armed.
        let mut certified = false;
        let mut turns_fit = false;
        let mut deadline: Option<u64> = None;
        while cycles < self.max_cycles {
            // --- Idle- and steady-cycle fast-forward. When the system
            // certifies a window (its end is the first future cycle at
            // which a sleeper wakes, a steady window or the schedule's
            // plan ends, or the memory model delivers a store), and that
            // end — capped by the driver's next issue/timeout/completion
            // cycle, the detector's next observation and the
            // drain/end-of-run deadlines — is more than one step away, the
            // gap is advanced arithmetically: clocks jump, idle tick
            // counters batch-update, steady kernels advance whole
            // rotations, and the schedule stream is consumed in closed
            // form. Cycle `target` itself then executes normally, so every
            // observable transition and every detector observation lands
            // on exactly the cycle it would under cycle-by-cycle stepping
            // (the equivalence suite and the golden fixtures pin the
            // reports byte-identical).
            //
            // The detector's next observation is the next observe point,
            // or, once the detector has named a deadline (see below), the
            // observe point of that deadline: the observations in between
            // would report nothing and change nothing the deadline's
            // observation does not overwrite. A window that ends before
            // its deadline for any other reason stops at the last observe
            // point before that end instead, so that every observation
            // that does run sees the detector as stepping leaves it.
            //
            // A cycle in which some kernel did work other than turn its
            // steady rotation is almost always followed by more work, so a
            // window is asked for only after a quiet or steady cycle, and
            // only when the observation, the driver's next event and the
            // deadlines leave room for one: certifying walks steady
            // kernels, which costs more than those caps. Not asking is
            // always exact — it just steps the cycle — and costs at most
            // one executed cycle per window.
            let mut horizon = None;
            if self.fast_forward && settled {
                let next_observe = (cycles / interval + 1) * interval;
                let armed = deadline
                    .filter(|_| certified)
                    .map(|at| at.max(next_observe));
                let stop = |end: u64| match armed {
                    Some(at) if at < end => at,
                    Some(_) => (end.saturating_sub(1) / interval * interval)
                        .max(next_observe)
                        .min(end),
                    None => next_observe.min(end),
                };
                let mut end = self.max_cycles;
                if let Some(event) = driver.next_event_cycle(sys.now()) {
                    end = end.min(event - start);
                }
                if let Some(done) = done_at {
                    end = end.min(done + self.drain_cycles);
                }
                if stop(end) > cycles + 1 {
                    let window = sys.certify(scheduler.as_deref(), memory_model.as_deref());
                    horizon = match window.end() {
                        IdleHorizon::Unknown => None,
                        IdleHorizon::Until(at) => Some(at - start),
                        IdleHorizon::Unbounded => Some(u64::MAX),
                    };
                    if let Some(certain) = horizon {
                        // The window's turn comes from the rotations the
                        // next observation's split will come from.
                        if cycles.is_multiple_of(interval)
                            && done_at.is_some()
                            && certain > cycles + 1
                        {
                            turns_fit = window.turn().is_some_and(|turn| turn <= interval);
                        }
                        let target = stop(end.min(certain));
                        if target > cycles + 1 {
                            let skip = target - cycles - 1;
                            sys.advance(&window, skip, scheduler.as_deref_mut());
                            cycles += skip;
                        }
                    }
                }
            }
            cycles += 1;
            certified &= horizon.is_some_and(|certain| cycles < certain);
            epochs.clear();
            epochs.extend((0..sys.slave_count()).map(|i| sys.kernel_of(i).change_epoch()));
            // One entry point for every axis combination: `None` on an
            // axis selects that axis's historical fast path inside the
            // system, so unexplored trials stay byte-identical.
            sys.step_explored(scheduler.as_deref_mut(), memory_model.as_deref_mut());
            settled = epochs.iter().enumerate().all(|(i, &epoch)| {
                let kernel = sys.kernel_of(i);
                kernel.change_epoch() == epoch || kernel.in_steady_loop()
            });
            let driver_done = driver.step(sys);
            if driver_done && done_at.is_none() {
                done_at = Some(cycles);
            }
            if cycles.is_multiple_of(interval) {
                let committer = driver.committer();
                bugs.extend(detector.observe_cached(sys, committer, driver_done, cache));
                // Arm the detector's deadline once its split into moving
                // and frozen tasks is the platform's steady one: every
                // cycle since the last observation, at least an interval
                // ago, ran inside certified windows, where each task that
                // moves retires an op within every interval.
                deadline = None;
                if certified && turns_fit {
                    deadline = match detector.deadline() {
                        IdleHorizon::Unknown => None,
                        IdleHorizon::Until(at) => Some(
                            at.saturating_sub(start)
                                .div_ceil(interval)
                                .saturating_mul(interval),
                        ),
                        IdleHorizon::Unbounded => Some(u64::MAX),
                    };
                }
                turns_fit = false;
                certified = true;
            }
            // Stop once a crash-class bug is in hand, or after the drain
            // period following completion.
            if bugs.iter().any(|b| b.kind.is_fatal()) {
                break;
            }
            if let Some(done) = done_at {
                // Slave 0's quiescence, exactly as `snapshot().live_tasks()`
                // historically measured it, but without building a snapshot
                // every drain cycle.
                let quiescent = sys.kernel_of(0).live_task_count() == 0;
                if quiescent || cycles - done >= self.drain_cycles {
                    // Final sweep before ending.
                    bugs.extend(detector.observe_cached(sys, driver.committer(), true, cache));
                    break;
                }
            }
            driver.issue(sys);
        }
        (bugs, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveTest;
    use ptest_pcore::{Op, Program};

    fn quick_setup(sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        vec![sys
            .kernel_of_mut(0)
            .register_program(Program::new(vec![Op::Compute(20), Op::Exit]).unwrap())]
    }

    /// An engine for small two-pattern trials under `cfg`'s specs.
    fn engine(cfg: AdaptiveTestConfig) -> TrialEngine {
        TrialEngine::new(AdaptiveTestConfig { n: 2, s: 4, ..cfg }).unwrap()
    }

    /// Runs `setup` under `engine` at an explicit `(seed, schedule seed,
    /// memory seed)` triple through the general entry point.
    fn run_at(
        engine: &TrialEngine,
        setup: fn(&mut MultiCoreSystem) -> Vec<ProgramId>,
        (seed, schedule_seed, memory_seed): (u64, u64, u64),
        scratch: &mut TrialScratch,
    ) -> TestReport {
        let scenario = crate::FnScenario::new("probe", engine.config().clone(), setup);
        engine
            .run_scenario_trial_overridden(
                &scenario,
                seed,
                schedule_seed,
                memory_seed,
                TrialOverrides::default(),
                scratch,
            )
            .unwrap()
    }

    /// Asserts that two trials agree on everything a report exposes, down
    /// to the execution records.
    fn assert_same_run(a: &TestReport, b: &TestReport) {
        assert_eq!((a.cycles, a.commands_issued), (b.cycles, b.commands_issued));
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.machine_summary(), b.machine_summary());
        assert_eq!(
            format!("{:?}", a.exec_records),
            format!("{:?}", b.exec_records),
            "the full execution trace replays from the seeds"
        );
    }

    /// Runs `setup` twice at `seeds` under `cfg` and asserts the trials
    /// are identical.
    fn assert_replays(
        cfg: AdaptiveTestConfig,
        setup: fn(&mut MultiCoreSystem) -> Vec<ProgramId>,
        seeds: (u64, u64, u64),
    ) -> TestReport {
        let engine = engine(cfg);
        let mut scratch = TrialScratch::new();
        let a = run_at(&engine, setup, seeds, &mut scratch);
        assert_same_run(&a, &run_at(&engine, setup, seeds, &mut scratch));
        a
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TrialEngine>();
    }

    #[test]
    fn engine_trial_matches_adaptive_test_run() {
        let cfg = AdaptiveTestConfig {
            n: 3,
            s: 6,
            seed: 42,
            ..AdaptiveTestConfig::default()
        };
        let via_engine = TrialEngine::new(cfg.clone())
            .unwrap()
            .run_trial(42, quick_setup)
            .unwrap();
        let via_run = AdaptiveTest::run(cfg, quick_setup).unwrap();
        assert_same_run(&via_engine, &via_run);
    }

    #[test]
    fn lock_step_records_but_ignores_the_schedule_seed() {
        let engine = engine(AdaptiveTestConfig::default());
        let mut scratch = TrialScratch::new();
        let a = run_at(&engine, quick_setup, (5, 111, 0), &mut scratch);
        let b = run_at(&engine, quick_setup, (5, 222, 0), &mut scratch);
        assert_eq!((a.schedule_seed, a.config.schedule_seed), (111, Some(111)));
        assert_eq!(a.cycles, b.cycles, "lock-step ignores the schedule seed");
        assert_eq!(a.patterns, b.patterns);
        // The implicit path derives a stable schedule seed from the trial
        // seed.
        let c = engine.run_trial(5, quick_setup).unwrap();
        assert_eq!(c.schedule_seed, crate::derived_schedule_seed(5));
    }

    #[test]
    fn schedule_seed_pair_replays_byte_identically() {
        let cfg = AdaptiveTestConfig {
            schedule: ptest_master::ScheduleSpec::random_priority(),
            ..AdaptiveTestConfig::default()
        };
        assert_replays(cfg, quick_setup, (9, 1234, 0));
    }

    #[test]
    fn seq_cst_records_but_ignores_the_memory_seed() {
        let engine = engine(AdaptiveTestConfig::default());
        let mut scratch = TrialScratch::new();
        let a = run_at(&engine, quick_setup, (5, 111, 333), &mut scratch);
        let b = run_at(&engine, quick_setup, (5, 111, 444), &mut scratch);
        assert_eq!((a.memory_seed, a.config.memory_seed), (333, Some(333)));
        assert_eq!(a.cycles, b.cycles, "seq-cst ignores the memory seed");
        assert_eq!(a.patterns, b.patterns);
        // The implicit path derives a stable memory seed from the trial
        // seed, on a stream decorrelated from the schedule stream.
        let c = engine.run_trial(5, quick_setup).unwrap();
        assert_eq!(c.memory_seed, crate::derived_memory_seed(5));
        assert_ne!(c.memory_seed, crate::derived_schedule_seed(5));
    }

    #[test]
    fn seed_triple_replays_byte_identically_under_a_store_buffer() {
        let cfg = AdaptiveTestConfig {
            schedule: ptest_master::ScheduleSpec::random_priority(),
            memory: MemoryModelSpec::store_buffer(),
            ..AdaptiveTestConfig::default()
        };
        assert_eq!(
            assert_replays(cfg, quick_setup, (9, 1234, 77)).memory_seed,
            77
        );
    }

    /// Like [`quick_setup`], but with an ISR handler installed on slave 0
    /// and a sleep in the task body so planned injections have a handler
    /// to run and fast-forward has idle windows to skip.
    fn preemptive_setup(sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        use ptest_pcore::VarId;
        let isr_body = Program::new(vec![
            Op::Compute(7),
            Op::WriteVar {
                var: VarId(9),
                value: 1,
            },
            Op::Exit,
        ])
        .unwrap();
        for slave in 0..sys.slave_count() {
            let isr = sys.kernel_of_mut(slave).register_program(isr_body.clone());
            sys.kernel_of_mut(slave).set_isr_program(isr);
        }
        vec![sys.kernel_of_mut(0).register_program(
            Program::new(vec![
                Op::Compute(10),
                Op::SleepFor(25),
                Op::Compute(10),
                Op::Exit,
            ])
            .unwrap(),
        )]
    }

    fn preemptive_spec() -> ptest_master::PreemptionSpec {
        use ptest_master::{ClockSkewConfig, InterruptConfig, PreemptionSpec, QuantumConfig};
        PreemptionSpec {
            quantum: Some(QuantumConfig { cycles: 4 }),
            clock_skew: Some(ClockSkewConfig { max_rate: 64 }),
            interrupts: Some(InterruptConfig {
                count: 8,
                horizon: 300,
                ..InterruptConfig::default()
            }),
        }
    }

    fn preemptive_config() -> AdaptiveTestConfig {
        AdaptiveTestConfig {
            schedule: ptest_master::ScheduleSpec::random_priority(),
            preemption: preemptive_spec(),
            ..AdaptiveTestConfig::default()
        }
    }

    #[test]
    fn irq_seed_is_derived_recorded_and_decorrelated() {
        let a = engine(AdaptiveTestConfig::default())
            .run_trial(5, quick_setup)
            .unwrap();
        let derived = crate::derived_irq_seed(5);
        assert_eq!((a.irq_seed, a.config.irq_seed), (derived, Some(derived)));
        // The irq stream is decorrelated from the other derived streams.
        assert_ne!(derived, crate::derived_schedule_seed(5));
        assert_ne!(derived, crate::derived_memory_seed(5));
    }

    #[test]
    fn seed_quadruple_replays_byte_identically_under_preemption() {
        let a = assert_replays(preemptive_config(), preemptive_setup, (9, 1234, 77));
        // The spec is live: the captured timeline shows planned
        // injections firing (master-side command records alone can't —
        // service replies are timed by the endpoint, not the task CPU).
        let engine = engine(preemptive_config());
        let scenario = crate::FnScenario::new("probe", engine.config().clone(), preemptive_setup);
        let mut trace = TrialTrace::default();
        let overrides = TrialOverrides {
            capture_trace: Some(&mut trace),
            ..TrialOverrides::default()
        };
        let c = engine
            .run_scenario_trial_overridden(
                &scenario,
                9,
                1234,
                77,
                overrides,
                &mut TrialScratch::new(),
            )
            .unwrap();
        assert_eq!(c.cycles, a.cycles, "trace capture does not perturb the run");
        let injected = trace
            .master
            .iter()
            .filter(|e| matches!(e.event, MasterEvent::IrqInject { .. }));
        assert!(
            injected.count() > 0,
            "planned injections fire during the trial"
        );
    }

    #[test]
    fn fast_forward_is_invisible_under_preemption() {
        let mut fast = engine(preemptive_config());
        fast.set_fast_forward(true);
        let mut slow = engine(preemptive_config());
        slow.set_fast_forward(false);
        let mut scratch = TrialScratch::new();
        let a = run_at(&fast, preemptive_setup, (9, 1234, 77), &mut scratch);
        let b = run_at(&slow, preemptive_setup, (9, 1234, 77), &mut scratch);
        // Idle fast-forward never skips a quantum expiry or an injection.
        assert_same_run(&a, &b);
    }

    #[test]
    fn one_engine_serves_many_seeds() {
        let engine = engine(AdaptiveTestConfig::default());
        let a = engine.run_trial(1, quick_setup).unwrap();
        let b = engine.run_trial(2, quick_setup).unwrap();
        let a2 = engine.run_trial(1, quick_setup).unwrap();
        assert_ne!(a.patterns, b.patterns, "different seeds, different runs");
        assert_eq!(a.patterns, a2.patterns, "same seed, same run");
        assert_eq!(a.config.seed, 1, "trial seed is echoed for reproduction");
    }

    #[test]
    fn captured_trials_keep_the_configured_rings() {
        let mut cfg = AdaptiveTestConfig::default();
        cfg.system.kernel.trace_capacity = 8;
        cfg.detector.trace_tail = 3;
        let uncaptured = uncaptured_system(&cfg.system, &cfg.detector);
        assert_eq!(
            (uncaptured.kernel.trace_capacity, uncaptured.trace_capacity),
            (3, 1)
        );
        let engine = engine(cfg);
        let scenario = crate::FnScenario::new("probe", engine.config().clone(), quick_setup);
        let mut trace = TrialTrace::default();
        let overrides = TrialOverrides {
            capture_trace: Some(&mut trace),
            ..TrialOverrides::default()
        };
        engine
            .run_scenario_trial_overridden(&scenario, 1, 1, 1, overrides, &mut TrialScratch::new())
            .unwrap();
        assert!(trace.dropped[0] > 0, "the kernel recorded more than 8");
        assert_eq!(trace.kernels[0].len(), 8);
        assert!(
            trace.master.len() > 1,
            "{} master events",
            trace.master.len()
        );
        // The engine reports the configuration as passed.
        assert_eq!(engine.config().system.kernel.trace_capacity, 8);
    }
}
