//! A ConTest-style random tester.
//!
//! ConTest "debugs multi-threaded programs by randomly interleaving the
//! execution of threads" (paper §I). Lifted to pTest's command level,
//! the equivalent baseline issues *uniformly random* service commands at
//! random targets, with no PFA to keep service orders legal and no
//! merge discipline. It finds concurrency bugs eventually, but burns a
//! large share of its budget on illegal orders the slave rejects — the
//! comparison that motivates pTest's "rational order" patterns.

use ptest_core::{
    uncaptured_system, Bug, BugKind, CommitterError, CycleLoop, DetectorConfig, Driver,
    PriorityBands,
};
use ptest_master::{MultiCoreSystem, SnapshotCache, SystemConfig};
use ptest_pcore::{ProgramId, Service, SvcError, SvcReply, SvcRequest, TaskId};
use ptest_soc::Cycles;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Priorities per worker band, as the committer's default band.
const BAND: u8 = 15;

/// Cycles the session keeps running once the command budget is spent and
/// the last reply is in.
const DRAIN_CYCLES: u64 = 60_000;

/// Configuration of the random tester.
#[derive(Debug, Clone)]
pub struct RandomTesterConfig {
    /// Commands to issue before giving up.
    pub command_budget: u64,
    /// Number of "virtual threads" (priority bands / target slots), at
    /// most 17 like the committer's patterns.
    pub workers: usize,
    /// RNG seed.
    pub seed: u64,
    /// Master-side pacing between commands.
    pub inter_command_gap: u64,
    /// Detector thresholds.
    pub detector: DetectorConfig,
    /// Detector cadence.
    pub check_interval: u64,
    /// Simulation budget.
    pub max_cycles: u64,
    /// System configuration.
    pub system: SystemConfig,
    /// Stack size for created tasks.
    pub stack_bytes: Option<u32>,
}

impl Default for RandomTesterConfig {
    fn default() -> RandomTesterConfig {
        RandomTesterConfig {
            command_budget: 200,
            workers: 3,
            seed: 1,
            inter_command_gap: 30,
            detector: DetectorConfig::default(),
            check_interval: 25,
            max_cycles: 2_000_000,
            system: SystemConfig::default(),
            stack_bytes: None,
        }
    }
}

/// Outcome of a random-tester session.
#[derive(Debug, Default)]
pub struct RandomTestReport {
    /// Bugs detected.
    pub bugs: Vec<Bug>,
    /// Commands issued.
    pub commands_issued: u64,
    /// Commands the slave rejected (illegal orders, dead targets, …).
    pub error_replies: u64,
    /// Rejections specifically due to illegal service orders (suspend
    /// twice, resume a running task, duplicate priorities) — the class
    /// pTest's PFA rules out by construction.
    pub ordering_errors: u64,
    /// Cycles consumed.
    pub cycles: u64,
}

impl RandomTestReport {
    /// Whether a bug matching the predicate was found.
    #[must_use]
    pub fn found<F: Fn(&BugKind) -> bool>(&self, pred: F) -> bool {
        self.bugs.iter().any(|b| pred(&b.kind))
    }

    /// Fraction of the command budget wasted on rejected commands.
    #[must_use]
    pub fn waste_ratio(&self) -> f64 {
        if self.commands_issued == 0 {
            return 0.0;
        }
        self.error_replies as f64 / self.commands_issued as f64
    }
}

/// The ConTest-style random tester.
#[derive(Debug)]
pub struct RandomTester {
    cfg: RandomTesterConfig,
}

impl RandomTester {
    /// Creates a tester.
    #[must_use]
    pub fn new(cfg: RandomTesterConfig) -> RandomTester {
        RandomTester { cfg }
    }

    /// Runs the session against a [`Scenario`]'s setup — the entry point
    /// campaigns and comparisons share with the adaptive tester. The
    /// random tester keeps its own command budget and pacing (`cfg`);
    /// only the scenario's slave preparation is reused.
    ///
    /// [`Scenario`]: ptest_core::Scenario
    ///
    /// # Errors
    ///
    /// As for [`RandomTester::run`].
    pub fn run_scenario(
        &self,
        scenario: &dyn ptest_core::Scenario,
    ) -> Result<RandomTestReport, CommitterError> {
        self.run(|sys| scenario.setup(sys))
    }

    /// Runs the session: `setup` registers scenario programs (one per
    /// worker, cycled). The trial engine's cycle loop steps the system;
    /// the random command issuer is its driver.
    ///
    /// # Errors
    ///
    /// As the committer validates its patterns and programs:
    /// [`CommitterError::NoPrograms`] if `setup` registers none,
    /// [`CommitterError::TooManyPatterns`] if the workers' priority bands
    /// overflow the priority space.
    pub fn run(
        &self,
        setup: impl FnOnce(&mut MultiCoreSystem) -> Vec<ProgramId>,
    ) -> Result<RandomTestReport, CommitterError> {
        self.run_with(setup, true)
    }

    /// [`RandomTester::run`] with fast-forward on or off (off is the
    /// reference).
    fn run_with(
        &self,
        setup: impl FnOnce(&mut MultiCoreSystem) -> Vec<ProgramId>,
        fast_forward: bool,
    ) -> Result<RandomTestReport, CommitterError> {
        let cfg = &self.cfg;
        let mut sys = MultiCoreSystem::new(uncaptured_system(&cfg.system, &cfg.detector));
        let programs = setup(&mut sys);
        if programs.is_empty() {
            return Err(CommitterError::NoPrograms);
        }
        let mut driver = RandomDriver {
            bands: PriorityBands::new(cfg.workers, BAND)?,
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            programs,
            created: vec![None; cfg.workers],
            awaiting: false,
            next_issue_at: 0,
            counts: RandomTestReport::default(),
        };
        let cycle_loop = CycleLoop {
            detector: cfg.detector,
            check_interval: cfg.check_interval,
            max_cycles: cfg.max_cycles,
            drain_cycles: DRAIN_CYCLES,
            fast_forward,
        };
        let (bugs, cycles) =
            cycle_loop.run(&mut sys, &mut driver, None, None, &mut SnapshotCache::new());
        Ok(RandomTestReport {
            bugs,
            cycles,
            ..driver.counts
        })
    }
}

/// The random tester's command issuer: one uniformly random command at a
/// time, each awaited, paced by the inter-command gap.
struct RandomDriver<'a> {
    cfg: &'a RandomTesterConfig,
    rng: StdRng,
    programs: Vec<ProgramId>,
    /// Per worker: the task its last create made, if any.
    created: Vec<Option<TaskId>>,
    bands: PriorityBands,
    awaiting: bool,
    next_issue_at: u64,
    /// The command and reply counters; bugs and cycles are the loop's.
    counts: RandomTestReport,
}

impl RandomDriver<'_> {
    /// Whether the budget is spent and every reply is in (with no workers
    /// there is nothing to issue at all).
    fn done(&self) -> bool {
        let budget_spent = self.counts.commands_issued >= self.cfg.command_budget;
        !self.awaiting && (budget_spent || self.created.is_empty())
    }
}

impl Driver for RandomDriver<'_> {
    fn step(&mut self, sys: &mut MultiCoreSystem) -> bool {
        let now = sys.now().get();
        for resp in sys.drain_responses() {
            self.awaiting = false;
            self.next_issue_at = now + self.cfg.inter_command_gap;
            match resp.result {
                Ok(SvcReply::Created(task)) => {
                    if let SvcRequest::Create { priority, .. } = resp.request {
                        // Track which worker band the task belongs to.
                        let worker =
                            usize::from((priority.level() - 1) / BAND).min(self.created.len() - 1);
                        self.created[worker] = Some(task);
                    }
                }
                Ok(_) => {}
                Err(
                    SvcError::AlreadySuspended(_)
                    | SvcError::NotSuspended(_)
                    | SvcError::PriorityInUse(_)
                    | SvcError::NoSuchProgram(_),
                ) => {
                    self.counts.error_replies += 1;
                    self.counts.ordering_errors += 1;
                }
                Err(_) => self.counts.error_replies += 1,
            }
        }
        self.done()
    }

    /// Issues a uniformly random command once the cycle's observation
    /// found no reason to stop.
    fn issue(&mut self, sys: &mut MultiCoreSystem) {
        if self.awaiting || self.done() || sys.now().get() < self.next_issue_at {
            return;
        }
        let worker = self.rng.random_range(0..self.created.len());
        let service = Service::ALL[self.rng.random_range(0..Service::ALL.len())];
        let request = match service {
            Service::Create => SvcRequest::Create {
                program: self.programs[worker % self.programs.len()],
                priority: self.bands.next(worker),
                stack_bytes: self.cfg.stack_bytes,
            },
            other => {
                // Random target: the worker's task if it has one, else a
                // random slot (which the slave will likely reject).
                let task = self.created[worker]
                    .unwrap_or_else(|| TaskId::new(self.rng.random_range(0..16u8)));
                match other {
                    Service::Delete => SvcRequest::Delete { task },
                    Service::Suspend => SvcRequest::Suspend { task },
                    Service::Resume => SvcRequest::Resume { task },
                    Service::ChangePriority => SvcRequest::ChangePriority {
                        task,
                        priority: self.bands.next(worker),
                    },
                    Service::Yield => SvcRequest::Yield { task },
                    Service::Create => unreachable!("handled above"),
                }
            }
        };
        if sys.issue_to(0, request).is_ok() {
            self.counts.commands_issued += 1;
            self.awaiting = true;
        }
    }

    fn next_event_cycle(&self, now: Cycles) -> Option<u64> {
        // Awaiting, only the reply (a platform event) can move it on.
        (!self.awaiting && !self.done()).then(|| self.next_issue_at.max(now.get() + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_core::Scenario;
    use ptest_pcore::{Op, Program};

    fn worker_setup(sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        vec![sys
            .kernel_of_mut(0)
            .register_program(Program::new(vec![Op::Compute(30), Op::Exit]).unwrap())]
    }

    #[test]
    fn random_tester_wastes_commands_on_illegal_orders() {
        let report = RandomTester::new(RandomTesterConfig {
            command_budget: 150,
            seed: 5,
            ..RandomTesterConfig::default()
        })
        .run(worker_setup)
        .unwrap();
        assert!(report.commands_issued >= 150);
        assert!(
            report.error_replies > 20,
            "uniform random must hit many illegal orders: {} errors",
            report.error_replies
        );
        assert!(report.waste_ratio() > 0.1);
    }

    #[test]
    fn random_tester_is_deterministic_per_seed() {
        let run = |seed| {
            let r = RandomTester::new(RandomTesterConfig {
                command_budget: 60,
                seed,
                ..RandomTesterConfig::default()
            })
            .run(worker_setup)
            .unwrap();
            (r.commands_issued, r.error_replies, r.cycles)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn random_tester_finds_gc_crash_eventually() {
        let mut cfg = RandomTesterConfig {
            command_budget: 3_000,
            seed: 2,
            ..RandomTesterConfig::default()
        };
        cfg.max_cycles = 20_000_000;
        cfg.system.kernel.heap_bytes = 4 * 1024;
        cfg.system.kernel.gc_fault = ptest_pcore::GcFaultMode::LeakDeadBlocks { leak_every: 1 };
        let report = RandomTester::new(cfg).run(worker_setup).unwrap();
        assert!(
            report.found(|k| matches!(
                k,
                BugKind::SlaveCrash { .. } | BugKind::CommandTimeout { .. }
            )),
            "churn from random creates/deletes must eventually leak the heap dry: {} cmds, {} errs",
            report.commands_issued,
            report.error_replies,
        );
    }

    /// Runs a default session with `workers` workers over `programs`
    /// copies of the worker program.
    fn run_shaped(workers: usize, programs: usize) -> Result<RandomTestReport, CommitterError> {
        RandomTester::new(RandomTesterConfig {
            workers,
            ..RandomTesterConfig::default()
        })
        .run(|sys| (0..programs).flat_map(|_| worker_setup(sys)).collect())
    }

    #[test]
    fn too_many_workers_overflow_the_priority_space() {
        let error = CommitterError::TooManyPatterns {
            patterns: 18,
            max: 17,
        };
        assert_eq!(run_shaped(18, 1).unwrap_err(), error);
        // The last band still fits: worker 16's top priority is 255.
        assert_eq!(run_shaped(17, 1).unwrap().commands_issued, 200);
    }

    #[test]
    fn no_programs_is_an_error() {
        assert_eq!(run_shaped(3, 0).unwrap_err(), CommitterError::NoPrograms);
    }

    #[test]
    fn zero_workers_issue_nothing() {
        let report = RandomTester::new(RandomTesterConfig {
            workers: 0,
            ..RandomTesterConfig::default()
        })
        .run(worker_setup)
        .unwrap();
        assert_eq!((report.commands_issued, report.cycles), (0, 1));
    }

    #[test]
    fn fast_forward_leaves_random_sessions_unchanged() {
        let healthy = |budget, seed| RandomTesterConfig {
            command_budget: budget,
            seed,
            ..RandomTesterConfig::default()
        };
        let leaky = |seed| {
            let mut cfg = healthy(3_000, seed);
            cfg.system.kernel.heap_bytes = 6 * 1024;
            cfg.system.kernel.gc_fault = ptest_pcore::GcFaultMode::LeakDeadBlocks { leak_every: 1 };
            cfg
        };
        let configs = (0..6)
            .flat_map(|seed| [0, 1, 40, 150].map(|budget| healthy(budget, seed)))
            .chain((0..4).map(leaky));
        let mut bugs = 0;
        for cfg in configs {
            let tester = RandomTester::new(cfg.clone());
            let run = |fast_forward| format!("{:?}", tester.run_with(worker_setup, fast_forward));
            let reference = run(false);
            assert_eq!(run(true), reference, "{cfg:?}");
            bugs += usize::from(!reference.contains("bugs: []"));
        }
        assert!(bugs > 0, "some session finds a bug");
        // Sessions over mutexes; at seeds 19 and 236 they end in a
        // deadlock, which is detected while commands are still issued.
        let philosophers = ptest_faults::philosophers::PhilosophersScenario::buggy();
        for seed in [0, 19, 236] {
            let tester = RandomTester::new(RandomTesterConfig {
                system: philosophers.base_config().system,
                ..healthy(150, seed)
            });
            let run = |fast_forward| {
                let setup = |sys: &mut MultiCoreSystem| philosophers.setup(sys);
                format!("{:?}", tester.run_with(setup, fast_forward))
            };
            let reference = run(false);
            assert_eq!(run(true), reference, "philosophers seed {seed}");
            assert_eq!(reference.contains("Deadlock"), seed != 0, "{reference}");
        }
    }
}
