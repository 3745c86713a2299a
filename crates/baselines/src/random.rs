//! A ConTest-style random tester.
//!
//! ConTest "debugs multi-threaded programs by randomly interleaving the
//! execution of threads" (paper §I). Lifted to pTest's command level,
//! the equivalent baseline issues *uniformly random* service commands at
//! random targets, with no PFA to keep service orders legal and no
//! merge discipline. It finds concurrency bugs eventually, but burns a
//! large share of its budget on illegal orders the slave rejects — the
//! comparison that motivates pTest's "rational order" patterns.

use ptest_core::{Bug, BugDetector, BugKind, DetectorConfig};
use ptest_master::{MultiCoreSystem, SystemConfig};
use ptest_pcore::{Priority, ProgramId, Service, SvcError, SvcRequest, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the random tester.
#[derive(Debug, Clone)]
pub struct RandomTesterConfig {
    /// Commands to issue before giving up.
    pub command_budget: u64,
    /// Number of "virtual threads" (priority bands / target slots).
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
#[derive(Debug)]
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
    pub fn run_scenario(&self, scenario: &dyn ptest_core::Scenario) -> RandomTestReport {
        self.run(|sys| scenario.setup(sys))
    }

    /// Runs the session: `setup` registers scenario programs (one per
    /// worker, cycled).
    pub fn run(
        &self,
        setup: impl FnOnce(&mut MultiCoreSystem) -> Vec<ProgramId>,
    ) -> RandomTestReport {
        let cfg = &self.cfg;
        let mut sys = MultiCoreSystem::new(cfg.system.clone());
        let programs = setup(&mut sys);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut detector = BugDetector::new(cfg.detector);

        // Per-worker state: created task (if any) and priority rotation.
        let band = 15u8;
        let mut created: Vec<Option<TaskId>> = vec![None; cfg.workers];
        let mut prio_counter = vec![0u8; cfg.workers];

        let mut bugs: Vec<Bug> = Vec::new();
        let mut commands_issued = 0u64;
        let mut error_replies = 0u64;
        let mut ordering_errors = 0u64;
        let mut cycles = 0u64;
        let mut awaiting = false;
        let mut next_issue_at = 0u64;
        let mut budget_done_at: Option<u64> = None;

        while cycles < cfg.max_cycles {
            cycles += 1;
            sys.step();
            for resp in sys.take_responses() {
                awaiting = false;
                next_issue_at = sys.now().get() + cfg.inter_command_gap;
                match resp.result {
                    Ok(ptest_pcore::SvcReply::Created(task)) => {
                        if let SvcRequest::Create { priority, .. } = resp.request {
                            // Track which worker band the task belongs to.
                            let worker =
                                usize::from((priority.level() - 1) / band).min(cfg.workers - 1);
                            created[worker] = Some(task);
                        }
                    }
                    Ok(_) => {}
                    Err(
                        SvcError::AlreadySuspended(_)
                        | SvcError::NotSuspended(_)
                        | SvcError::PriorityInUse(_)
                        | SvcError::NoSuchProgram(_),
                    ) => {
                        error_replies += 1;
                        ordering_errors += 1;
                    }
                    Err(_) => error_replies += 1,
                }
            }
            if cycles.is_multiple_of(cfg.check_interval) {
                let budget_exhausted = commands_issued >= cfg.command_budget && !awaiting;
                bugs.extend(detector.observe(&sys, None, budget_exhausted));
            }
            if bugs.iter().any(|b| b.kind.is_fatal()) {
                break;
            }
            if commands_issued >= cfg.command_budget {
                if !awaiting && budget_done_at.is_none() {
                    budget_done_at = Some(cycles);
                }
                if let Some(done) = budget_done_at {
                    if cycles - done >= 60_000 || sys.snapshot().live_tasks() == 0 {
                        bugs.extend(detector.observe(&sys, None, true));
                        break;
                    }
                }
                continue;
            }
            if awaiting || sys.now().get() < next_issue_at {
                continue;
            }
            // Issue a uniformly random command.
            let worker = rng.random_range(0..cfg.workers);
            let service = Service::ALL[rng.random_range(0..Service::ALL.len())];
            let request = match service {
                Service::Create => {
                    let offset = prio_counter[worker] % band;
                    prio_counter[worker] = prio_counter[worker].wrapping_add(1);
                    SvcRequest::Create {
                        program: programs[worker % programs.len()],
                        priority: Priority::new(1 + (worker as u8) * band + offset),
                        stack_bytes: cfg.stack_bytes,
                    }
                }
                other => {
                    // Random target: the worker's task if it has one, else
                    // a random slot (which the slave will likely reject).
                    let task =
                        created[worker].unwrap_or_else(|| TaskId::new(rng.random_range(0..16u8)));
                    match other {
                        Service::Delete => SvcRequest::Delete { task },
                        Service::Suspend => SvcRequest::Suspend { task },
                        Service::Resume => SvcRequest::Resume { task },
                        Service::ChangePriority => {
                            let offset = prio_counter[worker] % band;
                            prio_counter[worker] = prio_counter[worker].wrapping_add(1);
                            SvcRequest::ChangePriority {
                                task,
                                priority: Priority::new(1 + (worker as u8) * band + offset),
                            }
                        }
                        Service::Yield => SvcRequest::Yield { task },
                        Service::Create => unreachable!("handled above"),
                    }
                }
            };
            if sys.issue(request).is_ok() {
                commands_issued += 1;
                awaiting = true;
            }
        }
        RandomTestReport {
            bugs,
            commands_issued,
            error_replies,
            ordering_errors,
            cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_pcore::{Op, Program};

    fn worker_setup(sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        vec![sys
            .kernel_mut()
            .register_program(Program::new(vec![Op::Compute(30), Op::Exit]).unwrap())]
    }

    #[test]
    fn random_tester_wastes_commands_on_illegal_orders() {
        let report = RandomTester::new(RandomTesterConfig {
            command_budget: 150,
            seed: 5,
            ..RandomTesterConfig::default()
        })
        .run(worker_setup);
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
            .run(worker_setup);
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
            max_cycles: 20_000_000,
            ..RandomTesterConfig::default()
        };
        cfg.system.kernel.heap_bytes = 4 * 1024;
        cfg.system.kernel.gc_fault = ptest_pcore::GcFaultMode::LeakDeadBlocks { leak_every: 1 };
        let report = RandomTester::new(cfg).run(worker_setup);
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
}
