//! The concurrency fault of the paper's Figure 1.
//!
//! Two slave processes spin-wait on each other's shared variables:
//!
//! ```text
//! Process S1              Process S2
//! a: x = 1                f: y = 1
//! b: while (y == 1)       g: while (x == 1)
//! c:     yield();         h:     yield();
//! d: x = 0;               i: y = 0;
//! e: end;                 j: end;
//! ```
//!
//! Both start suspended; master processes `M1`/`M2` resume them with
//! remote commands. Resuming **S2 first** lets everything finish
//! (`L → f g → K → i j → a b d e`); resuming **S1 first** lands `L`
//! inside S1's window between `a` and `b`, after which both processes
//! yield to each other forever (`K a L f g h b c g h …`) — the paper's
//! synchronization anomaly.
//!
//! The window between `a` and `b` is modelled explicitly as
//! [`Fig1Scenario::window`] compute cycles: on the real OMAP the code
//! between the two statements takes time; the simulator must be told how
//! much.

use crate::kit::create_task;
use ptest_core::{AdaptiveTestConfig, BugKind, CycleLoop, DetectorConfig, MergeOp, Scenario};
use ptest_master::{MultiCoreSystem, SnapshotCache, SystemConfig};
use ptest_pcore::{Op, Program, ProgramBuilder, ProgramId, SvcRequest, TaskId, TaskState, VarId};
use ptest_soc::Cycles;

/// Shared variable `x` of Figure 1.
pub const VAR_X: VarId = VarId(0);
/// Shared variable `y` of Figure 1.
pub const VAR_Y: VarId = VarId(1);

/// Which resume command the master issues first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig1Order {
    /// `K` before `L` (resume S1 first) — the fault order.
    S1First,
    /// `L` before `K` (resume S2 first) — the completing order.
    S2First,
}

/// Parameters of the Figure 1 scenario.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Scenario {
    /// Resume order.
    pub order: Fig1Order,
    /// Compute cycles between S1's `a:` and `b:` statements (the race
    /// window the second resume must land in for the fault to fire).
    pub window: u32,
    /// Extra cycles the master waits between the two resume commands
    /// (0 = back-to-back, the tightest schedule). A gap larger than the
    /// window lets S1 escape its loop before S2 starts.
    pub resume_gap: u64,
    /// Simulation budget.
    pub max_cycles: u64,
}

impl Default for Fig1Scenario {
    fn default() -> Fig1Scenario {
        Fig1Scenario {
            order: Fig1Order::S1First,
            window: 64,
            resume_gap: 0,
            max_cycles: 200_000,
        }
    }
}

/// Outcome of a Figure 1 run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fig1Outcome {
    /// Both processes terminated (`d e` / `i j` reached).
    Completed {
        /// Cycle at which the second process terminated.
        cycles: u64,
    },
    /// The processes yielded to each other until the detector reported a
    /// livelock or the budget ran out; the listed tasks never terminated.
    Livelock {
        /// The spinning tasks.
        tasks: Vec<TaskId>,
    },
}

/// Builds S1's program: `a: x=1; (window); b: while (y==1) c: yield(); d:
/// x=0; e: end`.
#[must_use]
pub fn s1_program(window: u32) -> Program {
    spin_program(VAR_X, VAR_Y, window)
}

/// Builds S2's program: `f: y=1; g: while (x==1) h: yield(); i: y=0; j:
/// end`.
#[must_use]
pub fn s2_program() -> Program {
    spin_program(VAR_Y, VAR_X, 0)
}

fn spin_program(mine: VarId, theirs: VarId, window: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.push(Op::WriteVar {
        var: mine,
        value: 1,
    }); // a / f
    if window > 0 {
        b.push(Op::Compute(window));
    }
    b.bind("test"); // b / g
    b.branch_if_var_eq(theirs, 1, "spin");
    b.jump_to("done");
    b.bind("spin"); // c / h
    b.push(Op::Yield);
    b.jump_to("test");
    b.bind("done"); // d / i
    b.push(Op::WriteVar {
        var: mine,
        value: 0,
    });
    b.push(Op::Exit); // e / j
    b.build().expect("fig1 program is valid")
}

/// Both processes of the figure on slave 0, created and suspended at
/// time zero, before the first kernel tick: `(S1, S2)`.
fn suspended_processes(sys: &mut MultiCoreSystem, window: u32) -> (TaskId, TaskId) {
    let kernel = sys.kernel_of_mut(0);
    let p1 = kernel.register_program(s1_program(window));
    let p2 = kernel.register_program(s2_program());
    // S1 has the lower priority, S2 the higher.
    let s1 = create_task(kernel, p1, 2);
    let s2 = create_task(kernel, p2, 9);
    for task in [s1, s2] {
        kernel
            .dispatch(SvcRequest::Suspend { task }, Cycles::ZERO)
            .expect("suspend");
    }
    (s1, s2)
}

/// Runs `sys` in the trial engine's cycle loop with nothing left to
/// drive, observing every 200 cycles, for up to `max_cycles` cycles:
/// a livelock once the detector reports one, `Completed` once both
/// processes (slave 0's only tasks) have terminated, else a livelock of
/// the tasks still alive.
fn outcome(sys: &mut MultiCoreSystem, max_cycles: u64, fast_forward: bool) -> Fig1Outcome {
    let cycle_loop = CycleLoop {
        detector: DetectorConfig {
            progress_window: Cycles::new(10_000),
            ..DetectorConfig::default()
        },
        check_interval: 200,
        max_cycles,
        // Nothing is driven, so there is no drain: only the budget ends
        // a run that neither completes nor livelocks.
        drain_cycles: max_cycles,
        fast_forward,
    };
    let (bugs, _) = cycle_loop.run(sys, &mut (), None, None, &mut SnapshotCache::new());
    let livelock = bugs.into_iter().find_map(|bug| match bug.kind {
        BugKind::Livelock { tasks } => Some(tasks),
        _ => None,
    });
    if let Some(tasks) = livelock {
        return Fig1Outcome::Livelock { tasks };
    }
    if sys.kernel_of(0).live_task_count() == 0 {
        return Fig1Outcome::Completed {
            cycles: sys.now().get(),
        };
    }
    let tasks = sys
        .snapshot_of(0)
        .tasks
        .iter()
        .filter(|t| !matches!(t.state, TaskState::Terminated(_)))
        .map(|t| t.id)
        .collect();
    Fig1Outcome::Livelock { tasks }
}

/// Runs the scenario and classifies the outcome.
///
/// The run is fully deterministic: outcome depends only on the scenario
/// parameters.
///
/// # Panics
///
/// Panics if the scenario setup commands fail (cannot happen with a
/// default-configured kernel).
#[must_use]
pub fn run(scenario: Fig1Scenario) -> Fig1Outcome {
    run_with(scenario, true)
}

/// [`run`] with fast-forward on or off (off is the reference).
fn run_with(scenario: Fig1Scenario, fast_forward: bool) -> Fig1Outcome {
    let mut sys = MultiCoreSystem::new(SystemConfig::default());
    let (s1, s2) = suspended_processes(&mut sys, scenario.window);

    // The master's two remote commands, in the chosen order (the paper's
    // K and L), each awaited like the committer would.
    let resumes = match scenario.order {
        Fig1Order::S1First => [s1, s2],
        Fig1Order::S2First => [s2, s1],
    };
    let mut first = true;
    for task in resumes {
        if !first {
            sys.run(scenario.resume_gap);
        }
        first = false;
        sys.issue_to(0, SvcRequest::Resume { task })
            .expect("issue resume");
        // Await the response so command order = slave observation order.
        loop {
            sys.step();
            if sys.drain_responses().next().is_some() {
                break;
            }
        }
    }

    outcome(&mut sys, scenario.max_cycles, fast_forward)
}

/// The scripted-master variant: the paper's `M1`/`M2` processes as real
/// master threads under the time-sharing scheduler, each issuing its
/// resume via `remote_cmd` (`K` in M1, `L` in M2). The thread added first
/// is scheduled first, so the add order plays the role of the execution
/// order of Figure 1. The second thread first runs the cycle after the
/// first one's response, when the first thread finishes; it sleeps one
/// cycle less than the [`resume_gap`](Fig1Scenario::resume_gap), so that
/// its resume is issued the gap after that response, as in [`run`].
///
/// Two delays are inherent to master threads. A thread's op runs after
/// the slaves have serviced their doorbells, so every command reaches
/// the slave one cycle later than [`run`]'s. And the first thread's
/// finishing op takes the cycle of its response, so the second resume
/// follows the first one's response by at least one cycle, where
/// [`run`] at gap 0 issues it in that very cycle. The outcome is
/// therefore [`run`]'s at a gap of at least 1, with a completion one
/// cycle later: at `window = 0` and gap 0, `run` livelocks but this
/// variant completes, as `run` does at gap 1.
///
/// # Panics
///
/// Panics if scenario setup commands fail (cannot happen on a default
/// kernel).
#[must_use]
pub fn run_with_master_threads(scenario: Fig1Scenario) -> Fig1Outcome {
    run_with_master_threads_with(scenario, true)
}

/// [`run_with_master_threads`] with fast-forward on or off (off is the
/// reference).
fn run_with_master_threads_with(scenario: Fig1Scenario, fast_forward: bool) -> Fig1Outcome {
    use ptest_master::MasterOp;

    let mut sys = MultiCoreSystem::new(SystemConfig::default());
    let (s1, s2) = suspended_processes(&mut sys, scenario.window);

    // M1 issues K = Resume(S1); M2 issues L = Resume(S2). The scenario
    // order decides which thread enters the run queue first.
    let (first, second) = match scenario.order {
        Fig1Order::S1First => (("M1", s1), ("M2", s2)),
        Fig1Order::S2First => (("M2", s2), ("M1", s1)),
    };
    let resume = |task| MasterOp::IssueAndWait(SvcRequest::Resume { task });
    sys.add_thread(first.0, vec![resume(first.1), MasterOp::Done]);
    let mut ops = vec![resume(second.1), MasterOp::Done];
    if scenario.resume_gap > 1 {
        let sleep = u32::try_from(scenario.resume_gap - 1).unwrap_or(u32::MAX);
        ops.insert(0, MasterOp::SleepFor(sleep));
    }
    sys.add_thread(second.0, ops);
    outcome(&mut sys, scenario.max_cycles, fast_forward)
}

/// The Figure 1 fault as an adaptive-test [`Scenario`]: the committer's
/// `task_create` commands play the role of the master's `K`/`L` resumes.
/// Pattern 0 starts S1 (spin-wait on `y`, with the `a→b` compute window)
/// and pattern 1 starts S2 (spin-wait on `x`). Whenever the merged
/// pattern lands both creates inside S1's window, each process sets its
/// own variable before the other's spin tests it, and a spin that sees
/// its partner's variable at 1 never ends. The detector then reports a
/// livelock in one of three shapes, which at the base configuration
/// occur in these proportions over seeds 0–1023 (393 livelocks):
///
/// * **one spinner alone** (314): the partner was deleted by a later
///   `TD` after setting its variable, which stays at 1 — seed 1;
/// * **a spinner beside a suspended task** (27): the partner was
///   suspended by a `TS` before its spin closed — seed 91;
/// * **two tasks yielding to each other** (52), the figure's own
///   mutual yield loop — seed 30.
///
/// Distributions that keep tasks alive (pattern truncated before its
/// terminal `TD`/`TY`) reveal the fault; churn-heavy ones destroy the
/// processes before it can form, which is exactly the signal the
/// campaign's cross-trial learning feeds on.
#[derive(Debug, Clone, Copy)]
pub struct Fig1AdaptiveScenario {
    /// Compute cycles between S1's `a:` and `b:` statements.
    pub window: u32,
}

impl Default for Fig1AdaptiveScenario {
    fn default() -> Fig1AdaptiveScenario {
        Fig1AdaptiveScenario { window: 400 }
    }
}

impl Scenario for Fig1AdaptiveScenario {
    fn name(&self) -> &str {
        "fig1-livelock"
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        AdaptiveTestConfig {
            n: 2,
            s: 8,
            op: MergeOp::cyclic(),
            check_interval: 25,
            inter_command_gap: 30,
            detector: DetectorConfig {
                progress_window: Cycles::new(20_000),
                ..DetectorConfig::default()
            },
            max_cycles: 400_000,
            ..AdaptiveTestConfig::default()
        }
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        let kernel = sys.kernel_of_mut(0);
        let p1 = kernel.register_program(s1_program(self.window));
        let p2 = kernel.register_program(s2_program());
        vec![p1, p2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resuming_s2_first_completes() {
        let outcome = run(Fig1Scenario {
            order: Fig1Order::S2First,
            ..Fig1Scenario::default()
        });
        assert!(
            matches!(outcome, Fig1Outcome::Completed { .. }),
            "the paper's good order L f g K i j a b d e: {outcome:?}"
        );
    }

    #[test]
    fn resuming_s1_first_livelocks() {
        let outcome = run(Fig1Scenario::default());
        match outcome {
            Fig1Outcome::Livelock { tasks } => {
                assert_eq!(tasks.len(), 2, "both S1 and S2 spin");
            }
            other => panic!("the paper's fault order must livelock: {other:?}"),
        }
    }

    #[test]
    fn wide_resume_gap_escapes_the_race() {
        // If the master pauses between K and L for longer than S1's
        // window, S1 leaves its loop (x back to 0) before S2 starts and
        // even the bad order completes — the fault needs L to land
        // *inside* the window.
        let outcome = run(Fig1Scenario {
            order: Fig1Order::S1First,
            resume_gap: 500,
            ..Fig1Scenario::default()
        });
        assert!(
            matches!(outcome, Fig1Outcome::Completed { .. }),
            "{outcome:?}"
        );
    }

    #[test]
    fn completion_cycle_counts_from_time_zero() {
        // S2 is resumed only after the 500-cycle gap, so both processes
        // cannot have terminated before cycle 500.
        let outcome = run(Fig1Scenario {
            order: Fig1Order::S1First,
            resume_gap: 500,
            ..Fig1Scenario::default()
        });
        assert!(
            matches!(outcome, Fig1Outcome::Completed { cycles } if cycles > 500),
            "{outcome:?}"
        );
    }

    #[test]
    fn outcome_is_deterministic() {
        let a = run(Fig1Scenario::default());
        let b = run(Fig1Scenario::default());
        assert_eq!(a, b);
    }

    #[test]
    fn programs_are_small_and_valid() {
        assert!(s1_program(10).len() <= 8);
        assert!(s2_program().len() <= 7);
    }

    #[test]
    fn master_thread_variant_reproduces_both_outcomes() {
        let good = run_with_master_threads(Fig1Scenario {
            order: Fig1Order::S2First,
            ..Fig1Scenario::default()
        });
        assert!(
            matches!(good, Fig1Outcome::Completed { .. }),
            "M2-before-M1 schedule completes: {good:?}"
        );
        let bad = run_with_master_threads(Fig1Scenario::default());
        assert!(
            matches!(bad, Fig1Outcome::Livelock { .. }),
            "M1-before-M2 schedule livelocks: {bad:?}"
        );
    }

    #[test]
    fn adaptive_scenario_finds_the_livelock_within_a_few_seeds() {
        use ptest_core::AdaptiveTest;
        let scenario = Fig1AdaptiveScenario::default();
        let mut found = false;
        for seed in 0..12 {
            let report = AdaptiveTest::run_scenario(&scenario, seed).unwrap();
            assert_eq!(report.ordering_errors(), 0, "PFA keeps orders legal");
            if report.found(|k| matches!(k, BugKind::Livelock { .. })) {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "cyclic creates must land inside S1's window for some seed"
        );
    }

    #[test]
    fn adaptive_livelocks_take_three_shapes() {
        use ptest_core::AdaptiveTest;
        // (seed, spinners, the suspended bystander's state), at the base
        // configuration.
        let shapes = [(1, 1, None), (91, 1, Some(TaskState::Ready)), (30, 2, None)];
        let scenario = Fig1AdaptiveScenario::default();
        for (seed, spinners, bystander) in shapes {
            let report = AdaptiveTest::run_scenario(&scenario, seed).unwrap();
            let bug = report
                .bugs
                .iter()
                .find(|b| matches!(b.kind, BugKind::Livelock { .. }))
                .unwrap_or_else(|| panic!("seed {seed} livelocks"));
            let live: Vec<_> = bug
                .snapshot
                .tasks
                .iter()
                .filter(|t| !matches!(t.state, TaskState::Terminated(_)))
                .collect();
            let spinning = live.iter().filter(|t| !t.suspended).count();
            let suspended: Vec<_> = live
                .iter()
                .filter(|t| t.suspended)
                .map(|t| t.state)
                .collect();
            assert_eq!(
                (spinning, suspended),
                (spinners, bystander.into_iter().collect::<Vec<_>>()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn master_thread_variant_agrees_with_direct_variant() {
        // The threaded variant is one cycle behind `run`, and its resumes
        // are at least one gap cycle apart.
        for order in [Fig1Order::S1First, Fig1Order::S2First] {
            for window in [0, 2, 64] {
                for resume_gap in [0, 1, 16, 32, 64, 128, 256, 512] {
                    let scenario = Fig1Scenario {
                        order,
                        window,
                        resume_gap,
                        ..Fig1Scenario::default()
                    };
                    let direct = match run(Fig1Scenario {
                        resume_gap: resume_gap.max(1),
                        ..scenario
                    }) {
                        Fig1Outcome::Completed { cycles } => {
                            Fig1Outcome::Completed { cycles: cycles + 1 }
                        }
                        livelock => livelock,
                    };
                    assert_eq!(run_with_master_threads(scenario), direct, "{scenario:?}");
                }
            }
        }
    }

    #[test]
    fn fast_forward_leaves_outcomes_unchanged() {
        let base = Fig1Scenario::default();
        let points = [0, 4, 64, 128]
            .map(|window| Fig1Scenario { window, ..base })
            .into_iter()
            .chain([0, 64, 65, 512].map(|resume_gap| Fig1Scenario { resume_gap, ..base }))
            .chain([Fig1Scenario {
                order: Fig1Order::S2First,
                ..base
            }]);
        for point in points {
            assert_eq!(run_with(point, true), run_with(point, false), "{point:?}");
            assert_eq!(
                run_with_master_threads_with(point, true),
                run_with_master_threads_with(point, false),
                "{point:?}"
            );
        }
    }
}
