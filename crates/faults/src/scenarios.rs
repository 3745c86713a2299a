//! Additional fault scenarios beyond the paper's two case studies:
//! starvation, priority inversion, and a lost-update race. These feed the
//! baseline-comparison experiment (which bug classes does each testing
//! strategy catch?) and the extended examples.

use crate::kit::create_task;
use ptest_core::{AdaptiveTestConfig, MergeOp, Scenario};
use ptest_master::{MultiCoreSystem, SystemConfig};
use ptest_pcore::{Op, Program, ProgramBuilder, ProgramId, TaskId, VarId};
use ptest_soc::Cycles;

/// The shared counter used by the lost-update race.
pub const RACE_COUNTER: VarId = VarId(4);

/// A spinning task that never yields or terminates: any lower-priority
/// task starves behind it (CPU starvation).
#[must_use]
pub fn cpu_hog_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.bind("top");
    b.push(Op::Compute(1_000));
    b.jump_to("top");
    b.build().expect("hog program is valid")
}

/// A well-behaved worker: computes and exits.
#[must_use]
pub fn worker_program(work: u32) -> Program {
    Program::new(vec![Op::Compute(work.max(1)), Op::Exit]).expect("worker program is valid")
}

/// Builds the starvation scenario: a high-priority hog and a low-priority
/// worker. Returns `(system, hog_task, worker_task)`.
///
/// # Panics
///
/// Panics if setup commands fail (cannot happen on a default kernel).
#[must_use]
pub fn starvation_system() -> (MultiCoreSystem, TaskId, TaskId) {
    let mut sys = MultiCoreSystem::new(SystemConfig::default());
    let kernel = sys.kernel_of_mut(0);
    let hog = kernel.register_program(cpu_hog_program());
    let worker = kernel.register_program(worker_program(100));
    let hog_task = create_task(kernel, hog, 200);
    let worker_task = create_task(kernel, worker, 10);
    (sys, hog_task, worker_task)
}

/// Builds the priority-inversion scenario: low holds a mutex, high blocks
/// on it, medium spins and keeps low off the CPU, so high waits
/// unboundedly (pCore has no priority inheritance).
///
/// Returns `(system, low, medium, high)`.
///
/// # Panics
///
/// Panics if setup commands fail (cannot happen on a default kernel).
#[must_use]
pub fn priority_inversion_system() -> (MultiCoreSystem, TaskId, TaskId, TaskId) {
    let mut sys = MultiCoreSystem::new(SystemConfig::default());
    let kernel = sys.kernel_of_mut(0);
    let mutex = kernel.create_mutex();

    // Low: grab the mutex, then do long work before releasing.
    let low_prog = {
        let mut b = ProgramBuilder::new();
        b.push(Op::MutexLock(mutex));
        b.push(Op::Compute(100_000));
        b.push(Op::MutexUnlock(mutex));
        b.push(Op::Exit);
        kernel.register_program(b.build().expect("valid"))
    };
    // High: started a bit later, needs the same mutex.
    let high_prog = {
        let mut b = ProgramBuilder::new();
        b.push(Op::SleepFor(50)); // let low acquire first
        b.push(Op::MutexLock(mutex));
        b.push(Op::Compute(10));
        b.push(Op::MutexUnlock(mutex));
        b.push(Op::Exit);
        kernel.register_program(b.build().expect("valid"))
    };
    // Medium: pure spin, no mutex involvement.
    let medium_prog = {
        let mut b = ProgramBuilder::new();
        b.push(Op::SleepFor(60)); // arrive after high blocks
        b.bind("top");
        b.push(Op::Compute(1_000));
        b.jump_to("top");
        kernel.register_program(b.build().expect("valid"))
    };

    let low = create_task(kernel, low_prog, 10);
    let high = create_task(kernel, high_prog, 200);
    let medium = create_task(kernel, medium_prog, 100);
    (sys, low, medium, high)
}

/// The unsynchronized counter-increment program of the lost-update race:
/// `rounds` iterations of read `counter` → yield (the race window) →
/// write-back.
#[must_use]
pub fn race_writer_program(counter: VarId, rounds: u16) -> Program {
    let mut b = ProgramBuilder::new();
    b.push(Op::AddReg {
        reg: 1,
        delta: i64::from(rounds),
    });
    b.bind("loop");
    // read counter -> r0; yield inside the window; write r0+1 back
    b.push(Op::ReadVar {
        var: counter,
        reg: 0,
    });
    b.push(Op::Yield); // the race window
    b.push(Op::AddReg { reg: 0, delta: 1 });
    b.push(Op::WriteVarReg {
        var: counter,
        reg: 0,
    });
    b.push(Op::AddReg { reg: 1, delta: -1 });
    b.branch_if_reg_eq(1, 0, "done");
    b.jump_to("loop");
    b.bind("done");
    b.push(Op::Exit);
    b.build().expect("race writer program is valid")
}

/// Builds the lost-update race: `writers` tasks each add 1 to a shared
/// counter `rounds` times *without synchronization* (read, compute,
/// write back). Returns the system and the task ids.
///
/// After all writers exit, the counter should equal `writers × rounds`;
/// any smaller value is a lost update. Note that pTest's bug detector
/// does **not** flag this class — the final-value oracle
/// [`lost_updates`] must be consulted — which is exactly the boundary
/// the paper draws around hang/crash anomalies.
///
/// # Panics
///
/// Panics if setup commands fail (cannot happen on a default kernel).
#[must_use]
pub fn race_system(writers: usize, rounds: u16) -> (MultiCoreSystem, Vec<TaskId>) {
    let mut sys = MultiCoreSystem::new(SystemConfig::default());
    let kernel = sys.kernel_of_mut(0);
    let tasks = (0..writers)
        .map(|w| {
            let program = kernel.register_program(race_writer_program(RACE_COUNTER, rounds));
            create_task(kernel, program, (10 + w) as u8)
        })
        .collect();
    (sys, tasks)
}

/// The lost-update oracle: how many of `writers × rounds` increments
/// `counter` is missing after the run, as slave 0's kernel sees it.
#[must_use]
pub fn lost_updates(sys: &MultiCoreSystem, counter: VarId, writers: usize, rounds: u16) -> i64 {
    let expected = (writers as i64) * i64::from(rounds);
    let actual = sys.kernel_of(0).var(counter).unwrap_or(0);
    expected - actual
}

/// The lost-update race as a campaign-ready [`Scenario`]: each test
/// pattern controls one unsynchronized counter writer. The adaptive
/// detector does not flag lost updates — consult [`lost_updates`] after
/// the run — but the scenario exercises the engine on a workload whose
/// tasks interleave through a real shared-memory window.
#[derive(Debug, Clone, Copy)]
pub struct RaceWorkloadScenario {
    /// Concurrent writer tasks (= patterns).
    pub writers: usize,
    /// Increments per writer.
    pub rounds: u16,
}

impl Default for RaceWorkloadScenario {
    fn default() -> RaceWorkloadScenario {
        RaceWorkloadScenario {
            writers: 3,
            rounds: 20,
        }
    }
}

impl Scenario for RaceWorkloadScenario {
    fn name(&self) -> &str {
        "lost-update-race"
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        AdaptiveTestConfig {
            n: self.writers,
            s: 8,
            op: MergeOp::cyclic(),
            inter_command_gap: 30,
            ..AdaptiveTestConfig::default()
        }
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        (0..self.writers)
            .map(|_| {
                sys.kernel_of_mut(0)
                    .register_program(race_writer_program(RACE_COUNTER, self.rounds))
            })
            .collect()
    }
}

/// CPU starvation as a campaign-ready [`Scenario`]: pattern 0 starts a
/// well-behaved worker, pattern 1 a non-yielding hog in a *higher*
/// priority band. Once the merged pattern is delivered, the hog keeps
/// spinning and the worker never runs — the detector reports starvation
/// (and the hog's no-termination livelock).
#[derive(Debug, Clone, Copy, Default)]
pub struct StarvationScenario;

impl Scenario for StarvationScenario {
    fn name(&self) -> &str {
        "cpu-starvation"
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        AdaptiveTestConfig {
            n: 2,
            s: 6,
            op: MergeOp::cyclic(),
            detector: ptest_core::DetectorConfig {
                progress_window: Cycles::new(10_000),
                ..ptest_core::DetectorConfig::default()
            },
            max_cycles: 400_000,
            ..AdaptiveTestConfig::default()
        }
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        let kernel = sys.kernel_of_mut(0);
        let worker = kernel.register_program(worker_program(100));
        let hog = kernel.register_program(cpu_hog_program());
        // Pattern 1 draws from the higher priority band, so the hog
        // outranks the worker exactly as in `starvation_system`.
        vec![worker, hog]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_core::{BugDetector, BugKind, DetectorConfig};
    use ptest_master::SnapshotCache;
    use ptest_pcore::TaskState;

    #[test]
    fn starvation_is_detected() {
        let (mut sys, _hog, worker) = starvation_system();
        let mut detector = BugDetector::new(DetectorConfig {
            progress_window: Cycles::new(5_000),
            ..DetectorConfig::default()
        });
        let mut found = None;
        let mut cache = SnapshotCache::new();
        for i in 0..100_000u64 {
            sys.step();
            if i % 500 == 0 {
                for bug in detector.observe_cached(&sys, None, true, &mut cache) {
                    if let BugKind::Starvation { task, runnable } = bug.kind {
                        found = Some((task, runnable));
                    }
                }
            }
            if found.is_some() {
                break;
            }
        }
        let (task, runnable) = found.expect("worker must be reported starved");
        assert_eq!(task, worker);
        assert!(runnable, "CPU starvation: ready but never scheduled");
    }

    #[test]
    fn priority_inversion_starves_high() {
        let (mut sys, _low, _medium, high) = priority_inversion_system();
        let mut detector = BugDetector::new(DetectorConfig {
            progress_window: Cycles::new(5_000),
            ..DetectorConfig::default()
        });
        let mut starved_high = false;
        let mut cache = SnapshotCache::new();
        for i in 0..200_000u64 {
            sys.step();
            if i % 500 == 0 {
                for bug in detector.observe_cached(&sys, None, true, &mut cache) {
                    if let BugKind::Starvation { task, runnable } = bug.kind {
                        if task == high {
                            starved_high = true;
                            assert!(!runnable, "high is blocked on the inverted mutex");
                        }
                    }
                }
            }
            if starved_high {
                break;
            }
        }
        assert!(starved_high, "priority inversion must starve the high task");
        // High never completed.
        assert!(!matches!(
            sys.kernel_of(0).task_state(high),
            Some(TaskState::Terminated(_))
        ));
    }

    #[test]
    fn lost_update_race_fires_under_yield_window() {
        let (mut sys, tasks) = race_system(2, 50);
        for _ in 0..200_000u64 {
            sys.step();
            if tasks.iter().all(|&t| {
                matches!(
                    sys.kernel_of(0).task_state(t),
                    Some(TaskState::Terminated(_))
                )
            }) {
                break;
            }
        }
        let lost = lost_updates(&sys, RACE_COUNTER, 2, 50);
        assert!(lost > 0, "yield window must lose updates, lost {lost}");
    }

    #[test]
    fn starvation_scenario_is_detected_by_the_adaptive_engine() {
        use ptest_core::AdaptiveTest;
        let scenario = StarvationScenario;
        let mut found = false;
        for seed in 0..8 {
            let report = AdaptiveTest::run_scenario(&scenario, seed).unwrap();
            if report.found(|k| matches!(k, BugKind::Starvation { .. } | BugKind::Livelock { .. }))
            {
                found = true;
                break;
            }
        }
        assert!(found, "the hog must starve the worker for some seed");
    }

    #[test]
    fn race_scenario_runs_and_stays_legal() {
        use ptest_core::AdaptiveTest;
        let report = AdaptiveTest::run_scenario(&RaceWorkloadScenario::default(), 4).unwrap();
        assert_eq!(report.ordering_errors(), 0);
        assert!(report.commands_issued > 0);
    }

    #[test]
    fn race_oracle_counts_correctly_for_single_writer() {
        let (mut sys, tasks) = race_system(1, 20);
        for _ in 0..100_000u64 {
            sys.step();
            if tasks.iter().all(|&t| {
                matches!(
                    sys.kernel_of(0).task_state(t),
                    Some(TaskState::Terminated(_))
                )
            }) {
                break;
            }
        }
        assert_eq!(
            lost_updates(&sys, RACE_COUNTER, 1, 20),
            0,
            "one writer cannot race itself"
        );
    }
}
