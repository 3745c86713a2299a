//! The dining-philosophers deadlock of case study 2.
//!
//! "The algorithm consisted of three concurrent tasks in pCore and three
//! shared resources that were mutually exclusive. A task needed two
//! shared resources to resume its execution." In the buggy version every
//! philosopher grabs its left fork first; a cyclic interleaving leaves
//! each holding one fork and waiting for the next — a deadlock that
//! pTest's wait-for-graph detector reports. The corrected version breaks
//! the cycle by reversing one philosopher's acquisition order.

use crate::Variant;
use ptest_core::{AdaptiveTestConfig, DetectorConfig, MergeOp, Scenario};
use ptest_master::MultiCoreSystem;
use ptest_pcore::{MutexId, Op, Program, ProgramBuilder, ProgramId};
use ptest_soc::Cycles;

/// Number of philosophers (and forks) in the paper's case study.
pub const PHILOSOPHERS: usize = 3;

/// Builds philosopher `i`'s program over the given fork mutexes.
///
/// The `Yield` between the two acquisitions is the scheduling point that
/// lets the cyclic interleaving form (on real hardware, any preemption
/// between the locks plays this role).
#[must_use]
pub fn philosopher_program(i: usize, forks: &[MutexId], variant: Variant) -> Program {
    let left = forks[i];
    let right = forks[(i + 1) % forks.len()];
    let (first, second) = match variant {
        Variant::Buggy => (left, right),
        Variant::Fixed if i == forks.len() - 1 => (right, left),
        Variant::Fixed => (left, right),
    };
    let mut b = ProgramBuilder::new();
    b.push(Op::MutexLock(first));
    // Hold the first fork while the rest of the table is being created —
    // the race window that lets the cyclic acquisition form (on the real
    // target, the work a philosopher does between its two acquisitions).
    // 40 cycles ≈ one remote command of master latency: only back-to-back
    // creates (the strict-alternation merge) land inside it, which is why
    // the paper had to *set* the merger to force cyclic sequences.
    b.push(Op::Compute(40));
    b.push(Op::Yield); // a scheduling point between the two locks
    b.push(Op::MutexLock(second));
    b.push(Op::Compute(20)); // eat
    b.push(Op::MutexUnlock(second));
    b.push(Op::MutexUnlock(first));
    b.push(Op::Exit);
    b.build().expect("philosopher program is valid")
}

/// The pTest configuration the paper's case study corresponds to: three
/// patterns whose merged interleaving keeps all three tasks alive
/// concurrently ("cyclic execution sequences"), with a fast detector
/// cadence so the formed deadlock is observed before a `task_delete`
/// breaks it.
#[must_use]
pub fn case2_config(seed: u64) -> AdaptiveTestConfig {
    AdaptiveTestConfig {
        n: PHILOSOPHERS,
        s: 12,
        op: MergeOp::cyclic(),
        seed,
        check_interval: 25,
        // Realistic master-side command latency: the philosophers must
        // get CPU time between commands for the interleaving to matter.
        inter_command_gap: 30,
        // A TCH-heavy distribution keeps the created tasks alive (late
        // TD/TY), giving the cyclic acquisition time to form — the
        // "probability distributions … for different testing scenarios"
        // the paper's future work asks about, used here deliberately.
        pd: ptest_automata::ProbabilityAssignment::weights([
            ("TC", 1.0),
            ("TCH", 0.8),
            ("TS", 0.08),
            ("TD", 0.06),
            ("TY", 0.06),
            ("TR", 1.0),
        ]),
        detector: DetectorConfig {
            progress_window: Cycles::new(30_000),
            ..DetectorConfig::default()
        },
        max_cycles: 500_000,
        ..AdaptiveTestConfig::default()
    }
}

/// Case study 2 as a campaign-ready [`Scenario`]: three philosopher
/// programs over three fork mutexes, under [`case2_config`].
#[derive(Debug, Clone, Copy)]
pub struct PhilosophersScenario {
    /// Buggy (left-first) or corrected lock order.
    pub variant: Variant,
}

impl PhilosophersScenario {
    /// The paper's deadlock-prone variant.
    #[must_use]
    pub fn buggy() -> PhilosophersScenario {
        PhilosophersScenario {
            variant: Variant::Buggy,
        }
    }

    /// The corrected control variant.
    #[must_use]
    pub fn fixed() -> PhilosophersScenario {
        PhilosophersScenario {
            variant: Variant::Fixed,
        }
    }
}

impl Scenario for PhilosophersScenario {
    fn name(&self) -> &str {
        match self.variant {
            Variant::Buggy => "philosophers-buggy",
            Variant::Fixed => "philosophers-fixed",
        }
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        case2_config(0)
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        let kernel = sys.kernel_of_mut(0);
        let forks: Vec<MutexId> = (0..PHILOSOPHERS).map(|_| kernel.create_mutex()).collect();
        (0..PHILOSOPHERS)
            .map(|i| kernel.register_program(philosopher_program(i, &forks, self.variant)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_core::{AdaptiveTest, BugKind, Configured};

    #[test]
    fn buggy_variant_deadlocks_under_cyclic_merge() {
        // Sweep a few seeds; the cyclic merge forms the deadlock whenever
        // all three lifecycles overlap, which is the common case.
        let mut found = false;
        for seed in 0..10 {
            let report = AdaptiveTest::run_scenario(&PhilosophersScenario::buggy(), seed).unwrap();
            if report.found(|k| matches!(k, BugKind::Deadlock { .. })) {
                found = true;
                let bug = report
                    .bugs
                    .iter()
                    .find(|b| matches!(b.kind, BugKind::Deadlock { .. }))
                    .unwrap();
                if let BugKind::Deadlock { cycle } = &bug.kind {
                    // Usually the full three-way cycle; a concurrent
                    // suspend/delete can shrink it to two.
                    assert!(
                        (2..=3).contains(&cycle.len()),
                        "cycle among philosophers: {cycle:?}"
                    );
                }
                assert!(!bug.state_records.is_empty());
                break;
            }
        }
        assert!(
            found,
            "cyclic merge must uncover the deadlock within 10 seeds"
        );
    }

    #[test]
    fn fixed_variant_never_deadlocks() {
        for seed in 0..5 {
            let report = AdaptiveTest::run_scenario(&PhilosophersScenario::fixed(), seed).unwrap();
            assert!(
                !report.found(|k| matches!(k, BugKind::Deadlock { .. })),
                "seed {seed}: {}",
                report.summary()
            );
        }
    }

    #[test]
    fn sequential_merge_hides_the_deadlock() {
        // The ablation the merger exists for: without interleaving the
        // lifecycles never overlap and the bug cannot fire.
        let scenario = Configured::adjust(PhilosophersScenario::buggy(), |cfg| {
            cfg.op = MergeOp::Sequential;
        });
        for seed in 0..5 {
            let report = AdaptiveTest::run_scenario(&scenario, seed).unwrap();
            assert!(
                !report.found(|k| matches!(k, BugKind::Deadlock { .. })),
                "seed {seed}: {}",
                report.summary()
            );
        }
    }

    #[test]
    fn scenario_setup_matches_closure_setup() {
        // `run_scenario` is the case-study configuration at the given
        // seed with the scenario's own setup.
        let scenario = PhilosophersScenario::buggy();
        let report = AdaptiveTest::run_scenario(&scenario, 3).unwrap();
        let direct = AdaptiveTest::run(case2_config(3), |sys| scenario.setup(sys)).unwrap();
        assert_eq!(report.machine_summary(), direct.machine_summary());
    }

    #[test]
    fn programs_differ_only_in_lock_order() {
        let forks = vec![MutexId(0), MutexId(1), MutexId(2)];
        let buggy = philosopher_program(2, &forks, Variant::Buggy);
        let fixed = philosopher_program(2, &forks, Variant::Fixed);
        assert_ne!(buggy, fixed);
        assert_eq!(
            philosopher_program(0, &forks, Variant::Buggy),
            philosopher_program(0, &forks, Variant::Fixed),
            "only the last philosopher changes"
        );
    }
}
