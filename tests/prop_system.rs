//! Cross-crate property tests: whole-system invariants under random
//! configurations.

use proptest::prelude::*;
use ptest::pcore::{Op, Program};
use ptest::{
    AdaptiveTest, AdaptiveTestConfig, BugKind, CommitterStatus, MergeOp, MultiCoreSystem, ProgramId,
};

fn compute_setup(sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
    vec![sys
        .kernel_mut()
        .register_program(Program::new(vec![Op::Compute(15), Op::Exit]).expect("valid"))]
}

fn arb_merge_op() -> impl Strategy<Value = MergeOp> {
    prop_oneof![
        Just(MergeOp::Sequential),
        (1usize..4).prop_map(|chunk| MergeOp::RoundRobin { chunk }),
        (0u64..50).prop_map(|seed| MergeOp::RandomInterleave { seed }),
        (0usize..4).prop_map(|overlap| MergeOp::Staggered { overlap }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a healthy slave, every configuration completes with zero error
    /// replies and no bugs: pTest's legality guarantee end to end.
    #[test]
    fn healthy_slave_never_fails(
        n in 1usize..6,
        s in 2usize..10,
        seed in 0u64..1_000,
        op in arb_merge_op(),
    ) {
        let cfg = AdaptiveTestConfig {
            n, s, op, seed,
            ..AdaptiveTestConfig::default()
        };
        let report = AdaptiveTest::run(cfg, compute_setup).unwrap();
        prop_assert_eq!(report.committer_status, CommitterStatus::Done);
        // Benign TaskNotLive races with self-exit may occur; ordering
        // violations (the class the PFA rules out) never do.
        prop_assert_eq!(report.ordering_errors(), 0, "{}", report.summary());
        prop_assert!(report.bugs.is_empty(), "{}", report.summary());
        // Conservation: every merged step was issued or skipped.
        let issued = report.exec_records.iter().filter(|r| r.request.is_some()).count();
        let skipped = report.exec_records.iter().filter(|r| r.skipped).count();
        prop_assert_eq!(issued + skipped, report.merged.len());
        prop_assert_eq!(skipped, 0, "healthy runs skip nothing");
    }

    /// Reports reproduce exactly for arbitrary seeds.
    #[test]
    fn any_seed_reproduces(seed in 0u64..10_000) {
        let cfg = AdaptiveTestConfig {
            n: 2, s: 6, seed,
            ..AdaptiveTestConfig::default()
        };
        let a = AdaptiveTest::run(cfg.clone(), compute_setup).unwrap();
        let b = AdaptiveTest::run(cfg, compute_setup).unwrap();
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.commands_issued, b.commands_issued);
        prop_assert_eq!(a.patterns, b.patterns);
    }

    /// The kernel never reports more live tasks than its slot limit, and
    /// a healthy run drains to zero live tasks.
    #[test]
    fn task_limit_is_an_invariant(n in 1usize..8, seed in 0u64..500) {
        let cfg = AdaptiveTestConfig {
            n,
            s: 8,
            seed,
            cyclic_generation: true,
            ..AdaptiveTestConfig::default()
        };
        let report = AdaptiveTest::run(cfg, compute_setup).unwrap();
        let crashed = report.found(|k| matches!(k, BugKind::SlaveCrash { .. }));
        prop_assert!(!crashed);
    }
}
