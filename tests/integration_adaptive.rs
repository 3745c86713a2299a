//! End-to-end integration tests of the full adaptive testing procedure
//! across every crate: automata → core → master → bridge → pcore → soc.

use ptest::pcore::{Op, Program};
use ptest::{
    AdaptiveTest, AdaptiveTestConfig, BugKind, CommitterStatus, MergeOp, MultiCoreSystem,
    ProbabilityAssignment, ProgramId,
};

fn compute_setup(sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
    vec![sys
        .kernel_of_mut(0)
        .register_program(Program::new(vec![Op::Compute(25), Op::Exit]).expect("valid"))]
}

#[test]
fn default_run_completes_cleanly() {
    let report = AdaptiveTest::run(AdaptiveTestConfig::default(), compute_setup).unwrap();
    assert!(report.completed);
    assert_eq!(report.committer_status, CommitterStatus::Done);
    assert!(report.bugs.is_empty(), "{}", report.summary());
    assert!(report.commands_issued > 0);
    // Short-lived workers may exit before mid-lifecycle commands arrive
    // (benign TaskNotLive races); *ordering* violations never occur.
    assert_eq!(report.ordering_errors(), 0);
}

#[test]
fn all_merge_policies_complete_on_healthy_slave() {
    for op in [
        MergeOp::Sequential,
        MergeOp::cyclic(),
        MergeOp::RoundRobin { chunk: 3 },
        MergeOp::RandomInterleave { seed: 4 },
        MergeOp::Staggered { overlap: 2 },
    ] {
        let cfg = AdaptiveTestConfig {
            n: 3,
            s: 8,
            op,
            seed: 11,
            ..AdaptiveTestConfig::default()
        };
        let report = AdaptiveTest::run(cfg, compute_setup).unwrap();
        assert!(report.completed, "op {op:?}: {}", report.summary());
        assert!(report.bugs.is_empty(), "op {op:?}: {}", report.summary());
    }
}

#[test]
fn sixteen_patterns_respect_task_limit() {
    // n = 16 concurrent lifecycles on a 16-slot kernel: tight but legal.
    let cfg = AdaptiveTestConfig {
        n: 16,
        s: 6,
        seed: 3,
        ..AdaptiveTestConfig::default()
    };
    let report = AdaptiveTest::run(cfg, compute_setup).unwrap();
    assert!(report.completed, "{}", report.summary());
    // NoFreeSlot can legitimately occur transiently; but no crash.
    assert!(!report.found(|k| matches!(k, BugKind::SlaveCrash { .. })));
}

#[test]
fn custom_regex_and_distribution_flow_through() {
    // A restricted protocol: tasks may only be created and destroyed.
    let cfg = AdaptiveTestConfig {
        regex_source: "TC (TD$ | TY$)".to_owned(),
        pd: ProbabilityAssignment::weights([("TC", 1.0), ("TD", 0.7), ("TY", 0.3)]),
        n: 4,
        s: 2,
        seed: 5,
        ..AdaptiveTestConfig::default()
    };
    let report = AdaptiveTest::run(cfg, compute_setup).unwrap();
    assert!(report.completed);
    assert!(report.bugs.is_empty());
    // Only TC/TD/TY appear in the coverage counts.
    for svc in report.coverage.service_counts.keys() {
        assert!(
            ["TC", "TD", "TY"].contains(&svc.as_str()),
            "unexpected {svc}"
        );
    }
}

#[test]
fn cyclic_generation_of_the_empty_language_returns() {
    // "" is the language {ε}: `q0` is absorbing, so a cyclic walk has
    // nothing to restart and every pattern is empty.
    let cfg = AdaptiveTestConfig {
        regex_source: String::new(),
        pd: ProbabilityAssignment::Uniform,
        cyclic_generation: true,
        ..AdaptiveTestConfig::default()
    };
    let report = AdaptiveTest::run(cfg, compute_setup).unwrap();
    assert!(report.completed, "{}", report.summary());
    assert_eq!(report.commands_issued, 0);
}

#[test]
fn coverage_grows_with_pattern_size() {
    let small = AdaptiveTest::run(
        AdaptiveTestConfig {
            n: 1,
            s: 2,
            seed: 9,
            ..AdaptiveTestConfig::default()
        },
        compute_setup,
    )
    .unwrap();
    let large = AdaptiveTest::run(
        AdaptiveTestConfig {
            n: 8,
            s: 24,
            seed: 9,
            ..AdaptiveTestConfig::default()
        },
        compute_setup,
    )
    .unwrap();
    assert!(
        large.coverage.transitions_covered >= small.coverage.transitions_covered,
        "more/larger patterns cannot lose transition coverage"
    );
}

#[test]
fn exec_records_are_complete_and_ordered() {
    let cfg = AdaptiveTestConfig {
        n: 2,
        s: 6,
        seed: 21,
        ..AdaptiveTestConfig::default()
    };
    let report = AdaptiveTest::run(cfg, compute_setup).unwrap();
    assert!(report.completed);
    assert_eq!(report.exec_records.len(), report.merged.len());
    // Every record resolved; issue times strictly increase along the
    // merged order (the committer awaits each response).
    let mut last_issued = None;
    for (i, rec) in report.exec_records.iter().enumerate() {
        assert_eq!(rec.step_index, i);
        assert!(rec.skipped || rec.result.is_some(), "unresolved step {i}");
        if let Some(at) = rec.issued_at {
            if let Some(prev) = last_issued {
                assert!(at > prev, "step {i} issued out of order");
            }
            last_issued = Some(at);
        }
        if let (Some(issued), Some(done)) = (rec.issued_at, rec.completed_at) {
            assert!(done >= issued);
        }
    }
}

#[test]
fn slave_kernel_survives_error_heavy_patterns() {
    // Tiny heap forces NoFreeSlot/OOM-adjacent churn without the GC
    // fault; pCore must answer errors rather than crash.
    let mut cfg = AdaptiveTestConfig {
        n: 8,
        s: 16,
        cyclic_generation: true,
        seed: 2,
        max_cycles: 5_000_000,
        ..AdaptiveTestConfig::default()
    };
    cfg.system.kernel.heap_bytes = 3 * 1024; // ~5 concurrent tasks max
    let report = AdaptiveTest::run(cfg, compute_setup).unwrap();
    // Crash is legitimate here (OOM panics the kernel on create); but if
    // no crash was reported the run must have completed.
    if !report.found(|k| {
        matches!(
            k,
            BugKind::SlaveCrash { .. } | BugKind::CommandTimeout { .. }
        )
    }) {
        assert!(report.completed, "{}", report.summary());
    }
}
