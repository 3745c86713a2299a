//! pTest vs the ConTest-style and CHESS-style baselines on shared
//! scenarios — the comparison the paper argues qualitatively in §I.

use ptest::baselines::{RandomTester, RandomTesterConfig, SystematicConfig, SystematicExplorer};
use ptest::faults::philosophers;
use ptest::faults::Variant;
use ptest::pcore::{GcFaultMode, Op, Program};
use ptest::{
    AdaptiveTest, AdaptiveTestConfig, BugKind, MultiCoreSystem, PatternGenerator, ProgramId,
    TestPattern,
};

fn worker_setup(sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
    vec![sys
        .kernel_mut()
        .register_program(Program::new(vec![Op::Compute(30), Op::Exit]).expect("valid"))]
}

#[test]
fn ptest_wastes_no_commands_where_random_wastes_many() {
    // Identical healthy slave; pTest's PFA keeps every command legal.
    let ptest_report = AdaptiveTest::run(
        AdaptiveTestConfig {
            n: 3,
            s: 16,
            seed: 8,
            cyclic_generation: true,
            ..AdaptiveTestConfig::default()
        },
        worker_setup,
    )
    .unwrap();
    assert!(ptest_report.completed);
    assert_eq!(
        ptest_report.ordering_errors(),
        0,
        "PFA-generated patterns are always legal: {}",
        ptest_report.summary()
    );

    let random_report = RandomTester::new(RandomTesterConfig {
        command_budget: ptest_report.commands_issued.max(100),
        seed: 8,
        ..RandomTesterConfig::default()
    })
    .run(worker_setup);
    assert!(
        random_report.error_replies > 0,
        "uniform random burns budget on illegal orders"
    );
}

#[test]
fn both_ptest_and_random_find_the_gc_crash() {
    let crash = |k: &BugKind| {
        matches!(
            k,
            BugKind::SlaveCrash { .. } | BugKind::CommandTimeout { .. }
        )
    };

    let mut cfg = AdaptiveTestConfig {
        n: 4,
        s: 64,
        seed: 3,
        cyclic_generation: true,
        max_cycles: 20_000_000,
        ..AdaptiveTestConfig::default()
    };
    cfg.system.kernel.heap_bytes = 6 * 1024;
    cfg.system.kernel.gc_fault = GcFaultMode::LeakDeadBlocks { leak_every: 1 };
    let ptest_report = AdaptiveTest::run(cfg, worker_setup).unwrap();
    assert!(ptest_report.found(crash), "{}", ptest_report.summary());

    let mut rcfg = RandomTesterConfig {
        command_budget: 5_000,
        seed: 3,
        max_cycles: 20_000_000,
        ..RandomTesterConfig::default()
    };
    rcfg.system.kernel.heap_bytes = 6 * 1024;
    rcfg.system.kernel.gc_fault = GcFaultMode::LeakDeadBlocks { leak_every: 1 };
    let random_report = RandomTester::new(rcfg).run(worker_setup);
    assert!(random_report.found(crash));

    // pTest needs fewer commands: all of its churn is legal create/delete
    // cycles, while random wastes a large share.
    assert!(
        ptest_report.commands_issued <= random_report.commands_issued,
        "pTest {} vs random {}",
        ptest_report.commands_issued,
        random_report.commands_issued
    );
}

#[test]
fn systematic_explorer_is_exhaustive_but_explodes() {
    let g = PatternGenerator::pcore_paper().unwrap();
    let a = g.regex().alphabet().clone();
    let tc = a.sym("TC").unwrap();
    let tch = a.sym("TCH").unwrap();
    let td = a.sym("TD").unwrap();

    // Small space: 2 AB-BA tasks -> exhaustive success.
    let patterns = vec![
        TestPattern::new(vec![tc, tch, td]),
        TestPattern::new(vec![tc, tch, td]),
    ];
    let explorer = SystematicExplorer::new(SystematicConfig::default());
    let report = explorer.explore(&patterns, &a, |sys| {
        let kernel = sys.kernel_mut();
        let forks = vec![kernel.create_mutex(), kernel.create_mutex()];
        (0..2)
            .map(|i| {
                kernel.register_program(philosophers::philosopher_program(
                    i,
                    &forks,
                    Variant::Buggy,
                ))
            })
            .collect()
    });
    assert!(report.found(|k| matches!(k, BugKind::Deadlock { .. })));

    // Paper-scale space: 16 patterns of size 8 — the multinomial explodes
    // far past any practical limit, which is the CHESS trade-off.
    let big: Vec<TestPattern> = (0..16)
        .map(|_| TestPattern::new(vec![tc, tch, tch, tch, tch, tch, tch, td]))
        .collect();
    let refused = explorer.explore(&big, &a, worker_setup);
    assert_eq!(refused.space_size, None, "the space must be refused");
    assert_eq!(refused.runs, 0);
}
