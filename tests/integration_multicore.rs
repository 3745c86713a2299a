//! The N-slave generalization's no-regression anchor and multicore
//! acceptance tests.
//!
//! The golden fixtures under `tests/fixtures/` were captured from the
//! dual-core implementation *before* the `MultiCoreSystem` refactor: the
//! adaptive tool on a 1-slave system must keep producing byte-identical
//! `TestReport` JSON for the same seeds. On top of that anchor, the
//! multicore acceptance tests drive the cross-core pipeline scenario end
//! to end: the wait-for-graph detector must report a deadlock cycle
//! spanning kernels — a bug class that cannot exist with a single slave.

use ptest::faults::multicore::{CrossCorePipelineScenario, SramRaceScenario};
use ptest::faults::philosophers::PhilosophersScenario;
use ptest::pcore::{Op, Program};
use ptest::soc::CoreId;
use ptest::{AdaptiveTest, AdaptiveTestConfig, BugKind, MultiCoreSystem, Scenario, SystemConfig};

const GOLDEN_COMPUTE: &str = include_str!("fixtures/golden_compute_seed42.json");
const GOLDEN_PHILOSOPHERS: &str = include_str!("fixtures/golden_philosophers_seed7.json");

fn compute_report(system: SystemConfig) -> ptest::TestReport {
    AdaptiveTest::run(
        AdaptiveTestConfig {
            n: 3,
            s: 6,
            seed: 42,
            system,
            ..AdaptiveTestConfig::default()
        },
        |sys| {
            vec![sys
                .kernel_of_mut(0)
                .register_program(Program::new(vec![Op::Compute(20), Op::Exit]).unwrap())]
        },
    )
    .unwrap()
}

/// The refactor's anchor: a 1-slave `MultiCoreSystem` run reproduces the
/// pre-refactor dual-core report byte for byte.
#[test]
fn n1_report_is_byte_identical_to_the_pre_refactor_golden() {
    let report = compute_report(SystemConfig::default());
    let json = ptest::report_to_json(&report).unwrap() + "\n";
    assert_eq!(json, GOLDEN_COMPUTE, "dual-core behaviour drifted");

    let philo = AdaptiveTest::run_scenario(&PhilosophersScenario::buggy(), 7).unwrap();
    let json = ptest::report_to_json(&philo).unwrap() + "\n";
    assert_eq!(
        json, GOLDEN_PHILOSOPHERS,
        "deadlock reporting drifted (cycle rendering or timing)"
    );
}

/// The default `MultiCoreSystem` is the `n = 1` dual-core platform: one
/// slave, and the same behaviour as an explicit one-slave configuration.
#[test]
fn dual_core_system_is_the_n1_special_case() {
    assert_eq!(SystemConfig::default().slaves, 1);
    let dual = MultiCoreSystem::new(SystemConfig::default());
    assert_eq!(dual.slave_count(), 1);
    // Explicit n=1 multicore and the dual-core path produce identical
    // reports.
    let a = compute_report(SystemConfig::default());
    let b = compute_report(SystemConfig::with_slaves(1));
    assert_eq!(
        ptest::report_to_json(&a).unwrap(),
        ptest::report_to_json(&b).unwrap()
    );
}

/// Acceptance: the 3-slave pipeline reveals a cross-core deadlock that
/// the wait-for-graph detector reports as a cycle spanning kernels, and
/// the bug reproduces from its seed.
#[test]
fn pipeline_scenario_reveals_a_cross_core_deadlock() {
    let scenario = CrossCorePipelineScenario::buggy();
    let mut hit = None;
    for seed in 0..10 {
        let report = AdaptiveTest::run_scenario(&scenario, seed).unwrap();
        if report.found(|k| matches!(k, BugKind::CrossCoreDeadlock { .. })) {
            hit = Some((seed, report));
            break;
        }
    }
    let (seed, report) = hit.expect("a seed below 10 must close the cycle");
    let bug = report
        .bugs
        .iter()
        .find(|b| matches!(b.kind, BugKind::CrossCoreDeadlock { .. }))
        .unwrap();
    let BugKind::CrossCoreDeadlock { cycle } = &bug.kind else {
        unreachable!()
    };
    let cores: std::collections::BTreeSet<CoreId> = cycle.iter().map(|(c, _)| *c).collect();
    assert!(
        cores.len() >= 2,
        "the cycle must span at least two kernels: {cycle:?}"
    );
    // Reproduction: same seed, same scenario, same bug at the same time.
    let again = AdaptiveTest::run_scenario(&scenario, seed).unwrap();
    let twin = again
        .bugs
        .iter()
        .find(|b| matches!(b.kind, BugKind::CrossCoreDeadlock { .. }))
        .expect("reproduction must find the same bug");
    assert_eq!(bug.kind, twin.kind);
    assert_eq!(bug.detected_at, twin.detected_at);
    // The state records carry the per-slave routing.
    assert!(bug
        .state_records
        .iter()
        .any(|r| r.slave_core != CoreId::Slave(0)));
}

/// The machine summary classifies the new bug kind distinctly.
#[test]
fn cross_core_deadlock_has_its_own_summary_class() {
    let scenario = CrossCorePipelineScenario::buggy();
    for seed in 0..10 {
        let report = AdaptiveTest::run_scenario(&scenario, seed).unwrap();
        if report.found(|k| matches!(k, BugKind::CrossCoreDeadlock { .. })) {
            let summary = report.machine_summary();
            assert!(summary
                .bugs
                .iter()
                .any(|b| b.class == "cross_core_deadlock"));
            return;
        }
    }
    panic!("no seed revealed the deadlock");
}

/// Campaigns drive multi-slave scenarios unchanged (the Scenario carries
/// its slave count in its system configuration).
#[test]
fn campaigns_drive_multi_slave_scenarios_unchanged() {
    let report = ptest::Campaign::run(
        &ptest::CampaignConfig {
            trials_per_round: 4,
            rounds: 1,
            workers: 2,
            master_seed: 11,
            ..ptest::CampaignConfig::default()
        },
        &CrossCorePipelineScenario::buggy(),
    )
    .unwrap();
    assert_eq!(report.total_trials(), 4);
    // Determinism holds across worker counts for multi-slave systems too.
    let single = ptest::Campaign::run(
        &ptest::CampaignConfig {
            trials_per_round: 4,
            rounds: 1,
            workers: 1,
            master_seed: 11,
            ..ptest::CampaignConfig::default()
        },
        &CrossCorePipelineScenario::buggy(),
    )
    .unwrap();
    assert_eq!(
        ptest::campaign_report_to_json(&report).unwrap(),
        ptest::campaign_report_to_json(&single).unwrap()
    );
}

/// The SRAM race scenario wires through the scenario plumbing and its
/// oracle sees lost updates when driven directly.
#[test]
fn sram_race_scenario_is_campaign_ready() {
    let scenario = SramRaceScenario::default();
    let mut sys = MultiCoreSystem::new(scenario.base_config().system);
    let programs = scenario.setup(&mut sys);
    assert_eq!(programs.len(), 2);
    assert_eq!(sys.shared_vars().len(), 1);
    let report = AdaptiveTest::run_scenario(&scenario, 5).unwrap();
    assert!(report.commands_issued > 0);
    assert_eq!(report.ordering_errors(), 0);
}
