//! Integration tests of the paper's fault scenarios end to end.

use ptest::faults::fig1::{self, Fig1Order, Fig1Outcome, Fig1Scenario};
use ptest::faults::philosophers::PhilosophersScenario;
use ptest::faults::scenarios::{self, RACE_COUNTER};
use ptest::faults::stress::{StressScenario, StressSpec};
use ptest::{AdaptiveTest, BugKind, Configured, Cycles, MergeOp, TaskState};

#[test]
fn fig1_outcome_depends_only_on_resume_order() {
    let good = fig1::run(Fig1Scenario {
        order: Fig1Order::S2First,
        ..Fig1Scenario::default()
    });
    let bad = fig1::run(Fig1Scenario::default());
    assert!(matches!(good, Fig1Outcome::Completed { .. }));
    assert!(matches!(bad, Fig1Outcome::Livelock { .. }));
}

#[test]
fn case1_crash_only_with_faulty_gc() {
    let faulty = StressScenario {
        spec: StressSpec::paper(2),
    };
    let healthy = StressScenario {
        spec: StressSpec::healthy(2),
    };
    let crash_pred = |k: &BugKind| {
        matches!(
            k,
            BugKind::SlaveCrash { .. } | BugKind::CommandTimeout { .. }
        )
    };
    let r1 = AdaptiveTest::run_scenario(&faulty, 2).unwrap();
    let r2 = AdaptiveTest::run_scenario(&healthy, 2).unwrap();
    assert!(r1.found(crash_pred), "faulty: {}", r1.summary());
    assert!(!r2.found(crash_pred), "healthy: {}", r2.summary());
}

#[test]
fn case2_deadlock_depends_on_merge_policy() {
    // Cyclic merge finds it on some seed; sequential never does.
    let deadlock = |k: &BugKind| matches!(k, BugKind::Deadlock { .. });
    let mut cyclic_found = false;
    for seed in 0..10 {
        let r = AdaptiveTest::run_scenario(&PhilosophersScenario::buggy(), seed).unwrap();
        if r.found(deadlock) {
            cyclic_found = true;
            break;
        }
    }
    assert!(cyclic_found);
    let sequential = Configured::adjust(PhilosophersScenario::buggy(), |cfg| {
        cfg.op = MergeOp::Sequential;
    });
    for seed in 0..5 {
        let r = AdaptiveTest::run_scenario(&sequential, seed).unwrap();
        assert!(!r.found(deadlock), "seed {seed}: {}", r.summary());
    }
}

#[test]
fn producer_consumer_survives_command_churn() {
    // The well-synchronized control workload: pTest suspends/resumes the
    // producer and consumer mid-rendezvous, and no anomaly may appear —
    // semaphore blocking is not deadlock, and the detector must know the
    // difference.
    use ptest::pcore::workloads::producer_consumer;
    use ptest::{AdaptiveTest, AdaptiveTestConfig};

    let cfg = AdaptiveTestConfig {
        n: 2,
        s: 8,
        seed: 13,
        ..AdaptiveTestConfig::default()
    };
    let report = AdaptiveTest::run(cfg, |sys| {
        let kernel = sys.kernel_of_mut(0);
        let slots = kernel.create_semaphore(2);
        let filled = kernel.create_semaphore(0);
        let (prod, cons) = producer_consumer(20, slots, filled, 5);
        vec![kernel.register_program(prod), kernel.register_program(cons)]
    })
    .unwrap();
    assert!(report.completed, "{}", report.summary());
    assert!(
        !report.found(|k| matches!(k, BugKind::Deadlock { .. } | BugKind::SlaveCrash { .. })),
        "{}",
        report.summary()
    );
}

#[test]
fn starvation_and_inversion_scenarios_detect() {
    use ptest::master::SnapshotCache;
    use ptest::{BugDetector, DetectorConfig};

    let (mut sys, _hog, worker) = scenarios::starvation_system();
    let mut det = BugDetector::new(DetectorConfig {
        progress_window: Cycles::new(5_000),
        ..DetectorConfig::default()
    });
    let mut starved = false;
    let mut cache = SnapshotCache::new();
    for i in 0..60_000u64 {
        sys.step();
        if i % 500 == 0 {
            for bug in det.observe_cached(&sys, None, true, &mut cache) {
                if matches!(bug.kind, BugKind::Starvation { task, .. } if task == worker) {
                    starved = true;
                }
            }
        }
        if starved {
            break;
        }
    }
    assert!(starved, "low-priority worker starves behind the hog");
}

#[test]
fn lost_update_race_needs_value_oracle() {
    use ptest::master::SnapshotCache;
    use ptest::{BugDetector, DetectorConfig};

    // The race corrupts data but never hangs: pTest's detector stays
    // silent while the oracle exposes the damage — documenting the
    // boundary of the paper's approach.
    let (mut sys, tasks) = scenarios::race_system(3, 40);
    let mut det = BugDetector::new(DetectorConfig::default());
    let mut hang_bugs = 0;
    let mut cache = SnapshotCache::new();
    for i in 0..300_000u64 {
        sys.step();
        if i % 1_000 == 0 {
            hang_bugs += det
                .observe_cached(&sys, None, false, &mut cache)
                .iter()
                .filter(|b| matches!(b.kind, BugKind::Deadlock { .. } | BugKind::Livelock { .. }))
                .count();
        }
        if tasks.iter().all(|&t| {
            matches!(
                sys.kernel_of(0).task_state(t),
                Some(TaskState::Terminated(_))
            )
        }) {
            break;
        }
    }
    assert_eq!(hang_bugs, 0, "a data race is not a hang");
    assert!(
        scenarios::lost_updates(&sys, RACE_COUNTER, 3, 40) > 0,
        "the value oracle must expose lost updates"
    );
}

/// Pins one trial of every faults scenario and variant under its own
/// `base_config()` at seed 1: one fixture line per scenario with its
/// name, a compact summary and a digest of the full machine summary.
#[test]
fn every_scenario_summary_is_byte_identical_to_the_golden() {
    use ptest::faults::fig1::Fig1AdaptiveScenario;
    use ptest::faults::multicore::{CrossCorePipelineScenario, SramRaceScenario};
    use ptest::faults::philosophers::PhilosophersScenario;
    use ptest::faults::races::{AtomicityRaceScenario, OrderViolationScenario};
    use ptest::faults::scenarios::{RaceWorkloadScenario, StarvationScenario};
    use ptest::faults::stress::StressScenario;
    use ptest::faults::timers::{IsrSharedVarScenario, QuantumAtomicityScenario};
    use ptest::faults::weakmem::{IriwScenario, StoreVisibilityScenario};
    use ptest::pcore::GcFaultMode;
    use ptest::Scenario;

    let mut healthy_light = StressScenario::light();
    healthy_light.spec.gc_fault = GcFaultMode::None;
    let scenarios: Vec<Box<dyn Scenario>> = vec![
        Box::new(Fig1AdaptiveScenario::default()),
        Box::new(PhilosophersScenario::buggy()),
        Box::new(PhilosophersScenario::fixed()),
        Box::new(StressScenario::light()),
        Box::new(healthy_light),
        Box::new(RaceWorkloadScenario::default()),
        Box::new(StarvationScenario),
        Box::new(CrossCorePipelineScenario::buggy()),
        Box::new(CrossCorePipelineScenario::fixed()),
        Box::new(SramRaceScenario::default()),
        Box::new(OrderViolationScenario::buggy()),
        Box::new(OrderViolationScenario::fixed()),
        Box::new(AtomicityRaceScenario::buggy()),
        Box::new(AtomicityRaceScenario::fixed()),
        Box::new(IsrSharedVarScenario::buggy()),
        Box::new(IsrSharedVarScenario::fixed()),
        Box::new(QuantumAtomicityScenario::buggy()),
        Box::new(QuantumAtomicityScenario::fixed()),
        Box::new(StoreVisibilityScenario::buggy()),
        Box::new(StoreVisibilityScenario::fenced()),
        Box::new(IriwScenario::buggy()),
        Box::new(IriwScenario::fenced()),
    ];
    let mut actual = String::new();
    for scenario in &scenarios {
        let summary = AdaptiveTest::run_scenario(scenario.as_ref(), 1)
            .unwrap()
            .machine_summary();
        let bugs: Vec<String> = summary
            .bugs
            .iter()
            .map(|b| format!("{}@{}", b.class, b.detected_at))
            .collect();
        // FNV-1a over the full summary's debug rendering.
        let digest = format!("{summary:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        actual += &format!(
            "{} commands={} cycles={} bugs=[{}] digest={digest:016x}\n",
            scenario.name(),
            summary.commands_issued,
            summary.cycles,
            bugs.join(" ")
        );
    }
    let golden = include_str!("fixtures/scenario_summaries.txt");
    assert!(actual == golden, "scenario summaries drifted:\n{actual}");
}
