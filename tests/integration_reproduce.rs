//! The reproduction story: every detected bug re-derives identically
//! from the seed and configuration embedded in its report — the paper's
//! "helps users reproduce the bugs", made checkable.

use ptest::faults::fig1::Fig1AdaptiveScenario;
use ptest::faults::philosophers::PhilosophersScenario;
use ptest::faults::races::{AtomicityRaceScenario, OrderViolationScenario};
use ptest::faults::stress::{StressScenario, StressSpec};
use ptest::faults::timers::{IsrSharedVarScenario, QuantumAtomicityScenario};
use ptest::faults::weakmem::StoreVisibilityScenario;
use ptest::pcore::{Op, Program};
use ptest::{
    minimize_scenario_trial, AdaptiveTest, AdaptiveTestConfig, BugKind, Campaign, CampaignConfig,
    LearningConfig, MinimizeConfig, MultiCoreSystem, ProgramId, Scenario, TrialEngine,
    TrialScratch,
};

fn compute_setup(sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
    vec![sys
        .kernel_of_mut(0)
        .register_program(Program::new(vec![Op::Compute(25), Op::Exit]).expect("valid"))]
}

#[test]
fn clean_runs_reproduce_exactly() {
    let cfg = AdaptiveTestConfig {
        n: 4,
        s: 10,
        seed: 77,
        ..AdaptiveTestConfig::default()
    };
    let a = AdaptiveTest::run(cfg.clone(), compute_setup).unwrap();
    let b = AdaptiveTest::run(cfg, compute_setup).unwrap();
    assert_eq!(a.patterns, b.patterns);
    assert_eq!(a.merged, b.merged);
    assert_eq!(a.commands_issued, b.commands_issued);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.exec_records.len(), b.exec_records.len());
    for (ra, rb) in a.exec_records.iter().zip(&b.exec_records) {
        assert_eq!(ra.issued_at, rb.issued_at, "cycle-exact reissue");
        assert_eq!(ra.result, rb.result);
    }
}

#[test]
fn gc_crash_reproduces_bit_for_bit() {
    let scenario = StressScenario {
        spec: StressSpec::paper(4),
    };
    let first = AdaptiveTest::run_scenario(&scenario, 4).unwrap();
    assert!(
        first.found(|k| matches!(
            k,
            BugKind::SlaveCrash { .. } | BugKind::CommandTimeout { .. }
        )),
        "{}",
        first.summary()
    );
    let again = AdaptiveTest::reproduce(&first, |sys| scenario.setup(sys)).unwrap();
    assert_eq!(first.bugs.len(), again.bugs.len());
    for (a, b) in first.bugs.iter().zip(&again.bugs) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.detected_at, b.detected_at);
        assert_eq!(a.snapshot.heap, b.snapshot.heap);
    }
    assert_eq!(first.cycles, again.cycles);
}

#[test]
fn deadlock_reproduces_with_same_cycle() {
    // Find a deadlocking seed first.
    let scenario = PhilosophersScenario::buggy();
    let mut hit = None;
    for seed in 0..10 {
        let report = AdaptiveTest::run_scenario(&scenario, seed).unwrap();
        if report.found(|k| matches!(k, BugKind::Deadlock { .. })) {
            hit = Some(report);
            break;
        }
    }
    let first = hit.expect("a deadlocking seed exists in 0..10");
    let again = AdaptiveTest::reproduce(&first, |sys| scenario.setup(sys)).unwrap();
    let cycle_of = |r: &ptest::TestReport| {
        r.bugs.iter().find_map(|b| match &b.kind {
            BugKind::Deadlock { cycle } => Some(cycle.clone()),
            _ => None,
        })
    };
    assert_eq!(
        cycle_of(&first),
        cycle_of(&again),
        "identical wait-for cycle"
    );
}

#[test]
fn bug_reports_carry_reproduction_material() {
    let scenario = StressScenario {
        spec: StressSpec::paper(8),
    };
    let report = AdaptiveTest::run_scenario(&scenario, 8).unwrap();
    let Some(bug) = report.bugs.first() else {
        panic!("stress must find the GC bug: {}", report.summary());
    };
    // Definition 2 records for every controlled process.
    assert_eq!(bug.state_records.len(), report.config.n);
    // A kernel snapshot with the panic and heap statistics.
    assert!(bug.snapshot.panic.is_some() || !bug.trace_tail.is_empty());
    // The report echoes the exact configuration (the reproduction input).
    assert_eq!(report.config.seed, 8);
}

/// The reproducers of the first two hits of a 48-trial campaign (master
/// seed 1) of each race scenario and of Fig. 1, plus the first livelock
/// hit after those two where there is one, serialized whole: the shrunk
/// patterns and masks, the candidate count and the root-cause
/// interleaving of the traced replay. A race livelock's traced replay
/// runs the whole 60,500-cycle drain with one task spinning in a bounded
/// spin, Fig. 1's the 20,000-cycle livelock wait.
#[test]
fn root_cause_reports_match_the_golden() {
    let scenarios: Vec<Box<dyn Scenario>> = vec![
        Box::new(OrderViolationScenario::buggy()),
        Box::new(AtomicityRaceScenario::buggy()),
        Box::new(QuantumAtomicityScenario::buggy()),
        Box::new(StoreVisibilityScenario::buggy()),
        Box::new(IsrSharedVarScenario::buggy()),
        Box::new(Fig1AdaptiveScenario::default()),
    ];
    let mut actual = String::new();
    for scenario in &scenarios {
        let cfg = CampaignConfig {
            trials_per_round: 48,
            rounds: 1,
            workers: 2,
            master_seed: 1,
            learning: LearningConfig {
                enabled: false,
                ..LearningConfig::default()
            },
            ..CampaignConfig::default()
        };
        let report = Campaign::run(&cfg, scenario.as_ref()).unwrap();
        let base = scenario.base_config();
        let engine = TrialEngine::new(base.clone()).unwrap();
        let mut scratch = TrialScratch::new();
        let hits: Vec<_> = report.rounds[0]
            .trials
            .iter()
            .filter(|o| !o.summary.bugs.is_empty())
            .collect();
        assert!(hits.len() >= 2, "{} hit fewer than twice", scenario.name());
        let livelock = hits
            .iter()
            .skip(2)
            .find(|o| o.summary.bugs.iter().any(|b| b.class == "livelock"));
        for hit in hits[..2].iter().chain(livelock) {
            let repro = minimize_scenario_trial(
                &engine,
                scenario.as_ref(),
                hit.seed,
                hit.schedule_seed,
                hit.memory_seed,
                hit.irq_seed,
                base.schedule,
                base.memory,
                base.preemption,
                None,
                &MinimizeConfig::default(),
                &mut scratch,
            )
            .unwrap();
            actual += &ptest::minimized_repro_to_json(&repro).unwrap();
            actual.push('\n');
        }
    }
    let golden = include_str!("fixtures/root_causes.txt");
    assert!(actual == golden, "root-cause reports drifted:\n{actual}");
}
