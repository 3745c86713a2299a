//! End-to-end integration of the campaign engine across the whole
//! stack: acceptance-scale fleets, cross-round learning on the Figure 1
//! scenario, and reproduction of individual campaign trials.

use ptest::faults::fig1::Fig1AdaptiveScenario;
use ptest::faults::philosophers::PhilosophersScenario;
use ptest::pcore::{Op, Program};
use ptest::{
    AdaptiveTest, AdaptiveTestConfig, Campaign, CampaignConfig, FnScenario, LearningConfig,
    Scenario,
};

fn compute_scenario() -> impl Scenario {
    FnScenario::new(
        "compute",
        AdaptiveTestConfig {
            n: 3,
            s: 6,
            ..AdaptiveTestConfig::default()
        },
        |sys| {
            vec![sys
                .kernel_of_mut(0)
                .register_program(Program::new(vec![Op::Compute(20), Op::Exit]).expect("valid"))]
        },
    )
}

/// The PR's acceptance criterion: ≥ 32 trials over ≥ 2 feedback rounds
/// on ≥ 2 worker threads, deterministically.
#[test]
fn campaign_runs_32_trials_over_2_rounds_on_4_workers() {
    let scenario = compute_scenario();
    let cfg = CampaignConfig {
        trials_per_round: 16,
        rounds: 2,
        workers: 4,
        master_seed: 2009,
        learning: LearningConfig::default(),
        ..CampaignConfig::default()
    };
    let report = Campaign::run(&cfg, &scenario).unwrap();
    assert_eq!(report.total_trials(), 32);
    assert_eq!(report.rounds.len(), 2);
    assert_eq!(report.trials_per_round, 16);
    for round in &report.rounds {
        assert_eq!(round.trials.len(), 16);
        assert!(round.total_commands > 0);
        // Healthy compute workers: campaigns complete their patterns.
        for trial in &round.trials {
            assert!(trial.summary.completed, "trial {} failed", trial.trial);
            assert_eq!(trial.summary.ordering_errors, 0);
        }
    }
    // Per-trial seeds are all distinct across the whole fleet.
    let mut seeds: Vec<u64> = report
        .rounds
        .iter()
        .flat_map(|r| r.trials.iter().map(|t| t.seed))
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 32);
}

/// Cross-round learning on the Figure 1 scenario: after k feedback
/// rounds, mean commands-to-first-bug does not regress versus round 0,
/// and the detection rate does not drop (seeded, deterministic).
#[test]
fn fig1_learning_does_not_regress_detection_cost() {
    let scenario = Fig1AdaptiveScenario::default();
    let cfg = CampaignConfig {
        trials_per_round: 12,
        rounds: 3,
        workers: 4,
        master_seed: 2009,
        learning: LearningConfig::default(),
        ..CampaignConfig::default()
    };
    let report = Campaign::run(&cfg, &scenario).unwrap();
    let first = &report.rounds[0];
    let last = &report.rounds[report.rounds.len() - 1];
    let mean0 = first
        .mean_commands_to_first_bug
        .expect("round 0 must find the livelock on some trial");
    let mean_k = last
        .mean_commands_to_first_bug
        .expect("learning must not lose the bug entirely");
    assert!(
        mean_k <= mean0,
        "commands-to-first-bug regressed: round 0 = {mean0}, round k = {mean_k}"
    );
    assert!(
        last.detection_rate() >= first.detection_rate(),
        "detection rate dropped: {} -> {}",
        first.detection_rate(),
        last.detection_rate()
    );
    assert!(first.traces_learned > 0, "feedback must accumulate traces");
}

/// Any campaign trial can be reproduced stand-alone: its summary echoes
/// the seed, and `AdaptiveTest::run_scenario` at that seed (with the
/// round's distribution) reaches the same outcome.
#[test]
fn campaign_trials_are_individually_reproducible() {
    let scenario = PhilosophersScenario::buggy();
    let cfg = CampaignConfig {
        trials_per_round: 6,
        rounds: 1,
        workers: 3,
        master_seed: 7,
        learning: LearningConfig::default(),
        ..CampaignConfig::default()
    };
    let report = Campaign::run(&cfg, &scenario).unwrap();
    let round = &report.rounds[0];
    for trial in &round.trials {
        let rerun = AdaptiveTest::run_scenario(&scenario, trial.seed).unwrap();
        assert_eq!(
            rerun.machine_summary(),
            trial.summary,
            "trial {} must reproduce bit-for-bit",
            trial.trial
        );
    }
}

/// The facade JSON archive round-trips the full report.
#[test]
fn campaign_json_roundtrips_through_the_facade() {
    let scenario = compute_scenario();
    let report = Campaign::run(
        &CampaignConfig {
            trials_per_round: 4,
            rounds: 2,
            workers: 2,
            master_seed: 11,
            learning: LearningConfig::default(),
            ..CampaignConfig::default()
        },
        &scenario,
    )
    .unwrap();
    let json = ptest::campaign_report_to_json(&report).unwrap();
    let parsed = ptest::campaign_report_from_json(&json).unwrap();
    assert_eq!(parsed, report);
    assert!(json.contains("\"master_seed\""));
    assert!(json.contains("\"distribution\""));
}
