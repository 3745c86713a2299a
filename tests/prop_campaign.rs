//! Campaign determinism properties: a campaign's aggregate report is a
//! pure function of (scenario, configuration, master seed) — the worker
//! count must never leak into results, learned distributions, or the
//! serialized JSON archive.

use proptest::prelude::*;
use ptest::pcore::{Op, Program};
use ptest::{
    campaign, AdaptiveTestConfig, Campaign, CampaignConfig, CampaignReport, FnScenario,
    InterruptConfig, LearningConfig, MemoryModelSpec, MergeOp, MultiCoreSystem, PreemptionSpec,
    ProgramId, QuantumConfig, RandomPriorityConfig, Scenario, ScheduleSpec, SystemConfig,
    TrialEngine, TrialOverrides, TrialScratch,
};

fn compute_setup(sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
    vec![sys
        .kernel_of_mut(0)
        .register_program(Program::new(vec![Op::Compute(15), Op::Exit]).expect("valid"))]
}

fn scenario_for(n: usize, s: usize, cyclic: bool, op: MergeOp) -> impl Scenario {
    FnScenario::new(
        "prop-compute",
        AdaptiveTestConfig {
            n,
            s,
            cyclic_generation: cyclic,
            op,
            ..AdaptiveTestConfig::default()
        },
        compute_setup,
    )
}

fn run(scenario: &dyn Scenario, cfg: &CampaignConfig) -> CampaignReport {
    Campaign::run(cfg, scenario).expect("valid campaign")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The satellite property of the campaign engine: for random
    /// configurations, 1-worker and 4-worker campaigns produce
    /// byte-identical aggregate JSON reports and identical learned
    /// distributions for the same master seed.
    #[test]
    fn one_and_four_workers_agree_byte_for_byte(
        n in 1usize..4,
        s in 2usize..8,
        trials in 2usize..6,
        rounds in 1usize..3,
        master_seed in 0u64..1_000,
        cyclic in 0u8..2,
        alpha in 0u8..3,
    ) {
        let scenario = scenario_for(n, s, cyclic == 1, MergeOp::cyclic());
        let cfg = |workers| CampaignConfig {
            trials_per_round: trials,
            rounds,
            workers,
            master_seed,
            learning: LearningConfig {
                enabled: true,
                alpha: f64::from(alpha) * 0.5,
                bug_biased: true,
            },
            ..CampaignConfig::default()
        };
        let one = run(&scenario, &cfg(1));
        let four = run(&scenario, &cfg(4));
        prop_assert_eq!(&one, &four, "aggregate reports must be identical");
        for (a, b) in one.rounds.iter().zip(four.rounds.iter()) {
            prop_assert_eq!(&a.learned, &b.learned, "learned distributions must match");
            prop_assert_eq!(&a.distribution, &b.distribution);
        }
        let json_one = ptest::campaign_report_to_json(&one).expect("serializes");
        let json_four = ptest::campaign_report_to_json(&four).expect("serializes");
        prop_assert_eq!(json_one, json_four, "JSON archives must be byte-identical");
    }

    /// Re-running the same campaign twice (same worker count) is also
    /// bit-stable: no hidden global state survives a run.
    #[test]
    fn campaigns_are_rerun_stable(
        n in 1usize..3,
        s in 2usize..6,
        master_seed in 0u64..1_000,
    ) {
        let scenario = scenario_for(n, s, false, MergeOp::cyclic());
        let cfg = CampaignConfig {
            trials_per_round: 3,
            rounds: 2,
            workers: 2,
            master_seed,
            learning: LearningConfig::default(),
            ..CampaignConfig::default()
        };
        let first = run(&scenario, &cfg);
        let second = run(&scenario, &cfg);
        prop_assert_eq!(first, second);
    }

    /// Seed-quadruple replay under arbitrary rotations: with random
    /// schedule-budget, memory-model and preemption rotations (each 0–3
    /// lanes long) the campaign's aggregate JSON is worker-count
    /// independent, every outcome records its replay quadruple and the
    /// labels of the specs [`CampaignConfig::trial_specs`] assigns it, and
    /// replaying any recorded quadruple under those specs standalone
    /// regenerates that trial's summary byte for byte.
    #[test]
    fn seed_triple_replays_byte_identically_across_worker_counts(
        n in 1usize..3,
        s in 2usize..6,
        trials in 2usize..5,
        master_seed in 0u64..1_000,
        change_points in 0usize..5,
        schedule_budgets in proptest::collection::vec(0usize..5, 0..4),
        memory_lanes in proptest::collection::vec(0usize..2, 0..4),
        preemption_lanes in proptest::collection::vec(0usize..3, 0..4),
    ) {
        let scenario = FnScenario::new(
            "prop-sched",
            AdaptiveTestConfig {
                n,
                s,
                schedule: ScheduleSpec::RandomPriority(RandomPriorityConfig {
                    change_points,
                    ..RandomPriorityConfig::default()
                }),
                system: SystemConfig::with_slaves(2),
                ..AdaptiveTestConfig::default()
            },
            compute_setup,
        );
        let models = [MemoryModelSpec::SeqCst, MemoryModelSpec::store_buffer()];
        let preemptions = [
            PreemptionSpec::default(),
            PreemptionSpec {
                quantum: Some(QuantumConfig { cycles: 4 }),
                ..PreemptionSpec::default()
            },
            PreemptionSpec {
                interrupts: Some(InterruptConfig {
                    count: 3,
                    horizon: 200,
                    ..InterruptConfig::default()
                }),
                ..PreemptionSpec::default()
            },
        ];
        let cfg = |workers| CampaignConfig {
            trials_per_round: trials,
            rounds: 1,
            workers,
            master_seed,
            learning: LearningConfig::default(),
            schedule_budgets: schedule_budgets.clone(),
            memory_models: memory_lanes.iter().map(|&i| models[i]).collect(),
            preemption_specs: preemption_lanes.iter().map(|&i| preemptions[i]).collect(),
            ..CampaignConfig::default()
        };
        let one = run(&scenario, &cfg(1));
        let four = run(&scenario, &cfg(4));
        prop_assert_eq!(
            ptest::campaign_report_to_json(&one).expect("serializes"),
            ptest::campaign_report_to_json(&four).expect("serializes"),
            "rotations on every axis must stay worker-count independent"
        );
        let base = scenario.base_config();
        let engine = TrialEngine::new(base.clone()).expect("compiles");
        let mut scratch = TrialScratch::new();
        for outcome in &one.rounds[0].trials {
            let t = outcome.trial;
            prop_assert_eq!(outcome.seed, campaign::trial_seed(master_seed, 0, t));
            prop_assert_eq!(outcome.schedule_seed, campaign::schedule_seed(master_seed, 0, t));
            prop_assert_eq!(outcome.memory_seed, campaign::memory_seed(master_seed, 0, t));
            prop_assert_eq!(outcome.irq_seed, campaign::irq_seed(master_seed, 0, t));
            let (schedule, memory, preemption) = cfg(1).trial_specs(&base, t);
            prop_assert_eq!(
                [&outcome.schedule, &outcome.memory, &outcome.preemption],
                [&schedule.label(), &memory.label(), &preemption.label()]
            );
            let replay = engine
                .run_scenario_trial_overridden(
                    &scenario,
                    outcome.seed,
                    outcome.schedule_seed,
                    outcome.memory_seed,
                    TrialOverrides {
                        schedule: Some(schedule),
                        memory: Some(memory),
                        preemption: Some(preemption),
                        irq_seed: Some(outcome.irq_seed),
                        ..TrialOverrides::default()
                    },
                    &mut scratch,
                )
                .expect("replays");
            prop_assert_eq!(&replay.machine_summary(), &outcome.summary);
        }
    }

    /// Different master seeds genuinely decorrelate trials: the derived
    /// seeds differ, so at least the generated trial summaries differ.
    #[test]
    fn master_seed_changes_trials(
        n in 2usize..4,
        master_seed in 0u64..1_000,
    ) {
        let scenario = scenario_for(n, 6, false, MergeOp::cyclic());
        let cfg = |seed| CampaignConfig {
            trials_per_round: 3,
            rounds: 1,
            workers: 2,
            master_seed: seed,
            learning: LearningConfig::default(),
            ..CampaignConfig::default()
        };
        let a = run(&scenario, &cfg(master_seed));
        let b = run(&scenario, &cfg(master_seed.wrapping_add(1)));
        let seeds_a: Vec<u64> = a.rounds[0].trials.iter().map(|t| t.seed).collect();
        let seeds_b: Vec<u64> = b.rounds[0].trials.iter().map(|t| t.seed).collect();
        prop_assert_ne!(seeds_a, seeds_b);
    }
}
