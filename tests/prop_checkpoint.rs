//! Checkpoint/resume and shard/merge determinism properties: killing a
//! campaign at any round boundary and resuming — at any worker count,
//! through JSON, or through the checkpoint file — must reproduce the
//! uninterrupted run's aggregate JSON byte for byte, and splitting a
//! round's seed space across shards and merging the shard reports must
//! reproduce the unsharded report byte for byte.

use proptest::prelude::*;
use ptest::pcore::{Op, Program};
use ptest::{
    AdaptiveTestConfig, Campaign, CampaignConfig, FnScenario, LearningConfig, ProgramId, Scenario,
    ShardSpec,
};

fn compute_setup(sys: &mut ptest::MultiCoreSystem) -> Vec<ProgramId> {
    vec![sys
        .kernel_of_mut(0)
        .register_program(Program::new(vec![Op::Compute(15), Op::Exit]).expect("valid"))]
}

fn scenario_for(n: usize, s: usize) -> impl Scenario {
    FnScenario::new(
        "prop-checkpoint",
        AdaptiveTestConfig {
            n,
            s,
            ..AdaptiveTestConfig::default()
        },
        compute_setup,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill at every round boundary k, resume at a different worker
    /// count, and the final aggregate JSON is byte-identical to the
    /// uninterrupted run — including a JSON roundtrip of the checkpoint
    /// itself in the middle (what a real kill + restart would do).
    #[test]
    fn kill_and_resume_is_byte_identical_across_worker_counts(
        n in 1usize..3,
        s in 2usize..6,
        trials in 2usize..6,
        rounds in 1usize..4,
        master_seed in 0u64..1_000,
        checkpoint_workers in 1usize..5,
        resume_workers in 1usize..5,
    ) {
        let scenario = scenario_for(n, s);
        let cfg = |workers| CampaignConfig {
            trials_per_round: trials,
            rounds,
            workers,
            master_seed,
            learning: LearningConfig::default(),
            ..CampaignConfig::default()
        };
        let full = Campaign::run(&cfg(1), &scenario).expect("valid campaign");
        let full_json = ptest::campaign_report_to_json(&full).expect("serializes");
        for kill_after in 0..=rounds {
            let checkpoint =
                Campaign::run_until(&cfg(checkpoint_workers), &scenario, kill_after)
                    .expect("runs to the boundary");
            prop_assert_eq!(checkpoint.next_round, kill_after);
            let json = ptest::campaign_checkpoint_to_json(&checkpoint).expect("serializes");
            let reloaded = ptest::campaign_checkpoint_from_json(&json).expect("parses");
            prop_assert_eq!(&reloaded, &checkpoint, "checkpoint JSON roundtrip is lossless");
            let resumed = Campaign::resume(&cfg(resume_workers), &scenario, &reloaded)
                .expect("resumes");
            let resumed_json = ptest::campaign_report_to_json(&resumed).expect("serializes");
            prop_assert_eq!(
                &resumed_json,
                &full_json,
                "kill after round {} must not leak into the archive",
                kill_after
            );
        }
    }

    /// Splitting each round's trial range across any shard count and
    /// merging the shard reports reproduces the unsharded campaign's
    /// JSON byte for byte — independent of the worker count each shard
    /// ran at. Learning campaigns shard at one round (multi-round
    /// learning couples shards and is rejected, covered by unit tests).
    #[test]
    fn sharded_runs_merge_to_the_unsharded_archive(
        n in 1usize..3,
        s in 2usize..6,
        trials in 2usize..8,
        master_seed in 0u64..1_000,
        shards in 1usize..5,
        learning in 0u8..2,
        shard_workers in 1usize..4,
    ) {
        let learning_on = learning == 1;
        let scenario = scenario_for(n, s);
        let cfg = |workers| CampaignConfig {
            trials_per_round: trials,
            // Multi-round sharding requires learning off; one round
            // shards either way.
            rounds: if learning_on { 1 } else { 3 },
            workers,
            master_seed,
            learning: LearningConfig {
                enabled: learning_on,
                ..LearningConfig::default()
            },
            ..CampaignConfig::default()
        };
        let full = Campaign::run(&cfg(1), &scenario).expect("valid campaign");
        let full_json = ptest::campaign_report_to_json(&full).expect("serializes");
        let reports: Vec<_> = (0..shards)
            .map(|index| {
                Campaign::run_shard(
                    &cfg(shard_workers),
                    &scenario,
                    ShardSpec { index, of: shards },
                )
                .expect("shard runs")
            })
            .collect();
        // Merge accepts shards in any order; reverse to prove it.
        let merged =
            Campaign::merge_shard_reports(&cfg(1), &scenario, reports.into_iter().rev().collect())
                .expect("merges");
        let merged_json = ptest::campaign_report_to_json(&merged).expect("serializes");
        prop_assert_eq!(&merged_json, &full_json, "shard split must not leak into the archive");
    }

    /// The file-based checkpoint loop: a campaign interrupted after its
    /// first round (simulated by a partial `run_until` checkpoint left
    /// on disk) resumes from the file and finishes with the
    /// uninterrupted run's exact archive; a fresh run (no file) matches
    /// too, and leaves a completed checkpoint behind.
    #[test]
    fn checkpoint_files_resume_to_the_identical_archive(
        n in 1usize..3,
        trials in 2usize..5,
        rounds in 2usize..4,
        master_seed in 0u64..1_000,
    ) {
        let scenario = scenario_for(n, 4);
        let cfg = CampaignConfig {
            trials_per_round: trials,
            rounds,
            workers: 2,
            master_seed,
            learning: LearningConfig::default(),
            ..CampaignConfig::default()
        };
        let full = Campaign::run(&cfg, &scenario).expect("valid campaign");
        let full_json = ptest::campaign_report_to_json(&full).expect("serializes");

        let path = std::env::temp_dir().join(format!(
            "ptest-prop-checkpoint-{}-{n}-{trials}-{rounds}-{master_seed}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        // Fresh run: no file to resume from; one is left behind.
        let fresh = Campaign::run_with_checkpoint_file(&cfg, &scenario, &path)
            .expect("fresh checkpointed run");
        prop_assert_eq!(
            ptest::campaign_report_to_json(&fresh).expect("serializes"),
            full_json.clone()
        );
        let final_checkpoint = std::fs::read_to_string(&path).expect("file left on success");
        let parsed = ptest::campaign_checkpoint_from_json(&final_checkpoint).expect("parses");
        prop_assert_eq!(parsed.next_round, rounds);

        // Interrupted run: overwrite the file with a round-1 snapshot,
        // as if the process had been killed there, then resume from it.
        let partial = Campaign::run_until(&cfg, &scenario, 1).expect("partial run");
        std::fs::write(
            &path,
            ptest::campaign_checkpoint_to_json(&partial).expect("serializes"),
        )
        .expect("writes");
        let resumed = Campaign::run_with_checkpoint_file(&cfg, &scenario, &path)
            .expect("resumed checkpointed run");
        prop_assert_eq!(
            ptest::campaign_report_to_json(&resumed).expect("serializes"),
            full_json
        );
        let _ = std::fs::remove_file(&path);
    }
}
