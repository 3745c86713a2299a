//! Seed-space sharding: splitting one campaign across processes or
//! machines without giving up byte-identical reports.
//!
//! A shard is a contiguous range of trial indices within every round.
//! Because each trial's seeds derive from its *absolute* index, a shard
//! runs exactly the trials the unsharded campaign would have run at
//! those indices — and because round reports are assembled from
//! per-trial outcomes alone, merging shards is concatenation (outcomes)
//! plus an exact integer merge (learning counts). The merged
//! [`CampaignReport`] is **byte-identical** to the unsharded run's; the
//! shard proptests compare exactly those JSON strings.
//!
//! The one coupling is cross-round learning: round `r + 1`'s
//! distribution depends on *every* shard's round-`r` traces, so a shard
//! cannot run ahead on its own. [`Campaign::run_shard`] therefore
//! rejects configurations with learning enabled across multiple rounds —
//! shard either a learning-off campaign (any number of rounds) or a
//! single round of a learning campaign; the merge re-learns the
//! distribution from the merged counts in both cases.

use ptest_core::{Scenario, TrialEngine, TrialScratch};

use crate::engine::{
    self, Campaign, CampaignConfig, CampaignError, CampaignState, RoundTrials, TrialPool,
};
use crate::report::{CampaignReport, TrialOutcome};
use ptest_automata::TransitionCounts;
use std::ops::Range;
use std::sync::Arc;

/// Which contiguous slice of every round's trial indices a shard owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index, `0 <= index < of`.
    pub index: usize,
    /// Total number of shards.
    pub of: usize,
}

impl ShardSpec {
    /// The absolute trial indices this shard owns out of
    /// `trials_per_round`: a balanced contiguous split, with the
    /// remainder spread over the leading shards. May be empty when there
    /// are more shards than trials.
    #[must_use]
    pub fn trials(&self, trials_per_round: usize) -> Range<usize> {
        let per = trials_per_round / self.of;
        let rem = trials_per_round % self.of;
        let lo = self.index * per + self.index.min(rem);
        let len = per + usize::from(self.index < rem);
        lo..lo + len
    }

    fn validate(&self) -> Result<(), CampaignError> {
        if self.of == 0 || self.index >= self.of {
            return Err(CampaignError::Shard(format!(
                "shard {}/{} is not a valid split",
                self.index, self.of
            )));
        }
        Ok(())
    }
}

/// One round's raw materials as produced by a single shard.
///
/// Carries both learn-fold candidates (all trials / bug-revealing trials
/// only) because the bug-biased choice between them needs the *global*
/// any-bugs signal, which only the merge has.
#[derive(Debug)]
pub struct ShardRound {
    /// Round index.
    pub round: usize,
    /// Outcomes of this shard's trials, in absolute trial-index order.
    pub outcomes: Vec<TrialOutcome>,
    pub(crate) counts_all: TransitionCounts,
    pub(crate) counts_bugs: TransitionCounts,
}

/// The result of one shard of a campaign, input to
/// [`Campaign::merge_shard_reports`].
#[derive(Debug)]
pub struct ShardReport {
    /// Scenario name.
    pub scenario: String,
    /// Fingerprint of the campaign configuration the shard ran under
    /// (see [`config_fingerprint`](crate::config_fingerprint)) — the
    /// merge refuses shards from differing campaigns.
    pub config_fingerprint: String,
    /// Which slice of the campaign this shard ran.
    pub shard: ShardSpec,
    /// Per-round raw materials, in round order.
    pub rounds: Vec<ShardRound>,
}

impl Campaign {
    /// Runs one shard of the campaign: trials
    /// `shard.trials(cfg.trials_per_round)` of every round.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Shard`] on an invalid split, or when
    /// `cfg.learning.enabled` with `cfg.rounds > 1` — cross-round
    /// learning makes round `r + 1` depend on every shard's round-`r`
    /// traces, which a standalone shard cannot know. Otherwise same as
    /// [`Campaign::run`].
    pub fn run_shard(
        cfg: &CampaignConfig,
        scenario: &dyn Scenario,
        shard: ShardSpec,
    ) -> Result<ShardReport, CampaignError> {
        shard.validate()?;
        if cfg.rounds == 0 || cfg.trials_per_round == 0 {
            return Err(CampaignError::EmptyCampaign);
        }
        if cfg.learning.enabled && cfg.rounds > 1 {
            return Err(CampaignError::Shard(
                "cross-round learning couples shards: shard a learning-off campaign \
                 or a single learning round"
                    .to_owned(),
            ));
        }
        if cfg.minimize_bugs {
            return Err(CampaignError::Shard(
                "minimization needs the campaign-wide first hit per bug class, \
                 which no standalone shard knows: minimize on the merged report's \
                 recorded seed quadruples instead"
                    .to_owned(),
            ));
        }
        let trials = shard.trials(cfg.trials_per_round);
        // Learning never advances past the only round that could use it,
        // so every round generates from the scenario's base distribution
        // — exactly as the unsharded run would.
        let engine = Arc::new(TrialEngine::new(scenario.base_config())?);
        let rounds = std::thread::scope(|scope| {
            let pool = TrialPool::start(scope, cfg.workers, TrialScratch::new);
            let mut rounds = Vec::with_capacity(cfg.rounds);
            for round in 0..cfg.rounds {
                let materials =
                    engine::run_round_trials(&pool, cfg, scenario, &engine, round, trials.clone())?;
                rounds.push(ShardRound {
                    round,
                    outcomes: materials.outcomes,
                    counts_all: materials.counts_all,
                    counts_bugs: materials.counts_bugs,
                });
            }
            Ok::<Vec<ShardRound>, CampaignError>(rounds)
        })?;
        Ok(ShardReport {
            scenario: scenario.name().to_owned(),
            config_fingerprint: crate::checkpoint::config_fingerprint(cfg),
            shard,
            rounds,
        })
    }

    /// Merges the reports of every shard of a campaign into the
    /// aggregate report — byte-identical to what the unsharded
    /// [`Campaign::run`] produces: outcomes concatenate in shard order
    /// (restoring absolute trial order), learning counts merge as exact
    /// integer sums, and the learned distribution is re-estimated from
    /// the merged counts.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Shard`] when the set of shards is not exactly
    /// `0..of` of this campaign (missing/duplicate shards, differing
    /// configuration fingerprints or scenario); otherwise same as
    /// [`Campaign::run`].
    pub fn merge_shard_reports(
        cfg: &CampaignConfig,
        scenario: &dyn Scenario,
        shards: Vec<ShardReport>,
    ) -> Result<CampaignReport, CampaignError> {
        let of = shards.len();
        let fingerprint = crate::checkpoint::config_fingerprint(cfg);
        let mut slots: Vec<Option<ShardReport>> = (0..of).map(|_| None).collect();
        for report in shards {
            if report.scenario != scenario.name() || report.config_fingerprint != fingerprint {
                return Err(CampaignError::Shard(format!(
                    "shard {}/{} belongs to a different campaign",
                    report.shard.index, report.shard.of
                )));
            }
            if report.shard.of != of || report.shard.index >= of {
                return Err(CampaignError::Shard(format!(
                    "got {of} shards but shard {}/{} among them",
                    report.shard.index, report.shard.of
                )));
            }
            let slot = &mut slots[report.shard.index];
            if slot.is_some() {
                return Err(CampaignError::Shard(format!(
                    "duplicate shard {}/{of}",
                    report.shard.index
                )));
            }
            *slot = Some(report);
        }
        let shards: Vec<ShardReport> = slots
            .into_iter()
            .map(|slot| slot.ok_or_else(|| CampaignError::Shard("missing shard".to_owned())))
            .collect::<Result<_, _>>()?;
        if shards.is_empty() {
            return Err(CampaignError::Shard("no shards to merge".to_owned()));
        }

        let base = scenario.base_config();
        let base_pd = base.pd.clone();
        let probe = TrialEngine::new(base)?;
        let mut state = CampaignState {
            pd: base_pd,
            counts: TransitionCounts::new(),
            rounds: Vec::with_capacity(cfg.rounds),
            next_round: 0,
        };
        for round in 0..cfg.rounds {
            let mut materials = RoundTrials {
                outcomes: Vec::with_capacity(cfg.trials_per_round),
                counts_all: TransitionCounts::new(),
                counts_bugs: TransitionCounts::new(),
            };
            for shard in &shards {
                let part = shard.rounds.get(round).ok_or_else(|| {
                    CampaignError::Shard(format!(
                        "shard {} is missing round {round}",
                        shard.shard.index
                    ))
                })?;
                materials.outcomes.extend(part.outcomes.iter().cloned());
                materials.counts_all.merge(&part.counts_all);
                materials.counts_bugs.merge(&part.counts_bugs);
            }
            // Every shardable configuration generates all rounds from the
            // base distribution, so the probe engine's PFA is exactly the
            // distribution snapshot close_round records.
            let report = engine::close_round(cfg, &probe, round, materials, &mut state)?;
            state.rounds.push(report);
            state.next_round = round + 1;
        }
        Ok(engine::report_of(cfg, scenario, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_core::AdaptiveTestConfig;
    use ptest_pcore::{Op, Program};

    use crate::engine::LearningConfig;
    use crate::FnScenario;

    fn scenario() -> impl Scenario {
        FnScenario::new(
            "compute",
            AdaptiveTestConfig {
                n: 2,
                s: 5,
                ..AdaptiveTestConfig::default()
            },
            |sys| {
                vec![sys
                    .kernel_of_mut(0)
                    .register_program(Program::new(vec![Op::Compute(20), Op::Exit]).unwrap())]
            },
        )
    }

    fn run_sharded(
        cfg: &CampaignConfig,
        scenario: &dyn Scenario,
        of: usize,
    ) -> Result<CampaignReport, CampaignError> {
        let shards = (0..of)
            .map(|index| Campaign::run_shard(cfg, scenario, ShardSpec { index, of }))
            .collect::<Result<Vec<_>, _>>()?;
        Campaign::merge_shard_reports(cfg, scenario, shards)
    }

    #[test]
    fn minimizing_campaigns_cannot_shard() {
        let scenario = scenario();
        let cfg = CampaignConfig {
            rounds: 1,
            minimize_bugs: true,
            learning: LearningConfig {
                enabled: false,
                ..LearningConfig::default()
            },
            ..CampaignConfig::default()
        };
        assert!(matches!(
            Campaign::run_shard(&cfg, &scenario, ShardSpec { index: 0, of: 2 }),
            Err(CampaignError::Shard(_))
        ));
    }

    #[test]
    fn shard_ranges_partition_the_trials() {
        for (trials, of) in [(10, 3), (7, 7), (3, 8), (16, 1), (100, 9)] {
            let mut covered = Vec::new();
            for index in 0..of {
                covered.extend(ShardSpec { index, of }.trials(trials));
            }
            assert_eq!(covered, (0..trials).collect::<Vec<_>>(), "{trials}/{of}");
        }
    }

    #[test]
    fn merged_shards_match_the_unsharded_run() {
        let scenario = scenario();
        // Single learning round: the merge re-learns from merged counts.
        let learning = CampaignConfig {
            trials_per_round: 9,
            rounds: 1,
            workers: 2,
            master_seed: 77,
            ..CampaignConfig::default()
        };
        // Learning off: sharding is legal across multiple rounds.
        let fixed = CampaignConfig {
            trials_per_round: 8,
            rounds: 3,
            workers: 2,
            master_seed: 78,
            learning: LearningConfig {
                enabled: false,
                ..LearningConfig::default()
            },
            ..CampaignConfig::default()
        };
        for cfg in [learning, fixed] {
            let whole = Campaign::run(&cfg, &scenario).unwrap();
            for of in [1, 2, 3, 5] {
                assert_eq!(
                    run_sharded(&cfg, &scenario, of).unwrap(),
                    whole,
                    "{of} shards"
                );
            }
        }
    }

    #[test]
    fn sharded_multi_round_learning_is_rejected() {
        let scenario = scenario();
        let cfg = CampaignConfig {
            rounds: 2,
            ..CampaignConfig::default()
        };
        assert!(matches!(
            Campaign::run_shard(&cfg, &scenario, ShardSpec { index: 0, of: 2 }),
            Err(CampaignError::Shard(_))
        ));
    }

    #[test]
    fn invalid_splits_and_foreign_shards_are_rejected() {
        let scenario = scenario();
        let cfg = CampaignConfig {
            trials_per_round: 4,
            rounds: 1,
            ..CampaignConfig::default()
        };
        assert!(matches!(
            Campaign::run_shard(&cfg, &scenario, ShardSpec { index: 2, of: 2 }),
            Err(CampaignError::Shard(_))
        ));
        assert!(matches!(
            Campaign::run_shard(&cfg, &scenario, ShardSpec { index: 0, of: 0 }),
            Err(CampaignError::Shard(_))
        ));

        let shard0 = Campaign::run_shard(&cfg, &scenario, ShardSpec { index: 0, of: 2 }).unwrap();
        // Missing shard 1.
        assert!(matches!(
            Campaign::merge_shard_reports(&cfg, &scenario, vec![shard0]),
            Err(CampaignError::Shard(_))
        ));
        // Duplicate shard 0.
        let a = Campaign::run_shard(&cfg, &scenario, ShardSpec { index: 0, of: 2 }).unwrap();
        let b = Campaign::run_shard(&cfg, &scenario, ShardSpec { index: 0, of: 2 }).unwrap();
        assert!(matches!(
            Campaign::merge_shard_reports(&cfg, &scenario, vec![a, b]),
            Err(CampaignError::Shard(_))
        ));
        // A shard of a different campaign (other master seed).
        let other = CampaignConfig {
            master_seed: cfg.master_seed + 1,
            ..cfg.clone()
        };
        let foreign =
            Campaign::run_shard(&other, &scenario, ShardSpec { index: 0, of: 1 }).unwrap();
        assert!(matches!(
            Campaign::merge_shard_reports(&cfg, &scenario, vec![foreign]),
            Err(CampaignError::Shard(_))
        ));
        assert!(matches!(
            Campaign::merge_shard_reports(&cfg, &scenario, Vec::new()),
            Err(CampaignError::Shard(_))
        ));
    }

    #[test]
    fn more_shards_than_trials_still_merge_cleanly() {
        let scenario = scenario();
        let cfg = CampaignConfig {
            trials_per_round: 3,
            rounds: 1,
            workers: 1,
            master_seed: 5,
            ..CampaignConfig::default()
        };
        let whole = Campaign::run(&cfg, &scenario).unwrap();
        assert_eq!(run_sharded(&cfg, &scenario, 6).unwrap(), whole);
    }
}
