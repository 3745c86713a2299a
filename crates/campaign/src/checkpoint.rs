//! Campaign checkpoint/resume: surviving a kill without losing
//! determinism.
//!
//! A long campaign is worth checkpointing — at real scale (millions of
//! trials) the run outlives CI timeouts, spot instances and operator
//! patience. A [`CampaignCheckpoint`] snapshots the campaign cursor at a
//! round boundary: the completed [`RoundReport`]s, the cumulative
//! [`TransitionCounts`] the learning loop has folded so far, and the
//! next round to run. That is *sufficient*: the next round's probability
//! distribution is a pure function of the counts (or the scenario's base
//! distribution before any learning round), so it is deliberately **not**
//! stored — resuming re-derives it exactly, and a resumed campaign's
//! final report is byte-identical to the uninterrupted run's (the
//! checkpoint proptests compare exactly those JSON strings).
//!
//! The snapshot is exact because everything in it is integral: counts
//! are `u64` sums and the report's floating-point aggregates are stored,
//! not recomputed. With the `serde` feature the checkpoint serializes to
//! JSON ([`CampaignCheckpoint::to_json`]) and
//! [`Campaign::run_with_checkpoint_file`] runs a campaign that
//! checkpoints after every round (atomically, via a temp-file rename)
//! and resumes from the file if it already exists.

use ptest_automata::{Sym, TransitionCounts};
use ptest_core::{Scenario, TrialEngine};

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

use crate::engine::{Campaign, CampaignConfig, CampaignError, CampaignState};
use crate::report::{CampaignReport, RoundReport};

/// Schema identifier stamped into every serialized checkpoint.
///
/// v4: rounds carry one `axis_detection` table (rows of `axis`, `label`
/// and counts) in place of the per-axis `schedule_detection`,
/// `memory_detection` and `preemption_detection` vectors.
///
/// v3: trial outcomes carry their `irq_seed` and preemption label (the
/// replay quadruple), rounds carry `preemption_detection` aggregates,
/// and minimized reproducers record the interrupt-injection shrink.
/// Earlier checkpoints are rejected (their round reports cannot express
/// the fields).
///
/// v2: completed rounds carry their `minimized` reproducers
/// ([`RoundReport::minimized`]), so resumed campaigns skip re-shrinking
/// classes a checkpointed round already minimized.
pub const CHECKPOINT_SCHEMA: &str = "ptest-campaign/checkpoint-v4";

/// One `(state, symbol, count)` entry of a counts snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct CountEntry {
    /// Source DFA state.
    pub state: usize,
    /// Interned symbol id (see [`Sym`]).
    pub sym: u16,
    /// Times the transition was observed.
    pub count: u64,
}

/// A deterministic, serializable snapshot of a [`TransitionCounts`]
/// accumulator: entries in ascending `(state, symbol)` order plus the
/// trace/symbol totals.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct CountsSnapshot {
    /// Traces consumed.
    pub traces: u64,
    /// Symbols consumed.
    pub symbols: u64,
    /// Per-transition counts, sorted by `(state, sym)`.
    pub entries: Vec<CountEntry>,
}

impl CountsSnapshot {
    /// Snapshots an accumulator.
    #[must_use]
    pub fn capture(counts: &TransitionCounts) -> CountsSnapshot {
        CountsSnapshot {
            traces: counts.trace_count(),
            symbols: counts.symbol_count(),
            entries: counts
                .entries()
                .into_iter()
                .map(|(state, sym, count)| CountEntry {
                    state,
                    sym: sym.0,
                    count,
                })
                .collect(),
        }
    }

    /// Rebuilds the accumulator. Exact: counts are integers, so the
    /// roundtrip loses nothing.
    #[must_use]
    pub fn restore(&self) -> TransitionCounts {
        TransitionCounts::from_parts(
            self.entries.iter().map(|e| (e.state, Sym(e.sym), e.count)),
            self.traces,
            self.symbols,
        )
    }
}

/// A resumable snapshot of a campaign at a round boundary.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct CampaignCheckpoint {
    /// Always [`CHECKPOINT_SCHEMA`].
    pub schema: String,
    /// Scenario name the campaign runs.
    pub scenario: String,
    /// Master seed of the campaign.
    pub master_seed: u64,
    /// Trials per round of the campaign.
    pub trials_per_round: usize,
    /// Total rounds of the campaign.
    pub rounds: usize,
    /// Fingerprint of the full campaign configuration with `workers`
    /// normalized to 0 — worker count never affects results, so a
    /// checkpoint taken at 8 workers resumes fine at 2.
    pub config_fingerprint: String,
    /// The next round to run (== number of completed rounds).
    pub next_round: usize,
    /// The campaign-cumulative learning counts after the completed
    /// rounds.
    pub counts: CountsSnapshot,
    /// Reports of the completed rounds, in round order.
    pub completed: Vec<RoundReport>,
}

/// The configuration fingerprint recorded in (and checked against)
/// checkpoints: the full `Debug` rendering with the result-neutral
/// `workers` field normalized out.
#[must_use]
pub fn config_fingerprint(cfg: &CampaignConfig) -> String {
    format!(
        "{:?}",
        CampaignConfig {
            workers: 0,
            ..cfg.clone()
        }
    )
}

impl CampaignCheckpoint {
    /// Snapshots the running state of a campaign.
    pub(crate) fn capture(
        cfg: &CampaignConfig,
        scenario: &str,
        state: &CampaignState,
    ) -> CampaignCheckpoint {
        CampaignCheckpoint {
            schema: CHECKPOINT_SCHEMA.to_owned(),
            scenario: scenario.to_owned(),
            master_seed: cfg.master_seed,
            trials_per_round: cfg.trials_per_round,
            rounds: cfg.rounds,
            config_fingerprint: config_fingerprint(cfg),
            next_round: state.next_round,
            counts: CountsSnapshot::capture(&state.counts),
            completed: state.rounds.clone(),
        }
    }

    /// Checks that this checkpoint belongs to `(cfg, scenario)`.
    fn validate(&self, cfg: &CampaignConfig, scenario: &dyn Scenario) -> Result<(), CampaignError> {
        let mismatch = |what: &str, ckpt: &str, now: &str| {
            Err(CampaignError::Checkpoint(format!(
                "{what} mismatch: checkpoint has {ckpt}, campaign has {now}"
            )))
        };
        if self.schema != CHECKPOINT_SCHEMA {
            return mismatch("schema", &self.schema, CHECKPOINT_SCHEMA);
        }
        if self.scenario != scenario.name() {
            return mismatch("scenario", &self.scenario, scenario.name());
        }
        let fingerprint = config_fingerprint(cfg);
        if self.config_fingerprint != fingerprint {
            return mismatch("configuration", &self.config_fingerprint, &fingerprint);
        }
        if self.next_round > cfg.rounds || self.completed.len() != self.next_round {
            return Err(CampaignError::Checkpoint(format!(
                "inconsistent cursor: next_round {} with {} completed rounds of {}",
                self.next_round,
                self.completed.len(),
                cfg.rounds
            )));
        }
        Ok(())
    }

    /// Rebuilds the campaign cursor this checkpoint snapshot captured.
    ///
    /// The probability distribution is re-derived rather than stored:
    /// identical integer counts re-estimate to the identical assignment,
    /// so the resumed rounds generate the same patterns the
    /// uninterrupted run would have.
    fn restore_state(
        &self,
        cfg: &CampaignConfig,
        scenario: &dyn Scenario,
    ) -> Result<CampaignState, CampaignError> {
        let base = scenario.base_config();
        let counts = self.counts.restore();
        let pd = if cfg.learning.enabled && self.next_round > 0 {
            let probe = TrialEngine::new(base.clone())?;
            let dfa = probe.generator().dfa();
            let alphabet = probe.generator().regex().alphabet();
            counts.to_assignment(dfa, alphabet, cfg.learning.alpha)
        } else {
            base.pd.clone()
        };
        Ok(CampaignState {
            pd,
            counts,
            rounds: self.completed.clone(),
            next_round: self.next_round,
        })
    }
}

impl Campaign {
    /// Runs the first `rounds_to_run` rounds of the campaign and returns
    /// the checkpoint a kill at that boundary would leave behind —
    /// primarily a test/operations hook for exercising resume paths
    /// without actually killing a process.
    ///
    /// # Errors
    ///
    /// Same as [`Campaign::run`].
    pub fn run_until(
        cfg: &CampaignConfig,
        scenario: &dyn Scenario,
        rounds_to_run: usize,
    ) -> Result<CampaignCheckpoint, CampaignError> {
        let state = Campaign::run_rounds(cfg, scenario, None, rounds_to_run, |_| Ok(()))?;
        Ok(CampaignCheckpoint::capture(cfg, scenario.name(), &state))
    }

    /// Resumes a campaign from `checkpoint` and runs it to completion.
    /// The final report is byte-identical to what the uninterrupted
    /// [`Campaign::run`] produces.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Checkpoint`] when the checkpoint does not belong
    /// to `(cfg, scenario)` (differing configuration fingerprint,
    /// scenario name or an inconsistent cursor); otherwise same as
    /// [`Campaign::run`].
    pub fn resume(
        cfg: &CampaignConfig,
        scenario: &dyn Scenario,
        checkpoint: &CampaignCheckpoint,
    ) -> Result<CampaignReport, CampaignError> {
        checkpoint.validate(cfg, scenario)?;
        let resume = checkpoint.restore_state(cfg, scenario)?;
        let state = Campaign::run_rounds(cfg, scenario, Some(resume), cfg.rounds, |_| Ok(()))?;
        Ok(crate::engine::report_of(cfg, scenario, state))
    }
}

#[cfg(feature = "serde")]
impl CampaignCheckpoint {
    /// Serializes the checkpoint as pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` errors (practically unreachable for this
    /// data).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a checkpoint back from JSON.
    ///
    /// # Errors
    ///
    /// `serde_json` errors on malformed input.
    pub fn from_json(json: &str) -> Result<CampaignCheckpoint, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(feature = "serde")]
impl Campaign {
    /// Runs the campaign with a JSON checkpoint file: if `path` exists
    /// the campaign resumes from it, and after every completed round the
    /// file is rewritten atomically (temp file + rename in the same
    /// directory). The file is left in place on success — delete it to
    /// start the campaign over.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Checkpoint`] on I/O or JSON failures and on a
    /// checkpoint that does not belong to `(cfg, scenario)`; otherwise
    /// same as [`Campaign::run`].
    pub fn run_with_checkpoint_file(
        cfg: &CampaignConfig,
        scenario: &dyn Scenario,
        path: &std::path::Path,
    ) -> Result<CampaignReport, CampaignError> {
        let io_err = |what: &str, e: &dyn std::fmt::Display| {
            CampaignError::Checkpoint(format!("{what} {}: {e}", path.display()))
        };
        let resume = if path.exists() {
            let json = std::fs::read_to_string(path).map_err(|e| io_err("reading", &e))?;
            let checkpoint =
                CampaignCheckpoint::from_json(&json).map_err(|e| io_err("parsing", &e))?;
            checkpoint.validate(cfg, scenario)?;
            Some(checkpoint.restore_state(cfg, scenario)?)
        } else {
            None
        };
        let state = Campaign::run_rounds(cfg, scenario, resume, cfg.rounds, |state| {
            let checkpoint = CampaignCheckpoint::capture(cfg, scenario.name(), state);
            let json = checkpoint
                .to_json()
                .map_err(|e| io_err("serializing", &e))?;
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, json).map_err(|e| io_err("writing", &e))?;
            std::fs::rename(&tmp, path).map_err(|e| io_err("committing", &e))?;
            Ok(())
        })?;
        Ok(crate::engine::report_of(cfg, scenario, state))
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

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            trials_per_round: 5,
            rounds: 3,
            workers: 2,
            master_seed: 31,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn resume_at_every_round_boundary_matches_the_uninterrupted_run() {
        let scenario = scenario();
        let cfg = cfg();
        let full = Campaign::run(&cfg, &scenario).unwrap();
        for kill_after in 0..=cfg.rounds {
            let checkpoint = Campaign::run_until(&cfg, &scenario, kill_after).unwrap();
            assert_eq!(checkpoint.next_round, kill_after);
            assert_eq!(checkpoint.completed.len(), kill_after);
            let resumed = Campaign::resume(&cfg, &scenario, &checkpoint).unwrap();
            assert_eq!(resumed, full, "killed after round {kill_after}");
        }
    }

    #[test]
    fn resume_is_worker_count_independent() {
        let scenario = scenario();
        let mut cfg = cfg();
        let full = Campaign::run(&cfg, &scenario).unwrap();
        cfg.workers = 8;
        let checkpoint = Campaign::run_until(&cfg, &scenario, 1).unwrap();
        cfg.workers = 1;
        let resumed = Campaign::resume(&cfg, &scenario, &checkpoint).unwrap();
        assert_eq!(resumed, full);
    }

    #[test]
    fn minimizing_campaigns_resume_without_reshrinking() {
        let scenario = ptest_faults::races::OrderViolationScenario::buggy();
        let cfg = CampaignConfig {
            trials_per_round: 6,
            rounds: 2,
            workers: 2,
            master_seed: 2009,
            learning: LearningConfig {
                enabled: false,
                ..LearningConfig::default()
            },
            minimize_bugs: true,
            ..CampaignConfig::default()
        };
        let full = Campaign::run(&cfg, &scenario).unwrap();
        assert!(
            !full.rounds[0].minimized.is_empty(),
            "round 0 should shrink the seeded race"
        );
        // Resume after round 0: the checkpointed round's reproducers are
        // restored, their classes are not re-shrunk, and the final
        // report is byte-identical to the uninterrupted run's.
        let checkpoint = Campaign::run_until(&cfg, &scenario, 1).unwrap();
        let resumed = Campaign::resume(&cfg, &scenario, &checkpoint).unwrap();
        assert_eq!(resumed, full);
        let round0: std::collections::BTreeSet<&str> = full.rounds[0]
            .minimized
            .iter()
            .map(|m| m.repro.bug_class.as_str())
            .collect();
        for m in &full.rounds[1].minimized {
            assert!(
                !round0.contains(m.repro.bug_class.as_str()),
                "class `{}` was shrunk twice",
                m.repro.bug_class
            );
        }
    }

    #[test]
    fn counts_snapshot_roundtrips() {
        let scenario = scenario();
        let checkpoint = Campaign::run_until(&cfg(), &scenario, 2).unwrap();
        assert!(checkpoint.counts.traces > 0, "learning is on by default");
        let restored = checkpoint.counts.restore();
        assert_eq!(CountsSnapshot::capture(&restored), checkpoint.counts);
    }

    #[test]
    fn foreign_checkpoints_are_rejected() {
        let scenario = scenario();
        let cfg = cfg();
        let checkpoint = Campaign::run_until(&cfg, &scenario, 1).unwrap();

        let other_seed = CampaignConfig {
            master_seed: 32,
            ..cfg.clone()
        };
        assert!(matches!(
            Campaign::resume(&other_seed, &scenario, &checkpoint),
            Err(CampaignError::Checkpoint(_))
        ));

        let other_learning = CampaignConfig {
            learning: LearningConfig {
                alpha: 0.25,
                ..LearningConfig::default()
            },
            ..cfg.clone()
        };
        assert!(matches!(
            Campaign::resume(&other_learning, &scenario, &checkpoint),
            Err(CampaignError::Checkpoint(_))
        ));

        // Worker count is result-neutral and must NOT be rejected.
        let other_workers = CampaignConfig {
            workers: 7,
            ..cfg.clone()
        };
        assert!(Campaign::resume(&other_workers, &scenario, &checkpoint).is_ok());

        let mut stale = checkpoint.clone();
        stale.schema = "something-else".to_owned();
        assert!(matches!(
            Campaign::resume(&cfg, &scenario, &stale),
            Err(CampaignError::Checkpoint(_))
        ));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn checkpoint_json_roundtrips() {
        let scenario = scenario();
        let checkpoint = Campaign::run_until(&cfg(), &scenario, 2).unwrap();
        let json = checkpoint.to_json().unwrap();
        assert!(json.contains(CHECKPOINT_SCHEMA));
        let parsed = CampaignCheckpoint::from_json(&json).unwrap();
        assert_eq!(parsed, checkpoint);
        // The resumed-from-JSON report still matches the uninterrupted
        // run — the roundtrip loses nothing that affects results.
        let resumed = Campaign::resume(&cfg(), &scenario, &parsed).unwrap();
        assert_eq!(resumed, Campaign::run(&cfg(), &scenario).unwrap());
    }
}
