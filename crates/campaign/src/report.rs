//! Serializable campaign reports.
//!
//! A campaign's aggregate report is a **pure function of (scenario,
//! campaign configuration, master seed)** — it deliberately records
//! nothing about the worker pool that produced it, so the same campaign
//! run on 1 or 8 threads serializes to byte-identical JSON (the repo's
//! determinism property tests compare exactly that). Floating-point
//! aggregates are computed in trial-index order for the same reason.

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

use ptest_automata::{Alphabet, Pfa};
use ptest_core::{MinimizedRepro, ReportSummary};

/// One transition probability of a rendered distribution.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct DistributionEntry {
    /// Source DFA state.
    pub state: usize,
    /// Service name (e.g. `"TCH"`).
    pub service: String,
    /// Transition probability in `[0, 1]`.
    pub probability: f64,
}

/// A probability distribution rendered over the DFA skeleton in a
/// stable, serializable order (by state, then by interned symbol).
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct LearnedDistribution {
    /// Per-transition probabilities, sorted by `(state, symbol)`.
    pub entries: Vec<DistributionEntry>,
}

impl LearnedDistribution {
    /// Renders a compiled PFA's transition probabilities.
    #[must_use]
    pub fn from_pfa(pfa: &Pfa, alphabet: &Alphabet) -> LearnedDistribution {
        let mut entries = Vec::new();
        for state in 0..pfa.len() {
            for &(sym, _, probability) in pfa.transitions_from(state) {
                entries.push(DistributionEntry {
                    state,
                    service: alphabet.name(sym).unwrap_or("?").to_owned(),
                    probability,
                });
            }
        }
        LearnedDistribution { entries }
    }

    /// The probability of `service` out of `state`, if present.
    #[must_use]
    pub fn probability(&self, state: usize, service: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.state == state && e.service == service)
            .map(|e| e.probability)
    }
}

/// The outcome of one trial within a campaign round.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct TrialOutcome {
    /// Trial index within the round.
    pub trial: usize,
    /// The derived per-trial pattern seed (reproduce with
    /// [`AdaptiveTest::run`](ptest_core::AdaptiveTest::run) at this
    /// seed).
    pub seed: u64,
    /// The derived per-trial schedule seed. Together with `seed` and
    /// the distribution the trial's round generated from
    /// ([`RoundReport::distribution`] — the scenario's base
    /// distribution for round 0 or any learning-disabled campaign, the
    /// re-learned one for later learning rounds), this replays the
    /// trial — any reported bug included — byte for byte.
    pub schedule_seed: u64,
    /// Stable label of the schedule the trial ran under (e.g.
    /// `"lock-step"`, `"random-priority(d=3)"`).
    pub schedule: String,
    /// The derived per-trial memory seed — the third element of the
    /// replay quadruple. Recorded even under sequential consistency, where
    /// it has no behavioural effect.
    pub memory_seed: u64,
    /// Stable label of the memory model the trial ran under (e.g.
    /// `"seq-cst"`, `"store-buffer(d=24)"`).
    pub memory: String,
    /// The derived per-trial interrupt/preemption seed — the fourth
    /// element of the replay quadruple. Recorded even under the inert
    /// preemption spec, where it has no behavioural effect.
    pub irq_seed: u64,
    /// Stable label of the preemption spec the trial ran under (e.g.
    /// `"none"`, `"quantum(q=8)+irq(n=4)"`).
    pub preemption: String,
    /// Commands issued before the first bug, if any was found.
    pub commands_to_first_bug: Option<u64>,
    /// The stable machine summary of the trial's report.
    pub summary: ReportSummary,
}

/// One minimized reproducer produced by a campaign's opt-in post-round
/// minimization pass ([`CampaignConfig::minimize_bugs`](crate::CampaignConfig::minimize_bugs)):
/// the round's first trial that hit a not-yet-minimized bug class,
/// shrunk to a [`MinimizedRepro`] on the campaign's worker pool. Like
/// every other report ingredient it is a pure function of (scenario,
/// configuration, master seed) — worker count, shard split and
/// checkpoint boundaries never show through.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct MinimizedOutcome {
    /// Trial index (within the round) of the first hit of this class.
    pub trial: usize,
    /// The shrunk, explained, replayable reproducer.
    pub repro: MinimizedRepro,
}

/// Detection statistics of one exploration lane within a round: the
/// trials that ran under one spec (identified by its stable label) on one
/// axis. Which schedule budgets, memory models and preemption specs
/// surfaced bugs is the signal the adaptive loop can use to bias future
/// rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct AxisDetection {
    /// The exploration axis: `"schedule"`, `"memory"` or `"preemption"`.
    pub axis: String,
    /// The spec's label on that axis (see
    /// [`ScheduleSpec::label`](ptest_master::ScheduleSpec::label),
    /// [`MemoryModelSpec::label`](ptest_master::MemoryModelSpec::label)
    /// and [`PreemptionSpec::label`](ptest_master::PreemptionSpec::label)).
    pub label: String,
    /// Trials run under this spec this round.
    pub trials: usize,
    /// Of those, trials that detected at least one bug.
    pub trials_with_bugs: usize,
    /// Total bugs across those trials.
    pub bugs: usize,
}

/// Aggregate of one feedback round.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: usize,
    /// The probability distribution the round's patterns were generated
    /// from.
    pub distribution: LearnedDistribution,
    /// Per-trial outcomes, in trial order.
    pub trials: Vec<TrialOutcome>,
    /// Trials that detected at least one bug.
    pub trials_with_bugs: usize,
    /// Total bugs across the round.
    pub bugs: usize,
    /// Total remote commands issued across the round.
    pub total_commands: u64,
    /// Total simulated cycles across the round.
    pub total_cycles: u64,
    /// Mean of `commands_to_first_bug` over bug-finding trials.
    pub mean_commands_to_first_bug: Option<f64>,
    /// Per-spec detection aggregates: one row per distinct label run
    /// this round on each axis, grouped schedule → memory → preemption
    /// and in first-seen trial order within an axis. Each axis's rows
    /// partition the round's trials.
    pub axis_detection: Vec<AxisDetection>,
    /// Execution traces this round contributed to the feedback counts
    /// (0 when learning is disabled).
    pub traces_learned: u64,
    /// The distribution re-learned after this round from the campaign's
    /// *cumulative* trace counts — every learning round so far, not this
    /// round alone. This is what the next round generates with; `None`
    /// when learning is disabled.
    pub learned: Option<LearnedDistribution>,
    /// Minimized reproducers of the bug classes whose campaign-wide
    /// first hit happened this round — empty unless
    /// [`CampaignConfig::minimize_bugs`](crate::CampaignConfig::minimize_bugs)
    /// is on. In first-hit trial order.
    pub minimized: Vec<MinimizedOutcome>,
}

impl RoundReport {
    /// Fraction of trials that found at least one bug.
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials_with_bugs as f64 / self.trials.len() as f64
    }
}

/// The aggregate result of a whole campaign.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct CampaignReport {
    /// Scenario name.
    pub scenario: String,
    /// Master seed all trial seeds derive from.
    pub master_seed: u64,
    /// Trials per round.
    pub trials_per_round: usize,
    /// Per-round aggregates, in round order.
    pub rounds: Vec<RoundReport>,
}

impl CampaignReport {
    /// Total trials executed.
    #[must_use]
    pub fn total_trials(&self) -> usize {
        self.rounds.iter().map(|r| r.trials.len()).sum()
    }

    /// Total bugs detected.
    #[must_use]
    pub fn total_bugs(&self) -> usize {
        self.rounds.iter().map(|r| r.bugs).sum()
    }

    /// Trials that detected at least one bug.
    #[must_use]
    pub fn trials_with_bugs(&self) -> usize {
        self.rounds.iter().map(|r| r.trials_with_bugs).sum()
    }

    /// `(round, trial)` of the first bug-finding trial, if any.
    #[must_use]
    pub fn first_bug(&self) -> Option<(usize, usize)> {
        for round in &self.rounds {
            for outcome in &round.trials {
                if !outcome.summary.bugs.is_empty() {
                    return Some((round.round, outcome.trial));
                }
            }
        }
        None
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "campaign `{}`: {} rounds x {} trials (seed {}): {} bugs in {}/{} trials",
            self.scenario,
            self.rounds.len(),
            self.trials_per_round,
            self.master_seed,
            self.total_bugs(),
            self.trials_with_bugs(),
            self.total_trials(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_automata::{Dfa, ProbabilityAssignment, Regex};

    #[test]
    fn rendered_distribution_is_sorted_and_queryable() {
        let re = Regex::pcore_task_lifecycle();
        let dfa = Dfa::from_regex(&re).minimize();
        let pfa = Pfa::from_dfa(
            &dfa,
            re.alphabet().clone(),
            &ProbabilityAssignment::weights([
                ("TC", 1.0),
                ("TCH", 0.6),
                ("TS", 0.2),
                ("TD", 0.1),
                ("TY", 0.1),
                ("TR", 1.0),
            ]),
        )
        .unwrap();
        let dist = LearnedDistribution::from_pfa(&pfa, re.alphabet());
        assert_eq!(dist.entries.len(), dfa.transition_count());
        let mut sorted = dist.entries.clone();
        sorted.sort_by(|a, b| (a.state, &a.service).cmp(&(b.state, &b.service)));
        // Entries are emitted state-major; within a state the DFA's
        // BTreeMap ordering (interned symbol id) applies, which for this
        // alphabet need not be alphabetical — but it must be stable.
        let again = LearnedDistribution::from_pfa(&pfa, re.alphabet());
        assert_eq!(dist, again, "rendering is deterministic");
        let running = dfa
            .next(dfa.start(), re.alphabet().sym("TC").unwrap())
            .unwrap();
        let p = dist.probability(running, "TCH").unwrap();
        assert!((p - 0.6).abs() < 1e-9, "weights renormalize to 0.6: {p}");
        assert!(dist.probability(99, "TCH").is_none());
    }
}
