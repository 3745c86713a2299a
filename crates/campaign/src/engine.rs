//! The campaign engine: Algorithm 1 lifted from one run to a fleet.
//!
//! A campaign executes `rounds × trials_per_round` independent adaptive
//! trials of one [`Scenario`]. The campaign owns a persistent
//! [`WorkerPool`](crate::pool) for its whole lifetime — threads are
//! spawned once and every round is dispatched to them as a batch, so the
//! per-round cost is a channel send per worker, not a pool teardown.
//! Every trial owns a private deterministic
//! [`MultiCoreSystem`](ptest_master::MultiCoreSystem), so trials
//! embarrassingly parallelize; each trial's trace-derived
//! [`TransitionCounts`] delta is computed *inside its worker*, leaving
//! only an entry-wise `u64` merge (and the PFA re-compile) on the
//! dispatcher between rounds.
//!
//! Between rounds the engine closes the paper's adaptive loop at fleet
//! scale: the merged counts are re-estimated into the probability
//! distribution the *next* round's patterns are generated from. When any
//! trial of a round found bugs and `bug_biased` learning is on, only
//! bug-revealing trials contribute — steering later rounds toward
//! fault-revealing interleavings.
//!
//! Determinism is a hard invariant: trial seeds derive from the master
//! seed by index, results aggregate in index order, count merging is an
//! exact commutative sum, and the report records nothing about the pool
//! — so a campaign's outcome is a pure function of (scenario,
//! configuration, master seed), independent of worker count, shard
//! split ([`Campaign::run_shard`]) or checkpoint/resume boundaries
//! ([`Campaign::resume`]).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use ptest_automata::{Pfa, TransitionCounts};
use ptest_core::{
    minimize_scenario_trial, AdaptiveTestConfig, AdaptiveTestError, MemoryModelSpec,
    MinimizeConfig, MinimizeError, PreemptionSpec, RandomPriorityConfig, Scenario, ScheduleSpec,
    TestReport, TrialEngine, TrialScratch,
};

use crate::learning;
use crate::pool;
use crate::report::{
    AxisDetection, CampaignReport, LearnedDistribution, MinimizedOutcome, RoundReport, TrialOutcome,
};

/// Knobs of the cross-trial feedback loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningConfig {
    /// Whether to re-learn the distribution between rounds at all.
    pub enabled: bool,
    /// Laplace smoothing over the skeleton's transitions — keeps rarely
    /// observed services alive in later rounds.
    pub alpha: f64,
    /// When any trial of a round found bugs, learn only from the
    /// bug-revealing trials (the adaptive bias of the paper's loop);
    /// otherwise every trial contributes.
    pub bug_biased: bool,
}

impl Default for LearningConfig {
    fn default() -> LearningConfig {
        LearningConfig {
            enabled: true,
            alpha: 0.5,
            bug_biased: true,
        }
    }
}

/// Configuration of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Independent trials per feedback round.
    ///
    /// This is also the parallelism grain: a round is one batch on the
    /// worker pool, and the serial between-round work (count merging and
    /// the PFA re-compile, microseconds on the paper-sized skeletons) is
    /// paid once per round. For parallel speedup to be measurable, keep
    /// `trials_per_round` well above the worker count — as a floor,
    /// `workers × 8` trials per round keeps the chunked claiming
    /// balanced; hundreds per round make the serial phase vanish
    /// entirely. A campaign of many tiny rounds measures dispatch
    /// latency, not throughput.
    pub trials_per_round: usize,
    /// Feedback rounds (1 = no cross-trial adaptation takes effect).
    pub rounds: usize,
    /// Worker threads. Affects wall-clock time only, never results.
    pub workers: usize,
    /// Master seed; every trial seed derives from it deterministically.
    pub master_seed: u64,
    /// The feedback loop.
    pub learning: LearningConfig,
    /// Schedule-budget rotation. Empty (the default) runs every trial
    /// under the scenario's own
    /// [`schedule`](ptest_core::AdaptiveTestConfig::schedule) spec.
    /// Non-empty, trial `t` of each round runs under a PCT-style
    /// [`RandomPriorityScheduler`](ptest_master::RandomPriorityScheduler)
    /// with `budgets[t % budgets.len()]` priority-change points — so one
    /// campaign sweeps several schedule-search depths and
    /// [`RoundReport::axis_detection`]'s schedule rows report which
    /// budgets find bugs.
    pub schedule_budgets: Vec<usize>,
    /// Memory-model rotation. Empty (the default) runs every trial under
    /// the scenario's own
    /// [`memory`](ptest_core::AdaptiveTestConfig::memory) spec.
    /// Non-empty, trial `t` of each round runs under
    /// `memory_models[t % memory_models.len()]` — so one campaign probes
    /// the same (pattern × schedule) space under several propagation
    /// semantics and [`RoundReport::axis_detection`]'s memory rows
    /// report which models surface bugs.
    pub memory_models: Vec<MemoryModelSpec>,
    /// Preemption rotation. Empty (the default) runs every trial under
    /// the scenario's own
    /// [`preemption`](ptest_core::AdaptiveTestConfig::preemption) spec.
    /// Non-empty, trial `t` of each round runs under
    /// `preemption_specs[t % preemption_specs.len()]` — so one campaign
    /// sweeps quantum/clock-skew/interrupt configurations (including the
    /// inert spec as a control lane) and
    /// [`RoundReport::axis_detection`]'s preemption rows report which
    /// specs surface bugs. Every trial's interrupt plan draws from its
    /// own derived `irq_seed`, recorded on the outcome for quadruple
    /// replay.
    pub preemption_specs: Vec<PreemptionSpec>,
    /// Opt-in post-round minimization: after each round closes, the
    /// campaign-wide *first* hit of every not-yet-minimized bug class is
    /// shrunk to a [`MinimizedRepro`](ptest_core::MinimizedRepro) on the
    /// same worker pool and attached to
    /// [`RoundReport::minimized`](crate::RoundReport::minimized).
    /// Shrinking happens while the round's engine (its learned
    /// distribution) is alive, so the reproducer replays the hit
    /// byte-identically. Not supported in sharded campaigns, where no
    /// shard knows the global first hit ([`Campaign::run_shard`]
    /// rejects it).
    pub minimize_bugs: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            trials_per_round: 16,
            rounds: 2,
            workers: 4,
            master_seed: 2009,
            learning: LearningConfig::default(),
            schedule_budgets: Vec::new(),
            memory_models: Vec::new(),
            preemption_specs: Vec::new(),
            minimize_bugs: false,
        }
    }
}

impl CampaignConfig {
    /// The `(schedule, memory, preemption)` specs trial `trial` of every
    /// round runs under. On each axis with a non-empty rotation the
    /// trial takes entry `trial % len`; otherwise it keeps `base`'s own
    /// spec. A schedule budget turns `base`'s schedule into a
    /// [`RandomPriorityScheduler`](ptest_master::RandomPriorityScheduler)
    /// with that many change points, keeping `base`'s other
    /// random-priority settings. Together with the trial's recorded seed
    /// quadruple these specs replay it through
    /// [`TrialEngine::run_scenario_trial_overridden`].
    #[must_use]
    pub fn trial_specs(
        &self,
        base: &AdaptiveTestConfig,
        trial: usize,
    ) -> (ScheduleSpec, MemoryModelSpec, PreemptionSpec) {
        fn lane<T: Copy>(rotation: &[T], trial: usize) -> Option<T> {
            trial.checked_rem(rotation.len()).map(|i| rotation[i])
        }
        let schedule = match lane(&self.schedule_budgets, trial) {
            None => base.schedule,
            Some(change_points) => {
                let rp = match base.schedule {
                    ScheduleSpec::RandomPriority(rp) => rp,
                    ScheduleSpec::LockStep => RandomPriorityConfig::default(),
                };
                ScheduleSpec::RandomPriority(RandomPriorityConfig {
                    change_points,
                    ..rp
                })
            }
        };
        (
            schedule,
            lane(&self.memory_models, trial).unwrap_or(base.memory),
            lane(&self.preemption_specs, trial).unwrap_or(base.preemption),
        )
    }
}

/// Error running a campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// A trial (or the round's PFA compilation) failed.
    Adaptive(AdaptiveTestError),
    /// `rounds` or `trials_per_round` was zero.
    EmptyCampaign,
    /// An invalid shard split, or a sharded configuration whose rounds
    /// are coupled by learning (see [`Campaign::run_shard`]).
    Shard(String),
    /// A checkpoint that does not belong to this campaign, or a failure
    /// reading/writing a checkpoint file.
    Checkpoint(String),
    /// The post-round minimization pass failed on a reproducer — a
    /// determinism regression (the recorded hit no longer replays, or
    /// the minimized triple replays unstably), never expected.
    Minimize(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Adaptive(e) => write!(f, "trial error: {e}"),
            CampaignError::EmptyCampaign => {
                write!(f, "campaign needs at least one round and one trial")
            }
            CampaignError::Shard(msg) => write!(f, "shard error: {msg}"),
            CampaignError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            CampaignError::Minimize(msg) => write!(f, "minimize error: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<AdaptiveTestError> for CampaignError {
    fn from(e: AdaptiveTestError) -> CampaignError {
        CampaignError::Adaptive(e)
    }
}

/// The seed quadruple of `trial` in `round`: its pattern, schedule,
/// memory and interrupt seeds, each derived from the master seed on its
/// own independent stream (splitmix64 over the indices — decorrelated,
/// collision-free in practice, and stable across platforms). A campaign
/// thus explores (pattern × schedule × memory × preemption) space rather
/// than a diagonal of it, and a recorded quadruple replays any trial byte
/// for byte. Re-exported from [`ptest_soc::seed`].
pub use ptest_soc::seed::{
    campaign_irq_seed as irq_seed, campaign_memory_seed as memory_seed,
    campaign_schedule_seed as schedule_seed, campaign_trial_seed as trial_seed,
};

/// The campaign runner.
#[derive(Debug)]
pub struct Campaign;

/// What one trial contributes, computed entirely inside its worker: the
/// serializable outcome plus the trial's private trace-count delta
/// (empty when learning is off).
pub(crate) struct TrialYield {
    pub(crate) outcome: TrialOutcome,
    pub(crate) counts: TransitionCounts,
}

/// What one pool job yields. The pool's result type is fixed for its
/// lifetime, and a campaign dispatches two job shapes to the same
/// persistent pool — ordinary round trials and post-round minimization
/// jobs — so the yield is this enum; each batch folds only its own
/// variant.
pub(crate) enum WorkerYield {
    Trial(Box<TrialYield>),
    Minimized(Box<Result<MinimizedOutcome, MinimizeError>>),
}

pub(crate) type TrialResult = Result<WorkerYield, AdaptiveTestError>;

/// The persistent pool a campaign dispatches its rounds to.
pub(crate) type TrialPool<'env> = pool::WorkerPool<'env, TrialResult, TrialScratch>;

/// The aggregated materials of one round (or one shard of a round):
/// outcomes in trial order plus both learn-fold candidates — the
/// bug-biased choice between them needs the *global* any-bugs signal,
/// which a shard does not have locally.
pub(crate) struct RoundTrials {
    pub(crate) outcomes: Vec<TrialOutcome>,
    pub(crate) counts_all: TransitionCounts,
    pub(crate) counts_bugs: TransitionCounts,
}

/// The dispatcher-side campaign cursor: everything the round loop
/// carries across rounds. This is exactly what a checkpoint snapshots —
/// `pd` is deliberately *not* part of it on disk, because it is a pure
/// function of `counts` (or the scenario's base distribution before any
/// learning round completed).
pub(crate) struct CampaignState {
    pub(crate) pd: ptest_automata::ProbabilityAssignment,
    pub(crate) counts: TransitionCounts,
    pub(crate) rounds: Vec<RoundReport>,
    pub(crate) next_round: usize,
}

impl Campaign {
    /// Runs the full campaign of `scenario` under `cfg` and returns the
    /// aggregate report.
    ///
    /// # Errors
    ///
    /// [`CampaignError::EmptyCampaign`] on a zero-round or zero-trial
    /// configuration; [`CampaignError::Adaptive`] if the scenario's
    /// regex/distribution is invalid or a trial's committer rejects its
    /// configuration.
    pub fn run(
        cfg: &CampaignConfig,
        scenario: &dyn Scenario,
    ) -> Result<CampaignReport, CampaignError> {
        let state = Campaign::run_rounds(cfg, scenario, None, cfg.rounds, |_| Ok(()))?;
        Ok(report_of(cfg, scenario, state))
    }

    /// The shared round loop: runs rounds `state.next_round..limit`
    /// (`state` fresh unless resuming), invoking `after_round` with the
    /// updated state after each completed round — the checkpoint hook.
    ///
    /// One [`TrialPool`] spans every remaining round: worker threads and
    /// their [`TrialScratch`] buffers are reused across round
    /// boundaries, so per-round dispatch cost is a channel send per
    /// worker.
    pub(crate) fn run_rounds(
        cfg: &CampaignConfig,
        scenario: &dyn Scenario,
        resume: Option<CampaignState>,
        limit: usize,
        mut after_round: impl FnMut(&CampaignState) -> Result<(), CampaignError>,
    ) -> Result<CampaignState, CampaignError> {
        if cfg.rounds == 0 || cfg.trials_per_round == 0 {
            return Err(CampaignError::EmptyCampaign);
        }
        let base = scenario.base_config();
        let mut state = resume.unwrap_or_else(|| CampaignState {
            pd: base.pd.clone(),
            counts: TransitionCounts::new(),
            rounds: Vec::with_capacity(cfg.rounds),
            next_round: 0,
        });
        let limit = limit.min(cfg.rounds);

        std::thread::scope(|scope| {
            let pool = TrialPool::start(scope, cfg.workers, TrialScratch::new);
            // Bug classes already minimized by completed (possibly
            // checkpointed) rounds — each class is shrunk exactly once
            // per campaign.
            let mut minimized_classes: std::collections::BTreeSet<String> = state
                .rounds
                .iter()
                .flat_map(|r| r.minimized.iter().map(|m| m.repro.bug_class.clone()))
                .collect();
            while state.next_round < limit {
                let round = state.next_round;
                let engine = Arc::new(TrialEngine::new(AdaptiveTestConfig {
                    pd: state.pd.clone(),
                    ..base.clone()
                })?);
                let trials = run_round_trials(
                    &pool,
                    cfg,
                    scenario,
                    &engine,
                    round,
                    0..cfg.trials_per_round,
                )?;
                let mut report = close_round(cfg, &engine, round, trials, &mut state)?;
                if cfg.minimize_bugs {
                    // Must run while this round's engine (its learned
                    // distribution) is alive — the reproducer replays
                    // the hit through exactly the PFA that produced it.
                    report.minimized = minimize_round(
                        &pool,
                        cfg,
                        scenario,
                        &engine,
                        round,
                        &report.trials,
                        &mut minimized_classes,
                    )?;
                }
                state.rounds.push(report);
                state.next_round = round + 1;
                after_round(&state)?;
            }
            Ok::<(), CampaignError>(())
        })?;

        Ok(state)
    }
}

/// Wraps a finished state into the aggregate report.
pub(crate) fn report_of(
    cfg: &CampaignConfig,
    scenario: &dyn Scenario,
    state: CampaignState,
) -> CampaignReport {
    CampaignReport {
        scenario: scenario.name().to_owned(),
        master_seed: cfg.master_seed,
        trials_per_round: cfg.trials_per_round,
        rounds: state.rounds,
    }
}

/// Dispatches trials `trials` (absolute indices within `round`) as one
/// batch on the pool and folds the workers' yields in index order.
///
/// Each worker job runs its trial *and* segments the resulting trace
/// into a private [`TransitionCounts`] delta, so the dispatcher's serial
/// share of the learn fold is an entry-wise integer merge. The fold is
/// order-exact: merging per-trial deltas is algebraically identical to
/// the sequential `observe_report` loop it replaces.
pub(crate) fn run_round_trials<'env>(
    pool: &TrialPool<'env>,
    cfg: &'env CampaignConfig,
    scenario: &'env dyn Scenario,
    engine: &Arc<TrialEngine>,
    round: usize,
    trials: Range<usize>,
) -> Result<RoundTrials, CampaignError> {
    let jobs = trials.len();
    let lo = trials.start;
    let master_seed = cfg.master_seed;
    let learn = cfg.learning.enabled;
    let engine = Arc::clone(engine);
    let results = pool.run_batch(jobs, move |scratch, i| {
        let trial = lo + i;
        let (schedule, memory, preemption) = cfg.trial_specs(engine.config(), trial);
        let report = engine.run_scenario_trial_overridden(
            scenario,
            trial_seed(master_seed, round, trial),
            schedule_seed(master_seed, round, trial),
            memory_seed(master_seed, round, trial),
            ptest_core::TrialOverrides {
                schedule: Some(schedule),
                memory: Some(memory),
                preemption: Some(preemption),
                irq_seed: Some(irq_seed(master_seed, round, trial)),
                ..ptest_core::TrialOverrides::default()
            },
            scratch,
        )?;
        let mut counts = TransitionCounts::new();
        if learn {
            learning::observe_report(&mut counts, &report, engine.generator().dfa());
        }
        Ok(WorkerYield::Trial(Box::new(TrialYield {
            outcome: outcome_of(master_seed, round, trial, &report),
            counts,
        })))
    });

    let mut out = RoundTrials {
        outcomes: Vec::with_capacity(jobs),
        counts_all: TransitionCounts::new(),
        counts_bugs: TransitionCounts::new(),
    };
    for result in results {
        let WorkerYield::Trial(yielded) = result? else {
            unreachable!("trial batches yield trial results");
        };
        out.counts_all.merge(&yielded.counts);
        if !yielded.outcome.summary.bugs.is_empty() {
            out.counts_bugs.merge(&yielded.counts);
        }
        out.outcomes.push(yielded.outcome);
    }
    Ok(out)
}

/// The post-round minimization pass: for every bug class whose
/// campaign-wide *first* hit happened this round, shrink that hit on the
/// worker pool ([`minimize_scenario_trial`]) and return the reproducers
/// in first-hit trial order.
///
/// `seen` carries the classes minimized by earlier rounds (restored from
/// the completed rounds on resume) and is extended with this round's
/// classes — so a class is shrunk exactly once per campaign no matter
/// how often it recurs, and the output is independent of checkpoint
/// boundaries.
pub(crate) fn minimize_round<'env>(
    pool: &TrialPool<'env>,
    cfg: &'env CampaignConfig,
    scenario: &'env dyn Scenario,
    engine: &Arc<TrialEngine>,
    round: usize,
    outcomes: &[TrialOutcome],
    seen: &mut std::collections::BTreeSet<String>,
) -> Result<Vec<MinimizedOutcome>, CampaignError> {
    let mut jobs: Vec<(usize, String)> = Vec::new();
    for outcome in outcomes {
        for bug in &outcome.summary.bugs {
            if seen.insert(bug.class.clone()) {
                jobs.push((outcome.trial, bug.class.clone()));
            }
        }
    }
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    let master_seed = cfg.master_seed;
    let engine = Arc::clone(engine);
    let n_jobs = jobs.len();
    let results = pool.run_batch(n_jobs, move |scratch, i| {
        let (trial, class) = &jobs[i];
        let trial = *trial;
        let (schedule, memory, preemption) = cfg.trial_specs(engine.config(), trial);
        let minimized = minimize_scenario_trial(
            &engine,
            scenario,
            trial_seed(master_seed, round, trial),
            schedule_seed(master_seed, round, trial),
            memory_seed(master_seed, round, trial),
            irq_seed(master_seed, round, trial),
            schedule,
            memory,
            preemption,
            Some(class),
            &MinimizeConfig::default(),
            scratch,
        )
        .map(|repro| MinimizedOutcome { trial, repro });
        Ok(WorkerYield::Minimized(Box::new(minimized)))
    });
    let mut out = Vec::with_capacity(n_jobs);
    for result in results {
        let WorkerYield::Minimized(minimized) = result? else {
            unreachable!("minimize batches yield minimize results");
        };
        match *minimized {
            Ok(m) => out.push(m),
            Err(MinimizeError::Trial(e)) => return Err(CampaignError::Adaptive(e)),
            Err(e) => return Err(CampaignError::Minimize(e.to_string())),
        }
    }
    Ok(out)
}

/// Extracts a trial's serializable outcome from its report.
fn outcome_of(master_seed: u64, round: usize, trial: usize, report: &TestReport) -> TrialOutcome {
    TrialOutcome {
        trial,
        seed: trial_seed(master_seed, round, trial),
        schedule_seed: report.schedule_seed,
        schedule: report.config.schedule.label(),
        memory_seed: report.memory_seed,
        memory: report.config.memory.label(),
        irq_seed: report.irq_seed,
        preemption: report.config.preemption.label(),
        commands_to_first_bug: report.commands_to_first_bug(),
        summary: report.machine_summary(),
    }
}

/// Closes one round: applies the (possibly bug-biased) learn fold to the
/// campaign-cumulative counts, re-learns the next round's distribution,
/// and assembles the round report from the outcomes.
pub(crate) fn close_round(
    cfg: &CampaignConfig,
    engine: &TrialEngine,
    round: usize,
    trials: RoundTrials,
    state: &mut CampaignState,
) -> Result<RoundReport, CampaignError> {
    let dfa = engine.generator().dfa();
    let alphabet = engine.generator().regex().alphabet();
    let distribution = LearnedDistribution::from_pfa(engine.generator().pfa(), alphabet);
    let mut traces_learned = 0u64;
    let mut learned = None;
    if cfg.learning.enabled {
        let any_bugs = trials.outcomes.iter().any(|o| !o.summary.bugs.is_empty());
        let chosen = if cfg.learning.bug_biased && any_bugs {
            &trials.counts_bugs
        } else {
            &trials.counts_all
        };
        traces_learned = chosen.trace_count();
        state.counts.merge(chosen);
        state.pd = state
            .counts
            .to_assignment(dfa, alphabet, cfg.learning.alpha);
        // Compile eagerly so an invalid learned assignment fails loudly
        // here, attributed to this round — not on the next round's
        // TrialEngine::new (or, on the final round, never).
        let pfa = Pfa::from_dfa(dfa, alphabet.clone(), &state.pd)
            .map_err(|e| CampaignError::Adaptive(AdaptiveTestError::Pfa(e)))?;
        learned = Some(LearnedDistribution::from_pfa(&pfa, alphabet));
    }
    Ok(assemble_round(
        round,
        distribution,
        trials.outcomes,
        traces_learned,
        learned,
    ))
}

/// Reads the spec label a trial outcome records on one axis.
type AxisLabel = fn(&TrialOutcome) -> &str;

/// The exploration axes of [`RoundReport::axis_detection`], in row
/// order: each axis's name and the label its trials record.
const AXES: [(&str, AxisLabel); 3] = [
    ("schedule", |o| &o.schedule),
    ("memory", |o| &o.memory),
    ("preemption", |o| &o.preemption),
];

/// Assembles a round report from per-trial outcomes alone — no live
/// [`TestReport`]s involved, which is what lets sharded rounds merge by
/// concatenating their outcome vectors.
pub(crate) fn assemble_round(
    round: usize,
    distribution: LearnedDistribution,
    trials: Vec<TrialOutcome>,
    traces_learned: u64,
    learned: Option<LearnedDistribution>,
) -> RoundReport {
    let mut trials_with_bugs = 0usize;
    let mut bugs = 0usize;
    let mut total_commands = 0u64;
    let mut total_cycles = 0u64;
    let mut first_bug_sum = 0u64;
    for outcome in &trials {
        let found = outcome.summary.bugs.len();
        if found > 0 {
            trials_with_bugs += 1;
        }
        bugs += found;
        total_commands += outcome.summary.commands_issued;
        total_cycles += outcome.summary.cycles;
        first_bug_sum += outcome.commands_to_first_bug.unwrap_or(0);
    }
    let mut axis_detection: Vec<AxisDetection> = Vec::new();
    for (axis, label_of) in AXES {
        let first_row = axis_detection.len();
        for outcome in &trials {
            let label = label_of(outcome);
            let row = match axis_detection[first_row..]
                .iter()
                .position(|d| d.label == label)
            {
                Some(i) => &mut axis_detection[first_row + i],
                None => {
                    axis_detection.push(AxisDetection {
                        axis: axis.to_owned(),
                        label: label.to_owned(),
                        trials: 0,
                        trials_with_bugs: 0,
                        bugs: 0,
                    });
                    axis_detection.last_mut().expect("just pushed")
                }
            };
            let found = outcome.summary.bugs.len();
            row.trials += 1;
            row.trials_with_bugs += usize::from(found > 0);
            row.bugs += found;
        }
    }
    let mean_commands_to_first_bug = if trials_with_bugs > 0 {
        Some(first_bug_sum as f64 / trials_with_bugs as f64)
    } else {
        None
    };
    RoundReport {
        round,
        distribution,
        trials,
        trials_with_bugs,
        bugs,
        total_commands,
        total_cycles,
        mean_commands_to_first_bug,
        axis_detection,
        traces_learned,
        learned,
        minimized: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_core::FnScenario;
    use ptest_pcore::{Op, Program};

    fn compute_scenario(n: usize, s: usize) -> impl Scenario {
        FnScenario::new(
            "compute",
            AdaptiveTestConfig {
                n,
                s,
                ..AdaptiveTestConfig::default()
            },
            |sys| {
                vec![sys
                    .kernel_of_mut(0)
                    .register_program(Program::new(vec![Op::Compute(20), Op::Exit]).unwrap())]
            },
        )
    }

    type Stream = fn(u64, usize, usize) -> u64;

    /// Asserts `stream` is stable, collision-free over a campaign's
    /// indices, keyed by the master seed, and never agrees with any of
    /// the `others` streams.
    fn assert_stream_unique_and_decorrelated(stream: Stream, others: &[Stream]) {
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..8 {
            for trial in 0..64 {
                let seed = stream(7, round, trial);
                assert!(seen.insert(seed));
                assert!(others.iter().all(|other| other(7, round, trial) != seed));
            }
        }
        assert_eq!(stream(7, 3, 5), stream(7, 3, 5));
        assert_ne!(stream(7, 3, 5), stream(8, 3, 5));
    }

    #[test]
    fn trial_seeds_are_unique_and_stable() {
        assert_stream_unique_and_decorrelated(trial_seed, &[]);
    }

    #[test]
    fn schedule_seeds_are_stable_and_decorrelated_from_trial_seeds() {
        assert_stream_unique_and_decorrelated(schedule_seed, &[trial_seed]);
    }

    #[test]
    fn memory_seeds_are_stable_and_decorrelated_from_the_other_streams() {
        assert_stream_unique_and_decorrelated(memory_seed, &[trial_seed, schedule_seed]);
    }

    /// A campaign rotating two lanes on `axis`, and the lanes' labels.
    fn rotation(axis: &str) -> (CampaignConfig, [&'static str; 2]) {
        use ptest_core::{InterruptConfig, QuantumConfig};
        let base = CampaignConfig::default();
        match axis {
            "schedule" => (
                CampaignConfig {
                    schedule_budgets: vec![0, 3],
                    ..base
                },
                ["random-priority(d=0)", "random-priority(d=3)"],
            ),
            "memory" => (
                CampaignConfig {
                    memory_models: vec![MemoryModelSpec::SeqCst, MemoryModelSpec::store_buffer()],
                    ..base
                },
                ["seq-cst", "store-buffer(d=24)"],
            ),
            _ => {
                let spec = PreemptionSpec {
                    quantum: Some(QuantumConfig { cycles: 8 }),
                    interrupts: Some(InterruptConfig {
                        count: 2,
                        horizon: 100,
                        ..InterruptConfig::default()
                    }),
                    ..PreemptionSpec::default()
                };
                (
                    CampaignConfig {
                        preemption_specs: vec![PreemptionSpec::default(), spec],
                        ..base
                    },
                    ["none", "quantum(q=8)+irq(n=2)"],
                )
            }
        }
    }

    fn run_compute(config: &CampaignConfig) -> CampaignReport {
        Campaign::run(config, &compute_scenario(2, 4)).unwrap()
    }

    /// The labels of `round`'s detection rows on `axis`, with their
    /// trial counts.
    fn rows<'r>(round: &'r RoundReport, axis: &str) -> Vec<(&'r str, usize)> {
        round
            .axis_detection
            .iter()
            .filter(|d| d.axis == axis)
            .map(|d| (d.label.as_str(), d.trials))
            .collect()
    }

    /// Trial `t` runs lane `t % 2` of the rotation, records its seed
    /// quadruple, and lands in that lane's detection row.
    fn assert_rotation_shows_up_in_detection_buckets(axis: &str) {
        let (config, lanes) = rotation(axis);
        let report = run_compute(&CampaignConfig {
            trials_per_round: 6,
            rounds: 1,
            workers: 2,
            master_seed: 3,
            ..config
        });
        let round = &report.rounds[0];
        assert_eq!(rows(round, axis), [(lanes[0], 3), (lanes[1], 3)]);
        let (_, label_of) = AXES.iter().find(|(a, _)| *a == axis).unwrap();
        for o in &round.trials {
            assert_eq!(label_of(o), lanes[o.trial % 2]);
            let t = o.trial;
            assert_eq!(
                [o.seed, o.schedule_seed, o.memory_seed, o.irq_seed],
                [
                    trial_seed(3, 0, t),
                    schedule_seed(3, 0, t),
                    memory_seed(3, 0, t),
                    irq_seed(3, 0, t)
                ],
                "outcomes record the replay quadruple"
            );
        }
    }

    fn assert_worker_count_independent(config: CampaignConfig) {
        let run = |workers| {
            run_compute(&CampaignConfig {
                trials_per_round: 6,
                rounds: 2,
                workers,
                master_seed: 77,
                ..config.clone()
            })
        };
        assert_eq!(run(1), run(4));
    }

    /// Without rotations every trial runs the scenario's own specs, so
    /// each axis has one row holding every trial.
    fn assert_default_campaigns_bucket_everything_under(axis: &str, label: &str) {
        let report = run_compute(&CampaignConfig {
            trials_per_round: 3,
            rounds: 1,
            workers: 1,
            master_seed: 9,
            ..CampaignConfig::default()
        });
        assert_eq!(rows(&report.rounds[0], axis), [(label, 3)]);
    }

    #[test]
    fn schedule_budget_rotation_shows_up_in_detection_buckets() {
        assert_rotation_shows_up_in_detection_buckets("schedule");
    }

    #[test]
    fn memory_model_rotation_shows_up_in_detection_buckets() {
        assert_rotation_shows_up_in_detection_buckets("memory");
    }

    #[test]
    fn preemption_rotation_shows_up_in_detection_buckets() {
        assert_rotation_shows_up_in_detection_buckets("preemption");
    }

    #[test]
    fn schedule_budget_campaigns_stay_worker_count_independent() {
        assert_worker_count_independent(CampaignConfig {
            schedule_budgets: vec![1, 4],
            ..CampaignConfig::default()
        });
    }

    #[test]
    fn memory_model_campaigns_stay_worker_count_independent() {
        assert_worker_count_independent(CampaignConfig {
            schedule_budgets: vec![1, 4],
            ..rotation("memory").0
        });
    }

    #[test]
    fn preemption_campaigns_stay_worker_count_independent() {
        assert_worker_count_independent(rotation("preemption").0);
    }

    #[test]
    fn default_campaigns_bucket_everything_under_lock_step() {
        assert_default_campaigns_bucket_everything_under("schedule", "lock-step");
    }

    #[test]
    fn default_campaigns_bucket_everything_under_seq_cst() {
        assert_default_campaigns_bucket_everything_under("memory", "seq-cst");
    }

    #[test]
    fn axis_detection_groups_rows_by_axis_in_first_seen_order() {
        let config = |workers| CampaignConfig {
            trials_per_round: 7,
            rounds: 1,
            workers,
            master_seed: 11,
            schedule_budgets: vec![3, 0],
            memory_models: vec![MemoryModelSpec::store_buffer(), MemoryModelSpec::SeqCst],
            preemption_specs: rotation("preemption").0.preemption_specs,
            ..CampaignConfig::default()
        };
        let report = run_compute(&config(1));
        let round = &report.rounds[0];
        let table: Vec<(&str, &str, usize)> = round
            .axis_detection
            .iter()
            .map(|d| (d.axis.as_str(), d.label.as_str(), d.trials))
            .collect();
        assert_eq!(
            table,
            [
                ("schedule", "random-priority(d=3)", 4),
                ("schedule", "random-priority(d=0)", 3),
                ("memory", "store-buffer(d=24)", 4),
                ("memory", "seq-cst", 3),
                ("preemption", "none", 4),
                ("preemption", "quantum(q=8)+irq(n=2)", 3),
            ]
        );
        for (axis, _) in AXES {
            let rows = round.axis_detection.iter().filter(|d| d.axis == axis);
            let (with_bugs, bugs) =
                rows.fold((0, 0), |(w, b), d| (w + d.trials_with_bugs, b + d.bugs));
            assert_eq!((with_bugs, bugs), (round.trials_with_bugs, round.bugs));
        }
        assert_eq!(
            round.axis_detection,
            run_compute(&config(4)).rounds[0].axis_detection
        );
    }

    #[test]
    fn campaign_runs_all_trials_across_rounds() {
        let scenario = compute_scenario(2, 4);
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 5,
                rounds: 3,
                workers: 2,
                master_seed: 1,
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        assert_eq!(report.total_trials(), 15);
        assert_eq!(report.rounds.len(), 3);
        for (i, round) in report.rounds.iter().enumerate() {
            assert_eq!(round.round, i);
            assert_eq!(round.trials.len(), 5);
            assert!(round.total_commands > 0);
            assert!(round.learned.is_some(), "learning is on by default");
        }
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let scenario = compute_scenario(2, 4);
        let run = |workers| {
            Campaign::run(
                &CampaignConfig {
                    trials_per_round: 6,
                    rounds: 2,
                    workers,
                    master_seed: 99,
                    ..CampaignConfig::default()
                },
                &scenario,
            )
            .unwrap()
        };
        let one = run(1);
        let four = run(4);
        let eight = run(8);
        assert_eq!(one, four);
        assert_eq!(four, eight);
    }

    #[test]
    fn learning_disabled_keeps_the_distribution_fixed() {
        let scenario = compute_scenario(2, 4);
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 3,
                rounds: 3,
                workers: 2,
                master_seed: 5,
                learning: LearningConfig {
                    enabled: false,
                    ..LearningConfig::default()
                },
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        for round in &report.rounds {
            assert_eq!(round.traces_learned, 0);
            assert!(round.learned.is_none());
            assert_eq!(round.distribution, report.rounds[0].distribution);
        }
    }

    #[test]
    fn learning_shifts_the_distribution_between_rounds() {
        let scenario = compute_scenario(3, 6);
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 4,
                rounds: 2,
                workers: 2,
                master_seed: 42,
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        assert!(report.rounds[0].traces_learned > 0);
        // Round 1 generates from what round 0 learned.
        assert_eq!(
            report.rounds[0].learned.as_ref().unwrap(),
            &report.rounds[1].distribution
        );
    }

    #[test]
    fn empty_campaigns_are_rejected() {
        let scenario = compute_scenario(1, 2);
        assert!(matches!(
            Campaign::run(
                &CampaignConfig {
                    rounds: 0,
                    ..CampaignConfig::default()
                },
                &scenario
            ),
            Err(CampaignError::EmptyCampaign)
        ));
        assert!(matches!(
            Campaign::run(
                &CampaignConfig {
                    trials_per_round: 0,
                    ..CampaignConfig::default()
                },
                &scenario
            ),
            Err(CampaignError::EmptyCampaign)
        ));
    }

    #[test]
    fn minimization_shrinks_each_class_once_per_campaign() {
        let scenario = ptest_faults::races::OrderViolationScenario::buggy();
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 8,
                rounds: 2,
                workers: 2,
                master_seed: 2009,
                learning: LearningConfig {
                    enabled: false,
                    ..LearningConfig::default()
                },
                minimize_bugs: true,
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        let classes: Vec<&str> = report
            .rounds
            .iter()
            .flat_map(|r| r.minimized.iter().map(|m| m.repro.bug_class.as_str()))
            .collect();
        assert!(!classes.is_empty(), "the seeded race was never minimized");
        let mut dedup = classes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            classes.len(),
            dedup.len(),
            "a class was shrunk more than once: {classes:?}"
        );
        for m in report.rounds.iter().flat_map(|r| &r.minimized) {
            assert!(
                m.repro.minimized_symbols < m.repro.original_symbols,
                "{}: no shrink",
                m.repro.bug_class
            );
            assert!(
                m.repro
                    .summary
                    .bugs
                    .iter()
                    .any(|b| b.class == m.repro.bug_class),
                "minimized summary lost its class"
            );
        }
    }

    #[test]
    fn minimizing_campaigns_stay_worker_count_independent() {
        let scenario = ptest_faults::races::OrderViolationScenario::buggy();
        let run = |workers| {
            Campaign::run(
                &CampaignConfig {
                    trials_per_round: 6,
                    rounds: 1,
                    workers,
                    master_seed: 2009,
                    learning: LearningConfig {
                        enabled: false,
                        ..LearningConfig::default()
                    },
                    minimize_bugs: true,
                    ..CampaignConfig::default()
                },
                &scenario,
            )
            .unwrap()
        };
        let one = run(1);
        assert!(
            !one.rounds[0].minimized.is_empty(),
            "nothing minimized, the comparison would be vacuous"
        );
        assert_eq!(one, run(4));
    }

    #[test]
    fn unminimized_campaigns_report_empty_minimized_rounds() {
        let scenario = compute_scenario(2, 4);
        let report = Campaign::run(
            &CampaignConfig {
                trials_per_round: 3,
                rounds: 1,
                workers: 1,
                ..CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        assert!(report.rounds.iter().all(|r| r.minimized.is_empty()));
    }

    #[test]
    fn bad_scenario_regex_is_reported() {
        let scenario = FnScenario::new(
            "bad",
            AdaptiveTestConfig {
                regex_source: "((".to_owned(),
                ..AdaptiveTestConfig::default()
            },
            |_sys| Vec::new(),
        );
        assert!(matches!(
            Campaign::run(&CampaignConfig::default(), &scenario),
            Err(CampaignError::Adaptive(AdaptiveTestError::Regex(_)))
        ));
    }
}
