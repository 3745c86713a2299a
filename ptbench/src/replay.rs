//! Replaying a campaign one trial at a time, and shrinking its hits.
//!
//! The campaign engine keeps its learned distributions to itself, but
//! the benchmark needs them twice: to shrink a hit of a later round
//! through the engine that found it, and to trace every trial of a
//! learning campaign. [`replay_rounds`] re-runs a campaign's rounds on
//! one thread through [`TrialEngine`] — same seeds, same spec rotation,
//! same learn fold — and checks every trial's summary against the
//! campaign's own report, so the replay cannot drift from the engine.

use std::time::Instant;

use ptest::automata::{ProbabilityAssignment, TransitionCounts};
use ptest::campaign::{
    irq_seed, learning, memory_seed, schedule_seed, trial_seed, CampaignReport,
    LearnedDistribution, TrialOutcome,
};
use ptest::master::SnapshotCache;
use ptest::{
    minimize_scenario_trial, AdaptiveTestConfig, MinimizeConfig, MinimizedRepro, TestReport,
    TrialEngine, TrialOverrides, TrialScratch,
};

use crate::traced::{run_traced, LayerTotals, TrialInput};
use crate::workload::{rotation_period, trial_specs, Search};

/// Tallies attempted operations and the ones that failed an output
/// check, keeping the first few failure messages.
#[derive(Debug, Default)]
pub struct Check {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
}

impl Check {
    /// Records `n` failed operations.
    pub fn fail(&mut self, n: u64, msg: impl Into<String>) {
        self.failed += n;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }
}

/// What a traced replay measures besides the layer totals.
#[derive(Debug, Default)]
pub struct TraceState {
    /// Layer times and counts of every traced trial.
    pub layers: LayerTotals,
    /// The detector's snapshot cache, reused across traced trials.
    pub cache: SnapshotCache,
    /// Host time of the same trials run untraced through `TrialEngine`.
    pub engine_ns: u64,
    /// Trials replayed.
    pub trials: u64,
    /// Host time of `learning::observe_report` over every trial of a
    /// learning campaign.
    pub fold_ns: u64,
    /// Host time of closing a learning campaign's rounds: count merge,
    /// `to_assignment` and the next round's `TrialEngine::new`.
    pub round_ns: u64,
    /// Rounds closed by learning.
    pub rounds: u64,
}

/// The exploration axes and seeds trial `trial` of `round` ran under.
#[must_use]
pub fn trial_input(search: &Search, round: usize, trial: usize) -> TrialInput<'static> {
    let cfg = &search.config;
    let ms = cfg.master_seed;
    let (schedule, memory, preemption) = trial_specs(cfg, &search.scenario.base_config(), trial);
    TrialInput {
        seed: trial_seed(ms, round, trial),
        schedule_seed: schedule_seed(ms, round, trial),
        memory_seed: memory_seed(ms, round, trial),
        irq_seed: irq_seed(ms, round, trial),
        schedule,
        memory,
        preemption,
        patterns: None,
    }
}

/// Runs one trial through the engine, exactly as a campaign does.
///
/// # Errors
///
/// The engine's error, as text.
pub fn engine_trial(
    engine: &TrialEngine,
    search: &Search,
    input: &TrialInput<'_>,
    scratch: &mut TrialScratch,
) -> Result<TestReport, String> {
    engine
        .run_scenario_trial_overridden(
            search.scenario.as_ref(),
            input.seed,
            input.schedule_seed,
            input.memory_seed,
            TrialOverrides {
                schedule: Some(input.schedule),
                memory: Some(input.memory),
                preemption: Some(input.preemption),
                irq_seed: Some(input.irq_seed),
                patterns: input.patterns,
                ..TrialOverrides::default()
            },
            scratch,
        )
        .map_err(|e| e.to_string())
}

/// Replays rounds `0..rounds` of `search`'s campaign and returns the
/// engine of every round, plus the engine of round `rounds`.
///
/// Every trial's machine summary, and the distribution of every
/// returned engine that has a round in `report`, is checked against
/// `report`. With `trace`, every trial also runs through the traced loop,
/// which must agree with the engine, and a learning campaign's fold and
/// round close are timed.
///
/// # Errors
///
/// A distribution that fails to compile.
pub fn replay_rounds(
    search: &Search,
    report: &CampaignReport,
    rounds: usize,
    mut trace: Option<&mut TraceState>,
    check: &mut Check,
) -> Result<Vec<TrialEngine>, String> {
    let base = search.scenario.base_config();
    let cfg = &search.config;
    let compile = |pd: ProbabilityAssignment| {
        TrialEngine::new(AdaptiveTestConfig { pd, ..base.clone() }).map_err(|e| e.to_string())
    };
    let mut engines = vec![compile(base.pd.clone())?];
    let mut counts = TransitionCounts::new();
    let mut scratch = TrialScratch::new();
    for round in 0..rounds {
        let engine = engines.last().expect("one engine per round").clone();
        let dfa = engine.generator().dfa();
        let mut all = TransitionCounts::new();
        let mut with_bugs = TransitionCounts::new();
        let outcomes = report.rounds.get(round).map_or(&[][..], |r| &r.trials[..]);
        for trial in 0..cfg.trials_per_round {
            check.attempted += 1;
            let input = trial_input(search, round, trial);
            let start = Instant::now();
            let result = engine_trial(&engine, search, &input, &mut scratch);
            let engine_ns = elapsed_ns(start);
            let rep = match result {
                Ok(rep) => rep,
                Err(e) => {
                    check.fail(1, format!("replayed trial {round}/{trial} failed: {e}"));
                    continue;
                }
            };
            if outcomes.get(trial).map(|o| &o.summary) != Some(&rep.machine_summary()) {
                check.fail(
                    1,
                    format!("replayed trial {round}/{trial} differs from the campaign"),
                );
            }
            if cfg.learning.enabled {
                let start = Instant::now();
                let mut delta = TransitionCounts::new();
                learning::observe_report(&mut delta, &rep, dfa);
                if let Some(state) = trace.as_deref_mut() {
                    state.fold_ns += elapsed_ns(start);
                }
                all.merge(&delta);
                if !rep.bugs.is_empty() {
                    with_bugs.merge(&delta);
                }
            }
            if let Some(state) = trace.as_deref_mut() {
                state.engine_ns += engine_ns;
                state.trials += 1;
                match run_traced(
                    &engine,
                    search.scenario.as_ref(),
                    &input,
                    &mut state.cache,
                    &mut state.layers,
                ) {
                    Ok(traced) if traced.agrees_with(&rep) => {}
                    Ok(_) => check.fail(
                        1,
                        format!("traced trial {round}/{trial} disagrees with TrialEngine"),
                    ),
                    Err(e) => check.fail(1, format!("traced trial {round}/{trial}: {e}")),
                }
            }
        }
        // Close the round as the campaign does; without learning the
        // distribution stays put.
        if !cfg.learning.enabled {
            engines.push(engine);
            continue;
        }
        let start = Instant::now();
        let any_bugs = outcomes.iter().any(|o| !o.summary.bugs.is_empty());
        let chosen = if cfg.learning.bug_biased && any_bugs {
            &with_bugs
        } else {
            &all
        };
        counts.merge(chosen);
        let learned = counts.to_assignment(
            dfa,
            engine.generator().regex().alphabet(),
            cfg.learning.alpha,
        );
        engines.push(compile(learned)?);
        if let Some(state) = trace.as_deref_mut() {
            state.round_ns += elapsed_ns(start);
            state.rounds += 1;
        }
    }
    for (round, engine) in engines.iter().enumerate() {
        let Some(recorded) = report.rounds.get(round) else {
            continue;
        };
        let alphabet = engine.generator().regex().alphabet();
        if LearnedDistribution::from_pfa(engine.generator().pfa(), alphabet)
            != recorded.distribution
        {
            check.fail(
                1,
                format!("replayed round {round}'s distribution differs from the campaign"),
            );
        }
    }
    Ok(engines)
}

/// One hit to shrink: its campaign and its outcome.
#[derive(Debug, Clone)]
pub struct Hit {
    /// Index of the search that found it.
    pub search: usize,
    /// Round it was found in.
    pub round: usize,
    /// The trial's outcome.
    pub outcome: TrialOutcome,
}

/// The first `search.hits` hits of each rotation lane of the last round
/// of each campaign, in trial order.
#[must_use]
pub fn hits(searches: &[Search], reports: &[CampaignReport]) -> Vec<Hit> {
    let mut out = Vec::new();
    for (i, (search, report)) in searches.iter().zip(reports).enumerate() {
        let Some(last) = report.rounds.last() else {
            continue;
        };
        let period = rotation_period(&search.config);
        let mut taken = vec![0usize; period];
        for outcome in last.trials.iter().filter(|o| !o.summary.bugs.is_empty()) {
            let lane = &mut taken[outcome.trial % period];
            if *lane < search.hits {
                *lane += 1;
                out.push(Hit {
                    search: i,
                    round: last.round,
                    outcome: outcome.clone(),
                });
            }
        }
    }
    out
}

/// Shrinks one hit with `engine`, the engine of the round that found it.
///
/// # Errors
///
/// The minimizer's error, as text.
pub fn shrink(
    engine: &TrialEngine,
    search: &Search,
    hit: &Hit,
    scratch: &mut TrialScratch,
) -> Result<MinimizedRepro, String> {
    let input = trial_input(search, hit.round, hit.outcome.trial);
    minimize_scenario_trial(
        engine,
        search.scenario.as_ref(),
        input.seed,
        input.schedule_seed,
        input.memory_seed,
        input.irq_seed,
        input.schedule,
        input.memory,
        input.preemption,
        None,
        &MinimizeConfig::default(),
        scratch,
    )
    .map_err(|e| e.to_string())
}

/// Nanoseconds since `start`.
#[must_use]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
