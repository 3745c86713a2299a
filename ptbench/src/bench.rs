//! One benchmark run: set-up timing, the measured repetitions, the output
//! checks, and the metrics they yield.
//!
//! A repetition is one search (a campaign per scenario) followed by one
//! shrink of each selected hit. An untraced run repeats it until its time
//! is up and reports the end-to-end metrics; a traced run additionally
//! replays every campaign trial and every minimized reproducer through
//! the traced loop and reports the per-layer metrics. Every repetition
//! must produce byte-identical campaign reports and reproducers.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ptest::campaign::{Campaign, CampaignReport};
use ptest::{
    campaign_report_to_json, minimized_repro_to_json, replay_minimized, MinimizedRepro,
    MultiCoreSystem, TrialEngine, TrialScratch,
};

use crate::replay::{elapsed_ns, hits, replay_rounds, shrink, trial_input, Check, Hit, TraceState};
use crate::traced::{run_traced, LayerTotals, TrialInput};
use crate::workload::{searches, Search, Size, Workload};
use crate::{median, peak_rss_mb, quantile, Digest, END_TO_END, PER_LAYER};

/// Repetitions a run makes however short its time budget, so that every
/// run compares at least two repetitions' outputs.
const MIN_REPS: usize = 2;

/// Batches of set-ups timed before the first repetition.
const SETUP_BATCHES_FIRST: usize = 8;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Master seed of every campaign.
    pub seed: u64,
    /// Measuring time; repetitions continue until it is spent.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// How much work one repetition does.
    pub size: Size,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Attempted operations and failed output checks.
    pub check: Check,
    /// `(name, unit, value)` of every metric the run reports.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Deterministic fingerprints of the run's outputs — report and
    /// reproducer digests and per-layer counts. Another run at the same
    /// seed must repeat every fingerprint both runs have.
    pub fingerprints: BTreeMap<String, u64>,
}

/// Runs the benchmark once.
#[must_use]
pub fn run(opts: &Options) -> RunResult {
    let mut check = Check::default();
    let searches = searches(opts.workload, opts.seed, &opts.size);
    let mut run = Measured::default();
    // Set-up is timed in batches: a few before any other work, while the
    // heap is fresh, and one before every repetition.
    for _ in 0..SETUP_BATCHES_FIRST {
        if let Err(e) = run.time_setup(opts) {
            check.fail(1, e);
        }
    }
    let start = Instant::now();
    let mut reps = 0usize;
    loop {
        if let Err(e) = run.time_setup(opts) {
            check.fail(1, e);
            break;
        }
        if !run.repetition(&searches, opts, &mut check) {
            break;
        }
        reps += 1;
        if reps >= MIN_REPS && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    if opts.trace {
        run.layer_metrics(&mut values);
    } else {
        run.end_to_end_metrics(&mut values);
    }
    let names: &[(&'static str, &'static str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(f64::NAN)))
        .collect::<Vec<_>>();
    if let Some((name, _, _)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        check.fail(1, format!("metric {name} has no value"));
    }
    RunResult {
        check,
        metrics,
        fingerprints: run.fingerprints,
    }
}

/// The fastest of repeated timings of the same work. The benchmark runs
/// on shared hosts, where contention only ever adds time, so the fastest
/// repetition is the steadiest estimate of what the code itself costs.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Measurements accumulated over a run's repetitions.
#[derive(Default)]
struct Measured {
    /// Median seconds of each batch of set-ups.
    setup_batches: Vec<f64>,
    /// Median microseconds per engine compile of each batch of set-ups.
    compile_batches: Vec<f64>,
    /// Seconds per trial of each timed search.
    search_times: Vec<f64>,
    /// Fastest seconds of each target's shrink so far.
    hit_times: Vec<f64>,
    /// Candidate trials of each target's shrink.
    hit_candidates: Vec<u64>,
    /// Share of last-round trials that found a bug.
    detection_rate: f64,
    /// Mean commands to first detection over those hits.
    commands_to_bug: f64,
    /// Minimized over original symbols of the shrunk hits.
    shrink_ratio: f64,
    /// Hits to shrink and the engine of the round that found each
    /// search's hits, fixed by the first repetition.
    targets: Option<(Vec<Hit>, Vec<TrialEngine>)>,
    fingerprints: BTreeMap<String, u64>,
    // Traced runs only.
    layers: LayerTotals,
    trace: TraceSums,
}

/// One repetition's shrinks.
struct Shrunk {
    /// Each reproducer with the index of the search whose hit it shrank.
    repros: Vec<(usize, MinimizedRepro)>,
    /// Candidate trials the shrinks ran.
    candidates: u64,
    /// Host time of all the shrinks.
    ns: u64,
}

/// Traced-run sums besides the layer totals, over all repetitions.
#[derive(Default)]
struct TraceSums {
    reps: u64,
    campaign_trials: u64,
    engine_ns: u64,
    fold_ns: u64,
    round_ns: u64,
    rounds: u64,
    /// `workers × campaign wall time`.
    worker_ns: u64,
    shrink_ns: u64,
    candidates: u64,
    replay_ns: u64,
    replays: u64,
}

impl Measured {
    /// Times one batch of the work before a workload's first trial can
    /// step: building its scenarios, compiling each one's engine (regex
    /// → DFA → PFA → samplers), and building the first trial's system.
    fn time_setup(&mut self, opts: &Options) -> Result<(), String> {
        const BATCH: usize = 25;
        let mut totals = Vec::with_capacity(BATCH);
        let mut compiles = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let start = Instant::now();
            let searches = searches(opts.workload, opts.seed, &opts.size);
            let mut compile_ns = 0u64;
            for search in &searches {
                let compile = Instant::now();
                let engine = TrialEngine::new(search.scenario.base_config())
                    .map_err(|e| format!("engine compile failed: {e}"))?;
                compile_ns += elapsed_ns(compile);
                let first = trial_input(search, 0, 0);
                let mut sys = MultiCoreSystem::new(engine.config().system.clone());
                let programs = search.scenario.setup(&mut sys);
                sys.install_preemption(&first.preemption, first.irq_seed);
                std::hint::black_box((&sys, programs));
            }
            totals.push(start.elapsed().as_secs_f64());
            compiles.push(compile_ns as f64 / 1e3 / searches.len() as f64);
        }
        self.setup_batches.push(median(&totals));
        self.compile_batches.push(median(&compiles));
        Ok(())
    }

    /// One repetition; `false` when it could not complete.
    fn repetition(&mut self, searches: &[Search], opts: &Options, check: &mut Check) -> bool {
        let timed_search = opts.workload.search_is_timed();
        let mut state = TraceState::default();
        if self.targets.is_none() || timed_search || opts.trace {
            let trace = opts.trace.then_some(&mut state);
            let Some(walls) = self.search(searches, timed_search, trace, check) else {
                return false;
            };
            if opts.trace {
                for (search, wall) in searches.iter().zip(&walls) {
                    self.trace.worker_ns += search.config.workers as u64 * wall;
                }
            }
        }
        let (targets, engines) = self.targets.take().expect("the first repetition searched");
        let shrunk = self.shrink(searches, &targets, &engines, check);
        if opts.trace {
            self.trace.shrink_ns += shrunk.ns;
            self.trace.candidates += shrunk.candidates;
            self.trace_replays(searches, &engines, &shrunk.repros, &mut state, check);
            self.absorb(state, check);
        }
        self.targets = Some((targets, engines));
        true
    }

    /// Runs the search campaigns and checks that their reports repeat.
    /// On the first repetition, and on every traced one, replays them to
    /// fix the hits to shrink and the engines that found them. Returns
    /// each campaign's wall time in nanoseconds.
    fn search(
        &mut self,
        searches: &[Search],
        timed: bool,
        mut trace: Option<&mut TraceState>,
        check: &mut Check,
    ) -> Option<Vec<u64>> {
        let (reports, walls) = run_searches(searches, check)?;
        let trials: usize = searches
            .iter()
            .map(|s| s.config.trials_per_round * s.config.rounds)
            .sum();
        if timed {
            let wall_s = walls.iter().sum::<u64>() as f64 / 1e9;
            self.search_times.push(wall_s / trials as f64);
        }
        let mut digest = Digest::default();
        for report in &reports {
            match campaign_report_to_json(report) {
                Ok(json) => digest.update(json.as_bytes()),
                Err(e) => check.fail(1, format!("campaign report does not serialize: {e}")),
            }
        }
        self.expect("campaign_reports", digest.0, trials as u64, check);
        if self.targets.is_some() && trace.is_none() {
            return Some(walls);
        }

        // Untraced runs replay up to the last round, for its engine;
        // traced runs replay, and trace, every round.
        let mut engines = Vec::new();
        for (search, report) in searches.iter().zip(&reports) {
            let last = search.config.rounds - 1;
            let rounds = if trace.is_some() { last + 1 } else { last };
            match replay_rounds(search, report, rounds, trace.as_deref_mut(), check) {
                Ok(mut round_engines) => engines.push(round_engines.swap_remove(last)),
                Err(e) => {
                    check.fail(1, format!("replay failed: {e}"));
                    return None;
                }
            }
        }
        let targets = hits(searches, &reports);
        if targets.is_empty() {
            check.fail(1, "the search found nothing to shrink");
            return None;
        }
        self.quality(&reports);
        self.targets = Some((targets, engines));
        Some(walls)
    }

    /// Shrinks every target, timing each shrink, and checks that the
    /// reproducers repeat.
    fn shrink(
        &mut self,
        searches: &[Search],
        targets: &[Hit],
        engines: &[TrialEngine],
        check: &mut Check,
    ) -> Shrunk {
        let mut digest = Digest::default();
        let mut scratch = TrialScratch::new();
        let mut repros = Vec::with_capacity(targets.len());
        if self.hit_times.len() != targets.len() {
            self.hit_times = vec![f64::INFINITY; targets.len()];
            self.hit_candidates = vec![0; targets.len()];
        }
        let shrink_start = Instant::now();
        for (i, hit) in targets.iter().enumerate() {
            check.attempted += 1;
            let start = Instant::now();
            let search = &searches[hit.search];
            let engine = &engines[hit.search];
            let result = catch_unwind(AssertUnwindSafe(|| {
                shrink(engine, search, hit, &mut scratch)
            }));
            self.hit_times[i] = self.hit_times[i].min(start.elapsed().as_secs_f64());
            match result {
                Ok(Ok(repro)) => {
                    self.hit_candidates[i] = repro.candidates as u64;
                    match minimized_repro_to_json(&repro) {
                        Ok(json) => digest.update(json.as_bytes()),
                        Err(e) => check.fail(1, format!("reproducer does not serialize: {e}")),
                    }
                    repros.push((hit.search, repro));
                }
                Ok(Err(e)) => check.fail(1, format!("shrink failed: {e}")),
                Err(_) => check.fail(1, "shrink panicked"),
            }
        }
        let ns = elapsed_ns(shrink_start);
        self.expect("reproducers", digest.0, targets.len() as u64, check);
        let original: usize = repros.iter().map(|(_, r)| r.original_symbols).sum();
        let minimized: usize = repros.iter().map(|(_, r)| r.minimized_symbols).sum();
        self.shrink_ratio = minimized as f64 / original.max(1) as f64;
        let candidates = repros.iter().map(|(_, r)| r.candidates as u64).sum();
        self.expect("minimize.candidates", candidates, 0, check);
        Shrunk {
            repros,
            candidates,
            ns,
        }
    }

    /// Replays every reproducer through `replay_minimized` and through the
    /// traced loop; both must reproduce the reproducer's summary.
    fn trace_replays(
        &mut self,
        searches: &[Search],
        engines: &[TrialEngine],
        repros: &[(usize, MinimizedRepro)],
        state: &mut TraceState,
        check: &mut Check,
    ) {
        let mut scratch = TrialScratch::new();
        for (search_index, repro) in repros {
            check.attempted += 1;
            let search = &searches[*search_index];
            let engine = &engines[*search_index];
            let start = Instant::now();
            let replayed = replay_minimized(engine, search.scenario.as_ref(), repro, &mut scratch);
            self.trace.replay_ns += elapsed_ns(start);
            self.trace.replays += 1;
            let report = match replayed {
                Ok(report) if report.machine_summary() == repro.summary => report,
                Ok(_) => {
                    check.fail(1, "a minimized reproducer does not replay");
                    continue;
                }
                Err(e) => {
                    check.fail(1, format!("replay of a reproducer failed: {e}"));
                    continue;
                }
            };
            let input = TrialInput {
                seed: repro.seed,
                schedule_seed: repro.schedule_seed,
                memory_seed: repro.memory_seed,
                irq_seed: repro.irq_seed,
                schedule: repro.schedule.spec(),
                memory: repro.memory.spec(),
                preemption: repro.preemption.spec(),
                patterns: Some(&report.patterns),
            };
            match run_traced(
                engine,
                search.scenario.as_ref(),
                &input,
                &mut state.cache,
                &mut state.layers,
            ) {
                Ok(traced) if traced.agrees_with(&report) => {}
                Ok(_) => check.fail(1, "traced reproducer disagrees with replay_minimized"),
                Err(e) => check.fail(1, format!("traced reproducer: {e}")),
            }
        }
    }

    /// Folds one traced repetition into the run's sums, checking that its
    /// counts repeat those of the first.
    fn absorb(&mut self, state: TraceState, check: &mut Check) {
        for (name, count) in state.layers.counts() {
            self.expect(name, count, 0, check);
        }
        self.trace.reps += 1;
        self.trace.campaign_trials += state.trials;
        self.trace.engine_ns += state.engine_ns;
        self.trace.fold_ns += state.fold_ns;
        self.trace.round_ns += state.round_ns;
        self.trace.rounds += state.rounds;
        self.layers.add(&state.layers);
    }

    /// Records a fingerprint, or checks it against the value an earlier
    /// repetition recorded; a mismatch fails `weight` operations (at
    /// least one).
    fn expect(&mut self, name: &str, value: u64, weight: u64, check: &mut Check) {
        let recorded = *self.fingerprints.entry(name.to_owned()).or_insert(value);
        if recorded != value {
            check.fail(weight.max(1), format!("{name} differs between repetitions"));
        }
    }

    /// Detection rate and commands to first detection over the last
    /// round of every search.
    fn quality(&mut self, reports: &[CampaignReport]) {
        let (mut trials, mut hits, mut commands) = (0usize, 0usize, 0u64);
        for last in reports.iter().filter_map(|r| r.rounds.last()) {
            trials += last.trials.len();
            hits += last.trials_with_bugs;
            commands += last
                .trials
                .iter()
                .filter_map(|o| o.commands_to_first_bug)
                .sum::<u64>();
        }
        self.detection_rate = hits as f64 / trials.max(1) as f64;
        self.commands_to_bug = commands as f64 / hits.max(1) as f64;
    }

    fn end_to_end_metrics(&self, out: &mut BTreeMap<&str, f64>) {
        let trials_per_s = if self.search_times.is_empty() {
            // Shrink throughput: candidate trials over each shrink's
            // fastest time.
            self.hit_candidates.iter().sum::<u64>() as f64 / self.hit_times.iter().sum::<f64>()
        } else {
            1.0 / fastest(&self.search_times)
        };
        out.insert("trials_per_s", trials_per_s);
        out.insert("shrink_s", median(&self.hit_times));
        out.insert("shrink_p95_s", quantile(&self.hit_times, 0.95));
        out.insert("detection_rate", self.detection_rate);
        out.insert("commands_to_bug", self.commands_to_bug);
        out.insert("shrink_ratio", self.shrink_ratio);
        out.insert("setup_s", fastest(&self.setup_batches));
        out.insert("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    }

    fn layer_metrics(&self, out: &mut BTreeMap<&str, f64>) {
        let l = &self.layers;
        let t = &self.trace;
        let reps = t.reps.max(1) as f64;
        let total = l.total_ns().max(1) as f64;
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        out.insert("automata.compile_us", fastest(&self.compile_batches));
        out.insert("generator.ns_per_symbol", per(l.generate_ns, l.symbols));
        out.insert("generator.symbols", l.symbols as f64 / reps);
        out.insert("generator.share", l.generate_ns as f64 / total);
        out.insert("merger.us_per_trial", per(l.merge_ns, l.trials) / 1e3);
        out.insert("merger.share", l.merge_ns as f64 / total);
        out.insert("coverage.us_per_trial", per(l.coverage_ns, l.trials) / 1e3);
        out.insert("coverage.share", l.coverage_ns as f64 / total);
        out.insert("system.build_us", per(l.build_ns, l.trials) / 1e3);
        out.insert("system.build_share", l.build_ns as f64 / total);
        out.insert("system.step_ns", per(l.step_ns, l.exec_cycles));
        out.insert("system.exec_cycles", l.exec_cycles as f64 / reps);
        out.insert("system.step_share", l.step_ns as f64 / total);
        out.insert("trial.skipped_cycles", l.skipped_cycles as f64 / reps);
        out.insert(
            "trial.skip_share",
            l.skipped_cycles as f64 / (l.skipped_cycles + l.exec_cycles).max(1) as f64,
        );
        out.insert(
            "trial.ff_hit_ratio",
            l.ff_hits as f64 / l.horizon_queries.max(1) as f64,
        );
        out.insert("trial.ff_share", l.ff_ns as f64 / total);
        out.insert("committer.step_ns", per(l.committer_ns, l.exec_cycles));
        out.insert("committer.commands", l.commands as f64 / reps);
        out.insert("committer.share", l.committer_ns as f64 / total);
        out.insert("detector.observe_us", per(l.detector_ns, l.observes) / 1e3);
        out.insert("detector.observes", l.observes as f64 / reps);
        out.insert("detector.bugs", l.bugs as f64 / reps);
        out.insert("detector.share", l.detector_ns as f64 / total);
        out.insert(
            "learning.fold_us_per_trial",
            per(t.fold_ns, t.campaign_trials) / 1e3,
        );
        out.insert("learning.round_ms", per(t.round_ns, t.rounds) / 1e6);
        out.insert(
            "pool.utilization",
            t.engine_ns as f64 / t.worker_ns.max(1) as f64,
        );
        out.insert("minimize.candidates", t.candidates as f64 / reps);
        out.insert(
            "minimize.candidate_ms",
            per(t.shrink_ns, t.candidates) / 1e6,
        );
        out.insert("minimize.replay_ms", per(t.replay_ns, t.replays) / 1e6);
        out.insert(
            "trace.overhead",
            total / (t.engine_ns + t.replay_ns).max(1) as f64,
        );
    }
}

/// Runs every search's campaign; returns the reports and each campaign's
/// wall time in nanoseconds, or `None` after recording a failure.
fn run_searches(searches: &[Search], check: &mut Check) -> Option<(Vec<CampaignReport>, Vec<u64>)> {
    let mut reports = Vec::with_capacity(searches.len());
    let mut walls = Vec::with_capacity(searches.len());
    for search in searches {
        let trials = (search.config.trials_per_round * search.config.rounds) as u64;
        check.attempted += trials;
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            Campaign::run(&search.config, search.scenario.as_ref())
        }));
        walls.push(elapsed_ns(start));
        match result {
            Ok(Ok(report)) => reports.push(report),
            Ok(Err(e)) => {
                check.fail(trials, format!("campaign failed: {e}"));
                return None;
            }
            Err(_) => {
                check.fail(trials, "campaign panicked");
                return None;
            }
        }
    }
    Some((reports, walls))
}
