//! The exploration lanes of `pipeline_explore`: how often each one acts
//! on the workload's trials.
//!
//! Two measures, printed per lane:
//!
//! - for each preemption lane, the share of its trials in which each
//!   mechanism it enables acted before the trial ended — a quantum
//!   expired and switched tasks, a planned interrupt fired, or a slave's
//!   local clock ran ahead of system time. Interrupts and clock skew must
//!   act in nearly every trial of their lanes;
//! - for each lane of every axis, the share of trials whose summary
//!   differs from the same trial (same seeds) with that axis switched off.
//!
//! ```sh
//! cargo test --release --manifest-path ptbench/Cargo.toml --test lanes -- --nocapture
//! ```

use ptbench::replay::{engine_trial, trial_input};
use ptbench::traced::{run_traced, LayerTotals, PreemptionActivity, TrialInput};
use ptbench::workload::{
    pipeline_preemption_specs, pipeline_schedule_budgets, searches, Search, Size, Workload,
};
use ptest::core::ReportSummary;
use ptest::master::{
    MemoryModelSpec, PreemptionSpec, RandomPriorityConfig, ScheduleSpec, SnapshotCache,
};
use ptest::{TrialEngine, TrialScratch};

/// Trials measured: ten rotation periods of the workload.
const TRIALS: usize = 300;

/// Smallest share of a lane's trials in which its interrupts must fire
/// and its clock skew must act.
const MIN_ACTIVE_SHARE: f64 = 0.9;

fn pipeline() -> (Search, TrialEngine) {
    let search = searches(Workload::PipelineExplore, 1, &Size::FULL).remove(0);
    let engine = TrialEngine::new(search.scenario.base_config()).expect("scenario compiles");
    (search, engine)
}

/// Per preemption lane: its trials, and in how many of them each
/// mechanism it enables acted.
#[derive(Default)]
struct LaneActivity {
    trials: usize,
    quantum: usize,
    interrupts: usize,
    clock_skew: usize,
}

#[test]
fn preemption_lanes_act_on_pipeline_trials() {
    let (search, engine) = pipeline();
    let specs = pipeline_preemption_specs();
    let mut cache = SnapshotCache::new();
    let mut totals = LayerTotals::default();
    let mut lanes: Vec<LaneActivity> = specs.iter().map(|_| LaneActivity::default()).collect();
    for trial in 0..TRIALS {
        let input = trial_input(&search, 0, trial);
        let lane = specs
            .iter()
            .position(|s| *s == input.preemption)
            .expect("the trial runs one of the lanes");
        let traced = run_traced(
            &engine,
            search.scenario.as_ref(),
            &input,
            &mut cache,
            &mut totals,
        )
        .expect("traced trial runs");
        let PreemptionActivity {
            quantum_preemptions,
            interrupts_fired,
            max_clock_lead,
        } = traced.preemption;
        let activity = &mut lanes[lane];
        activity.trials += 1;
        activity.quantum += usize::from(quantum_preemptions > 0);
        activity.interrupts += usize::from(interrupts_fired > 0);
        activity.clock_skew += usize::from(max_clock_lead > 0);
    }
    for (spec, activity) in specs.iter().zip(&lanes) {
        let share = |n: usize| n as f64 / activity.trials as f64;
        println!(
            "{spec:?}: {} trials; a quantum switched tasks in {:.3}, an interrupt fired in {:.3}, a clock ran ahead in {:.3}",
            activity.trials,
            share(activity.quantum),
            share(activity.interrupts),
            share(activity.clock_skew)
        );
        if spec.interrupts.is_some() {
            assert!(share(activity.interrupts) >= MIN_ACTIVE_SHARE, "{spec:?}");
        }
        if spec.clock_skew.is_some() {
            assert!(share(activity.clock_skew) >= MIN_ACTIVE_SHARE, "{spec:?}");
        }
        // No pipeline kernel holds two runnable tasks when a slice
        // expires, so quantum expiry never switches tasks here; the
        // quantum lanes still run quantum scheduling on every pick.
    }
}

fn budget(change_points: usize) -> ScheduleSpec {
    ScheduleSpec::RandomPriority(RandomPriorityConfig {
        change_points,
        ..RandomPriorityConfig::default()
    })
}

#[test]
fn lane_effects_on_pipeline_summaries() {
    let (search, engine) = pipeline();
    let mut scratch = TrialScratch::new();
    let mut summary = |input: &TrialInput<'_>| -> ReportSummary {
        engine_trial(&engine, &search, input, &mut scratch)
            .expect("trial runs")
            .machine_summary()
    };
    type Lane = (String, Box<dyn Fn(&mut TrialInput<'_>)>);
    let mut lanes: Vec<Lane> = Vec::new();
    for b in pipeline_schedule_budgets().into_iter().filter(|&b| b > 0) {
        lanes.push((
            format!("schedule budget {b}"),
            Box::new(move |i| i.schedule = budget(b)),
        ));
    }
    lanes.push((
        "store buffer".to_owned(),
        Box::new(|i| i.memory = MemoryModelSpec::store_buffer()),
    ));
    for spec in pipeline_preemption_specs() {
        if spec != PreemptionSpec::default() {
            lanes.push((format!("{spec:?}"), Box::new(move |i| i.preemption = spec)));
        }
    }

    let mut changed = vec![0usize; lanes.len()];
    let mut off_cycles = 0u64;
    for trial in 0..TRIALS {
        let mut off = trial_input(&search, 0, trial);
        off.schedule = budget(0);
        off.memory = MemoryModelSpec::SeqCst;
        off.preemption = PreemptionSpec::default();
        let reference = summary(&off);
        off_cycles += reference.cycles;
        for ((_, set), count) in lanes.iter().zip(&mut changed) {
            let mut input = off;
            set(&mut input);
            if summary(&input) != reference {
                *count += 1;
            }
        }
    }
    println!(
        "pipeline trials with every axis off: {:.0} cycles on average",
        off_cycles as f64 / TRIALS as f64
    );
    for ((label, _), count) in lanes.iter().zip(&changed) {
        println!(
            "{:.3} of {TRIALS} trial summaries changed by {label}",
            *count as f64 / TRIALS as f64
        );
    }
}
