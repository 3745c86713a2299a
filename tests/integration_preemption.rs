//! Preemption-exploration acceptance tests: the preemption row of the
//! axis table in `axes/mod.rs`. The ISR shared-variable and quantum
//! atomicity races are invisible without preemption but detected under
//! an interrupt or quantum plan, and every detection replays from its
//! recorded seeds. A golden timeline pins how the ISR executes.

mod axes;

use ptest::faults::guard_tripped;
use ptest::faults::timers::IsrSharedVarScenario;
use ptest::{
    minimize_scenario_trial, replay_minimized, MinimizeConfig, Scenario, TrialEngine,
    TrialOverrides, TrialScratch, TrialTrace,
};

#[test]
fn timer_scenarios_are_non_preemptive_invisible_but_preemption_detected() {
    axes::axis("preemption").racy_scenarios_are_control_invisible_but_detected();
}

#[test]
fn fixed_variants_stay_clean_under_both_preemption_specs() {
    axes::axis("preemption").fixed_variants_stay_clean_under_both_specs();
}

#[test]
fn campaign_detection_is_replayable_from_recorded_seed_quadruples() {
    axes::axis("preemption").campaign_detection_is_replayable_from_recorded_seeds();
}

#[test]
fn preemption_rotation_aggregates_per_spec() {
    axes::axis("preemption").rotation_aggregates_detection_per_spec();
}

#[test]
fn reproduce_carries_the_irq_seed() {
    axes::axis("preemption").reproduce_carries_the_axis_seeds();
}

/// Pins interrupt-context execution as the captured timeline shows it:
/// every kernel event (the ISR's entries, its stores `isr vN=x` and its
/// exits among the task's accesses), then every master event, of one
/// trial at the seed quadruple (pattern, schedule, memory, irq) =
/// (1, 1, 1, 2), where the ISR fires inside the task's read-modify-write
/// window.
#[test]
fn isr_timeline_is_byte_identical_to_the_golden() {
    let scenario = IsrSharedVarScenario::buggy();
    let mut trace = TrialTrace::default();
    let overrides = TrialOverrides {
        irq_seed: Some(2),
        capture_trace: Some(&mut trace),
        ..TrialOverrides::default()
    };
    let engine = TrialEngine::new(scenario.base_config()).unwrap();
    let report = engine
        .run_scenario_trial_overridden(&scenario, 1, 1, 1, overrides, &mut TrialScratch::new())
        .unwrap();
    assert!(guard_tripped(&report), "{}", report.summary());
    let mut timeline = String::new();
    for (i, events) in trace.kernels.iter().enumerate() {
        timeline += &format!("kernel {i}\n");
        for event in events {
            timeline += &format!("{event}\n");
        }
    }
    timeline += "master\n";
    for event in &trace.master {
        timeline += &format!("{event}\n");
    }
    let golden = include_str!("fixtures/isr_timeline.txt");
    assert_eq!(timeline, golden, "ISR execution drifted");
}

/// Minimizing the ISR race's trial at the quadruple the timeline golden
/// pins as manifesting, (1, 1, 1, 2), keeps the irq seed, shrinks the
/// injection set without emptying it, and replays byte for byte.
#[test]
fn minimization_shrinks_the_injection_mask_of_the_isr_race() {
    let scenario = IsrSharedVarScenario::buggy();
    let base = scenario.base_config();
    let engine = TrialEngine::new(base.clone()).unwrap();
    let mut scratch = TrialScratch::new();
    let repro = minimize_scenario_trial(
        &engine,
        &scenario,
        1,
        1,
        1,
        2,
        base.schedule,
        base.memory,
        base.preemption,
        None,
        &MinimizeConfig::default(),
        &mut scratch,
    )
    .expect("a manifesting trial minimizes");
    assert_eq!(repro.irq_seed, 2);
    assert!(
        repro.minimized_injections <= repro.original_injections,
        "ddmin never grows the injection set"
    );
    assert!(
        repro.minimized_injections >= 1,
        "the fault needs at least one injection"
    );
    let replayed = replay_minimized(&engine, &scenario, &repro, &mut scratch).unwrap();
    assert_eq!(
        format!("{:?}", replayed.machine_summary()),
        format!("{:?}", repro.summary),
        "the reproducer replays byte-identically from its stored parts"
    );
}
