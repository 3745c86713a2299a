//! Preemption-exploration acceptance tests: the preemption row of the
//! axis table in `axes/mod.rs`. The ISR shared-variable and quantum
//! atomicity races are invisible without preemption but detected under
//! an interrupt or quantum plan, and every detection replays from its
//! recorded seeds. A golden timeline pins how the ISR executes.

mod axes;

use ptest::faults::timers::{timer_fault_manifested, IsrSharedVarScenario};
use ptest::{Scenario, TrialEngine, TrialOverrides, TrialScratch, TrialTrace};

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
    assert!(timer_fault_manifested(&report), "{}", report.summary());
    let kernels = trace.kernels.iter().enumerate();
    let sections = kernels.map(|(i, events)| (format!("kernel {i}"), events));
    let mut timeline = String::new();
    for (title, events) in sections.chain([("master".to_owned(), &trace.master)]) {
        timeline += &format!("{title}\n");
        for event in events {
            timeline += &format!("{event}\n");
        }
    }
    let golden = include_str!("fixtures/isr_timeline.txt");
    assert_eq!(timeline, golden, "ISR execution drifted");
}
