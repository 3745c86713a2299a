//! Preemption-exploration acceptance tests: the preemption row of the
//! axis table in `axes/mod.rs`. The ISR shared-variable and quantum
//! atomicity races are invisible without preemption but detected under
//! an interrupt or quantum plan, and every detection replays from its
//! recorded seeds.

mod axes;

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
