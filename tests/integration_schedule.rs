//! Schedule-exploration acceptance tests: the schedule row of the axis
//! table in `axes/mod.rs`. The order-violation and cross-core atomicity
//! races are lock-step-invisible but detected under random priorities,
//! and every detection replays from its recorded seeds.

mod axes;

#[test]
fn both_racy_scenarios_are_lock_step_invisible_but_random_priority_detected() {
    axes::axis("schedule").racy_scenarios_are_control_invisible_but_detected();
}

#[test]
fn fixed_variants_stay_clean_under_both_schedules() {
    axes::axis("schedule").fixed_variants_stay_clean_under_both_specs();
}

#[test]
fn campaign_detection_is_replayable_from_recorded_seed_pairs() {
    axes::axis("schedule").campaign_detection_is_replayable_from_recorded_seeds();
}

#[test]
fn schedule_budget_rotation_aggregates_per_budget() {
    axes::axis("schedule").rotation_aggregates_detection_per_spec();
}

#[test]
fn reproduce_carries_the_schedule() {
    axes::axis("schedule").reproduce_carries_the_axis_seeds();
}
