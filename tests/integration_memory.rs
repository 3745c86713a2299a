//! Memory-model-exploration acceptance tests: the memory row of the
//! axis table in `axes/mod.rs`. The Dekker store-visibility and IRIW
//! races are seq-cst-invisible but detected under the store buffer,
//! and every detection replays from its recorded seeds.

mod axes;

#[test]
fn both_weakmem_scenarios_are_seq_cst_invisible_but_store_buffer_detected() {
    axes::axis("memory").racy_scenarios_are_control_invisible_but_detected();
}

#[test]
fn fenced_variants_stay_clean_under_both_memory_models() {
    axes::axis("memory").fixed_variants_stay_clean_under_both_specs();
}

#[test]
fn campaign_detection_is_replayable_from_recorded_seed_triples() {
    axes::axis("memory").campaign_detection_is_replayable_from_recorded_seeds();
}

#[test]
fn memory_model_rotation_aggregates_per_model() {
    axes::axis("memory").rotation_aggregates_detection_per_spec();
}

#[test]
fn reproduce_carries_the_memory_model() {
    axes::axis("memory").reproduce_carries_the_axis_seeds();
}
