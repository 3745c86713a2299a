//! Idle-cycle fast-forward equivalence: across a matrix of scenarios ×
//! schedulers × memory models, a fast-forwarded trial must produce a
//! `TestReport` that serializes **byte-for-byte identically** to a
//! forced cycle-by-cycle run of the same seeds.
//!
//! This is the contract that makes the event-driven trial loop safe to
//! ship: fast-forward is a pure latency optimisation, invisible in every
//! archived report — cycle counts, detection times, exec records, all of
//! it.

use ptest::faults::philosophers::PhilosophersScenario;
use ptest::master::{MemoryModelSpec, ScheduleSpec};
use ptest::pcore::{Op, Program, ProgramId};
use ptest::{
    derived_memory_seed, derived_schedule_seed, AdaptiveTestConfig, FnScenario, MultiCoreSystem,
    Scenario, TrialEngine, TrialOverrides, TrialScratch,
};

/// A sleeper-dominated worker: short compute bursts separated by long
/// naps, so almost every platform cycle is idle — the workload
/// fast-forward compresses hardest.
fn sleeper_scenario() -> impl Scenario {
    FnScenario::new(
        "sleeper",
        AdaptiveTestConfig {
            n: 2,
            s: 4,
            ..AdaptiveTestConfig::default()
        },
        |sys: &mut MultiCoreSystem| -> Vec<ProgramId> {
            let ops = vec![
                Op::Compute(5),
                Op::SleepFor(2_000),
                Op::Compute(5),
                Op::SleepFor(3_000),
                Op::Exit,
            ];
            vec![sys
                .kernel_mut()
                .register_program(Program::new(ops).expect("valid"))]
        },
    )
}

/// A busy compute worker: no idle windows at all, so fast-forward never
/// engages — the equivalence must hold trivially.
fn compute_scenario() -> impl Scenario {
    FnScenario::new(
        "compute",
        AdaptiveTestConfig {
            n: 3,
            s: 6,
            ..AdaptiveTestConfig::default()
        },
        |sys: &mut MultiCoreSystem| -> Vec<ProgramId> {
            vec![sys
                .kernel_mut()
                .register_program(Program::new(vec![Op::Compute(30), Op::Exit]).expect("valid"))]
        },
    )
}

fn explorations() -> Vec<(ScheduleSpec, MemoryModelSpec)> {
    vec![
        (ScheduleSpec::LockStep, MemoryModelSpec::SeqCst),
        (ScheduleSpec::LockStep, MemoryModelSpec::store_buffer()),
        (ScheduleSpec::random_priority(), MemoryModelSpec::SeqCst),
        (
            ScheduleSpec::random_priority(),
            MemoryModelSpec::store_buffer(),
        ),
    ]
}

/// Runs `scenario` across the (scheduler × memory model) matrix for a
/// handful of seeds, once fast-forwarded and once forced cycle-by-cycle,
/// asserting byte-identical report JSON.
fn assert_fast_forward_equivalence(scenario: &dyn Scenario) {
    for (schedule, memory) in explorations() {
        let mut cfg = scenario.base_config();
        cfg.schedule = schedule;
        cfg.memory = memory;
        let mut fast = TrialEngine::new(cfg.clone()).unwrap();
        fast.set_fast_forward(true);
        let mut slow = TrialEngine::new(cfg).unwrap();
        slow.set_fast_forward(false);
        let mut fast_scratch = TrialScratch::new();
        let mut slow_scratch = TrialScratch::new();
        for seed in 1..=3u64 {
            let schedule_seed = derived_schedule_seed(seed);
            let memory_seed = derived_memory_seed(seed);
            let a = fast
                .run_scenario_trial_overridden(
                    scenario,
                    seed,
                    schedule_seed,
                    memory_seed,
                    TrialOverrides::default(),
                    &mut fast_scratch,
                )
                .unwrap();
            let b = slow
                .run_scenario_trial_overridden(
                    scenario,
                    seed,
                    schedule_seed,
                    memory_seed,
                    TrialOverrides::default(),
                    &mut slow_scratch,
                )
                .unwrap();
            assert_eq!(
                ptest::report_to_json(&a).unwrap(),
                ptest::report_to_json(&b).unwrap(),
                "fast-forward changed report bytes: scenario={} seed={seed} \
                 schedule={schedule:?} memory={memory:?}",
                scenario.name(),
            );
        }
    }
}

#[test]
fn sleeper_reports_are_byte_identical_with_and_without_fast_forward() {
    assert_fast_forward_equivalence(&sleeper_scenario());
}

#[test]
fn compute_reports_are_byte_identical_with_and_without_fast_forward() {
    assert_fast_forward_equivalence(&compute_scenario());
}

#[test]
fn buggy_philosopher_reports_are_byte_identical_with_and_without_fast_forward() {
    // A real deadlock: the detector path and the fatal early-exit must
    // fire on exactly the same cycle either way.
    assert_fast_forward_equivalence(&PhilosophersScenario::buggy());
}
