//! Inert-preemption equivalence: with `quantum: None`, no clock skew and
//! no interrupt plan (the default), the preemption axis must be **byte
//! invisible** — a trial routed through the explored entry point with an
//! explicit inert [`PreemptionSpec`] serializes to exactly the same
//! `report_to_json` bytes as the unpreempted path, across
//! {LockStep, RandomPriority} × {SeqCst, StoreBuffer}, with and without
//! fast-forward.
//!
//! This is the contract that keeps the PR 3/5/6 golden fixtures and
//! every archived campaign report stable: preemption exploration is
//! strictly opt-in, and opting out costs nothing — not even a byte.

use proptest::prelude::*;
use ptest::faults::philosophers::PhilosophersScenario;
use ptest::pcore::{Op, Program, ProgramId};
use ptest::{
    derived_irq_seed, derived_memory_seed, derived_schedule_seed, AdaptiveTestConfig, FnScenario,
    MemoryModelSpec, MultiCoreSystem, PreemptionSpec, Scenario, ScheduleSpec, TrialEngine,
    TrialOverrides, TrialScratch,
};

/// The golden-fixture compute workload (`golden_compute_seed42.json`
/// uses the same setup at n=3).
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
                .register_program(Program::new(vec![Op::Compute(20), Op::Exit]).expect("valid"))]
        },
    )
}

/// A sleeper-dominated workload so the idle fast-forward engages — the
/// path where a phantom preemption horizon would be most visible.
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

/// One trial at `seed` through the plain explored path (the unpreempted
/// default) vs. through an explicit inert-spec override, both ways with
/// and without fast-forward — all four must serialize byte-identically.
fn assert_inert_preemption_is_byte_invisible(scenario: &dyn Scenario, seed: u64) {
    let inert = PreemptionSpec {
        quantum: None,
        clock_skew: None,
        interrupts: None,
    };
    assert!(inert.is_inert());
    for (schedule, memory) in explorations() {
        let mut cfg = scenario.base_config();
        cfg.schedule = schedule;
        cfg.memory = memory;
        let schedule_seed = derived_schedule_seed(seed);
        let memory_seed = derived_memory_seed(seed);
        let mut scratch = TrialScratch::new();
        let mut jsons = Vec::new();
        for fast_forward in [true, false] {
            let mut engine = TrialEngine::new(cfg.clone()).unwrap();
            engine.set_fast_forward(fast_forward);
            let plain = engine
                .run_scenario_trial_overridden(
                    scenario,
                    seed,
                    schedule_seed,
                    memory_seed,
                    TrialOverrides::default(),
                    &mut scratch,
                )
                .unwrap();
            let overridden = engine
                .run_scenario_trial_overridden(
                    scenario,
                    seed,
                    schedule_seed,
                    memory_seed,
                    TrialOverrides {
                        preemption: Some(inert),
                        irq_seed: Some(derived_irq_seed(seed)),
                        ..TrialOverrides::default()
                    },
                    &mut scratch,
                )
                .unwrap();
            jsons.push(ptest::report_to_json(&plain).unwrap());
            jsons.push(ptest::report_to_json(&overridden).unwrap());
        }
        for other in &jsons[1..] {
            assert_eq!(
                &jsons[0],
                other,
                "inert preemption changed report bytes: scenario={} seed={seed} \
                 schedule={schedule:?} memory={memory:?}",
                scenario.name(),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn inert_preemption_is_byte_invisible_on_the_compute_fixture(seed in 0u64..2_000) {
        assert_inert_preemption_is_byte_invisible(&compute_scenario(), seed);
    }

    #[test]
    fn inert_preemption_is_byte_invisible_on_the_sleeper_workload(seed in 0u64..2_000) {
        assert_inert_preemption_is_byte_invisible(&sleeper_scenario(), seed);
    }

    #[test]
    fn inert_preemption_is_byte_invisible_on_the_philosophers_fixture(seed in 0u64..500) {
        // The golden deadlock fixture (`golden_philosophers_seed7.json`):
        // detection timing and cycle rendering must not move by a byte.
        assert_inert_preemption_is_byte_invisible(&PhilosophersScenario::buggy(), seed);
    }
}
