//! Idle- and steady-cycle fast-forward equivalence: across a matrix of scenarios ×
//! schedulers × memory models × preemption lanes, a fast-forwarded trial
//! must produce a `TestReport` that serializes **byte-for-byte
//! identically** to a forced cycle-by-cycle run of the same seeds.
//!
//! The buggy race scenarios are here because the engine asks for the
//! horizon only after a cycle in which no kernel did work other than
//! spin in a side-effect-free loop: on these dense workloads it skips
//! almost every query, and the reports must not notice. The abandoned
//! barrier is the other extreme: a task spins at a barrier its peer
//! never reaches until the livelock rule fires, and almost every one of
//! those cycles is a steady-loop iteration applied in closed form.
//! Figure 1's livelock is the yielding case: one or two tasks spin on a
//! shared variable and `Yield` between polls, so every rotation of the
//! kernel sleeps, wakes, idles and switches tasks, all in closed form.
//!
//! This is the contract that makes the event-driven trial loop safe to
//! ship: fast-forward is a pure latency optimisation, invisible in every
//! archived report — cycle counts, detection times, exec records, all of
//! it.

use ptest::faults::fig1::Fig1AdaptiveScenario;
use ptest::faults::philosophers::PhilosophersScenario;
use ptest::faults::races::{AtomicityRaceScenario, OrderViolationScenario};
use ptest::faults::timers::{IsrSharedVarScenario, QuantumAtomicityScenario};
use ptest::faults::weakmem::StoreVisibilityScenario;
use ptest::master::{ClockSkewConfig, MemoryModelSpec, ScheduleSpec};
use ptest::pcore::{Op, Program, ProgramId};
use ptest::{
    derived_memory_seed, derived_schedule_seed, AdaptiveTestConfig, Configured, FnScenario,
    InterruptConfig, MultiCoreSystem, PreemptionSpec, QuantumConfig, Scenario, TrialEngine,
    TrialOverrides, TrialScratch,
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

/// The guarded order-violation race with one pattern on its two slaves:
/// slave 0's consumer is created, slave 1's initializer never is, so
/// the consumer spins at the barrier until the livelock rule fires.
fn abandoned_barrier_scenario() -> impl Scenario {
    Configured::adjust(OrderViolationScenario::buggy(), |cfg| cfg.n = 1)
}

/// The exploration lanes: scheduler × memory model, plus a quantum lane,
/// an interrupt lane and a clock-skew lane. A lane's preemption features
/// are added on top of the scenario's own (an ISR scenario keeps its
/// interrupt plan).
fn explorations() -> Vec<(ScheduleSpec, MemoryModelSpec, PreemptionSpec)> {
    let none = PreemptionSpec::default();
    vec![
        (ScheduleSpec::LockStep, MemoryModelSpec::SeqCst, none),
        (
            ScheduleSpec::LockStep,
            MemoryModelSpec::store_buffer(),
            none,
        ),
        (
            ScheduleSpec::random_priority(),
            MemoryModelSpec::SeqCst,
            none,
        ),
        (
            ScheduleSpec::random_priority(),
            MemoryModelSpec::store_buffer(),
            none,
        ),
        (
            ScheduleSpec::LockStep,
            MemoryModelSpec::SeqCst,
            PreemptionSpec {
                quantum: Some(QuantumConfig { cycles: 5 }),
                ..none
            },
        ),
        (
            ScheduleSpec::random_priority(),
            MemoryModelSpec::SeqCst,
            PreemptionSpec {
                interrupts: Some(InterruptConfig {
                    count: 6,
                    horizon: 4_000,
                    ..InterruptConfig::default()
                }),
                ..none
            },
        ),
        (
            ScheduleSpec::random_priority(),
            MemoryModelSpec::SeqCst,
            PreemptionSpec {
                clock_skew: Some(ClockSkewConfig::default()),
                ..none
            },
        ),
    ]
}

/// Runs `scenario` across every exploration lane for `seeds`, once
/// fast-forwarded and once forced cycle-by-cycle, asserting
/// byte-identical report JSON.
fn assert_fast_forward_equivalence(
    scenario: &dyn Scenario,
    seeds: impl IntoIterator<Item = u64> + Clone,
) {
    for (schedule, memory, preemption) in explorations() {
        let mut cfg = scenario.base_config();
        cfg.schedule = schedule;
        cfg.memory = memory;
        cfg.preemption.quantum = preemption.quantum.or(cfg.preemption.quantum);
        cfg.preemption.interrupts = preemption.interrupts.or(cfg.preemption.interrupts);
        cfg.preemption.clock_skew = preemption.clock_skew.or(cfg.preemption.clock_skew);
        let mut fast = TrialEngine::new(cfg.clone()).unwrap();
        fast.set_fast_forward(true);
        let mut slow = TrialEngine::new(cfg).unwrap();
        slow.set_fast_forward(false);
        let mut fast_scratch = TrialScratch::new();
        let mut slow_scratch = TrialScratch::new();
        for seed in seeds.clone() {
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
                 schedule={schedule:?} memory={memory:?} preemption={preemption:?}",
                scenario.name(),
            );
        }
    }
}

#[test]
fn sleeper_reports_are_byte_identical_with_and_without_fast_forward() {
    assert_fast_forward_equivalence(&sleeper_scenario(), 1..=3);
}

#[test]
fn compute_reports_are_byte_identical_with_and_without_fast_forward() {
    assert_fast_forward_equivalence(&compute_scenario(), 1..=3);
}

#[test]
fn buggy_philosopher_reports_are_byte_identical_with_and_without_fast_forward() {
    // A real deadlock: the detector path and the fatal early-exit must
    // fire on exactly the same cycle either way.
    assert_fast_forward_equivalence(&PhilosophersScenario::buggy(), 1..=3);
}

#[test]
fn buggy_order_violation_reports_are_byte_identical_with_and_without_fast_forward() {
    assert_fast_forward_equivalence(&OrderViolationScenario::buggy(), 1..=2);
}

#[test]
fn buggy_atomicity_race_reports_are_byte_identical_with_and_without_fast_forward() {
    assert_fast_forward_equivalence(&AtomicityRaceScenario::buggy(), 1..=2);
}

#[test]
fn buggy_isr_shared_var_reports_are_byte_identical_with_and_without_fast_forward() {
    assert_fast_forward_equivalence(&IsrSharedVarScenario::buggy(), 1..=2);
}

#[test]
fn buggy_store_visibility_reports_are_byte_identical_with_and_without_fast_forward() {
    assert_fast_forward_equivalence(&StoreVisibilityScenario::buggy(), 1..=2);
}

#[test]
fn buggy_quantum_atomicity_reports_are_byte_identical_with_and_without_fast_forward() {
    assert_fast_forward_equivalence(&QuantumAtomicityScenario::buggy(), 1..=2);
}

#[test]
fn abandoned_barrier_reports_are_byte_identical_with_and_without_fast_forward() {
    assert_fast_forward_equivalence(&abandoned_barrier_scenario(), 1..=2);
}

#[test]
fn fig1_livelock_reports_are_byte_identical_with_and_without_fast_forward() {
    // At the base configuration seed 1 livelocks with one task spinning
    // alone, seed 91 with a spinner beside a suspended task, seed 30
    // with two tasks yielding to each other; seed 0 finds no bug.
    assert_fast_forward_equivalence(&Fig1AdaptiveScenario::default(), [0, 1, 30, 91]);
}
