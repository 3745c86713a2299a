//! Trace rendering golden: the fully rendered trial traces of scenarios
//! that together emit every trace event kind — commands to slaves
//! beyond slave 0, master threads' issues and exits, semaphore links
//! and their external posts, shared-variable mirrors, accesses and
//! fences, semaphore hand-offs, mutex blocks, interrupt masks,
//! injections (accepted and refused), ISR entries, exits and aborts,
//! quantum preemptions, faults, terminations and a heap-exhaustion
//! panic — plus the trace tail of every bug detected. Recording a trace
//! event stores the event's fields; this golden pins the text they
//! render to.

use std::fmt::Write as _;

use ptest::faults::fig1::Fig1AdaptiveScenario;
use ptest::faults::multicore::CrossCorePipelineScenario;
use ptest::faults::philosophers::PhilosophersScenario;
use ptest::faults::races::{AtomicityRaceScenario, OrderViolationScenario};
use ptest::faults::stress::{StressScenario, StressSpec};
use ptest::faults::timers::{IsrSharedVarScenario, QuantumAtomicityScenario};
use ptest::faults::weakmem::StoreVisibilityScenario;
use ptest::master::{InterruptConfig, MasterOp, PreemptionSpec, SystemConfig};
use ptest::pcore::{Op, Priority, Program, SvcRequest, VarId};
use ptest::{
    derived_memory_seed, derived_schedule_seed, AdaptiveTestConfig, Cycles, FnScenario, Scenario,
    TestReport, TrialEngine, TrialOverrides, TrialScratch, TrialTrace,
};

/// Two slaves; master threads issue a waited and a fire-and-forget
/// command, and slave 0's ISR blocks, so every injection on slave 0
/// aborts its handler while every one on slave 1 (no handler) is
/// refused.
fn threads_and_isr_aborts() -> impl Scenario {
    let config = AdaptiveTestConfig {
        system: SystemConfig::with_slaves(2),
        preemption: PreemptionSpec {
            interrupts: Some(InterruptConfig {
                count: 8,
                horizon: 80,
                ..InterruptConfig::default()
            }),
            ..PreemptionSpec::default()
        },
        ..AdaptiveTestConfig::default()
    };
    FnScenario::new("threads-and-isr-aborts", config, |sys| {
        let isr = Program::new(vec![Op::SleepFor(5), Op::Exit]).unwrap();
        let isr = sys.kernel_of_mut(0).register_program(isr);
        sys.kernel_of_mut(0).set_isr_program(isr);
        let var = VarId(0);
        sys.add_thread(
            "M1",
            vec![
                MasterOp::IssueAndWait(SvcRequest::PokeVar { var, value: 7 }),
                MasterOp::Issue(SvcRequest::PeekVar { var }),
                MasterOp::Done,
            ],
        );
        sys.add_thread("M2", vec![MasterOp::Compute(3), MasterOp::Done]);
        // Slave 0's worker hands slave 1's waiter a token over a link.
        let out = sys.kernel_of_mut(0).create_semaphore(0);
        let inbox = sys.kernel_of_mut(1).create_semaphore(0);
        sys.link_semaphores(0, out, 1, inbox).unwrap();
        // Slave 1's waiter also takes a token a local poster hands it.
        let local = sys.kernel_of_mut(1).create_semaphore(0);
        let waiter = vec![Op::SemWait(local), Op::SemWait(inbox), Op::Exit];
        let poster = vec![Op::Compute(5), Op::SemPost(local), Op::Exit];
        for (ops, priority) in [(waiter, 2), (poster, 1)] {
            let program = sys
                .kernel_of_mut(1)
                .register_program(Program::new(ops).unwrap());
            let create = SvcRequest::Create {
                program,
                priority: Priority::new(priority),
                stack_bytes: None,
            };
            sys.kernel_of_mut(1).dispatch(create, Cycles::ZERO).unwrap();
        }
        let worker = vec![
            Op::Compute(10),
            Op::SemPost(out),
            Op::Compute(300),
            Op::Exit,
        ];
        let worker = Program::new(worker).unwrap();
        vec![sys.kernel_of_mut(0).register_program(worker)]
    })
}

/// A trial's seed quadruple: pattern, schedule, memory and interrupt.
type Seeds = (u64, u64, u64, u64);

/// Renders one trial's captured trace, then every detected bug's trace
/// tail.
fn render(scenario: &dyn Scenario, seeds: Seeds) -> String {
    let (seed, schedule_seed, memory_seed, irq_seed) = seeds;
    let engine = TrialEngine::new(scenario.base_config()).unwrap();
    let mut trace = TrialTrace::default();
    let overrides = TrialOverrides {
        irq_seed: Some(irq_seed),
        capture_trace: Some(&mut trace),
        ..TrialOverrides::default()
    };
    let report = engine
        .run_scenario_trial_overridden(
            scenario,
            seed,
            schedule_seed,
            memory_seed,
            overrides,
            &mut TrialScratch::new(),
        )
        .unwrap();
    let mut out = String::new();
    let _ = writeln!(out, "== {} {seeds:?}", scenario.name());
    for (i, events) in trace.kernels.iter().enumerate() {
        let _ = writeln!(out, "kernel {i} (dropped {})", trace.dropped[i]);
        for event in events {
            let _ = writeln!(out, "{event}");
        }
    }
    let _ = writeln!(out, "master");
    for event in &trace.master {
        let _ = writeln!(out, "{event}");
    }
    for bug in &report.bugs {
        let _ = writeln!(out, "bug {bug}");
        for event in &bug.trace_tail {
            let _ = writeln!(out, "  {event}");
        }
    }
    out
}

#[test]
fn trace_renderings_are_byte_identical_to_the_golden() {
    let runs: [(&dyn Scenario, Seeds); 11] = [
        (&threads_and_isr_aborts(), (1, 1, 1, 3)),
        (&IsrSharedVarScenario::fixed(), (1, 1, 1, 2)),
        (&QuantumAtomicityScenario::buggy(), (1, 1, 1, 1)),
        (&CrossCorePipelineScenario::buggy(), (1, 1, 1, 1)),
        (
            &OrderViolationScenario::buggy(),
            (
                16_860_738_450_190_168_606,
                1_487_561_046_076_976_832,
                4_625_841_906_263_730_240,
                926_552_294_032_799_073,
            ),
        ),
        (&OrderViolationScenario::fixed(), (1, 1, 1, 1)),
        (&AtomicityRaceScenario::buggy(), (1, 1, 1, 1)),
        (&StoreVisibilityScenario::fenced(), (1, 1, 1, 1)),
        (&StoreVisibilityScenario::buggy(), (2, 2, 2, 2)),
        (&PhilosophersScenario::buggy(), (1, 1, 1, 1)),
        (
            &StressScenario {
                spec: StressSpec::paper(2),
            },
            (2, 2, 2, 2),
        ),
    ];
    let actual: String = runs
        .iter()
        .map(|&(scenario, seeds)| render(scenario, seeds))
        .collect();
    let golden = include_str!("fixtures/trace_renderings.txt");
    assert!(actual == golden, "trace renderings drifted:\n{actual}");
}

/// Runs `scenario` at pattern seed `seed` (the other seeds derived from
/// it) with the detector reporting `tail` events and, if given, kernel
/// rings of `kernel_capacity` events.
fn run_with_tail(
    scenario: &dyn Scenario,
    seed: u64,
    tail: usize,
    kernel_capacity: Option<usize>,
) -> TestReport {
    let mut config = scenario.base_config();
    config.detector.trace_tail = tail;
    if let Some(capacity) = kernel_capacity {
        config.system.kernel.trace_capacity = capacity;
    }
    TrialEngine::new(config)
        .unwrap()
        .run_scenario_trial_overridden(
            scenario,
            seed,
            derived_schedule_seed(seed),
            derived_memory_seed(seed),
            TrialOverrides::default(),
            &mut TrialScratch::new(),
        )
        .unwrap()
}

/// Asserts that a trial reporting `tail` events from kernel rings of
/// `kernel_capacity` events reports what a trial with full rings
/// reports: every bug's tail is the last `tail` events (at most
/// `kernel_capacity`) of the full tail, and every other field is equal.
/// Returns how many bugs the trial found and the longest full tail.
fn assert_tail_of_full_rings(
    scenario: &dyn Scenario,
    seed: u64,
    tail: usize,
    kernel_capacity: Option<usize>,
) -> (usize, usize) {
    const FULL: usize = 65_536;
    let mut full = run_with_tail(scenario, seed, FULL, None);
    let short = run_with_tail(scenario, seed, tail, kernel_capacity);
    let kept = tail.min(kernel_capacity.unwrap_or(FULL));
    let name = format!("{} seed {seed} tail {tail}", scenario.name());
    assert_eq!(full.bugs.len(), short.bugs.len(), "{name}");
    let mut longest = 0;
    for (full_bug, short_bug) in full.bugs.iter_mut().zip(&short.bugs) {
        longest = longest.max(full_bug.trace_tail.len());
        let from = full_bug.trace_tail.len().saturating_sub(kept);
        assert_eq!(full_bug.trace_tail[from..], short_bug.trace_tail, "{name}");
        full_bug.trace_tail = short_bug.trace_tail.clone();
    }
    full.config.detector.trace_tail = tail;
    full.config.system.kernel.trace_capacity = short.config.system.kernel.trace_capacity;
    // The distribution's map prints in its own hash order; a clone
    // keeps the order.
    full.config.pd = short.config.pd.clone();
    assert_eq!(format!("{full:?}"), format!("{short:?}"), "{name}");
    (short.bugs.len(), longest)
}

#[test]
fn tails_from_detector_sized_rings_equal_the_tails_of_full_rings() {
    // Seed 1 livelocks with one task spinning alone, seed 91 with a
    // spinner beside a suspended task, seed 30 with two tasks yielding
    // to each other: each skips many rotations, so a full ring holds
    // far more than the tail.
    for seed in [1, 30, 91] {
        let (bugs, longest) =
            assert_tail_of_full_rings(&Fig1AdaptiveScenario::default(), seed, 64, None);
        assert!(bugs > 0, "Fig. 1 seed {seed} livelocks");
        assert!(longest > 64, "Fig. 1 seed {seed}: a full tail of {longest}");
    }
    let scenarios: [&dyn Scenario; 7] = [
        &OrderViolationScenario::buggy(),
        &AtomicityRaceScenario::buggy(),
        &QuantumAtomicityScenario::buggy(),
        &StoreVisibilityScenario::buggy(),
        &IsrSharedVarScenario::buggy(),
        &CrossCorePipelineScenario::buggy(),
        &StressScenario::light(),
    ];
    for scenario in scenarios {
        let bugs: usize = (1..=4)
            .map(|seed| assert_tail_of_full_rings(scenario, seed, 64, None).0)
            .sum();
        assert!(bugs > 0, "{} finds its bug at seeds 1-4", scenario.name());
    }
}

/// [`assert_tail_of_full_rings`] over Fig. 1's three livelocks and the
/// faulty collector's crashes (seeds 1-4).
fn assert_tails_of_livelocks_and_crashes(tail: usize, kernel_capacity: Option<usize>) {
    let runs: [(&dyn Scenario, &[u64]); 2] = [
        (&Fig1AdaptiveScenario::default(), &[1, 30, 91]),
        (&StressScenario::light(), &[1, 2, 3, 4]),
    ];
    for (scenario, seeds) in runs {
        let bugs: usize = seeds
            .iter()
            .map(|&seed| assert_tail_of_full_rings(scenario, seed, tail, kernel_capacity).0)
            .sum();
        assert!(bugs > 0, "{} finds its bug", scenario.name());
    }
}

#[test]
fn a_zero_tail_reports_no_events_and_the_same_bugs() {
    assert_tails_of_livelocks_and_crashes(0, None);
}

#[test]
fn a_tail_longer_than_the_kernel_ring_reports_the_whole_ring() {
    assert_tails_of_livelocks_and_crashes(64, Some(20));
}
