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

use ptest::faults::multicore::CrossCorePipelineScenario;
use ptest::faults::philosophers::PhilosophersScenario;
use ptest::faults::races::{AtomicityRaceScenario, OrderViolationScenario};
use ptest::faults::stress::{StressScenario, StressSpec};
use ptest::faults::timers::{IsrSharedVarScenario, QuantumAtomicityScenario};
use ptest::faults::weakmem::StoreVisibilityScenario;
use ptest::master::{InterruptConfig, MasterOp, PreemptionSpec, SystemConfig};
use ptest::pcore::{Op, Priority, Program, SvcRequest, VarId};
use ptest::{
    AdaptiveTestConfig, Cycles, FnScenario, Scenario, TrialEngine, TrialOverrides, TrialScratch,
    TrialTrace,
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
