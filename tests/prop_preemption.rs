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
//!
//! The interrupt-service routine runs on the task interpreter, so the
//! ISR/task differential checks that a random program over the
//! interrupt-legal ops leaves the same shared state whether it runs as a
//! task or as the ISR, and that every op only a task may execute aborts
//! the ISR.

use proptest::prelude::*;
use ptest::faults::philosophers::PhilosophersScenario;
use ptest::pcore::{
    ExitKind, Kernel, KernelConfig, MutexId, Op, Priority, Program, ProgramId, SemId, SvcRequest,
    TaskId, TaskState, VarId,
};
use ptest::Cycles;
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
                .kernel_of_mut(0)
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
                .kernel_of_mut(0)
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

/// One generated op over the 13 interrupt-legal ops: `(kind, a, b, reg)`
/// becomes the op at `at` of a `len`-op body followed by `Exit`. Jumps
/// and branches only go forward, so every program exits; one variable
/// and one semaphore index in eight is out of range, so traps happen.
fn isr_legal_op((kind, a, b, reg): (u8, u16, i64, u8), at: usize, len: usize) -> Op {
    let var = VarId(if a % 8 == 7 { 99 } else { a % 4 });
    let target = (at + 1 + usize::from(a) % (len - at)) as u16;
    match kind {
        0 => Op::Compute(1 + u32::from(a % 4)),
        1 => Op::ReadVar { var, reg },
        2 => Op::WriteVar { var, value: b },
        3 => Op::WriteVarReg { var, reg },
        4 => Op::AddReg { reg, delta: b },
        5 => Op::BranchIfVarEq {
            var,
            value: b,
            target,
        },
        6 => Op::BranchIfRegEq {
            reg,
            value: b,
            target,
        },
        7 => Op::Jump(target),
        8 => Op::Fence,
        9 => Op::SemPost(SemId(if a % 8 == 7 { 9 } else { a % 2 })),
        10 => Op::IrqMask,
        11 => Op::IrqUnmask,
        _ => Op::Exit,
    }
}

/// Runs `ops` to its end on a fresh access-tracing kernel with two empty
/// semaphores and a mutex, as the ISR or else as a task. Returns the
/// kernel and the cycles the program took.
fn run_program(ops: &[Op], as_isr: bool) -> (Kernel, u64) {
    let mut k = Kernel::new(KernelConfig {
        trace_accesses: true,
        ..KernelConfig::default()
    });
    k.create_semaphore(0);
    k.create_semaphore(0);
    k.create_mutex();
    let program = k.register_program(Program::new(ops.to_vec()).expect("valid program"));
    if as_isr {
        k.set_isr_program(program);
        assert!(k.raise_interrupt());
    } else {
        let priority = Priority::new(5);
        let create = SvcRequest::Create {
            program,
            priority,
            stack_bytes: None,
        };
        k.dispatch(create, Cycles::ZERO).expect("task created");
    }
    let mut cycles = 0;
    while cycles == 0 || k.isr_active() || k.live_task_count() > 0 {
        cycles += 1;
        k.tick(Cycles::new(cycles));
    }
    (k, cycles)
}

/// How the ISR's last activation ended, as its trace records it.
fn isr_end(k: &Kernel) -> String {
    let last = k.trace().iter().filter(|e| e.kind() == "isr").last();
    last.expect("the ISR ran").event.to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn isr_and_task_execute_the_interrupt_legal_ops_alike(
        raw in proptest::collection::vec((0u8..13, any::<u16>(), -2i64..3, 0u8..8), 1..24)
    ) {
        let len = raw.len();
        let body = raw.into_iter().enumerate().map(|(at, r)| isr_legal_op(r, at, len));
        let ops: Vec<Op> = body.chain([Op::Exit]).collect();
        let (task, task_cycles) = run_program(&ops, false);
        let (isr, isr_cycles) = run_program(&ops, true);
        prop_assert_eq!(task_cycles, isr_cycles);
        prop_assert_eq!(isr.isr_cycles(), isr_cycles);
        for v in 0..4 {
            prop_assert_eq!(task.var(VarId(v)), isr.var(VarId(v)));
        }
        for s in 0..2 {
            prop_assert_eq!(task.semaphore_count(SemId(s)), isr.semaphore_count(SemId(s)));
        }
        prop_assert_eq!(task.pending_fence_count(), isr.pending_fence_count());
        prop_assert_eq!(task.irq_masked(), isr.irq_masked());
        // The ISR traces its stores only.
        let stores = |k: &Kernel| k.trace().iter().filter(|e| e.kind() == "var-write").count();
        prop_assert_eq!(stores(&task), stores(&isr));
        prop_assert!(isr.trace().iter().all(|e| e.kind() == "isr" || e.kind() == "var-write"));
        // A task that faulted on a bad variable or semaphore aborted the
        // ISR at the same op.
        let exited = task.task_state(TaskId::new(0)) == Some(TaskState::Terminated(ExitKind::Normal));
        let end = isr_end(&isr);
        prop_assert_eq!(exited, end == "exit", "{}", end);
        prop_assert!(["exit", "abort: bad var", "abort: bad semaphore"].contains(&end.as_str()));
    }
}

/// Every op only a task may execute aborts the ISR, which then counts as
/// run, without touching the heap.
#[test]
fn task_only_ops_abort_the_isr() {
    let task_only = [
        Op::Alloc { bytes: 16, reg: 0 },
        Op::Free { reg: 0 },
        Op::StackProbe(8),
        Op::Yield,
        Op::SemWait(SemId(0)),
        Op::MutexLock(MutexId(0)),
        Op::MutexUnlock(MutexId(0)),
        Op::SleepFor(3),
    ];
    for op in task_only {
        let (k, cycles) = run_program(&[op, Op::Exit], true);
        assert_eq!((cycles, k.isr_runs()), (1, 1), "{op:?}");
        assert_eq!(
            isr_end(&k),
            "abort: blocking op in interrupt context",
            "{op:?}"
        );
        assert_eq!(
            k.heap_stats(),
            Kernel::new(KernelConfig::default()).heap_stats()
        );
    }
}
