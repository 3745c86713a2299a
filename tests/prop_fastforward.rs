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
//! Once the committer is done, the engine skips whole runs of observe
//! points up to the detector's next deadline. CPU starvation and a lone
//! hog whose loop straddles the observe interval pin the case where a
//! looping task retires no op in some intervals, and the generated loop
//! bodies at the end pin the rest: random steady loops, each of the
//! detector's time-driven rules, and random observe intervals.
//!
//! This is the contract that makes the event-driven trial loop safe to
//! ship: fast-forward is a pure latency optimisation, invisible in every
//! archived report — cycle counts, detection times, exec records, all of
//! it.

use proptest::prelude::*;
use ptest::faults::fig1::Fig1AdaptiveScenario;
use ptest::faults::philosophers::PhilosophersScenario;
use ptest::faults::races::{AtomicityRaceScenario, OrderViolationScenario};
use ptest::faults::scenarios::{worker_program, StarvationScenario};
use ptest::faults::timers::{IsrSharedVarScenario, QuantumAtomicityScenario};
use ptest::faults::weakmem::StoreVisibilityScenario;
use ptest::master::{ClockSkewConfig, MemoryModelSpec, ScheduleSpec};
use ptest::pcore::{Op, Priority, Program, ProgramId, SemId, SvcReply, SvcRequest, TaskId, VarId};
use ptest::{
    derived_memory_seed, derived_schedule_seed, AdaptiveTestConfig, Configured, Cycles, FnScenario,
    InterruptConfig, MasterOp, MultiCoreSystem, PreemptionSpec, QuantumConfig, Scenario,
    TrialEngine, TrialOverrides, TrialScratch, TrialTrace,
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
                .kernel_of_mut(0)
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
                .kernel_of_mut(0)
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

/// A lone non-yielding hog beside a worker it starves, in the shape of
/// [`StarvationScenario`] but observed every 20 cycles: the hog loops
/// `Compute(compute)`, `Jump`, a rotation of `compute + 1` ticks in
/// which it retires its two ops `compute` ticks and one tick apart. Past
/// a compute of 20, some intervals see it retire nothing.
fn straddling_hog_scenario(compute: u32) -> impl Scenario {
    let config = AdaptiveTestConfig {
        check_interval: 20,
        ..StarvationScenario.base_config()
    };
    FnScenario::new(
        "straddling-hog",
        config,
        move |sys: &mut MultiCoreSystem| -> Vec<ProgramId> {
            let hog = Program::new(vec![Op::Compute(compute), Op::Jump(0)]).expect("valid");
            let kernel = sys.kernel_of_mut(0);
            vec![
                kernel.register_program(worker_program(100)),
                kernel.register_program(hog),
            ]
        },
    )
}

/// Runs one trial of `scenario` under `cfg` at `seed`, once
/// fast-forwarded and once forced cycle-by-cycle, and returns both
/// reports as JSON, each with the trial's captured trace when `traced`
/// (which turns the kernels' access tracing on).
fn fast_and_slow_reports(
    scenario: &dyn Scenario,
    cfg: AdaptiveTestConfig,
    seed: u64,
    traced: bool,
) -> [(String, Option<TrialTrace>); 2] {
    [true, false].map(|fast_forward| {
        let mut engine = TrialEngine::new(cfg.clone()).unwrap();
        engine.set_fast_forward(fast_forward);
        let mut trace = traced.then(TrialTrace::default);
        let report = engine
            .run_scenario_trial_overridden(
                scenario,
                seed,
                derived_schedule_seed(seed),
                derived_memory_seed(seed),
                TrialOverrides {
                    capture_trace: trace.as_mut(),
                    ..TrialOverrides::default()
                },
                &mut TrialScratch::new(),
            )
            .unwrap();
        (ptest::report_to_json(&report).unwrap(), trace)
    })
}

/// Runs `scenario` across every exploration lane for `seeds`, once
/// fast-forwarded and once forced cycle-by-cycle, asserting
/// byte-identical report JSON.
fn assert_fast_forward_equivalence(
    scenario: &dyn Scenario,
    seeds: impl IntoIterator<Item = u64> + Clone,
) {
    assert_equivalence(scenario, seeds, false);
}

/// [`assert_fast_forward_equivalence`], and when `traced` also an
/// identical captured trace: every kernel and master event in order,
/// and each kernel ring's dropped count.
fn assert_equivalence(
    scenario: &dyn Scenario,
    seeds: impl IntoIterator<Item = u64> + Clone,
    traced: bool,
) {
    for (schedule, memory, preemption) in explorations() {
        let mut cfg = scenario.base_config();
        cfg.schedule = schedule;
        cfg.memory = memory;
        cfg.preemption.quantum = preemption.quantum.or(cfg.preemption.quantum);
        cfg.preemption.interrupts = preemption.interrupts.or(cfg.preemption.interrupts);
        cfg.preemption.clock_skew = preemption.clock_skew.or(cfg.preemption.clock_skew);
        for seed in seeds.clone() {
            let [fast, slow] = fast_and_slow_reports(scenario, cfg.clone(), seed, traced);
            assert_eq!(
                fast,
                slow,
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

#[test]
fn traced_reports_and_traces_are_identical_with_and_without_fast_forward() {
    // Root-cause replays trace accesses. The races' bounded spins and
    // Fig. 1's polls branch on a variable without reading it into a
    // register, so their livelock waits (seed 1 of the atomicity races,
    // seeds 1, 30 and 91 of Fig. 1) still fast-forward under tracing.
    assert_equivalence(&OrderViolationScenario::buggy(), 1..=2, true);
    assert_equivalence(&AtomicityRaceScenario::buggy(), 1..=2, true);
    assert_equivalence(&QuantumAtomicityScenario::buggy(), 1..=2, true);
    assert_equivalence(&Fig1AdaptiveScenario::default(), [0, 1, 30, 91], true);
    assert_equivalence(&abandoned_barrier_scenario(), 1..=2, true);
}

/// A spinner on slave 0 beside a loop on slave 1 that computes and
/// writes a variable, which never makes its kernel steady. Under the
/// randomized-priority scheduler, wherever the spinner leads, slave 1
/// runs once per fairness window and is frozen in between.
fn starved_slave_scenario() -> impl Scenario {
    let mut cfg = AdaptiveTestConfig {
        n: 1,
        s: 3,
        max_cycles: 20_000,
        schedule: ScheduleSpec::random_priority(),
        ..AdaptiveTestConfig::default()
    };
    cfg.system.slaves = 2;
    FnScenario::new(
        "starved-slave",
        cfg,
        |sys: &mut MultiCoreSystem| -> Vec<ProgramId> {
            let spin = Program::new(vec![
                Op::BranchIfVarEq {
                    var: VarId(3),
                    value: 1,
                    target: 2,
                },
                Op::Jump(0),
                Op::Exit,
            ])
            .expect("valid");
            let work = Program::new(vec![
                Op::Compute(3),
                Op::WriteVar {
                    var: VarId(5),
                    value: 1,
                },
                Op::Jump(0),
            ])
            .expect("valid");
            for (slave, program) in [(0, spin), (1, work)] {
                let kernel = sys.kernel_of_mut(slave);
                let program = kernel.register_program(program);
                let request = SvcRequest::Create {
                    program,
                    priority: Priority::new(5),
                    stack_bytes: None,
                };
                kernel.dispatch(request, Cycles::ZERO).expect("created");
            }
            let short = Program::new(vec![Op::Compute(3), Op::Exit]).expect("valid");
            vec![sys.kernel_of_mut(0).register_program(short)]
        },
    )
}

#[test]
fn starved_slave_reports_are_byte_identical_with_and_without_fast_forward() {
    let scenario = starved_slave_scenario();
    for seed in 1..=4 {
        for traced in [false, true] {
            let [fast, slow] =
                fast_and_slow_reports(&scenario, scenario.base_config(), seed, traced);
            assert_eq!(fast, slow, "seed {seed}, traced {traced}");
        }
    }
}

#[test]
fn cpu_starvation_reports_are_byte_identical_with_and_without_fast_forward() {
    // The hog's `Compute(1_000)` loop retires no op in every other
    // 500-cycle interval, so it moves at some observations and not at
    // others.
    assert_fast_forward_equivalence(&StarvationScenario, 1..=2);
}

#[test]
fn straddling_hog_reports_are_byte_identical_with_and_without_fast_forward() {
    // Rotations just below, at and just above the interval, and one
    // whose long gap between retired ops exceeds it.
    for compute in [18, 19, 20, 21] {
        assert_fast_forward_equivalence(&straddling_hog_scenario(compute), 1..=2);
    }
    // At this seed the first observation that could arm a deadline
    // finds the hog inside its compute, as if frozen.
    assert_fast_forward_equivalence(&straddling_hog_scenario(25), [10]);
}

/// One op of a generated loop body, in the shape of pCore's own
/// closed-form proptest: branches go to the loop's exit or skip the next
/// op. A `Compute`'s length is drawn per mille of twice the observe
/// interval.
#[derive(Debug, Clone, Copy)]
enum BodyOp {
    Add(u8, i64),
    Read(u16, u8),
    VarBranch(u16, i64, bool),
    RegBranch(u8, i64, bool),
    Compute(u64),
}

fn body_op() -> impl Strategy<Value = BodyOp> {
    prop_oneof![
        (0u8..4, -2i64..3).prop_map(|(r, d)| BodyOp::Add(r, d)),
        (0u16..3, 0u8..4).prop_map(|(v, r)| BodyOp::Read(v, r)),
        (0u16..3, 0i64..3, any::<bool>()).prop_map(|(v, x, e)| BodyOp::VarBranch(v, x, e)),
        (0u8..4, -12i64..12, any::<bool>()).prop_map(|(r, x, e)| BodyOp::RegBranch(r, x, e)),
        (0u64..=1_000).prop_map(BodyOp::Compute),
    ]
}

/// One generated looping task: its priority, initial registers, body,
/// where its `Yield` goes (if it yields), and whether leaving the loop
/// blocks it forever instead of exiting.
type Looper = (u8, (i64, i64), Vec<BodyOp>, (Option<usize>, bool));

fn looper() -> impl Strategy<Value = Looper> {
    (
        1u8..40,
        (-12i64..12, -12i64..12),
        proptest::collection::vec(body_op(), 1..5),
        (proptest::option::of(0usize..5), any::<bool>()),
    )
}

/// Registers seeded by a prelude, the body (with its `Yield`, if any),
/// a `Jump` back to its head, then the exit every exiting branch lands
/// on: `Exit`, or a wait on a semaphore nothing posts.
fn loop_program(looper: &Looper, interval: u64, sem: SemId) -> Program {
    let (_, init, body, (yield_at, blocks)) = looper;
    let mut body: Vec<Option<BodyOp>> = body.iter().copied().map(Some).collect();
    if let Some(at) = yield_at {
        body.insert((*at).min(body.len()), None);
    }
    let head = 2u16;
    let jump = head + body.len() as u16;
    let exit = jump + 1;
    let target = |i: usize, to_exit: bool| {
        if to_exit {
            exit
        } else {
            (head + i as u16 + 2).min(jump)
        }
    };
    let mut ops = vec![
        Op::AddReg {
            reg: 0,
            delta: init.0,
        },
        Op::AddReg {
            reg: 1,
            delta: init.1,
        },
    ];
    ops.extend(body.iter().enumerate().map(|(i, op)| match *op {
        None => Op::Yield,
        Some(BodyOp::Add(reg, delta)) => Op::AddReg { reg, delta },
        Some(BodyOp::Read(var, reg)) => Op::ReadVar {
            var: VarId(var),
            reg,
        },
        Some(BodyOp::VarBranch(var, value, e)) => Op::BranchIfVarEq {
            var: VarId(var),
            value,
            target: target(i, e),
        },
        Some(BodyOp::RegBranch(reg, value, e)) => Op::BranchIfRegEq {
            reg,
            value,
            target: target(i, e),
        },
        Some(BodyOp::Compute(per_mille)) => {
            Op::Compute(u32::try_from(2 * interval * per_mille / 1_000).expect("small"))
        }
    }));
    ops.push(Op::Jump(head));
    if *blocks {
        ops.push(Op::SemWait(sem));
    }
    ops.push(Op::Exit);
    Program::new(ops).expect("valid")
}

/// The trial shapes the generated test covers, one per way a deadline
/// can come about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// One task spins without yielding.
    LoneSpinner,
    /// Two tasks poll and yield to each other.
    MutualYield,
    /// A spinner beside a suspended task that never runs.
    BesideSuspended,
    /// A spinner beside a task blocked forever on a semaphore nothing
    /// posts: a starvation deadline.
    BlockedForever,
    /// A spinner and a master thread that sleeps, then issues a command
    /// and waits for it, on a slave that may never answer: a timeout
    /// deadline.
    PendingCommand,
    /// A spinner beside a sleeper that wakes, outranks it and computes
    /// past the budget: the spinner stops moving between two observe
    /// points, and starves.
    WokenHog,
}

const SHAPES: [Shape; 6] = [
    Shape::LoneSpinner,
    Shape::MutualYield,
    Shape::BesideSuspended,
    Shape::BlockedForever,
    Shape::PendingCommand,
    Shape::WokenHog,
];

fn create(sys: &mut MultiCoreSystem, program: ProgramId, priority: u8) -> TaskId {
    let request = SvcRequest::Create {
        program,
        priority: Priority::new(priority),
        stack_bytes: None,
    };
    match sys.kernel_of_mut(0).dispatch(request, Cycles::ZERO) {
        Ok(SvcReply::Created(task)) => task,
        other => panic!("scripted create must succeed: {other:?}"),
    }
}

/// A trial of `shape`: its looping tasks are created before the first
/// cycle, beside the committer's short-lived workers, and loop on after
/// the committer is done.
fn generated_scenario(
    shape: Shape,
    loopers: Vec<Looper>,
    vars: [i64; 3],
    interval: u64,
    delay: u32,
) -> impl Scenario {
    let cfg = AdaptiveTestConfig {
        n: 1,
        s: 3,
        check_interval: interval,
        max_cycles: 40_000,
        ..AdaptiveTestConfig::default()
    };
    FnScenario::new(
        "generated-loop",
        cfg,
        move |sys: &mut MultiCoreSystem| -> Vec<ProgramId> {
            for (var, value) in vars.into_iter().enumerate() {
                sys.kernel_of_mut(0).set_var(VarId(var as u16), value);
            }
            let sem = sys.kernel_of_mut(0).create_semaphore(0);
            let spinners = if shape == Shape::MutualYield { 2 } else { 1 };
            let mut first = None;
            for (i, looper) in loopers.iter().take(spinners).enumerate() {
                let mut looper = looper.clone();
                match shape {
                    Shape::LoneSpinner => looper.3 .0 = None,
                    Shape::MutualYield => looper.3 .0 = looper.3 .0.or(Some(0)),
                    _ => {}
                }
                let program = sys
                    .kernel_of_mut(0)
                    .register_program(loop_program(&looper, interval, sem));
                let task = create(sys, program, looper.0 + 40 * i as u8);
                first.get_or_insert(task);
            }
            let short = Program::new(vec![Op::Compute(3), Op::Exit]).expect("valid");
            match shape {
                Shape::BesideSuspended => {
                    let program = sys.kernel_of_mut(0).register_program(short.clone());
                    let task = create(sys, program, 200);
                    sys.kernel_of_mut(0)
                        .dispatch(SvcRequest::Suspend { task }, Cycles::ZERO)
                        .expect("suspend");
                }
                Shape::BlockedForever => {
                    let blocked = Program::new(vec![Op::SemWait(sem), Op::Exit]).expect("valid");
                    let program = sys.kernel_of_mut(0).register_program(blocked);
                    create(sys, program, 200);
                }
                Shape::PendingCommand => {
                    let task = first.expect("a spinner");
                    sys.add_thread(
                        "M",
                        vec![
                            MasterOp::SleepFor(delay),
                            MasterOp::IssueAndWait(SvcRequest::Resume { task }),
                            MasterOp::Done,
                        ],
                    );
                }
                Shape::WokenHog => {
                    let hog = vec![Op::SleepFor(delay), Op::Compute(50_000), Op::Exit];
                    let program = sys
                        .kernel_of_mut(0)
                        .register_program(Program::new(hog).expect("valid"));
                    create(sys, program, 200);
                }
                Shape::LoneSpinner | Shape::MutualYield => {}
            }
            vec![sys.kernel_of_mut(0).register_program(short)]
        },
    )
}

/// Runs one generated trial both ways and returns the two reports, with
/// their traces in the traced lane.
fn generated_reports(
    shape: Shape,
    loopers: Vec<Looper>,
    vars: [i64; 3],
    (interval, window, drain, delay): (u64, u64, u64, u32),
    (lane, timeout, silent, seed): (usize, u64, bool, u64),
) -> [(String, Option<TrialTrace>); 2] {
    let scenario = generated_scenario(shape, loopers, vars, interval, delay);
    let mut cfg = scenario.base_config();
    cfg.drain_cycles = drain;
    cfg.detector.progress_window = Cycles::new(window);
    if shape == Shape::PendingCommand {
        cfg.detector.command_timeout = Cycles::new(timeout);
        // A slave that services no command leaves the thread's command,
        // and the committer's, pending for good.
        if silent {
            cfg.system.slave_budget = 0;
        }
    }
    match lane {
        0 | 3 => {}
        1 => cfg.preemption.quantum = Some(QuantumConfig { cycles: 5 }),
        _ => cfg.schedule = ScheduleSpec::random_priority(),
    }
    // The traced lane keeps `ReadVar` bodies stepped and fast-forwards
    // the rest.
    fast_and_slow_reports(&scenario, cfg, seed, lane == 3)
}

#[test]
fn a_spinner_stopped_between_skipped_observe_points_reports_identically() {
    // Armed at its livelock deadline, the spinner's window ends early,
    // at the hog's wake, past observe points it skipped. The spinner
    // retires no op between the last of those and the wake, so stepping
    // starts its starvation clock at that skipped point: the window must
    // stop there instead of at the wake.
    let spinner: Looper = (
        1,
        (9, 11),
        vec![BodyOp::Add(0, 2), BodyOp::Compute(439)],
        (None, true),
    );
    let [fast, slow] = generated_reports(
        Shape::WokenHog,
        vec![spinner],
        [2, 0, 2],
        (295, 5_825, 26_510, 2_817),
        (0, 0, false, 3),
    );
    assert_eq!(fast, slow);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated steady loops, each shape of deadline, random observe
    /// intervals, progress windows and drains: skipping observe points
    /// up to the detector's deadline leaves every report byte-identical
    /// to stepping every cycle.
    #[test]
    fn generated_loop_reports_are_byte_identical_with_and_without_fast_forward(
        shape in 0usize..6,
        loopers in proptest::collection::vec(looper(), 2..3),
        vars in (0i64..3, 0i64..3, 0i64..3),
        timing in (1u64..=600, 1u64..=8_000, 0u64..=30_000, 0u32..3_000),
        lane in (0usize..4, 1u64..=64, any::<bool>(), 0u64..4),
    ) {
        let [fast, slow] =
            generated_reports(SHAPES[shape], loopers, [vars.0, vars.1, vars.2], timing, lane);
        prop_assert_eq!(fast, slow);
    }
}
