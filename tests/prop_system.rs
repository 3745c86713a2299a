//! Cross-crate property tests: whole-system invariants under random
//! configurations.

use proptest::prelude::*;
use ptest::master::SharedVarBus;
use ptest::pcore::{Op, Priority, Program, SemId, SvcRequest, VarId};
use ptest::{
    AdaptiveTest, AdaptiveTestConfig, BugKind, CommitterStatus, Cycles, MasterOp, MemoryModel,
    MemoryModelSpec, MergeOp, MultiCoreSystem, ProgramId, SystemConfig,
};

fn compute_setup(sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
    vec![sys
        .kernel_of_mut(0)
        .register_program(Program::new(vec![Op::Compute(15), Op::Exit]).expect("valid"))]
}

fn arb_merge_op() -> impl Strategy<Value = MergeOp> {
    prop_oneof![
        Just(MergeOp::Sequential),
        (1usize..4).prop_map(|chunk| MergeOp::RoundRobin { chunk }),
        (0u64..50).prop_map(|seed| MergeOp::RandomInterleave { seed }),
        (0usize..4).prop_map(|overlap| MergeOp::Staggered { overlap }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a healthy slave, every configuration completes with zero error
    /// replies and no bugs: pTest's legality guarantee end to end.
    #[test]
    fn healthy_slave_never_fails(
        n in 1usize..6,
        s in 2usize..10,
        seed in 0u64..1_000,
        op in arb_merge_op(),
    ) {
        let cfg = AdaptiveTestConfig {
            n, s, op, seed,
            ..AdaptiveTestConfig::default()
        };
        let report = AdaptiveTest::run(cfg, compute_setup).unwrap();
        prop_assert_eq!(report.committer_status, CommitterStatus::Done);
        // Benign TaskNotLive races with self-exit may occur; ordering
        // violations (the class the PFA rules out) never do.
        prop_assert_eq!(report.ordering_errors(), 0, "{}", report.summary());
        prop_assert!(report.bugs.is_empty(), "{}", report.summary());
        // Conservation: every merged step was issued or skipped.
        let issued = report.exec_records.iter().filter(|r| r.request.is_some()).count();
        let skipped = report.exec_records.iter().filter(|r| r.skipped).count();
        prop_assert_eq!(issued + skipped, report.merged.len());
        prop_assert_eq!(skipped, 0, "healthy runs skip nothing");
    }

    /// Reports reproduce exactly for arbitrary seeds.
    #[test]
    fn any_seed_reproduces(seed in 0u64..10_000) {
        let cfg = AdaptiveTestConfig {
            n: 2, s: 6, seed,
            ..AdaptiveTestConfig::default()
        };
        let a = AdaptiveTest::run(cfg.clone(), compute_setup).unwrap();
        let b = AdaptiveTest::run(cfg, compute_setup).unwrap();
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.commands_issued, b.commands_issued);
        prop_assert_eq!(a.patterns, b.patterns);
    }

    /// The kernel never reports more live tasks than its slot limit, and
    /// a healthy run drains to zero live tasks.
    #[test]
    fn task_limit_is_an_invariant(n in 1usize..8, seed in 0u64..500) {
        let cfg = AdaptiveTestConfig {
            n,
            s: 8,
            seed,
            cyclic_generation: true,
            ..AdaptiveTestConfig::default()
        };
        let report = AdaptiveTest::run(cfg, compute_setup).unwrap();
        let crashed = report.found(|k| matches!(k, BugKind::SlaveCrash { .. }));
        prop_assert!(!crashed);
    }
}

/// Variables 0..SHARED may become SRAM-mirrored; tasks also write the
/// private ones above them.
const SHARED: u16 = 4;

/// One looping task program over the ops that move the platform cycle's
/// event gates: stores, sleeps, semaphore posts and compute bursts.
fn gate_program(raw: &[(u8, u16, i64)]) -> Program {
    let mut ops: Vec<Op> = raw
        .iter()
        .map(|&(kind, arg, value)| match kind {
            0 => Op::WriteVar {
                var: VarId(arg % (SHARED + 2)),
                value,
            },
            1 => Op::SleepFor(u32::from(arg % 40) + 1),
            2 => Op::SemPost(SemId(0)),
            _ => Op::Compute(u32::from(arg % 6) + 1),
        })
        .collect();
    ops.push(Op::Jump(0));
    Program::new(ops).expect("valid")
}

/// Builds a `slaves`-slave system, one looping task per slave, with
/// semaphore 0 of each slave linked to the next slave's.
fn gate_system(slaves: usize, programs: &[Vec<(u8, u16, i64)>]) -> MultiCoreSystem {
    let mut sys = MultiCoreSystem::new(SystemConfig::with_slaves(slaves));
    for slave in 0..slaves {
        let kernel = sys.kernel_of_mut(slave);
        kernel.create_semaphore(0);
        let program = kernel.register_program(gate_program(&programs[slave % programs.len()]));
        kernel
            .dispatch(
                SvcRequest::Create {
                    program,
                    priority: Priority::new(5),
                    stack_bytes: None,
                },
                Cycles::ZERO,
            )
            .expect("task fits");
    }
    for slave in 1..slaves {
        sys.link_semaphores(slave - 1, SemId(0), slave, SemId(0))
            .expect("distinct slaves");
    }
    sys
}

/// A memory model that moves the SRAM mirror without writing any
/// kernel: the case the mirroring memo cannot see through write counts.
#[derive(Debug)]
struct MirrorOnly;

impl MemoryModel for MirrorOnly {
    fn sync(&mut self, _now: Cycles, bus: &mut dyn SharedVarBus) {
        for idx in 0..bus.shared_count() {
            bus.publish(idx, bus.agreed(idx) + 1);
        }
    }
}

fn poke(var: u16, value: i64) -> SvcRequest {
    SvcRequest::PokeVar {
        var: VarId(var % SHARED),
        value,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drives every mutation path the platform cycle's O(1) gates track
    /// (mailbox counts, doorbells, the var-write memo, the sleeper
    /// deadline) on random 1–4-slave systems. Each gate `debug_assert!`s
    /// against the scan it replaces, so the test runs them all; on top,
    /// every sequentially-consistent step must leave the kernels agreeing
    /// on every shared var, and every command must be answered.
    #[test]
    fn event_gates_agree_with_the_scans_they_replace(
        slaves in 1usize..5,
        programs in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0u16..64, -3i64..4), 1..8),
            1..4,
        ),
        actions in proptest::collection::vec((0u8..7, 0usize..4, -50i64..50, 1usize..40), 1..24),
        memory_seed in 0u64..1_000,
    ) {
        let mut sys = gate_system(slaves, &programs);
        let mut store_buffer = MemoryModelSpec::store_buffer()
            .model(memory_seed)
            .expect("the store buffer is a model");
        let mut shared: Vec<u16> = Vec::new();
        let mut issued = 0usize;
        let mut answered = 0usize;
        for (kind, pick, value, count) in actions {
            let slave = pick % slaves;
            match kind {
                0 => {
                    for _ in 0..count {
                        sys.step_explored(None, None);
                        for &var in &shared {
                            let agreed = sys.kernel_of(0).var(VarId(var));
                            for i in 1..slaves {
                                prop_assert_eq!(sys.kernel_of(i).var(VarId(var)), agreed);
                            }
                        }
                    }
                }
                1 => {
                    for _ in 0..count {
                        sys.step_explored(None, Some(store_buffer.as_mut()));
                    }
                }
                // A burst of `count` commands issued in one cycle: more
                // than the 16-command service budget when count > 16
                // (issues beyond the 32-record ring are refused).
                2 => {
                    issued += (0..count)
                        .filter(|&k| sys.issue_to(slave, poke(k as u16, value)).is_ok())
                        .count();
                }
                3 => sys.kernel_of_mut(slave).set_var(VarId(pick as u16), value),
                4 => {
                    let var = pick as u16;
                    if !shared.contains(&var) {
                        sys.share_var(VarId(var), 0x3_0000 + 8 * usize::from(var)).unwrap();
                        shared.push(var);
                    }
                }
                6 => sys.step_explored(None, Some(&mut MirrorOnly)),
                // A master thread issuing a burst, one command per cycle.
                _ => {
                    let ops = (0..count)
                        .map(|k| MasterOp::Issue(poke(k as u16, value)))
                        .chain([MasterOp::Done])
                        .collect();
                    sys.add_thread(format!("burst{issued}"), ops);
                    issued += count;
                }
            }
            // An empty inbox lets the horizon reach its mailbox and
            // shared-var checks.
            answered += sys.drain_responses().len();
            let _ = sys.quiescent_horizon();
        }
        sys.run(1_000);
        prop_assert!(sys.threads_done());
        prop_assert_eq!(sys.pending_commands(), 0);
        prop_assert_eq!(answered + sys.drain_responses().len(), issued);
    }
}
