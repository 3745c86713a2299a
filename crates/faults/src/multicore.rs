//! Multi-slave fault scenarios: cross-core bugs that *cannot exist* on
//! the dual-core platform.
//!
//! Two scenarios exercise the N-slave generalization of the platform:
//!
//! * [`CrossCorePipelineScenario`] — a ring of pipeline stages, one per
//!   slave core, handing tokens to each other through the bridge's
//!   cross-core semaphore links. The buggy variant acquires its two
//!   tokens (data + flow-control credit, circulating in opposite
//!   directions) in a fixed order, so once every stage task is alive the
//!   stages block on each other across kernels — a wait-for cycle
//!   *spanning kernels*, reported as
//!   [`BugKind::CrossCoreDeadlock`](ptest_core::BugKind). Whether the
//!   deadlock forms depends on the generated test patterns: only seeds
//!   whose patterns create all stages and keep them alive (no early
//!   `task_delete`, no lingering `task_suspend`) let the cycle close.
//! * [`SramRaceScenario`] — a producer/consumer counter mirrored across
//!   all slave kernels through a window in shared SRAM. Every slave runs
//!   an unsynchronized read-modify-write loop; increments performed by
//!   two cores in the same mirroring epoch collide and the lower-indexed
//!   core's update is lost. Like the single-core lost-update race, the
//!   detector does not flag this class — the final-value oracle
//!   [`lost_updates`](crate::scenarios::lost_updates) must be consulted.

use ptest_core::{AdaptiveTestConfig, MergeOp, Scenario};
use ptest_master::{MultiCoreSystem, SystemConfig};
use ptest_pcore::{Op, ProgramBuilder, ProgramId, SemId, VarId};

use crate::scenarios::race_writer_program;
use crate::Variant;

/// The shared counter of the cross-slave SRAM race (mirrored in every
/// kernel).
pub const SRAM_RACE_COUNTER: VarId = VarId(6);

/// SRAM offset of the race counter's mirror word, far above the
/// per-slave bridge windows.
pub const SRAM_RACE_MIRROR_OFFSET: usize = 0x3_0000;

/// The per-slave semaphores of one pipeline stage.
#[derive(Debug, Clone, Copy)]
struct StageSems {
    /// Data tokens flowing forward (stage `i` → stage `i+1`).
    data_in: SemId,
    data_out: SemId,
    /// Credit tokens flowing backward (stage `i` → stage `i-1`).
    credit_in: SemId,
    credit_out: SemId,
}

fn stage_program(sems: StageSems, rounds: i64, variant: Variant) -> ptest_pcore::Program {
    let mut b = ProgramBuilder::new();
    b.push(Op::AddReg {
        reg: 1,
        delta: rounds,
    });
    b.bind("loop");
    match variant {
        Variant::Buggy => {
            // Grab both tokens up front; with the credit ring rotating the
            // other way, stages end up each holding one token the next
            // stage needs.
            b.push(Op::SemWait(sems.data_in));
            b.push(Op::SemWait(sems.credit_in));
            b.push(Op::Compute(20));
            b.push(Op::SemPost(sems.data_out));
            b.push(Op::SemPost(sems.credit_out));
        }
        Variant::Fixed => {
            // Forward the data token before acquiring the credit: the data
            // ring keeps draining, so the credit always arrives.
            b.push(Op::SemWait(sems.data_in));
            b.push(Op::Compute(20));
            b.push(Op::SemPost(sems.data_out));
            b.push(Op::SemWait(sems.credit_in));
            b.push(Op::SemPost(sems.credit_out));
        }
    }
    b.push(Op::AddReg { reg: 1, delta: -1 });
    b.branch_if_reg_eq(1, 0, "done");
    b.jump_to("loop");
    b.bind("done");
    b.push(Op::Exit);
    b.build().expect("stage program is valid")
}

/// A ring pipeline with one stage per slave core, handing data tokens
/// forward and credit tokens backward through cross-core semaphore
/// links. See the [module docs](self) for the failure mode.
#[derive(Debug, Clone, Copy)]
pub struct CrossCorePipelineScenario {
    /// Pipeline stages = slave cores (≥ 2; the paper-style evaluation
    /// uses 3).
    pub stages: usize,
    /// Hand-offs each stage performs before exiting.
    pub rounds: i64,
    /// Buggy or corrected acquisition order.
    pub variant: Variant,
}

impl CrossCorePipelineScenario {
    /// The deadlock-prone three-slave pipeline.
    #[must_use]
    pub fn buggy() -> CrossCorePipelineScenario {
        CrossCorePipelineScenario {
            stages: 3,
            rounds: 4,
            variant: Variant::Buggy,
        }
    }

    /// The corrected control variant.
    #[must_use]
    pub fn fixed() -> CrossCorePipelineScenario {
        CrossCorePipelineScenario {
            variant: Variant::Fixed,
            ..CrossCorePipelineScenario::buggy()
        }
    }
}

impl Scenario for CrossCorePipelineScenario {
    fn name(&self) -> &str {
        match self.variant {
            Variant::Buggy => "cross-core-pipeline-buggy",
            Variant::Fixed => "cross-core-pipeline-fixed",
        }
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        AdaptiveTestConfig {
            n: self.stages,
            s: 8,
            op: MergeOp::cyclic(),
            inter_command_gap: 30,
            // A TCH-heavy distribution keeps the stage tasks alive (late
            // TD/TY), giving every stage time to block on its neighbours.
            pd: ptest_automata::ProbabilityAssignment::weights([
                ("TC", 1.0),
                ("TCH", 0.8),
                ("TS", 0.05),
                ("TD", 0.04),
                ("TY", 0.06),
                ("TR", 1.0),
            ]),
            max_cycles: 400_000,
            system: SystemConfig::with_slaves(self.stages),
            ..AdaptiveTestConfig::default()
        }
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        let n = self.stages;
        assert!(n >= 2, "a cross-core pipeline needs at least two stages");
        assert_eq!(sys.slave_count(), n, "one stage per slave core");
        // Per-stage semaphores. Both initial tokens start at stage 0: the
        // buggy order lets stage 0 consume both and run ahead, leaving the
        // remaining stages holding crossed dependencies.
        let sems: Vec<StageSems> = (0..n)
            .map(|i| {
                let kernel = sys.kernel_of_mut(i);
                let initial = u32::from(i == 0);
                StageSems {
                    data_in: kernel.create_semaphore(initial),
                    data_out: kernel.create_semaphore(0),
                    credit_in: kernel.create_semaphore(initial),
                    credit_out: kernel.create_semaphore(0),
                }
            })
            .collect();
        for i in 0..n {
            let next = (i + 1) % n;
            let prev = (i + n - 1) % n;
            sys.link_semaphores(i, sems[i].data_out, next, sems[next].data_in)
                .expect("distinct stages");
            sys.link_semaphores(i, sems[i].credit_out, prev, sems[prev].credit_in)
                .expect("distinct stages");
        }
        (0..n)
            .map(|i| {
                sys.kernel_of_mut(i).register_program(stage_program(
                    sems[i],
                    self.rounds,
                    self.variant,
                ))
            })
            .collect()
    }
}

/// The cross-slave lost-update race: every slave core runs an
/// unsynchronized increment loop over [`SRAM_RACE_COUNTER`], which the
/// system mirrors across kernels through shared SRAM once per cycle.
#[derive(Debug, Clone, Copy)]
pub struct SramRaceScenario {
    /// Slave cores, each running one writer (= patterns).
    pub slaves: usize,
    /// Increments per writer.
    pub rounds: u16,
}

impl Default for SramRaceScenario {
    fn default() -> SramRaceScenario {
        SramRaceScenario {
            slaves: 2,
            rounds: 24,
        }
    }
}

impl Scenario for SramRaceScenario {
    fn name(&self) -> &str {
        "sram-race"
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        AdaptiveTestConfig {
            n: self.slaves,
            s: 8,
            op: MergeOp::cyclic(),
            inter_command_gap: 30,
            system: SystemConfig::with_slaves(self.slaves),
            ..AdaptiveTestConfig::default()
        }
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        assert_eq!(sys.slave_count(), self.slaves, "one writer per slave");
        sys.share_var(SRAM_RACE_COUNTER, SRAM_RACE_MIRROR_OFFSET)
            .expect("mirror word fits the OMAP SRAM");
        (0..self.slaves)
            .map(|i| {
                sys.kernel_of_mut(i)
                    .register_program(race_writer_program(SRAM_RACE_COUNTER, self.rounds))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::lost_updates;
    use ptest_core::{AdaptiveTest, BugKind};
    use ptest_master::SnapshotCache;
    use ptest_pcore::{Priority, SvcRequest, TaskState};
    use ptest_soc::CoreId;

    /// Drives the raw system (no committer): create every stage task
    /// directly and run.
    fn run_pipeline_raw(variant: Variant) -> (MultiCoreSystem, Vec<ProgramId>) {
        let scenario = CrossCorePipelineScenario {
            variant,
            ..CrossCorePipelineScenario::buggy()
        };
        let mut sys = MultiCoreSystem::new(SystemConfig::with_slaves(scenario.stages));
        let programs = scenario.setup(&mut sys);
        for (slave, &program) in programs.iter().enumerate() {
            sys.issue_to(
                slave,
                SvcRequest::Create {
                    program,
                    priority: Priority::new(5),
                    stack_bytes: None,
                },
            )
            .unwrap();
        }
        (sys, programs)
    }

    #[test]
    fn fixed_pipeline_drains_and_terminates() {
        let (mut sys, _) = run_pipeline_raw(Variant::Fixed);
        assert!(
            sys.run_until_quiescent(200_000),
            "corrected ordering must let every stage finish its rounds"
        );
    }

    #[test]
    fn buggy_pipeline_deadlocks_across_kernels() {
        let (mut sys, _) = run_pipeline_raw(Variant::Buggy);
        assert!(!sys.run_until_quiescent(100_000), "stages must wedge");
        let mut detector = ptest_core::BugDetector::new(ptest_core::DetectorConfig::default());
        let bugs = detector.observe_cached(&sys, None, true, &mut SnapshotCache::new());
        let cycle = bugs
            .iter()
            .find_map(|b| match &b.kind {
                BugKind::CrossCoreDeadlock { cycle } => Some(cycle.clone()),
                _ => None,
            })
            .expect("cross-core deadlock must be reported");
        let cores: std::collections::BTreeSet<CoreId> = cycle.iter().map(|(c, _)| *c).collect();
        assert!(cores.len() >= 2, "cycle spans kernels: {cycle:?}");
    }

    #[test]
    fn adaptive_engine_reveals_the_cross_core_deadlock() {
        let scenario = CrossCorePipelineScenario::buggy();
        let mut found_seed = None;
        for seed in 0..10 {
            let report = AdaptiveTest::run_scenario(&scenario, seed).unwrap();
            if report.found(|k| matches!(k, BugKind::CrossCoreDeadlock { .. })) {
                found_seed = Some((seed, report));
                break;
            }
        }
        let (seed, report) =
            found_seed.expect("some seed within 10 must close the cross-core cycle");
        // The bug is reproducible from its seed: re-running the scenario
        // at the same seed reports the same cycle at the same time.
        let again = AdaptiveTest::run_scenario(&scenario, seed).unwrap();
        let pick = |r: &ptest_core::TestReport| {
            r.bugs
                .iter()
                .find(|b| matches!(b.kind, BugKind::CrossCoreDeadlock { .. }))
                .map(|b| (b.kind.clone(), b.detected_at))
        };
        assert_eq!(pick(&report), pick(&again), "bit-for-bit reproduction");
        // And the cycle genuinely spans kernels.
        let (BugKind::CrossCoreDeadlock { cycle }, _) = pick(&report).unwrap() else {
            unreachable!()
        };
        let cores: std::collections::BTreeSet<CoreId> = cycle.iter().map(|(c, _)| *c).collect();
        assert!(cores.len() >= 2, "{cycle:?}");
    }

    #[test]
    fn fixed_pipeline_scenario_reports_no_cross_core_deadlock() {
        let scenario = CrossCorePipelineScenario::fixed();
        for seed in 0..5 {
            let report = AdaptiveTest::run_scenario(&scenario, seed).unwrap();
            assert!(
                !report.found(|k| matches!(k, BugKind::CrossCoreDeadlock { .. })),
                "seed {seed}: {}",
                report.summary()
            );
        }
    }

    #[test]
    fn sram_race_loses_updates_across_slaves() {
        let scenario = SramRaceScenario::default();
        let mut sys = MultiCoreSystem::new(SystemConfig::with_slaves(scenario.slaves));
        let programs = scenario.setup(&mut sys);
        for (slave, &program) in programs.iter().enumerate() {
            sys.issue_to(
                slave,
                SvcRequest::Create {
                    program,
                    priority: Priority::new(5),
                    stack_bytes: None,
                },
            )
            .unwrap();
        }
        for _ in 0..400_000u64 {
            sys.step();
            let done = (0..scenario.slaves).all(|s| {
                sys.snapshot_of(s)
                    .tasks
                    .iter()
                    .all(|t| matches!(t.state, TaskState::Terminated(_)))
            });
            if done {
                break;
            }
        }
        let lost = lost_updates(&sys, SRAM_RACE_COUNTER, scenario.slaves, scenario.rounds);
        assert!(
            lost > 0,
            "same-epoch increments from two cores must collide, lost {lost}"
        );
        // The mirror kept every kernel's view converged.
        let v0 = sys.kernel_of(0).var(SRAM_RACE_COUNTER);
        let v1 = sys.kernel_of(1).var(SRAM_RACE_COUNTER);
        assert_eq!(v0, v1, "mirrored variable must agree across kernels");
    }

    #[test]
    fn sram_race_scenario_runs_under_the_adaptive_engine() {
        let report = AdaptiveTest::run_scenario(&SramRaceScenario::default(), 3).unwrap();
        assert_eq!(report.ordering_errors(), 0);
        assert!(report.commands_issued > 0);
    }

    #[test]
    fn single_writer_cannot_race_itself_even_mirrored() {
        let mut sys = MultiCoreSystem::new(SystemConfig::with_slaves(2));
        sys.share_var(SRAM_RACE_COUNTER, SRAM_RACE_MIRROR_OFFSET)
            .unwrap();
        let prog = sys
            .kernel_of_mut(0)
            .register_program(race_writer_program(SRAM_RACE_COUNTER, 20));
        sys.issue_to(
            0,
            SvcRequest::Create {
                program: prog,
                priority: Priority::new(5),
                stack_bytes: None,
            },
        )
        .unwrap();
        assert!(sys.run_until_quiescent(200_000));
        assert_eq!(lost_updates(&sys, SRAM_RACE_COUNTER, 1, 20), 0);
    }
}
