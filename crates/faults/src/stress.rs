//! The stress scenario of case study 1.
//!
//! "pTest kept the number of active tasks at 16 in pCore … All of 16
//! active tasks performed the same quick-sort algorithm to individually
//! sort 128 integer elements. The size of integer data is 2 bytes and the
//! stack size of each task is 512 bytes. pTest continued to create tasks
//! and removed them when their work was done. During the first testing
//! period, pTest detected the crash of pCore that was caused by the
//! failure of garbage collection."

use ptest_core::{AdaptiveTestConfig, MergeOp, Scenario};
use ptest_master::MultiCoreSystem;
use ptest_pcore::workloads::{quicksort, QuicksortSpec};
use ptest_pcore::{GcFaultMode, ProgramId};

/// Parameters of the case-study-1 stress test.
#[derive(Debug, Clone, Copy)]
pub struct StressSpec {
    /// Concurrent task patterns (the paper keeps 16 active tasks).
    pub tasks: usize,
    /// Elements each task sorts (paper: 128).
    pub elements: usize,
    /// Element size in bytes (paper: 2).
    pub elem_bytes: u32,
    /// Task stack size (paper: 512).
    pub stack_bytes: u32,
    /// Life cycles per pattern (create/delete churn depth).
    pub lifecycles: usize,
    /// The GC defect under test ([`GcFaultMode::None`] = healthy control).
    pub gc_fault: GcFaultMode,
    /// Kernel heap size; small enough that sustained churn requires the
    /// GC to actually work.
    pub heap_bytes: u32,
    /// Master seed.
    pub seed: u64,
}

impl StressSpec {
    /// The paper's parameters with the injected GC leak.
    #[must_use]
    pub fn paper(seed: u64) -> StressSpec {
        StressSpec {
            tasks: 16,
            elements: 128,
            elem_bytes: 2,
            stack_bytes: 512,
            lifecycles: 12,
            gc_fault: GcFaultMode::LeakDeadBlocks { leak_every: 1 },
            heap_bytes: 24 * 1024,
            seed,
        }
    }

    /// The same stress with a healthy GC (the control run).
    #[must_use]
    pub fn healthy(seed: u64) -> StressSpec {
        StressSpec {
            gc_fault: GcFaultMode::None,
            ..StressSpec::paper(seed)
        }
    }
}

/// The adaptive-test configuration for a stress spec: `n = tasks`
/// cyclically generated patterns so every pattern churns through several
/// create/delete life cycles, staggered merging to keep the task count
/// near the limit.
#[must_use]
pub fn stress_config(spec: &StressSpec) -> AdaptiveTestConfig {
    let mut cfg = AdaptiveTestConfig {
        n: spec.tasks,
        // ~4 services per lifecycle on the paper distribution.
        s: spec.lifecycles * 4,
        op: MergeOp::RoundRobin { chunk: 1 },
        seed: spec.seed,
        cyclic_generation: true,
        stack_bytes: Some(spec.stack_bytes),
        max_cycles: 30_000_000,
        check_interval: 1_000,
        ..AdaptiveTestConfig::default()
    };
    cfg.system.kernel.heap_bytes = spec.heap_bytes;
    cfg.system.kernel.gc_fault = spec.gc_fault;
    cfg
}

/// Case study 1 as a campaign-ready [`Scenario`]: `spec.tasks` quick-sort
/// programs churned under [`stress_config`]. The quicksort input
/// permutations derive from `spec.seed` (fixed per campaign); the
/// per-trial seed varies the generated service patterns.
#[derive(Debug, Clone, Copy)]
pub struct StressScenario {
    /// The stress parameters.
    pub spec: StressSpec,
}

impl StressScenario {
    /// The paper's faulty-GC stress.
    #[must_use]
    pub fn paper() -> StressScenario {
        StressScenario {
            spec: StressSpec::paper(1),
        }
    }

    /// The healthy-GC control.
    #[must_use]
    pub fn healthy() -> StressScenario {
        StressScenario {
            spec: StressSpec::healthy(1),
        }
    }

    /// A lightened variant (fewer lifecycles, fewer tasks) for benches
    /// and smoke tests where the full 16-task churn is overkill.
    #[must_use]
    pub fn light() -> StressScenario {
        StressScenario {
            spec: StressSpec {
                tasks: 4,
                lifecycles: 4,
                heap_bytes: 8 * 1024,
                ..StressSpec::paper(1)
            },
        }
    }
}

impl Scenario for StressScenario {
    fn name(&self) -> &str {
        match self.spec.gc_fault {
            GcFaultMode::None => "stress-healthy-gc",
            _ => "stress-faulty-gc",
        }
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        stress_config(&self.spec)
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        (0..self.spec.tasks)
            .map(|i| {
                let (program, _) = quicksort(QuicksortSpec {
                    elements: self.spec.elements,
                    elem_bytes: self.spec.elem_bytes,
                    seed: self.spec.seed.wrapping_add(i as u64),
                    worst_case: false,
                });
                sys.kernel_of_mut(0).register_program(program)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_core::{AdaptiveTest, BugKind};

    #[test]
    fn faulty_gc_crashes_under_stress() {
        let report = AdaptiveTest::run_scenario(&StressScenario::paper(), 1).unwrap();
        assert!(
            report.found(|k| matches!(
                k,
                BugKind::SlaveCrash { .. } | BugKind::CommandTimeout { .. }
            )),
            "paper's case study 1 outcome: {}",
            report.summary()
        );
    }

    #[test]
    fn healthy_gc_survives_the_same_stress() {
        let report = AdaptiveTest::run_scenario(&StressScenario::healthy(), 1).unwrap();
        assert!(
            !report.found(|k| matches!(k, BugKind::SlaveCrash { .. })),
            "control run must survive: {}",
            report.summary()
        );
    }

    #[test]
    fn scenario_reproduces_the_gc_crash() {
        let scenario = StressScenario::paper();
        let report = AdaptiveTest::run_scenario(&scenario, 1).unwrap();
        assert!(
            report.found(|k| matches!(
                k,
                BugKind::SlaveCrash { .. } | BugKind::CommandTimeout { .. }
            )),
            "{}",
            report.summary()
        );
        assert_eq!(scenario.name(), "stress-faulty-gc");
        assert_eq!(StressScenario::healthy().name(), "stress-healthy-gc");
    }

    #[test]
    fn spec_constructors_match_paper_numbers() {
        let s = StressSpec::paper(0);
        assert_eq!(s.tasks, 16);
        assert_eq!(s.elements, 128);
        assert_eq!(s.elem_bytes, 2);
        assert_eq!(s.stack_bytes, 512);
        assert!(matches!(s.gc_fault, GcFaultMode::LeakDeadBlocks { .. }));
        assert!(matches!(StressSpec::healthy(0).gc_fault, GcFaultMode::None));
    }
}
