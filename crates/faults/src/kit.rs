//! The pieces the fault scenarios are built from: the bounded-spin,
//! barrier and guard protocol steps of the guarded race families
//! ([`races`](crate::races), [`weakmem`](crate::weakmem),
//! [`timers`](crate::timers)), their shared configuration and oracle,
//! the buggy/fixed [`Variant`] every scenario with a control picks from,
//! and the scripted task creation of the hand-driven set-ups.
//!
//! A guarded race is a protocol between tasks that ends in a **guard**:
//! a check that faults the checking task with an oversized stack probe
//! when the race manifested. The kernel kills the task as a
//! stack-overflow task fault, which the detector reports and
//! [`guard_tripped`] recognizes. Every spin in a protocol is **bounded**
//! by [`SPIN_BUDGET`] iterations, but the bound outlasts the detector:
//! 30,000 iterations of four cycles are 120,000 cycles, twice the
//! 60,000-cycle no-progress window of [`guarded_config`]. A task whose
//! peer never arrives — never created, or deleted or suspended by a test
//! pattern — therefore reads as a livelock one window after the
//! committer finished, long before its spin would give up.

use ptest_core::{AdaptiveTestConfig, BugKind, DetectorConfig, MergeOp, TestReport};
use ptest_master::SystemConfig;
use ptest_pcore::{
    Kernel, Op, Priority, ProgramBuilder, ProgramId, SvcReply, SvcRequest, TaskFault, TaskId, VarId,
};
use ptest_soc::Cycles;

/// Iterations a task spins on a flag before giving up (exiting without
/// running its check); longer than the no-progress window, see the
/// [module docs](self).
pub(crate) const SPIN_BUDGET: i64 = 30_000;

/// A `StackProbe` far beyond any configured stack: the deterministic
/// "the race manifested" symptom.
const GUARD_TRIP: u32 = 1 << 20;

/// Buggy or fixed variant of a scenario with a control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The defect under test: unsynchronized, unfenced or unprotected.
    Buggy,
    /// The properly synchronized control (semaphore-ordered, fenced,
    /// mask- or mutex-bracketed, lock-order-corrected); clean under
    /// every exploration spec.
    Fixed,
}

/// Appends a bounded spin until `var == value`, falling through to the
/// label `go`; gives up (plain `Exit`) after [`SPIN_BUDGET`] iterations.
/// `scratch` is the register used for the countdown.
pub(crate) fn bounded_spin(b: &mut ProgramBuilder, var: VarId, value: i64, scratch: u8, go: &str) {
    let spin = format!("spin_{var}_{go}");
    let give_up = format!("give_up_{var}_{go}");
    b.push(Op::AddReg {
        reg: scratch,
        delta: SPIN_BUDGET,
    });
    b.bind(&spin);
    b.branch_if_var_eq(var, value, go);
    b.push(Op::AddReg {
        reg: scratch,
        delta: -1,
    });
    b.branch_if_reg_eq(scratch, 0, &give_up);
    b.jump_to(&spin);
    b.bind(&give_up);
    b.push(Op::Exit);
    b.bind(go);
}

/// The two-sided barrier prologue: announce `mine`, await `theirs`.
pub(crate) fn barrier(b: &mut ProgramBuilder, mine: VarId, theirs: VarId) {
    b.push(Op::WriteVar {
        var: mine,
        value: 1,
    });
    bounded_spin(b, theirs, 1, 7, "after_barrier");
}

/// The guard epilogue: fault unless register `reg` holds `expected`.
pub(crate) fn guard(b: &mut ProgramBuilder, reg: u8, expected: i64) {
    b.branch_if_reg_eq(reg, expected, "guard_ok");
    b.push(Op::StackProbe(GUARD_TRIP));
    b.bind("guard_ok");
    b.push(Op::Exit);
}

/// The configuration every guarded race starts from, with every
/// exploration axis at its control spec: `n` patterns over `slaves`
/// slave kernels, a lifecycle distribution that almost never suspends
/// or deletes mid-protocol (a stalled peer would blur what the axis is
/// tested for), and a no-progress window wide enough that a protocol
/// slowed down by exploration is not misread as livelock before its
/// guard resolves. Each family sets its own axis on top.
pub(crate) fn guarded_config(slaves: usize, n: usize) -> AdaptiveTestConfig {
    AdaptiveTestConfig {
        n,
        s: 6,
        op: MergeOp::cyclic(),
        inter_command_gap: 30,
        pd: ptest_automata::ProbabilityAssignment::weights([
            ("TC", 1.0),
            ("TCH", 1.0),
            ("TS", 1e-4),
            ("TD", 1e-4),
            ("TY", 0.05),
            ("TR", 1.0),
        ]),
        max_cycles: 250_000,
        drain_cycles: 80_000,
        detector: DetectorConfig {
            progress_window: Cycles::new(60_000),
            ..DetectorConfig::default()
        },
        system: SystemConfig::with_slaves(slaves),
        ..AdaptiveTestConfig::default()
    }
}

/// Whether a report shows a guarded race manifesting: the guard's
/// stack-probe task fault on a checking task.
#[must_use]
pub fn guard_tripped(report: &TestReport) -> bool {
    report.found(|k| {
        matches!(
            k,
            BugKind::TaskFault {
                fault: TaskFault::StackOverflow,
                ..
            }
        )
    })
}

/// Creates a task of `program` at `priority` directly on `kernel` at
/// time zero, as a scripted set-up does before the first tick.
pub(crate) fn create_task(kernel: &mut Kernel, program: ProgramId, priority: u8) -> TaskId {
    let request = SvcRequest::Create {
        program,
        priority: Priority::new(priority),
        stack_bytes: None,
    };
    match kernel.dispatch(request, Cycles::ZERO) {
        Ok(SvcReply::Created(task)) => task,
        other => panic!("scripted create must succeed: {other:?}"),
    }
}

/// The probes the guarded families' unit tests share. Each trial goes
/// through the scenario's one face, [`AdaptiveTest::run_scenario`], so
/// its axis seeds derive from the pattern seed.
///
/// [`AdaptiveTest::run_scenario`]: ptest_core::AdaptiveTest::run_scenario
#[cfg(test)]
pub(crate) mod probe {
    use super::guard_tripped;
    use ptest_core::{AdaptiveTest, AdaptiveTestConfig, Configured, Scenario, TestReport};

    /// Pattern seeds searched for a manifestation.
    const SEEDS: u64 = 32;

    fn run(scenario: &dyn Scenario, seed: u64) -> TestReport {
        AdaptiveTest::run_scenario(scenario, seed).expect("trial runs")
    }

    /// Asserts `scenario` never trips its guard once `control` sets its
    /// axis back to the control spec.
    pub(crate) fn assert_invisible<S: Scenario>(
        scenario: S,
        control: impl FnOnce(&mut AdaptiveTestConfig),
    ) {
        let scenario = Configured::adjust(scenario, control);
        for seed in 0..6 {
            let report = run(&scenario, seed);
            assert!(!guard_tripped(&report), "seed {seed}: {}", report.summary());
        }
    }

    /// The first seed at which `scenario` trips its guard.
    pub(crate) fn first_manifestation(scenario: &dyn Scenario) -> Option<u64> {
        (0..SEEDS).find(|&seed| guard_tripped(&run(scenario, seed)))
    }

    /// Asserts `scenario` trips its guard at some seed and replays that
    /// trial byte-identically.
    pub(crate) fn assert_manifests_and_replays(scenario: &dyn Scenario) {
        let seed = first_manifestation(scenario).expect("some seed exposes the race");
        let (first, again) = (run(scenario, seed), run(scenario, seed));
        assert_eq!(
            first.machine_summary(),
            again.machine_summary(),
            "exact replay"
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::races::OrderViolationScenario;
    use ptest_core::{AdaptiveTest, BugKind, Configured, Scenario};
    use ptest_soc::CoreId;

    #[test]
    fn an_abandoned_barrier_reads_as_livelock_one_window_after_done() {
        // One pattern on two slaves: slave 0's consumer is created, slave
        // 1's initializer never is, so the consumer spins at the barrier.
        let scenario = Configured::adjust(OrderViolationScenario::buggy(), |cfg| cfg.n = 1);
        let cfg = scenario.base_config();
        let report = AdaptiveTest::run_scenario(&scenario, 1).expect("trial runs");
        assert_eq!(report.bugs.len(), 1, "{}", report.summary());
        let bug = &report.bugs[0];
        assert!(
            matches!(bug.kind, BugKind::Livelock { .. }),
            "{:?}",
            bug.kind
        );
        assert_eq!(bug.core, CoreId::slave(0));
        // Detected at the first observation one full window after the
        // observation that saw the committer done, and fatal.
        let done = report
            .exec_records
            .iter()
            .filter_map(|r| r.completed_at)
            .max()
            .expect("the create completed")
            .get();
        let at = bug.detected_at.get();
        let window = cfg.detector.progress_window.get();
        assert_eq!(at % cfg.check_interval, 0);
        assert!(
            (done..done + cfg.check_interval).contains(&(at - window)),
            "done at {done}, livelock at {at}"
        );
        assert_eq!(report.cycles, at);
    }
}
