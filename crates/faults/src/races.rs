//! Schedule-sensitive cross-core races: bugs that are **unreachable
//! under the lock-step schedule** no matter which patterns the PFA
//! generates, and only manifest when a
//! [`RandomPriorityScheduler`](ptest_master::RandomPriorityScheduler)
//! lets one kernel run far ahead of another.
//!
//! Both scenarios couple two slave kernels through SRAM-mirrored shared
//! variables ([`MultiCoreSystem::share_var`]) and synchronize their
//! tasks with a bounded spin barrier, so the interesting window starts
//! from an aligned instant regardless of when the committer's
//! `task_create` commands land. From there:
//!
//! * [`OrderViolationScenario`] — slave 1 initializes a payload 40
//!   cycles after the barrier; slave 0 consumes it ~340 cycles after.
//!   Lock-step advances both kernels at the same rate, so the 300-cycle
//!   margin makes initialize-before-use invariant. A randomized-priority
//!   schedule can starve slave 1 down to the fairness backstop
//!   (64× slower), the consumer overtakes the initializer, reads the
//!   uninitialized payload, and hits its guard — a task fault
//!   ([`BugKind::TaskFault`](ptest_core::BugKind)) the detector reports
//!   and the `(seed, schedule_seed)` pair replays.
//! * [`AtomicityRaceScenario`] — both slaves run read-modify-write
//!   rounds over a mirrored counter with phase-staggered critical
//!   windows (~3 cycles of RMW inside a 43-cycle period, half a period
//!   apart). Lock-step keeps the relative phase fixed, so the windows
//!   never overlap and no increment is ever lost. Under a randomized
//!   schedule the kernels drift, windows collide, increments vanish
//!   (lost update / stale read), and slave 0's final-value check trips
//!   the same task-fault guard.
//!
//! Each scenario has a `fixed` variant with real synchronization — a
//! cross-core semaphore hand-off ordering the accesses for the order
//! violation, a circulating token serializing the critical sections for
//! the atomicity race — which stays clean under *any* schedule; the
//! integration tests pin all four quadrants (variant × schedule).

use crate::kit::{barrier, bounded_spin, guard, guarded_config, Variant};
use ptest_core::{AdaptiveTestConfig, Scenario, ScheduleSpec};
use ptest_master::MultiCoreSystem;
use ptest_pcore::{Op, ProgramBuilder, ProgramId, VarId};

/// Barrier flag announced by slave 0's task (SRAM-mirrored).
pub const RACE_READY0: VarId = VarId(8);
/// Barrier flag announced by slave 1's task (SRAM-mirrored).
pub const RACE_READY1: VarId = VarId(9);
/// The racy payload / counter (SRAM-mirrored).
pub const RACE_SHARED: VarId = VarId(10);
/// Completion flag of slave 1's writer (SRAM-mirrored).
pub const RACE_DONE1: VarId = VarId(11);

/// SRAM offsets of the mirror words, above the race-scenario windows of
/// `ptest_faults::multicore`.
const MIRROR_BASE: usize = 0x3_1000;

/// The payload value the order-violation initializer publishes.
const PAYLOAD: i64 = 42;

/// An initialize-before-use race across kernels. See the [module
/// docs](self).
#[derive(Debug, Clone, Copy)]
pub struct OrderViolationScenario {
    /// Buggy (timing-dependent) or fixed (semaphore-ordered) variant.
    pub variant: Variant,
}

impl OrderViolationScenario {
    /// The unsynchronized variant.
    #[must_use]
    pub fn buggy() -> OrderViolationScenario {
        OrderViolationScenario {
            variant: Variant::Buggy,
        }
    }

    /// The semaphore-ordered control variant.
    #[must_use]
    pub fn fixed() -> OrderViolationScenario {
        OrderViolationScenario {
            variant: Variant::Fixed,
        }
    }
}

/// The configuration of both race scenarios: two slaves, one guarded
/// task per kernel, and the randomized-priority schedule as the default
/// exploration mode.
fn race_base_config() -> AdaptiveTestConfig {
    AdaptiveTestConfig {
        schedule: ScheduleSpec::random_priority(),
        ..guarded_config(2, 2)
    }
}

impl Scenario for OrderViolationScenario {
    fn name(&self) -> &str {
        match self.variant {
            Variant::Buggy => "order-violation-buggy",
            Variant::Fixed => "order-violation-fixed",
        }
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        race_base_config()
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        assert_eq!(sys.slave_count(), 2, "the race couples exactly two slaves");
        for (i, var) in [RACE_READY0, RACE_READY1, RACE_SHARED].iter().enumerate() {
            sys.share_var(*var, MIRROR_BASE + 8 * i)
                .expect("mirror words fit the OMAP SRAM");
        }
        // Fixed variant: the initializer hands a token to the consumer
        // after publishing, and the consumer waits for it before reading.
        let ready_out = sys.kernel_of_mut(1).create_semaphore(0);
        let ready_in = sys.kernel_of_mut(0).create_semaphore(0);
        sys.link_semaphores(1, ready_out, 0, ready_in)
            .expect("distinct slaves");

        // Slave 0: the consumer — and the trial's drain anchor, so the
        // run keeps simulating until the consumer's check has resolved.
        let consumer = {
            let mut b = ProgramBuilder::new();
            barrier(&mut b, RACE_READY0, RACE_READY1);
            match self.variant {
                Variant::Buggy => {
                    // "Plenty of time": 340 cycles for the peer's 40.
                    // Only a lock-step schedule actually honours it.
                    b.push(Op::Compute(340));
                }
                Variant::Fixed => {
                    b.push(Op::Compute(340));
                    b.push(Op::SemWait(ready_in));
                }
            }
            b.push(Op::ReadVar {
                var: RACE_SHARED,
                reg: 0,
            });
            guard(&mut b, 0, PAYLOAD);
            b.build().expect("consumer program is valid")
        };
        // Slave 1: the initializer.
        let initializer = {
            let mut b = ProgramBuilder::new();
            barrier(&mut b, RACE_READY1, RACE_READY0);
            b.push(Op::Compute(40));
            b.push(Op::WriteVar {
                var: RACE_SHARED,
                value: PAYLOAD,
            });
            if self.variant == Variant::Fixed {
                b.push(Op::SemPost(ready_out));
            }
            b.push(Op::Exit);
            b.build().expect("initializer program is valid")
        };
        vec![
            sys.kernel_of_mut(0).register_program(consumer),
            sys.kernel_of_mut(1).register_program(initializer),
        ]
    }
}

/// A cross-core atomicity violation on a mirrored counter. See the
/// [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct AtomicityRaceScenario {
    /// Buggy (phase-staggered) or fixed (token-serialized) variant.
    pub variant: Variant,
    /// Read-modify-write rounds each slave performs.
    pub rounds: i64,
}

impl AtomicityRaceScenario {
    /// The unsynchronized variant at the default round count.
    #[must_use]
    pub fn buggy() -> AtomicityRaceScenario {
        AtomicityRaceScenario {
            variant: Variant::Buggy,
            rounds: 8,
        }
    }

    /// The token-serialized control variant.
    #[must_use]
    pub fn fixed() -> AtomicityRaceScenario {
        AtomicityRaceScenario {
            variant: Variant::Fixed,
            ..AtomicityRaceScenario::buggy()
        }
    }
}

/// One read-modify-write round over the mirrored counter, padded to a
/// fixed period so lock-step keeps both slaves' critical windows
/// phase-locked. In the fixed variant the round is bracketed by the
/// circulating token instead of relying on phase.
fn rmw_loop(
    b: &mut ProgramBuilder,
    rounds: i64,
    pad: u32,
    token: Option<(ptest_pcore::SemId, ptest_pcore::SemId)>,
) {
    b.bind("rmw");
    if let Some((token_in, _)) = token {
        b.push(Op::SemWait(token_in));
    }
    b.push(Op::ReadVar {
        var: RACE_SHARED,
        reg: 0,
    });
    b.push(Op::AddReg { reg: 0, delta: 1 });
    b.push(Op::WriteVarReg {
        var: RACE_SHARED,
        reg: 0,
    });
    if let Some((_, token_out)) = token {
        b.push(Op::SemPost(token_out));
    }
    b.push(Op::Compute(pad));
    b.push(Op::AddReg { reg: 1, delta: 1 });
    b.branch_if_reg_eq(1, rounds, "rmw_done");
    b.jump_to("rmw");
    b.bind("rmw_done");
}

impl Scenario for AtomicityRaceScenario {
    fn name(&self) -> &str {
        match self.variant {
            Variant::Buggy => "atomicity-race-buggy",
            Variant::Fixed => "atomicity-race-fixed",
        }
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        race_base_config()
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        assert_eq!(sys.slave_count(), 2, "the race couples exactly two slaves");
        for (i, var) in [RACE_READY0, RACE_READY1, RACE_SHARED, RACE_DONE1]
            .iter()
            .enumerate()
        {
            sys.share_var(*var, MIRROR_BASE + 0x100 + 8 * i)
                .expect("mirror words fit the OMAP SRAM");
        }
        // Fixed variant: one token circulating 0 -> 1 -> 0 serializes
        // the critical sections. Slave 0's inbox starts with the token.
        let in0 = sys.kernel_of_mut(0).create_semaphore(1);
        let out0 = sys.kernel_of_mut(0).create_semaphore(0);
        let in1 = sys.kernel_of_mut(1).create_semaphore(0);
        let out1 = sys.kernel_of_mut(1).create_semaphore(0);
        sys.link_semaphores(0, out0, 1, in1).expect("distinct");
        sys.link_semaphores(1, out1, 0, in0).expect("distinct");
        let token = |slave: usize| match self.variant {
            Variant::Buggy => None,
            Variant::Fixed => Some(if slave == 0 { (in0, out0) } else { (in1, out1) }),
        };

        // Slave 0: writer A + final-value checker (drain anchor).
        let writer_a = {
            let mut b = ProgramBuilder::new();
            barrier(&mut b, RACE_READY0, RACE_READY1);
            // Period 43: RMW window at phase [0, 3).
            rmw_loop(&mut b, self.rounds, 37, token(0));
            bounded_spin(&mut b, RACE_DONE1, 1, 6, "check");
            b.push(Op::Compute(4)); // let the last mirror epoch settle
            b.push(Op::ReadVar {
                var: RACE_SHARED,
                reg: 2,
            });
            guard(&mut b, 2, 2 * self.rounds);
            b.build().expect("writer A program is valid")
        };
        // Slave 1: writer B, phase-shifted by half a period.
        let writer_b = {
            let mut b = ProgramBuilder::new();
            barrier(&mut b, RACE_READY1, RACE_READY0);
            b.push(Op::Compute(21));
            rmw_loop(&mut b, self.rounds, 37, token(1));
            b.push(Op::WriteVar {
                var: RACE_DONE1,
                value: 1,
            });
            b.push(Op::Exit);
            b.build().expect("writer B program is valid")
        };
        vec![
            sys.kernel_of_mut(0).register_program(writer_a),
            sys.kernel_of_mut(1).register_program(writer_b),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard_tripped;
    use crate::kit::probe;
    use ptest_core::{AdaptiveTest, Configured};

    /// Lock-step hides the races; the scenarios' randomized priorities
    /// expose them.
    fn lock_step(cfg: &mut AdaptiveTestConfig) {
        cfg.schedule = ScheduleSpec::LockStep;
    }

    #[test]
    fn order_violation_is_unreachable_under_lock_step() {
        probe::assert_invisible(OrderViolationScenario::buggy(), lock_step);
    }

    #[test]
    fn order_violation_manifests_under_random_priorities_and_replays() {
        probe::assert_manifests_and_replays(&OrderViolationScenario::buggy());
    }

    #[test]
    fn fixed_order_violation_is_clean_under_random_priorities() {
        assert!(
            probe::first_manifestation(&OrderViolationScenario::fixed()).is_none(),
            "the semaphore-ordered variant must never trip its guard"
        );
    }

    #[test]
    fn atomicity_race_is_unreachable_under_lock_step() {
        probe::assert_invisible(AtomicityRaceScenario::buggy(), lock_step);
    }

    #[test]
    fn atomicity_race_manifests_under_random_priorities_and_replays() {
        probe::assert_manifests_and_replays(&AtomicityRaceScenario::buggy());
    }

    #[test]
    fn fixed_atomicity_race_is_clean_under_random_priorities() {
        assert!(
            probe::first_manifestation(&AtomicityRaceScenario::fixed()).is_none(),
            "the token-serialized variant must never lose an update"
        );
    }

    #[test]
    fn run_scenario_uses_the_scenarios_randomized_schedule_by_default() {
        // base_config carries ScheduleSpec::random_priority(); the plain
        // single-seed entry point derives the schedule seed from the
        // pattern seed, so this is still fully reproducible.
        let report = AdaptiveTest::run_scenario(&OrderViolationScenario::buggy(), 1).unwrap();
        assert_eq!(
            report.schedule_seed,
            ptest_core::derived_schedule_seed(1),
            "{}",
            report.summary()
        );
        let again = AdaptiveTest::run_scenario(&OrderViolationScenario::buggy(), 1).unwrap();
        assert_eq!(report.bugs.len(), again.bugs.len());
        assert_eq!(report.cycles, again.cycles);
    }

    #[test]
    fn lock_step_configured_variant_still_completes_the_protocol() {
        // Sanity: under lock-step the buggy order violation's consumer
        // reads the initialized payload — the guard passes and the
        // protocol drains (no spin-budget bailout).
        let scenario = Configured::adjust(OrderViolationScenario::buggy(), lock_step);
        let report = AdaptiveTest::run_scenario(&scenario, 2).unwrap();
        assert!(!guard_tripped(&report), "{}", report.summary());
    }
}
