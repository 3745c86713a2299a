//! Preemption-sensitive timer/ISR faults: bugs that are **invisible
//! under non-preemptive lock-step execution** no matter which patterns
//! the PFA generates or how the cross-kernel schedule paces the cores,
//! and only manifest when the preemption axis
//! ([`PreemptionSpec`]) is explored —
//! deterministic interrupt injection for one, quantum time-slicing for
//! the other.
//!
//! * [`IsrSharedVarScenario`] — a task runs read-modify-write rounds
//!   over a kernel variable that the timer ISR also increments. Without
//!   an [`InterruptConfig`] no interrupt
//!   ever fires and the final tally is trivially consistent. With
//!   injections enabled, an ISR that fires inside the task's RMW window
//!   (after the read, before the write-back) has its increment
//!   overwritten by the task's stale write — a classic lost update
//!   between task and interrupt context. The task tallies ISR runs in a
//!   second variable and checks `counter == rounds + isr_increments`
//!   with interrupts masked; a lost update trips the guard as a
//!   deterministic task fault the `(pattern, schedule, memory, irq)`
//!   quadruple replays. The `fixed` variant brackets each RMW window
//!   with [`Op::IrqMask`]/[`Op::IrqUnmask`], deferring injections past
//!   the window — clean under *any* interrupt plan.
//! * [`QuantumAtomicityScenario`] — two tasks in different priority
//!   bands on one kernel run RMW rounds over a shared counter. The
//!   non-preemptive kernel picks strictly by priority, so the
//!   higher-band task runs its loop to completion while the lower one
//!   spins at the barrier; the loops serialize and the final count is
//!   exact. A [`QuantumConfig`] rotates the
//!   core between the bands at slice boundaries, the loops overlap, a
//!   slice that expires inside a critical window splits read from
//!   write-back, and increments vanish. The `fixed` variant wraps the
//!   window in a kernel mutex, which keeps the windows whole across
//!   slice rotation — clean under *any* quantum.
//!
//! Both scenarios follow the [`races`](crate::races) discipline: bounded
//! spins so pattern-mutilated protocols (a `TD` deleting a peer task)
//! exit benignly instead of reading as livelock, and a stack-probe guard
//! as the detector-visible manifestation symptom.

use crate::kit::{barrier, bounded_spin, guard, guarded_config, Variant};
use ptest_core::{AdaptiveTestConfig, InterruptConfig, PreemptionSpec, QuantumConfig, Scenario};
use ptest_master::MultiCoreSystem;
use ptest_pcore::{Op, ProgramBuilder, ProgramId, VarId};

/// The shared counter both task and ISR (or both tasks) increment.
pub const TIMER_SHARED: VarId = VarId(4);
/// Tally of ISR increments, maintained by the ISR itself.
pub const TIMER_ISR_COUNT: VarId = VarId(5);
/// Barrier flag announced by the low-band task.
pub const TIMER_READY0: VarId = VarId(6);
/// Barrier flag announced by the high-band task.
pub const TIMER_READY1: VarId = VarId(7);
/// Completion flag of the high-band writer.
pub const TIMER_DONE1: VarId = VarId(8);

/// The single-slave configuration of both timer scenarios: the
/// lock-step schedule (the preemption axis is what these scenarios
/// probe) and one slave, so every planned injection lands on the kernel
/// under test.
fn timer_base_config(n: usize, preemption: PreemptionSpec) -> AdaptiveTestConfig {
    AdaptiveTestConfig {
        preemption,
        ..guarded_config(1, n)
    }
}

/// A task-vs-ISR lost update on a shared variable. See the [module
/// docs](self).
#[derive(Debug, Clone, Copy)]
pub struct IsrSharedVarScenario {
    /// Buggy (open window) or fixed (mask-bracketed) variant.
    pub variant: Variant,
    /// Read-modify-write rounds the task performs.
    pub rounds: i64,
}

impl IsrSharedVarScenario {
    /// The unprotected variant at the default round count.
    #[must_use]
    pub fn buggy() -> IsrSharedVarScenario {
        IsrSharedVarScenario {
            variant: Variant::Buggy,
            rounds: 40,
        }
    }

    /// The mask-bracketed control variant.
    #[must_use]
    pub fn fixed() -> IsrSharedVarScenario {
        IsrSharedVarScenario {
            variant: Variant::Fixed,
            ..IsrSharedVarScenario::buggy()
        }
    }

    /// The interrupt plan this scenario explores by default: enough
    /// injections across the task's active window that some seed's plan
    /// lands one mid-RMW.
    #[must_use]
    pub fn default_interrupts() -> InterruptConfig {
        InterruptConfig {
            count: 12,
            horizon: 900,
            ..InterruptConfig::default()
        }
    }
}

impl Scenario for IsrSharedVarScenario {
    fn name(&self) -> &str {
        match self.variant {
            Variant::Buggy => "isr-shared-var-buggy",
            Variant::Fixed => "isr-shared-var-fixed",
        }
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        timer_base_config(
            1,
            PreemptionSpec {
                interrupts: Some(IsrSharedVarScenario::default_interrupts()),
                ..PreemptionSpec::default()
            },
        )
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        // The timer ISR: atomically (interrupt context preempts tasks,
        // never the reverse) increment the shared counter and its own
        // run tally.
        let isr = {
            let mut b = ProgramBuilder::new();
            b.push(Op::ReadVar {
                var: TIMER_SHARED,
                reg: 0,
            });
            b.push(Op::AddReg { reg: 0, delta: 1 });
            b.push(Op::WriteVarReg {
                var: TIMER_SHARED,
                reg: 0,
            });
            b.push(Op::ReadVar {
                var: TIMER_ISR_COUNT,
                reg: 1,
            });
            b.push(Op::AddReg { reg: 1, delta: 1 });
            b.push(Op::WriteVarReg {
                var: TIMER_ISR_COUNT,
                reg: 1,
            });
            b.push(Op::Exit);
            b.build().expect("isr program is valid")
        };
        let isr = sys.kernel_of_mut(0).register_program(isr);
        sys.kernel_of_mut(0).set_isr_program(isr);

        // The worker: `rounds` RMW rounds with a deliberately padded
        // window between read and write-back, then a masked final check
        // that `counter - rounds - isr_increments == 0` (computed by
        // counting `isr_increments` down against the surplus).
        let worker = {
            let mut b = ProgramBuilder::new();
            b.bind("rmw");
            if self.variant == Variant::Fixed {
                b.push(Op::IrqMask);
            }
            b.push(Op::ReadVar {
                var: TIMER_SHARED,
                reg: 0,
            });
            b.push(Op::Compute(6)); // the exposed half-open window
            b.push(Op::AddReg { reg: 0, delta: 1 });
            b.push(Op::WriteVarReg {
                var: TIMER_SHARED,
                reg: 0,
            });
            if self.variant == Variant::Fixed {
                b.push(Op::IrqUnmask);
            }
            b.push(Op::Compute(4)); // breathing room for deferred irqs
            b.push(Op::AddReg { reg: 1, delta: 1 });
            b.branch_if_reg_eq(1, self.rounds, "check");
            b.jump_to("rmw");
            b.bind("check");
            // Mask before sampling both tallies: an ISR between the two
            // reads would skew the comparison in either variant.
            b.push(Op::IrqMask);
            b.push(Op::ReadVar {
                var: TIMER_SHARED,
                reg: 2,
            });
            b.push(Op::AddReg {
                reg: 2,
                delta: -self.rounds,
            });
            b.push(Op::ReadVar {
                var: TIMER_ISR_COUNT,
                reg: 3,
            });
            // r2 -= r3, one step at a time (the ISA has no reg-reg sub).
            b.bind("drain");
            b.branch_if_reg_eq(3, 0, "verify");
            b.push(Op::AddReg { reg: 3, delta: -1 });
            b.push(Op::AddReg { reg: 2, delta: -1 });
            b.jump_to("drain");
            b.bind("verify");
            guard(&mut b, 2, 0);
            b.build().expect("worker program is valid")
        };
        vec![sys.kernel_of_mut(0).register_program(worker)]
    }
}

/// A quantum-expiry atomicity violation between two priority bands. See
/// the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct QuantumAtomicityScenario {
    /// Buggy (open window) or fixed (mutex-bracketed) variant.
    pub variant: Variant,
    /// Read-modify-write rounds each task performs.
    pub rounds: i64,
}

impl QuantumAtomicityScenario {
    /// The unprotected variant at the default round count.
    #[must_use]
    pub fn buggy() -> QuantumAtomicityScenario {
        QuantumAtomicityScenario {
            variant: Variant::Buggy,
            rounds: 8,
        }
    }

    /// The mutex-bracketed control variant.
    #[must_use]
    pub fn fixed() -> QuantumAtomicityScenario {
        QuantumAtomicityScenario {
            variant: Variant::Fixed,
            ..QuantumAtomicityScenario::buggy()
        }
    }

    /// The quantum this scenario explores by default: shorter than the
    /// RMW window, so a slice boundary must land inside it once the
    /// loops overlap.
    #[must_use]
    pub fn default_quantum() -> QuantumConfig {
        QuantumConfig { cycles: 5 }
    }
}

impl Scenario for QuantumAtomicityScenario {
    fn name(&self) -> &str {
        match self.variant {
            Variant::Buggy => "quantum-atomicity-buggy",
            Variant::Fixed => "quantum-atomicity-fixed",
        }
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        timer_base_config(
            2,
            PreemptionSpec {
                quantum: Some(QuantumAtomicityScenario::default_quantum()),
                ..PreemptionSpec::default()
            },
        )
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        let guard_mutex = sys.kernel_of_mut(0).create_mutex();
        let bracket = self.variant == Variant::Fixed;

        // One RMW loop body, shared by both writers. The window is wider
        // than the default quantum, so slice rotation must split it.
        let rmw_loop = |b: &mut ProgramBuilder, rounds: i64| {
            b.bind("rmw");
            if bracket {
                b.push(Op::MutexLock(guard_mutex));
            }
            b.push(Op::ReadVar {
                var: TIMER_SHARED,
                reg: 0,
            });
            b.push(Op::Compute(6));
            b.push(Op::AddReg { reg: 0, delta: 1 });
            b.push(Op::WriteVarReg {
                var: TIMER_SHARED,
                reg: 0,
            });
            if bracket {
                b.push(Op::MutexUnlock(guard_mutex));
            }
            b.push(Op::AddReg { reg: 1, delta: 1 });
            b.branch_if_reg_eq(1, rounds, "rmw_done");
            b.jump_to("rmw");
            b.bind("rmw_done");
        };

        // Pattern 0 (low priority band): announce, await the peer,
        // loop, then await the peer's completion and check. Without a
        // quantum the higher band runs its whole loop while this task
        // spins, so the serial total is exact.
        let checker = {
            let mut b = ProgramBuilder::new();
            barrier(&mut b, TIMER_READY0, TIMER_READY1);
            rmw_loop(&mut b, self.rounds);
            bounded_spin(&mut b, TIMER_DONE1, 1, 6, "check");
            b.push(Op::Compute(4)); // let the peer's last write settle
            b.push(Op::ReadVar {
                var: TIMER_SHARED,
                reg: 2,
            });
            guard(&mut b, 2, 2 * self.rounds);
            b.build().expect("checker program is valid")
        };
        // Pattern 1 (high priority band): announce, await the peer,
        // loop, signal completion.
        let writer = {
            let mut b = ProgramBuilder::new();
            barrier(&mut b, TIMER_READY1, TIMER_READY0);
            rmw_loop(&mut b, self.rounds);
            b.push(Op::WriteVar {
                var: TIMER_DONE1,
                value: 1,
            });
            b.push(Op::Exit);
            b.build().expect("writer program is valid")
        };
        vec![
            sys.kernel_of_mut(0).register_program(checker),
            sys.kernel_of_mut(0).register_program(writer),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kit::probe;

    /// Non-preemptive execution hides the faults; the scenarios' own
    /// interrupt plan or quantum exposes them.
    fn non_preemptive(cfg: &mut AdaptiveTestConfig) {
        cfg.preemption = PreemptionSpec::default();
    }

    #[test]
    fn isr_race_is_invisible_without_interrupt_injection() {
        probe::assert_invisible(IsrSharedVarScenario::buggy(), non_preemptive);
    }

    #[test]
    fn isr_race_manifests_under_injection_and_replays_from_the_quadruple() {
        probe::assert_manifests_and_replays(&IsrSharedVarScenario::buggy());
    }

    #[test]
    fn masked_isr_race_is_clean_under_any_injection_plan() {
        assert!(
            probe::first_manifestation(&IsrSharedVarScenario::fixed()).is_none(),
            "the mask-bracketed variant must never lose an update"
        );
    }

    #[test]
    fn quantum_atomicity_is_invisible_without_a_quantum() {
        probe::assert_invisible(QuantumAtomicityScenario::buggy(), non_preemptive);
    }

    #[test]
    fn quantum_atomicity_manifests_under_a_quantum_and_replays() {
        probe::assert_manifests_and_replays(&QuantumAtomicityScenario::buggy());
    }

    #[test]
    fn mutex_bracketed_quantum_variant_is_clean_under_any_quantum() {
        assert!(
            probe::first_manifestation(&QuantumAtomicityScenario::fixed()).is_none(),
            "the mutex-bracketed variant must never lose an update"
        );
    }
}
