//! Memory-model-sensitive cross-core races: bugs that are **invisible
//! under sequentially consistent propagation** no matter which schedule
//! or patterns drive the trial, and only manifest when a
//! [`StoreBufferModel`](ptest_master::StoreBufferModel) delays store
//! visibility per observer.
//!
//! Both scenarios couple slave kernels through SRAM-mirrored shared
//! variables and align their tasks with bounded spin barriers, exactly
//! like [`races`](crate::races) — but where those bugs need a hostile
//! *schedule*, these need hostile *store visibility*:
//!
//! * [`StoreVisibilityScenario`] — Dekker's flag protocol on two
//!   slaves: each announces its flag, computes briefly, then reads the
//!   peer's flag and enters a critical section only when the peer's
//!   flag still reads zero. Under sequential consistency at most one
//!   task can miss the other's announcement (a cycle-counting argument
//!   independent of the schedule), so mutual exclusion holds. A store
//!   buffer can delay *both* announcements past *both* reads; both
//!   tasks enter, each then observes the other inside the critical
//!   section and trips its guard — a stack-probe task fault the
//!   detector reports and the `(pattern, schedule, memory)` seed triple
//!   replays byte for byte.
//! * [`IriwScenario`] — independent reads of independent writes across
//!   four slaves: two writers publish `X` and `Y` from a common
//!   semaphore-aligned instant; reader 0 waits for `X` then samples
//!   `Y`; reader 1 waits for `Y` then samples `X` and publishes what it
//!   saw. Any single
//!   total store order makes the readers agree on at least one write;
//!   per-observer delivery delays (a non-multi-copy-atomic relaxation)
//!   let each reader see "its" write first and the other's late — the
//!   checker on slave 0 trips when both readers observed stale values.
//!
//! Each scenario has a `fenced` control variant using [`Op::Fence`] —
//! a cumulative barrier that drains the fencing core's own store buffer
//! *and* force-publishes every foreign store that core has already
//! observed. Fencing the writers' announcements fixes Dekker; IRIW is
//! the textbook case writer-side fences cannot fix, so its control
//! fences the *readers* between their two loads. Both controls stay
//! clean under every memory seed; the integration tests pin all four
//! quadrants (variant × memory model).

use crate::kit::{barrier, bounded_spin, guard, guarded_config, Variant, SPIN_BUDGET};
use ptest_core::{AdaptiveTestConfig, MemoryModelSpec, Scenario};
use ptest_master::MultiCoreSystem;
use ptest_pcore::{Op, ProgramBuilder, ProgramId, VarId};

/// Barrier / handshake flag of slave 0 (SRAM-mirrored).
pub const WEAK_READY0: VarId = VarId(12);
/// Barrier / handshake flag of slave 1 (SRAM-mirrored).
pub const WEAK_READY1: VarId = VarId(13);
/// Dekker: slave 0's intent flag (SRAM-mirrored).
pub const WEAK_FLAG0: VarId = VarId(14);
/// Dekker: slave 1's intent flag (SRAM-mirrored).
pub const WEAK_FLAG1: VarId = VarId(15);
/// Dekker: slave 0's in-critical-section marker (SRAM-mirrored).
pub const WEAK_IN0: VarId = VarId(16);
/// Dekker: slave 1's in-critical-section marker (SRAM-mirrored).
pub const WEAK_IN1: VarId = VarId(17);

/// IRIW: the first independent write (SRAM-mirrored).
pub const IRIW_X: VarId = VarId(12);
/// IRIW: the second independent write (SRAM-mirrored).
pub const IRIW_Y: VarId = VarId(13);
/// IRIW: reader 1's published observation — 0 pending, 1 saw stale
/// `X`, 2 saw `X` written (SRAM-mirrored).
pub const IRIW_OBS: VarId = VarId(14);

/// SRAM offsets of the mirror words, above the `races` windows.
const MIRROR_BASE: usize = 0x3_2000;

/// Cycles each Dekker task computes between announcing its flag and
/// reading the peer's. Any value ≥ 1 makes the mutual-exclusion
/// violation unreachable under sequential consistency; keeping it small
/// maximises the store-buffer window.
const FLAG_GAP: u32 = 2;

/// Cycles each Dekker task dwells inside the critical section before
/// checking for company. Longer than any default store-buffer delay
/// (plus barrier skew), so if *both* tasks entered, both reliably see
/// each other's marker.
const CS_DWELL: u32 = 96;

/// The configuration of the weak-memory scenarios: one guarded task per
/// kernel, the lock-step schedule (keeping the schedule axis quiet so
/// the memory axis is what's under test), and the default store buffer
/// as the exploration mode.
fn weakmem_base_config(slaves: usize) -> AdaptiveTestConfig {
    AdaptiveTestConfig {
        memory: MemoryModelSpec::store_buffer(),
        ..guarded_config(slaves, slaves)
    }
}

/// Dekker's store-buffer visibility race on two slaves. See the
/// [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct StoreVisibilityScenario {
    /// Unfenced (racy) or fenced (control) variant.
    pub variant: Variant,
}

impl StoreVisibilityScenario {
    /// The unfenced variant.
    #[must_use]
    pub fn buggy() -> StoreVisibilityScenario {
        StoreVisibilityScenario {
            variant: Variant::Buggy,
        }
    }

    /// The fenced control variant.
    #[must_use]
    pub fn fenced() -> StoreVisibilityScenario {
        StoreVisibilityScenario {
            variant: Variant::Fixed,
        }
    }
}

impl Scenario for StoreVisibilityScenario {
    fn name(&self) -> &str {
        match self.variant {
            Variant::Buggy => "store-visibility-buggy",
            Variant::Fixed => "store-visibility-fenced",
        }
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        weakmem_base_config(2)
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        assert_eq!(sys.slave_count(), 2, "Dekker couples exactly two slaves");
        for (i, var) in [
            WEAK_READY0,
            WEAK_READY1,
            WEAK_FLAG0,
            WEAK_FLAG1,
            WEAK_IN0,
            WEAK_IN1,
        ]
        .iter()
        .enumerate()
        {
            sys.share_var(*var, MIRROR_BASE + 8 * i)
                .expect("mirror words fit the OMAP SRAM");
        }
        let contender = |mine: [VarId; 3], theirs: [VarId; 3], variant: Variant| {
            let [ready_mine, flag_mine, in_mine] = mine;
            let [ready_theirs, flag_theirs, in_theirs] = theirs;
            let mut b = ProgramBuilder::new();
            barrier(&mut b, ready_mine, ready_theirs);
            b.push(Op::WriteVar {
                var: flag_mine,
                value: 1,
            });
            if variant == Variant::Fixed {
                // Publish my intent to everyone before I sample the
                // peer's — the store→load ordering Dekker rests on.
                b.push(Op::Fence);
            }
            b.push(Op::Compute(FLAG_GAP));
            b.push(Op::ReadVar {
                var: flag_theirs,
                reg: 0,
            });
            b.branch_if_reg_eq(0, 0, "enter_cs");
            // The peer got there first: back off benignly.
            b.push(Op::Exit);
            b.bind("enter_cs");
            b.push(Op::WriteVar {
                var: in_mine,
                value: 1,
            });
            b.push(Op::Compute(CS_DWELL));
            b.push(Op::ReadVar {
                var: in_theirs,
                reg: 1,
            });
            guard(&mut b, 1, 0);
            b.build().expect("contender program is valid")
        };
        let p0 = contender(
            [WEAK_READY0, WEAK_FLAG0, WEAK_IN0],
            [WEAK_READY1, WEAK_FLAG1, WEAK_IN1],
            self.variant,
        );
        let p1 = contender(
            [WEAK_READY1, WEAK_FLAG1, WEAK_IN1],
            [WEAK_READY0, WEAK_FLAG0, WEAK_IN0],
            self.variant,
        );
        vec![
            sys.kernel_of_mut(0).register_program(p0),
            sys.kernel_of_mut(1).register_program(p1),
        ]
    }
}

/// Independent reads of independent writes across four slaves. See the
/// [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct IriwScenario {
    /// Unfenced (racy) or reader-fenced (control) variant.
    pub variant: Variant,
}

impl IriwScenario {
    /// The unfenced variant.
    #[must_use]
    pub fn buggy() -> IriwScenario {
        IriwScenario {
            variant: Variant::Buggy,
        }
    }

    /// The reader-fenced control variant.
    #[must_use]
    pub fn fenced() -> IriwScenario {
        IriwScenario {
            variant: Variant::Fixed,
        }
    }
}

impl Scenario for IriwScenario {
    fn name(&self) -> &str {
        match self.variant {
            Variant::Buggy => "iriw-buggy",
            Variant::Fixed => "iriw-fenced",
        }
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        weakmem_base_config(4)
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        assert_eq!(sys.slave_count(), 4, "IRIW takes two writers, two readers");
        for (i, var) in [IRIW_X, IRIW_Y, IRIW_OBS].iter().enumerate() {
            sys.share_var(*var, MIRROR_BASE + 0x100 + 8 * i)
                .expect("mirror words fit the OMAP SRAM");
        }
        // The writers align through cross-core semaphore links — 1-cycle
        // deterministic latency, *not* subject to the memory model — so
        // the two independent stores land within a couple of cycles of
        // each other. A shared-variable barrier would skew the writes by
        // a full store-buffer delivery delay, which correlates the
        // readers' views and hides the IRIW window.
        let go2 = sys.kernel_of_mut(2).create_semaphore(0);
        let out2 = sys.kernel_of_mut(2).create_semaphore(0);
        let go3 = sys.kernel_of_mut(3).create_semaphore(0);
        let out3 = sys.kernel_of_mut(3).create_semaphore(0);
        sys.link_semaphores(2, out2, 3, go3)
            .expect("distinct slaves");
        sys.link_semaphores(3, out3, 2, go2)
            .expect("distinct slaves");
        // Slave 0: reader of X-then-Y, and the verdict checker — the
        // trial's drain anchor, so the run keeps simulating until the
        // cross-reader comparison has resolved.
        let checker = {
            let mut b = ProgramBuilder::new();
            bounded_spin(&mut b, IRIW_X, 1, 7, "saw_x");
            if self.variant == Variant::Fixed {
                // Cumulative: force-publish the X I just observed (and
                // everything else I have seen) before sampling Y.
                b.push(Op::Fence);
            }
            b.push(Op::ReadVar {
                var: IRIW_Y,
                reg: 0,
            });
            // Await the peer's verdict (1 or 2; 0 means still pending).
            b.push(Op::AddReg {
                reg: 6,
                delta: SPIN_BUDGET,
            });
            b.bind("spin_obs");
            b.branch_if_var_eq(IRIW_OBS, 1, "obs_in");
            b.branch_if_var_eq(IRIW_OBS, 2, "obs_in");
            b.push(Op::AddReg { reg: 6, delta: -1 });
            b.branch_if_reg_eq(6, 0, "give_up_obs");
            b.jump_to("spin_obs");
            b.bind("give_up_obs");
            b.push(Op::Exit);
            b.bind("obs_in");
            b.push(Op::ReadVar {
                var: IRIW_OBS,
                reg: 1,
            });
            // The violation: I saw X before Y, the peer saw Y before X.
            b.branch_if_reg_eq(0, 1, "guard_ok");
            guard(&mut b, 1, 2);
            b.build().expect("checker program is valid")
        };
        // Slave 1: reader of Y-then-X; publishes which side of history
        // it saw through IRIW_OBS.
        let reporter = {
            let mut b = ProgramBuilder::new();
            bounded_spin(&mut b, IRIW_Y, 1, 7, "saw_y");
            if self.variant == Variant::Fixed {
                b.push(Op::Fence);
            }
            b.push(Op::ReadVar {
                var: IRIW_X,
                reg: 0,
            });
            b.branch_if_reg_eq(0, 0, "stale_x");
            b.push(Op::WriteVar {
                var: IRIW_OBS,
                value: 2,
            });
            b.push(Op::Exit);
            b.bind("stale_x");
            b.push(Op::WriteVar {
                var: IRIW_OBS,
                value: 1,
            });
            b.push(Op::Exit);
            b.build().expect("reporter program is valid")
        };
        // Slaves 2 and 3: the independent writers, semaphore-aligned so
        // both stores land in the same narrow window.
        let writer = |post: ptest_pcore::SemId, wait: ptest_pcore::SemId, target: VarId| {
            let mut b = ProgramBuilder::new();
            b.push(Op::SemPost(post));
            b.push(Op::SemWait(wait));
            b.push(Op::WriteVar {
                var: target,
                value: 1,
            });
            b.push(Op::Exit);
            b.build().expect("writer program is valid")
        };
        vec![
            sys.kernel_of_mut(0).register_program(checker),
            sys.kernel_of_mut(1).register_program(reporter),
            sys.kernel_of_mut(2)
                .register_program(writer(out2, go2, IRIW_X)),
            sys.kernel_of_mut(3)
                .register_program(writer(out3, go3, IRIW_Y)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kit::probe;

    /// Sequential consistency hides the reorderings; the scenarios' store
    /// buffer exposes them.
    fn seq_cst(cfg: &mut AdaptiveTestConfig) {
        cfg.memory = MemoryModelSpec::SeqCst;
    }

    #[test]
    fn dekker_is_invisible_under_sequential_consistency() {
        probe::assert_invisible(StoreVisibilityScenario::buggy(), seq_cst);
    }

    #[test]
    fn dekker_manifests_under_a_store_buffer_and_replays() {
        probe::assert_manifests_and_replays(&StoreVisibilityScenario::buggy());
    }

    #[test]
    fn fenced_dekker_is_clean_under_a_store_buffer() {
        assert!(
            probe::first_manifestation(&StoreVisibilityScenario::fenced()).is_none(),
            "the fenced variant must never trip its guard"
        );
    }

    #[test]
    fn iriw_is_invisible_under_sequential_consistency() {
        probe::assert_invisible(IriwScenario::buggy(), seq_cst);
    }

    #[test]
    fn iriw_manifests_under_a_store_buffer_and_replays() {
        probe::assert_manifests_and_replays(&IriwScenario::buggy());
    }

    #[test]
    fn fenced_iriw_is_clean_under_a_store_buffer() {
        assert!(
            probe::first_manifestation(&IriwScenario::fenced()).is_none(),
            "the reader-fenced variant must never trip its guard"
        );
    }
}
