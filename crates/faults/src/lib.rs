//! # ptest-faults — the fault scenarios of the pTest evaluation
//!
//! The concrete buggy (and control) programs the paper tests pCore with,
//! plus extra scenarios used by the baseline-comparison experiments:
//!
//! * [`fig1`] — Figure 1's two spin-waiting slave processes whose fate
//!   depends on the master's resume order (completing vs livelock).
//! * [`philosophers`] — case study 2: the three-task dining-philosophers
//!   deadlock and its corrected variant.
//! * [`stress`] — case study 1: 16 quick-sorting tasks under
//!   create/delete churn over a garbage-collected heap with an
//!   injectable GC defect.
//! * [`scenarios`] — starvation, priority inversion, and a lost-update
//!   race (with its final-value oracle).
//! * [`multicore`] — multi-slave scenarios over the N-slave platform: a
//!   cross-core pipeline whose semaphore hand-off deadlocks *across
//!   kernels*, and a shared-SRAM producer/consumer race between slaves.
//! * [`races`] — schedule-sensitive cross-core races, unreachable under
//!   lock-step and exposed by the randomized-priority scheduler.
//! * [`timers`] — preemption-sensitive timer/ISR faults, invisible
//!   under non-preemptive lock-step and exposed by deterministic
//!   interrupt injection and quantum time-slicing.
//! * [`weakmem`] — memory-model-sensitive races (Dekker store
//!   visibility, IRIW), invisible under sequential consistency and
//!   exposed by the store-buffer memory model.
//!
//! The three race families are built from one private kit of protocol
//! pieces (bounded spin, barrier, guard) over one base configuration,
//! and share one oracle, [`guard_tripped`]. Every scenario with a
//! control picks it with one [`Variant`].
//!
//! Everything is deterministic; each scenario documents the exact
//! schedule window its bug needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig1;
mod kit;
pub mod multicore;
pub mod philosophers;
pub mod races;
pub mod scenarios;
pub mod stress;
pub mod timers;
pub mod weakmem;

pub use kit::{guard_tripped, Variant};

#[cfg(test)]
mod tests {
    #[test]
    fn scenario_constants_are_consistent() {
        assert_eq!(super::philosophers::PHILOSOPHERS, 3);
        assert_ne!(super::fig1::VAR_X, super::fig1::VAR_Y);
    }
}
