//! # ptest-soc — a deterministic, discrete-event simulated multicore SoC
//!
//! This crate models the hardware substrate that the pTest paper ran on —
//! a TI OMAP5912-like system-on-chip with an ARM "master" core, originally
//! one DSP "slave" core, inter-processor **mailboxes**, and a block of
//! **shared internal SRAM** used by the communication middleware — and
//! generalizes it from the dual-core part to an *N-slave* topology: one
//! master ([`CoreId::Master`]) plus any number of slaves
//! ([`CoreId::Slave`]), each with its own mailbox block and its own bridge
//! window carved out of the shared SRAM.
//!
//! Nothing in this crate knows about kernels, threads, or test patterns; it
//! only provides the hardware-shaped pieces the upper layers are built on:
//!
//! * [`Cycles`] and [`VirtualClock`] — virtual time, advanced by the
//!   simulation loop rather than a wall clock, so every run is
//!   deterministic and every detected bug replayable.
//! * [`SharedSram`] — a bounds-checked byte-addressable memory window
//!   (250 KB on the OMAP5912) shared by all cores, with
//!   [`SharedSram::carve_windows`] to partition it into per-slave regions.
//! * [`MailboxBank`] — per-slave blocks of four hardware FIFOs
//!   (command/data doorbells inbound, response/event doorbells outbound)
//!   with per-core interrupt lines, mirroring the OMAP mailbox peripheral;
//!   [`MailboxBank::omap5912`] is the one-slave original.
//! * [`TraceBuffer`] — a bounded ring of timestamped hardware/software
//!   events that the bug detector dumps when a failure is found. It is
//!   generic over a layer's typed event ([`TraceDetail`]), which renders
//!   its text only when displayed.
//!
//! ## Example
//!
//! ```
//! use ptest_soc::{Cycles, MailboxBank, SharedSram, CoreId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sram = SharedSram::omap5912();
//! sram.write_u32_le(0x100, 0xdead_beef)?;
//! assert_eq!(sram.read_u32_le(0x100)?, 0xdead_beef);
//!
//! // A two-slave bank: slave 1's command doorbell interrupts core DSP1.
//! let mut mboxes = MailboxBank::for_slaves(2);
//! mboxes.post(MailboxBank::cmd_index(1), 42)?;
//! assert!(mboxes.irq_pending(CoreId::Slave(1)));
//! assert!(!mboxes.irq_pending(CoreId::Slave(0)));
//! assert_eq!(mboxes.take(MailboxBank::cmd_index(1)), Some(42));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod error;
mod mailbox;
pub mod seed;
mod sram;
mod trace;

pub use clock::{Cycles, VirtualClock};
pub use error::{MailboxError, SramError};
pub use mailbox::{Mailbox, MailboxBank};
pub use sram::SharedSram;
pub use trace::{TraceBuffer, TraceDetail, TraceEvent};

/// Identifies one processing core of the simulated SoC.
///
/// The pTest paper's master–slave model maps the *master* onto the ARM core
/// (running Linux) and each *slave* onto a DSP core (running pCore). The
/// original OMAP5912 platform had exactly one slave; the generalized
/// platform supports up to 256 slaves, identified by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoreId {
    /// The ARM926EJ-S master core.
    Master,
    /// The `i`-th TI C55x DSP slave core.
    Slave(u8),
}

impl CoreId {
    /// The slave core with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds 255 — the platform addresses slaves with
    /// a single byte, and real configurations stay far below that.
    #[must_use]
    pub fn slave(index: usize) -> CoreId {
        assert!(index <= usize::from(u8::MAX), "slave index out of range");
        CoreId::Slave(index as u8)
    }

    /// The slave index, or `None` for the master.
    #[must_use]
    pub fn slave_index(self) -> Option<usize> {
        match self {
            CoreId::Master => None,
            CoreId::Slave(i) => Some(usize::from(i)),
        }
    }

    /// Whether this is the master core.
    #[must_use]
    pub fn is_master(self) -> bool {
        self == CoreId::Master
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreId::Master => write!(f, "ARM"),
            CoreId::Slave(0) => write!(f, "DSP"),
            CoreId::Slave(i) => write!(f, "DSP{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_display() {
        assert_eq!(CoreId::Master.to_string(), "ARM");
        assert_eq!(CoreId::Slave(0).to_string(), "DSP");
        assert_eq!(CoreId::Slave(3).to_string(), "DSP3");
    }

    #[test]
    fn legacy_names_alias_the_generalized_cores() {
        assert_eq!(CoreId::slave(2), CoreId::Slave(2));
        assert_eq!(CoreId::Slave(2).slave_index(), Some(2));
        assert_eq!(CoreId::Master.slave_index(), None);
        assert!(CoreId::Master.is_master());
        assert!(!CoreId::Slave(1).is_master());
    }

    #[test]
    #[should_panic(expected = "slave index")]
    fn oversized_slave_index_panics() {
        let _ = CoreId::slave(256);
    }

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Cycles>();
        assert_send_sync::<VirtualClock>();
        assert_send_sync::<SharedSram>();
        assert_send_sync::<MailboxBank>();
        assert_send_sync::<TraceBuffer<CoreId>>();
        assert_send_sync::<CoreId>();
    }
}
