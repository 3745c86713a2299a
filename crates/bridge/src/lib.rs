//! # ptest-bridge — the pCore-Bridge communication middleware
//!
//! The paper's master and slave systems talk through "pCore Bridge", a
//! middleware built on the OMAP5912's two native inter-processor
//! mechanisms: *shared-memory polling* and *mailbox interrupts*. This
//! crate reproduces that middleware:
//!
//! * [`codec`] — fixed-size little-endian wire records for remote
//!   commands ([`SvcRequest`](ptest_pcore::SvcRequest)) and responses.
//! * [`ring`] — single-producer single-consumer rings laid out in shared
//!   SRAM, accessed only through bounds-checked SRAM reads/writes.
//! * [`BridgeLayout`] — where one slave's command/response ring pair
//!   lives; [`BridgeLayout::for_slaves`] partitions the shared SRAM into
//!   one disjoint window per slave of an N-slave platform
//!   ([`BridgeLayout::for_slave`]`(0)` is the dual-core original).
//! * [`MasterPort`] — the ARM-side endpoint: encodes commands, rings the
//!   target slave's doorbell mailbox, polls responses from every lane,
//!   and tracks outstanding commands per slave
//!   ([`MasterPort::overdue_for`]) so a silent (crashed) slave becomes
//!   observable as command timeouts.
//! * [`SlaveEndpoint`] — one DSP-side interrupt handler per slave: drains
//!   that slave's command ring, dispatches into its
//!   [`Kernel`](ptest_pcore::Kernel), and writes responses. It goes
//!   silent when the kernel panics, exactly like firmware dying with its
//!   kernel.
//!
//! ## Example
//!
//! ```
//! use ptest_bridge::{BridgeLayout, MasterPort, SlaveEndpoint};
//! use ptest_pcore::{Kernel, KernelConfig, Priority, Program, SvcRequest};
//! use ptest_soc::{Cycles, MailboxBank, SharedSram};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let layout = BridgeLayout::for_slave(0);
//! let mut sram = SharedSram::omap5912();
//! layout.init(&mut sram)?;
//! let mut mailboxes = MailboxBank::omap5912();
//! let mut kernel = Kernel::new(KernelConfig::default());
//! let prog = kernel.register_program(Program::exit_immediately());
//!
//! let mut master = MasterPort::for_slaves(vec![layout]);
//! let mut slave = SlaveEndpoint::for_slave(layout, 0);
//!
//! let req = SvcRequest::Create { program: prog, priority: Priority::new(5), stack_bytes: None };
//! master.issue_to(0, &mut sram, &mut mailboxes, req, Cycles::new(1))?;
//! slave.service(&mut sram, &mut mailboxes, &mut kernel, Cycles::new(2), 16);
//! let responses = master.poll_responses(&mut sram, &mut mailboxes, Cycles::new(3));
//! assert_eq!(responses.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod ring;

mod port;

pub use codec::{CmdId, CodecError, CMD_RECORD_BYTES, RESP_RECORD_BYTES};
pub use port::{
    BridgeError, BridgeLayout, CmdResponse, EndpointStats, MasterPort, PortStats, SlaveEndpoint,
};
pub use ring::{RingError, SramRing};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::MasterPort>();
        assert_send_sync::<super::SlaveEndpoint>();
        assert_send_sync::<super::CmdResponse>();
    }
}
