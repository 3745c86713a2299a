//! What the system trace ring records: one [`MasterEvent`] per command
//! issued, master-thread exit, injected interrupt and semaphore-link
//! hand-off.
//!
//! Recording stores the event's fields and formats nothing; its
//! [`Display`](fmt::Display) renders the text a timeline shows.

use std::fmt;
use std::sync::Arc;

use ptest_bridge::CmdId;
use ptest_pcore::SvcRequest;
use ptest_soc::{CoreId, TraceDetail};

use crate::system::SemLink;

/// One master-side trace event. [`TraceDetail::kind`] names its
/// category (`"cmd"`, `"thread"`, `"irq-inject"`, `"link"`) and
/// `Display` its detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MasterEvent {
    /// `cmd`: the committer's path issues a command to a slave.
    Cmd {
        /// The command's id.
        id: CmdId,
        /// The slave it goes to (named in the detail beyond slave 0).
        slave: usize,
        /// The request.
        req: SvcRequest,
    },
    /// `cmd`: a master thread issues a command to slave 0.
    ThreadIssue {
        /// The thread's name.
        thread: Arc<str>,
        /// The command's id.
        cmd: CmdId,
        /// The request.
        req: SvcRequest,
        /// Whether the thread waits for the response.
        waits: bool,
    },
    /// `thread`: a master thread finishes its script.
    ThreadDone {
        /// The thread's name.
        thread: Arc<str>,
    },
    /// `irq-inject`: a planned interrupt is raised on the record's core.
    IrqInject {
        /// The cycle the plan drew.
        cycle: u64,
        /// Whether the kernel took it (it has an ISR).
        accepted: bool,
    },
    /// `link`: a semaphore link forwards a token (recorded on its source
    /// slave's core).
    Link(SemLink),
}

impl TraceDetail for MasterEvent {
    fn kind(&self) -> &'static str {
        match self {
            MasterEvent::Cmd { .. } | MasterEvent::ThreadIssue { .. } => "cmd",
            MasterEvent::ThreadDone { .. } => "thread",
            MasterEvent::IrqInject { .. } => "irq-inject",
            MasterEvent::Link { .. } => "link",
        }
    }
}

impl fmt::Display for MasterEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MasterEvent::Cmd { id, slave: 0, req } => write!(f, "{id} {req:?}"),
            MasterEvent::Cmd { id, slave, req } => {
                write!(f, "{id} ->{} {req:?}", CoreId::slave(*slave))
            }
            MasterEvent::ThreadIssue {
                thread,
                cmd,
                req,
                waits,
            } => {
                let suffix = if *waits { " (waits)" } else { "" };
                write!(f, "{thread} issues {cmd} {req:?}{suffix}")
            }
            MasterEvent::ThreadDone { thread } => write!(f, "{thread} done"),
            MasterEvent::IrqInject {
                cycle,
                accepted: true,
            } => write!(f, "planned @{cycle}"),
            MasterEvent::IrqInject {
                cycle,
                accepted: false,
            } => write!(f, "planned @{cycle} refused (no handler)"),
            MasterEvent::Link(link) => write!(
                f,
                "{} -> {}:{}",
                link.from_sem,
                CoreId::slave(link.to_slave),
                link.to_sem
            ),
        }
    }
}
