//! What a kernel's trace ring records: one [`KernelEvent`] per service,
//! scheduler decision, interrupt, traced access and task exit.
//!
//! An event is a `Copy` value of typed fields, so recording one never
//! allocates or formats; its [`Display`](fmt::Display) renders the text
//! a bug report or root-cause timeline shows.

use std::fmt;

use ptest_soc::TraceDetail;

use super::{Context, SvcError, SvcReply, SvcRequest, Trap};
use crate::heap::HeapError;
use crate::ids::{MutexId, SemId, TaskId, VarId};
use crate::task::{ExitKind, TaskFault};

/// One kernel trace event. [`TraceDetail::kind`] names its category
/// (`"sched"`, `"svc"`, `"isr"`, `"var-write"`, …) and `Display` its
/// detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelEvent {
    /// `sched`: the task is switched in.
    Run(TaskId),
    /// `sched`: the running task's quantum expires in favour of the task.
    Preempt(TaskId),
    /// `svc`: a remote service request and its result.
    Svc {
        /// The request.
        req: SvcRequest,
        /// What the kernel answered.
        result: Result<SvcReply, SvcError>,
    },
    /// `isr`: the ISR is entered.
    IsrEnter,
    /// `isr`: the ISR returns.
    IsrExit,
    /// `isr`: the ISR is aborted by a trap.
    IsrAbort(Trap),
    /// `isr`: a cross-core semaphore hand-off wakes a task.
    ExternalPost {
        /// The posted semaphore.
        sem: SemId,
        /// The task it wakes.
        woken: TaskId,
    },
    /// `var-mirror`: a shared variable's value arrives from another core
    /// (access tracing only).
    VarMirror {
        /// The variable.
        var: VarId,
        /// Its new value.
        value: i64,
    },
    /// `var-read`: a context reads a shared variable (access tracing
    /// only).
    VarRead {
        /// The reader.
        ctx: Context,
        /// The variable.
        var: VarId,
        /// The value read.
        value: i64,
    },
    /// `var-write`: a context writes a shared variable (access tracing
    /// only).
    VarWrite {
        /// The writer.
        ctx: Context,
        /// The variable.
        var: VarId,
        /// The value written.
        value: i64,
    },
    /// `fence`: a context drains its store buffer (access tracing only).
    Fence(Context),
    /// `sem-wait`: a context waits on a semaphore (access tracing only).
    SemWait {
        /// The waiter.
        ctx: Context,
        /// The semaphore.
        sem: SemId,
        /// Whether it blocks (else it takes a token).
        blocks: bool,
    },
    /// `sem-post`: a context posts a semaphore (access tracing only).
    SemPost {
        /// The poster.
        ctx: Context,
        /// The semaphore.
        sem: SemId,
        /// The waiter the post wakes, if any.
        woken: Option<TaskId>,
    },
    /// `irq`: a context masks interrupts (access tracing only).
    IrqMask(Context),
    /// `irq`: a context unmasks interrupts (access tracing only).
    IrqUnmask(Context),
    /// `block`: a task blocks on a held mutex.
    Block {
        /// The blocked task.
        task: TaskId,
        /// The mutex.
        mutex: MutexId,
    },
    /// `fault`: a task faults.
    Fault {
        /// The faulting task.
        task: TaskId,
        /// Why.
        fault: TaskFault,
    },
    /// `task`: a task terminates.
    Terminated {
        /// The task.
        task: TaskId,
        /// How it ended.
        exit: ExitKind,
        /// Bytes of its memory that became garbage.
        garbage: u32,
    },
    /// `panic`: the kernel panics on heap exhaustion.
    Panic {
        /// Bytes the failed allocation asked for.
        requested: u32,
    },
    /// `heap`: a kernel allocation fails without panicking.
    Heap(HeapError),
}

impl TraceDetail for KernelEvent {
    fn kind(&self) -> &'static str {
        match self {
            KernelEvent::Run(_) | KernelEvent::Preempt(_) => "sched",
            KernelEvent::Svc { .. } => "svc",
            KernelEvent::IsrEnter
            | KernelEvent::IsrExit
            | KernelEvent::IsrAbort(_)
            | KernelEvent::ExternalPost { .. } => "isr",
            KernelEvent::VarMirror { .. } => "var-mirror",
            KernelEvent::VarRead { .. } => "var-read",
            KernelEvent::VarWrite { .. } => "var-write",
            KernelEvent::Fence(_) => "fence",
            KernelEvent::SemWait { .. } => "sem-wait",
            KernelEvent::SemPost { .. } => "sem-post",
            KernelEvent::IrqMask(_) | KernelEvent::IrqUnmask(_) => "irq",
            KernelEvent::Block { .. } => "block",
            KernelEvent::Fault { .. } => "fault",
            KernelEvent::Terminated { .. } => "task",
            KernelEvent::Panic { .. } => "panic",
            KernelEvent::Heap(_) => "heap",
        }
    }
}

impl fmt::Display for KernelEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelEvent::Run(task) => write!(f, "run {task}"),
            KernelEvent::Preempt(task) => write!(f, "quantum expires: preempt for {task}"),
            KernelEvent::Svc {
                req,
                result: Ok(reply),
            } => write!(f, "{req:?} -> {reply:?}"),
            KernelEvent::Svc {
                req,
                result: Err(err),
            } => write!(f, "{req:?} -> err {err}"),
            KernelEvent::IsrEnter => f.write_str("enter"),
            KernelEvent::IsrExit => f.write_str("exit"),
            KernelEvent::IsrAbort(trap) => write!(f, "abort: {trap}"),
            KernelEvent::ExternalPost { sem, woken } => {
                write!(f, "external post {sem} wakes {woken}")
            }
            KernelEvent::VarMirror { var, value } => write!(f, "{var}={value}"),
            KernelEvent::VarRead { ctx, var, value }
            | KernelEvent::VarWrite { ctx, var, value } => {
                write!(f, "{ctx} {var}={value}")
            }
            KernelEvent::Fence(ctx) => write!(f, "{ctx} fence"),
            KernelEvent::SemWait { ctx, sem, blocks } => {
                let verb = if *blocks { "blocks on" } else { "acquires" };
                write!(f, "{ctx} {verb} {sem}")
            }
            KernelEvent::SemPost { ctx, sem, woken } => match woken {
                Some(w) => write!(f, "{ctx} posts {sem} wakes {w}"),
                None => write!(f, "{ctx} posts {sem}"),
            },
            KernelEvent::IrqMask(ctx) => write!(f, "{ctx} masks"),
            KernelEvent::IrqUnmask(ctx) => write!(f, "{ctx} unmasks"),
            KernelEvent::Block { task, mutex } => write!(f, "{task} blocks on {mutex}"),
            KernelEvent::Fault { task, fault } => write!(f, "{task}: {fault}"),
            KernelEvent::Terminated {
                task,
                exit,
                garbage,
            } => write!(f, "{task} terminated ({exit}); {garbage}B garbage"),
            KernelEvent::Panic { requested } => {
                write!(f, "out of memory allocating {requested} bytes")
            }
            KernelEvent::Heap(e) => write!(f, "internal: {e}"),
        }
    }
}

impl KernelEvent {
    /// The shared variable a traced access or mirror delivery touches,
    /// and whether it changes the variable (a write or a mirror
    /// delivery); `None` for every other event.
    #[must_use]
    pub fn var_access(&self) -> Option<(VarId, bool)> {
        match *self {
            KernelEvent::VarRead { var, .. } => Some((var, false)),
            KernelEvent::VarWrite { var, .. } | KernelEvent::VarMirror { var, .. } => {
                Some((var, true))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_soc::TraceEvent;

    #[test]
    fn a_stored_kernel_event_is_copy_and_no_larger_than_a_string_event() {
        assert!(!std::mem::needs_drop::<KernelEvent>());
        assert!(!std::mem::needs_drop::<TraceEvent<KernelEvent>>());
        // The text-carrying record this replaced: a timestamp, a core, a
        // `&'static str` kind and a `Cow<'static, str>` detail.
        assert!(std::mem::size_of::<TraceEvent<KernelEvent>>() <= 56);
    }
}
