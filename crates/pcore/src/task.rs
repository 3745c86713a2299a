//! Task control blocks and task states.

use std::fmt;

use crate::heap::BlockHandle;
use crate::ids::{MutexId, Priority, SemId, TaskId};
use crate::program::{Program, NUM_REGS};

/// Why a task is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitReason {
    /// Waiting on a counting semaphore.
    Semaphore(SemId),
    /// Waiting to acquire a mutex.
    Mutex(MutexId),
    /// Sleeping until a virtual-time deadline.
    Sleep {
        /// Wake-up time (raw cycles).
        until: u64,
    },
}

impl fmt::Display for WaitReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitReason::Semaphore(s) => write!(f, "wait({s})"),
            WaitReason::Mutex(m) => write!(f, "wait({m})"),
            WaitReason::Sleep { until } => write!(f, "sleep(until={until})"),
        }
    }
}

/// The scheduling state of a task.
///
/// Suspension (services TS/TR) is *orthogonal* to this state and tracked by
/// [`Tcb::suspended`]: a task may be simultaneously blocked on a mutex and
/// suspended, and it only becomes runnable when it is `Ready`, not
/// suspended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Runnable (or currently running — pCore does not distinguish in the
    /// TCB; the scheduler knows which ready task occupies the core).
    Ready,
    /// Blocked on a synchronization object or timer.
    Blocked(WaitReason),
    /// Finished: exited normally, was deleted, or faulted.
    Terminated(ExitKind),
}

impl fmt::Display for TaskState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskState::Ready => write!(f, "ready"),
            TaskState::Blocked(w) => write!(f, "blocked:{w}"),
            TaskState::Terminated(k) => write!(f, "terminated:{k}"),
        }
    }
}

/// How a task's life ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitKind {
    /// Ran its `Exit` instruction (or a remote TY landed).
    Normal,
    /// Deleted by the `task_delete` service.
    Deleted,
    /// Killed by a task-level fault.
    Faulted(TaskFault),
}

impl fmt::Display for ExitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitKind::Normal => write!(f, "normal"),
            ExitKind::Deleted => write!(f, "deleted"),
            ExitKind::Faulted(ft) => write!(f, "fault({ft})"),
        }
    }
}

/// A task-level fault: kills the task but not the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskFault {
    /// `StackProbe` exceeded the task's stack size.
    StackOverflow,
    /// `Free` on a register not holding a live block handle.
    BadFree,
    /// `MutexUnlock` on a mutex the task does not own.
    UnlockNotOwner,
    /// Recursive `MutexLock` on a mutex the task already owns.
    RecursiveLock,
    /// Reference to a nonexistent semaphore/mutex/variable.
    BadObject,
    /// The program counter ran off the end of the program.
    PcOutOfRange,
}

impl fmt::Display for TaskFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskFault::StackOverflow => "stack overflow",
            TaskFault::BadFree => "bad free",
            TaskFault::UnlockNotOwner => "unlock by non-owner",
            TaskFault::RecursiveLock => "recursive lock",
            TaskFault::BadObject => "bad kernel object",
            TaskFault::PcOutOfRange => "pc out of range",
        };
        f.write_str(s)
    }
}

/// A task control block.
#[derive(Debug, Clone)]
pub struct Tcb {
    /// The slot this task occupies.
    pub id: TaskId,
    /// Unique scheduling priority.
    pub priority: Priority,
    /// Scheduling state.
    pub state: TaskState,
    /// TS/TR suspension flag (orthogonal to `state`).
    pub suspended: bool,
    /// A remote `task_yield` arrived; the task exits at its next dispatch.
    pub yield_requested: bool,
    /// A terminated task that has been reaped by `task_delete`/`task_yield`
    /// (a second terminal command on it is an error).
    pub reaped: bool,
    /// The program this task runs.
    pub program: Program,
    /// Program counter.
    pub pc: u16,
    /// General-purpose registers.
    pub regs: [i64; NUM_REGS],
    /// Remaining cycles of the currently executing multi-cycle op.
    pub compute_remaining: u64,
    /// Stack size in bytes (the paper's stress test used 512-byte stacks).
    pub stack_bytes: u32,
    /// Peak stack usage observed via `StackProbe`.
    pub stack_peak: u32,
    /// Heap block backing this task's stack.
    pub stack_block: BlockHandle,
    /// Heap block backing this TCB itself.
    pub tcb_block: BlockHandle,
    /// Total instructions retired.
    pub ops_retired: u64,
    /// Total cycles consumed.
    pub cycles_used: u64,
    /// Mutexes currently held, in acquisition order.
    pub held_mutexes: Vec<MutexId>,
    /// The steady loop body the task last went round, if any. A hint
    /// for the kernel's steady flag: it is replaced at the task's next
    /// back-edge and dropped when the task branches out of it while the
    /// kernel is steady.
    pub(crate) steady_body: Option<SteadyBody>,
}

/// A loop body a task went round: the pc range `head..=tail` of ops
/// that change nothing but the task's own frame
/// ([`Op::is_side_effect_free`](crate::Op::is_side_effect_free)) or
/// `Yield`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SteadyBody {
    pub(crate) head: u16,
    pub(crate) tail: u16,
    /// The body contains a `Yield`.
    pub(crate) yields: bool,
}

impl SteadyBody {
    pub(crate) fn contains(self, pc: u16) -> bool {
        (self.head..=self.tail).contains(&pc)
    }
}

impl Tcb {
    /// Whether the scheduler may pick this task.
    #[must_use]
    pub fn is_runnable(&self) -> bool {
        self.state == TaskState::Ready && !self.suspended
    }

    /// Whether the task has terminated (any exit kind).
    #[must_use]
    pub fn is_terminated(&self) -> bool {
        matches!(self.state, TaskState::Terminated(_))
    }

    /// Whether the slot still counts against the 16-task limit.
    #[must_use]
    pub fn is_live(&self) -> bool {
        !self.is_terminated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    fn tcb() -> Tcb {
        Tcb {
            id: TaskId::new(0),
            priority: Priority::new(5),
            state: TaskState::Ready,
            suspended: false,
            yield_requested: false,
            reaped: false,
            program: Program::exit_immediately(),
            pc: 0,
            regs: [0; NUM_REGS],
            compute_remaining: 0,
            stack_bytes: 512,
            stack_peak: 0,
            stack_block: BlockHandle::from_raw(1),
            tcb_block: BlockHandle::from_raw(2),
            ops_retired: 0,
            cycles_used: 0,
            held_mutexes: Vec::new(),
            steady_body: None,
        }
    }

    #[test]
    fn ready_unsuspended_is_runnable() {
        let t = tcb();
        assert!(t.is_runnable());
        assert!(t.is_live());
    }

    #[test]
    fn suspended_task_is_not_runnable() {
        let mut t = tcb();
        t.suspended = true;
        assert!(!t.is_runnable());
        assert!(t.is_live(), "suspended tasks still occupy their slot");
    }

    #[test]
    fn blocked_task_is_not_runnable() {
        let mut t = tcb();
        t.state = TaskState::Blocked(WaitReason::Mutex(MutexId(0)));
        assert!(!t.is_runnable());
    }

    #[test]
    fn terminated_task_is_not_live() {
        let mut t = tcb();
        t.state = TaskState::Terminated(ExitKind::Normal);
        assert!(!t.is_runnable());
        assert!(!t.is_live());
        assert!(t.is_terminated());
    }

    #[test]
    fn state_display() {
        assert_eq!(TaskState::Ready.to_string(), "ready");
        assert_eq!(
            TaskState::Blocked(WaitReason::Semaphore(SemId(3))).to_string(),
            "blocked:wait(sem3)"
        );
        assert_eq!(
            TaskState::Terminated(ExitKind::Faulted(TaskFault::StackOverflow)).to_string(),
            "terminated:fault(stack overflow)"
        );
    }
}
