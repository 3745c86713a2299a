//! The master-side thread model.
//!
//! In the paper the master system is Linux on the ARM core, scheduling
//! threads with a *time-sharing* policy; each slave task is controlled by
//! exactly one master thread (the paper's one-to-one correspondence
//! assumption). A [`MasterThread`] here is a small script of
//! [`MasterOp`]s — issuing remote commands, waiting for their responses,
//! computing, sleeping — executed under a round-robin quantum scheduler by
//! the [`MultiCoreSystem`](crate::MultiCoreSystem).

use std::fmt;
use std::sync::Arc;

use ptest_bridge::{CmdId, CmdResponse};
use ptest_pcore::{SvcRequest, TaskId};

/// Identifies a master thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u16);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// One step of a master-thread script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterOp {
    /// Issue a remote command and continue without waiting (fire and
    /// forget); the response lands in the system inbox.
    Issue(SvcRequest),
    /// Issue a remote command and block until its response arrives.
    IssueAndWait(SvcRequest),
    /// Busy-compute for the given number of master cycles.
    Compute(u32),
    /// Sleep for the given number of cycles.
    SleepFor(u32),
    /// Finish the thread.
    Done,
}

/// The scheduling state of a master thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable.
    Ready,
    /// Blocked until the response for this command arrives.
    Waiting(CmdId),
    /// Sleeping until the given virtual time (raw cycles).
    Sleeping {
        /// Wake-up deadline.
        until: u64,
    },
    /// Script finished.
    Done,
}

/// A master-side thread: a script plus its execution state.
#[derive(Debug, Clone)]
pub struct MasterThread {
    /// Thread identity.
    pub id: ThreadId,
    /// Human-readable name (e.g. `"M1"` in Figure 1).
    pub name: Arc<str>,
    /// The script.
    pub ops: Vec<MasterOp>,
    /// Script counter.
    pub pc: usize,
    /// Scheduling state.
    pub state: ThreadState,
    /// Remaining cycles of an in-progress `Compute`.
    pub compute_remaining: u64,
    /// The slave task this thread controls, if bound (the paper's 1:1
    /// master-slave correspondence).
    pub bound_task: Option<TaskId>,
    /// The most recent response delivered to this thread.
    pub last_response: Option<CmdResponse>,
    /// Total ops retired.
    pub ops_retired: u64,
}

impl MasterThread {
    /// Creates a thread from a script.
    #[must_use]
    pub fn new(id: ThreadId, name: impl Into<Arc<str>>, ops: Vec<MasterOp>) -> MasterThread {
        MasterThread {
            id,
            name: name.into(),
            ops,
            pc: 0,
            state: ThreadState::Ready,
            compute_remaining: 0,
            bound_task: None,
            last_response: None,
            ops_retired: 0,
        }
    }

    /// Whether the scheduler may run this thread at time `now`.
    #[must_use]
    pub fn is_runnable(&self, now: u64) -> bool {
        match self.state {
            ThreadState::Ready => true,
            ThreadState::Sleeping { until } => until <= now,
            ThreadState::Waiting(_) | ThreadState::Done => false,
        }
    }

    /// Whether the script has finished.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.state == ThreadState::Done
    }

    /// The op the thread would execute next, if any.
    #[must_use]
    pub fn current_op(&self) -> Option<MasterOp> {
        self.ops.get(self.pc).copied()
    }

    /// Delivers a command response; if the thread was waiting on it the
    /// thread becomes ready. Returns `true` if it was consumed.
    pub fn deliver(&mut self, response: &CmdResponse) -> bool {
        if self.state == ThreadState::Waiting(response.id) {
            self.state = ThreadState::Ready;
            if let Ok(ptest_pcore::SvcReply::Created(task)) = response.result {
                // Auto-bind: the thread now controls the task it created.
                if self.bound_task.is_none() {
                    self.bound_task = Some(task);
                }
            }
            self.last_response = Some(response.clone());
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_pcore::{SvcError, SvcReply, VarId};
    use ptest_soc::Cycles;

    fn resp(id: u32, result: Result<SvcReply, SvcError>) -> CmdResponse {
        CmdResponse {
            id: CmdId(id),
            slave: 0,
            request: SvcRequest::PeekVar { var: VarId(0) },
            result,
            issued_at: Cycles::ZERO,
            completed_at: Cycles::new(1),
        }
    }

    #[test]
    fn fresh_thread_is_ready() {
        let t = MasterThread::new(ThreadId(0), "M1", vec![MasterOp::Done]);
        assert!(t.is_runnable(0));
        assert!(!t.is_done());
        assert_eq!(t.current_op(), Some(MasterOp::Done));
    }

    #[test]
    fn waiting_thread_wakes_only_on_matching_response() {
        let mut t = MasterThread::new(ThreadId(0), "M1", vec![]);
        t.state = ThreadState::Waiting(CmdId(5));
        assert!(!t.is_runnable(100));
        assert!(!t.deliver(&resp(4, Ok(SvcReply::Done))));
        assert!(t.deliver(&resp(5, Ok(SvcReply::Done))));
        assert!(t.is_runnable(100));
        assert!(t.last_response.is_some());
    }

    #[test]
    fn create_response_binds_task() {
        let mut t = MasterThread::new(ThreadId(0), "M1", vec![]);
        t.state = ThreadState::Waiting(CmdId(1));
        t.deliver(&resp(1, Ok(SvcReply::Created(TaskId::new(7)))));
        assert_eq!(t.bound_task, Some(TaskId::new(7)));
        // A second create does not rebind.
        t.state = ThreadState::Waiting(CmdId(2));
        t.deliver(&resp(2, Ok(SvcReply::Created(TaskId::new(9)))));
        assert_eq!(t.bound_task, Some(TaskId::new(7)));
    }

    #[test]
    fn sleeping_thread_wakes_at_deadline() {
        let mut t = MasterThread::new(ThreadId(0), "M1", vec![]);
        t.state = ThreadState::Sleeping { until: 50 };
        assert!(!t.is_runnable(49));
        assert!(t.is_runnable(50));
    }
}
