//! # ptest-master — the master-side runtime and system wiring
//!
//! The paper's *master system* is Linux on the OMAP5912's ARM core: a
//! time-sharing scheduler running one controlling thread per slave task,
//! each issuing remote commands through the pCore-Bridge middleware. This
//! crate provides:
//!
//! * [`MasterThread`]/[`MasterOp`] — scripted master threads under a
//!   round-robin quantum scheduler (Figure 1's `M1`/`M2` are two such
//!   scripts).
//! * [`MultiCoreSystem`] — the fully wired N-slave platform: shared SRAM
//!   carved into per-slave bridge windows, one mailbox block and one
//!   [`Kernel`](ptest_pcore::Kernel) per slave, the multi-lane master
//!   port, and the master scheduler, all advanced in lock-step virtual
//!   time by [`MultiCoreSystem::step`]. Slaves can be coupled through
//!   cross-core semaphore hand-off links and SRAM-mirrored shared
//!   variables — the substrate of the multi-slave fault scenarios. Its
//!   default `n = 1` configuration is the original one-slave platform,
//!   with bit-identical behaviour.
//! * [`sched`] — schedule exploration: a [`Scheduler`] decides each
//!   cycle which of the runnable slave kernels execute a task cycle,
//!   both as a [`SlaveSet`] ([`MultiCoreSystem::step_explored`]).
//!   Lock-step remains the default; [`RandomPriorityScheduler`] performs
//!   a PCT-style seeded randomized-priority search over cross-core
//!   interleavings.
//! * [`mem`] — memory-model exploration: a [`MemoryModel`] replaces the
//!   sequentially-consistent shared-variable mirroring epoch
//!   ([`MultiCoreSystem::step_explored`]). Sequential consistency remains
//!   the default fast path; [`StoreBufferModel`] delays each store's
//!   visibility per observer off a memory seed, reaching reordering bugs
//!   the epoch hides by construction.
//! * [`preempt`] — the preemption/interrupt axis: quantum time slices
//!   inside each slave kernel, seeded per-slave clock skew, and a
//!   deterministic [`InterruptPlan`] injecting ISR events at
//!   schedule-controlled cycles ([`MultiCoreSystem::install_preemption`]).
//!   The inert default [`PreemptionSpec`] leaves the platform on the
//!   exact unpreempted path the golden fixtures pin.
//!
//! pTest's committer drives the system through
//! [`MultiCoreSystem::issue_to`]/[`MultiCoreSystem::drain_responses`];
//! scripted threads and the committer can coexist.
//!
//! ## Topology
//!
//! ```text
//!               ARM master (threads / committer)
//!                  │ MasterPort: one lane per slave
//!       ┌──────────┼─────────────┐
//!   mailboxes   mailboxes    mailboxes        (4 FIFOs per slave)
//!   SRAM win0   SRAM win1    SRAM win2        (cmd+resp rings each)
//!       │          │             │
//!    Kernel 0   Kernel 1      Kernel 2        (pCore per slave)
//!       └── sem links / shared vars ──┘       (cross-core coupling)
//! ```
//!
//! ## Example
//!
//! ```
//! use ptest_master::{MasterOp, MultiCoreSystem, SystemConfig};
//! use ptest_pcore::{Priority, Program, SvcRequest};
//!
//! let mut sys = MultiCoreSystem::new(SystemConfig::default());
//! let prog = sys.kernel_of_mut(0).register_program(Program::exit_immediately());
//! sys.add_thread(
//!     "M1",
//!     vec![
//!         MasterOp::IssueAndWait(SvcRequest::Create {
//!             program: prog,
//!             priority: Priority::new(5),
//!             stack_bytes: None,
//!         }),
//!         MasterOp::Done,
//!     ],
//! );
//! assert!(sys.run_until_quiescent(10_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod mem;
pub mod preempt;
pub mod sched;
mod system;
#[cfg(test)]
pub(crate) mod testsupport;
mod thread;

pub use event::MasterEvent;
pub use mem::{
    IdleHorizon, MemoryModel, MemoryModelSpec, SharedVarBus, StoreBufferConfig, StoreBufferModel,
};
pub use preempt::{
    ClockSkewConfig, InterruptConfig, InterruptEvent, InterruptPlan, PreemptionSpec, QuantumConfig,
};
pub use sched::{
    LockStepScheduler, RandomPriorityConfig, RandomPriorityScheduler, ScheduleSpec, Scheduler,
};
pub use system::{
    CouplingError, MultiCoreSystem, SemLink, SharedVar, SlaveSet, SnapshotCache, SystemConfig,
    Window,
};
pub use thread::{MasterOp, MasterThread, ThreadId, ThreadState};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::MultiCoreSystem>();
        assert_send_sync::<super::MasterThread>();
    }
}
