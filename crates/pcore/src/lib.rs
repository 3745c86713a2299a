//! # ptest-pcore — a simulator of the pCore microkernel
//!
//! pCore is the runtime system of the pTest paper: a microkernel for the
//! DSP (slave) core of an embedded multicore SoC, providing preemptive
//! priority-based scheduling of up to 16 tasks, the six task-management
//! kernel services of the paper's Table I, counting semaphores and
//! mutexes, and a garbage-collected kernel heap.
//!
//! This crate reproduces pCore as a deterministic simulator:
//!
//! * [`Kernel`] — the kernel itself, advanced one cycle at a time by
//!   [`Kernel::tick`] and commanded remotely through [`Kernel::dispatch`].
//! * [`Service`] — the Table I service set (`TC`, `TD`, `TS`, `TR`, `TCH`,
//!   `TY`), which is also the alphabet of the PFA the pattern generator
//!   walks.
//! * [`Program`]/[`Op`] — the *work-model ISA*: task code is expressed as
//!   a small instruction set capturing compute, heap, stack, shared-
//!   variable and synchronization behaviour (see [`program`] for why).
//! * [`Heap`]/[`GcFaultMode`] — the garbage-collected kernel heap with
//!   injectable GC defects, reproducing case study 1's "failure of
//!   garbage collection" crash.
//! * [`workloads`] — canonical workloads (the paper's 128-element
//!   quick-sort, alloc churn, compute loops).
//!
//! ## Example: boot a kernel, run a task
//!
//! ```
//! use ptest_pcore::{Kernel, KernelConfig, Priority, SvcRequest, SvcReply, TickOutcome};
//! use ptest_pcore::workloads::{quicksort, QuicksortSpec};
//! use ptest_soc::Cycles;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut kernel = Kernel::new(KernelConfig::default());
//! let (program, _profile) = quicksort(QuicksortSpec::paper(42));
//! let pid = kernel.register_program(program);
//! let reply = kernel.dispatch(
//!     SvcRequest::Create { program: pid, priority: Priority::new(5), stack_bytes: None },
//!     Cycles::ZERO,
//! )?;
//! assert!(matches!(reply, SvcReply::Created(_)));
//! for i in 1..100_000u64 {
//!     if kernel.tick(Cycles::new(i)) == TickOutcome::Idle {
//!         break;
//!     }
//! }
//! assert_eq!(kernel.live_task_count(), 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heap;
mod ids;
mod kernel;
pub mod program;
mod services;
mod sync;
mod task;
pub mod workloads;

pub use heap::{BlockHandle, GcFaultMode, Heap, HeapError, HeapStats, Owner};
pub use ids::{MutexId, Priority, SemId, TaskId, VarId};
pub use kernel::{
    Context, Kernel, KernelConfig, KernelEvent, KernelPanic, KernelSnapshot, ProgramId,
    ResourceRef, SteadyWindow, SvcError, SvcReply, SvcRequest, TaskSnapshot, TickOutcome, Trap,
    WaitEdge,
};
pub use program::{Op, Program, ProgramBuilder, ProgramError, Reg, NUM_REGS};
pub use services::{ParseServiceError, Service};
pub use sync::{KernelMutex, LockOutcome, Semaphore};
pub use task::{ExitKind, TaskFault, TaskState, Tcb, WaitReason};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::Kernel>();
        assert_send_sync::<super::KernelSnapshot>();
        assert_send_sync::<super::Program>();
        assert_send_sync::<super::SvcError>();
    }
}
