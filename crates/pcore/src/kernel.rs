//! The pCore kernel simulator.
//!
//! This is the *slave system* of the paper: a microkernel for the DSP core
//! providing preemptive priority-based scheduling of up to 16 tasks, the
//! six task-management services of Table I, counting semaphores and
//! mutexes, and a garbage-collected kernel heap.
//!
//! The kernel is advanced in single-instruction steps by [`Kernel::tick`];
//! remote commands from the master arrive through [`Kernel::dispatch`]
//! (called by the bridge's interrupt handler). Both are fully
//! deterministic.
//!
//! One interpreter runs every cycle in one of two contexts: a scheduled
//! task, or the interrupt-service routine ([`Kernel::set_isr_program`]).
//! The ISR has its own register frame and runs above every task
//! priority. Ops only a task may execute (heap, stack probe, yield,
//! sleep, semaphore wait, mutexes) abort it, and it traces its stores
//! only.
//!
//! Tasks that poll in side-effect-free loops (over registers and shared
//! variables, see [`Op::is_side_effect_free`]), possibly yielding
//! between polls, change nothing but their own frames, sleeps and the
//! kernel's counters and trace, one rotation of the kernel like the
//! next. [`Kernel::fast_forward`] advances such a *steady* kernel by
//! whole rotations in closed form, exactly as the same number of
//! [`Kernel::tick`]s would.

use std::fmt;

use ptest_soc::{CoreId, Cycles, TraceBuffer};

use crate::heap::{BlockHandle, GcFaultMode, Heap, HeapError, HeapStats, Owner};
use crate::ids::{MutexId, Priority, SemId, TaskId, VarId};
use crate::program::{Op, Program, NUM_REGS};
use crate::services::Service;
use crate::sync::{KernelMutex, LockOutcome, Semaphore};
use crate::task::{ExitKind, SteadyBody, TaskFault, TaskState, Tcb, WaitReason};

mod event;
mod rotation;

pub use event::KernelEvent;
pub use rotation::SteadyWindow;
use rotation::{slice_after, Rotation, RotationMemo, STEADY_MAX_OPS};

/// Identifies a program registered with the kernel's code registry.
///
/// On real hardware the task entry points already live in DSP memory; the
/// master names them by index when creating tasks. The registry plays that
/// role here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgramId(pub u16);

impl fmt::Display for ProgramId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prog{}", self.0)
    }
}

/// Static configuration of a kernel instance.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Maximum concurrent tasks (pCore supports 16).
    pub max_tasks: usize,
    /// Kernel heap arena size in bytes.
    pub heap_bytes: u32,
    /// Default task stack size (the paper's experiments use 512 bytes).
    pub default_stack_bytes: u32,
    /// Bytes charged per task control block.
    pub tcb_bytes: u32,
    /// Number of shared variables.
    pub num_vars: usize,
    /// Injected garbage-collector fault.
    pub gc_fault: GcFaultMode,
    /// Most events the kernel trace ring keeps: a bound on the ring, not
    /// a reservation (it grows as events arrive). A trial that captures
    /// its trace keeps this many; one that does not keeps only the
    /// detector's trace tail, when that is fewer
    /// (`ptest_core::uncaptured_system`).
    pub trace_capacity: usize,
    /// Cycles a `Yield` keeps the task off the core, giving lower-priority
    /// tasks a chance to run (models pCore's cooperative `yield()`).
    pub yield_delay: u32,
    /// Trace shared-variable accesses, fences and semaphore operations
    /// (`var-read`/`var-write`/`fence`/`sem-wait`/`sem-post` events).
    /// Off by default: the per-access `String` formatting is measurable
    /// on the trial hot path, and the extra events would churn the ring
    /// ahead of the historical trace tails. Root-cause replays of
    /// minimized reproducers turn it on to reconstruct the cross-core
    /// interleaving window around a failure. Of the side-effect-free ops
    /// only `ReadVar` traces, so only a loop with no traced `ReadVar` in
    /// its body stays steady ([`Kernel::in_steady_loop`]) under it.
    pub trace_accesses: bool,
}

impl KernelConfig {
    /// pCore's task limit on the OMAP5912.
    pub const MAX_TASKS_PCORE: usize = 16;
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig {
            max_tasks: Self::MAX_TASKS_PCORE,
            heap_bytes: 64 * 1024,
            default_stack_bytes: 512,
            tcb_bytes: 64,
            num_vars: 32,
            gc_fault: GcFaultMode::None,
            trace_capacity: TraceBuffer::<KernelEvent>::DEFAULT_CAPACITY,
            yield_delay: 2,
            trace_accesses: false,
        }
    }
}

/// A fatal kernel condition; after a panic the kernel refuses all work.
///
/// This models the *crash of the slave system* that pTest's first case
/// study detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPanic {
    /// The heap could not satisfy an allocation even after garbage
    /// collection (case study 1's "failure of garbage collection").
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: u32,
    },
}

impl fmt::Display for KernelPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelPanic::OutOfMemory { requested } => {
                write!(
                    f,
                    "kernel panic: out of memory ({requested} bytes requested)"
                )
            }
        }
    }
}

/// A remote service request, as decoded by the bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcRequest {
    /// `task_create`: start `program` at `priority`.
    Create {
        /// Registered program to run.
        program: ProgramId,
        /// Unique priority for the new task.
        priority: Priority,
        /// Stack size override (`None` = config default).
        stack_bytes: Option<u32>,
    },
    /// `task_delete`.
    Delete {
        /// Target task.
        task: TaskId,
    },
    /// `task_suspend`.
    Suspend {
        /// Target task.
        task: TaskId,
    },
    /// `task_resume`.
    Resume {
        /// Target task.
        task: TaskId,
    },
    /// `task_chanprio`.
    ChangePriority {
        /// Target task.
        task: TaskId,
        /// New unique priority.
        priority: Priority,
    },
    /// `task_yield`: ask the task to terminate at its next dispatch.
    Yield {
        /// Target task.
        task: TaskId,
    },
    /// Debug: read a shared variable (used by the bug detector).
    PeekVar {
        /// Variable to read.
        var: VarId,
    },
    /// Debug: write a shared variable (used by scenario setup).
    PokeVar {
        /// Variable to write.
        var: VarId,
        /// Value to store.
        value: i64,
    },
}

impl SvcRequest {
    /// The Table I service this request corresponds to (`None` for the
    /// debug peek/poke requests).
    #[must_use]
    pub fn service(&self) -> Option<Service> {
        match self {
            SvcRequest::Create { .. } => Some(Service::Create),
            SvcRequest::Delete { .. } => Some(Service::Delete),
            SvcRequest::Suspend { .. } => Some(Service::Suspend),
            SvcRequest::Resume { .. } => Some(Service::Resume),
            SvcRequest::ChangePriority { .. } => Some(Service::ChangePriority),
            SvcRequest::Yield { .. } => Some(Service::Yield),
            SvcRequest::PeekVar { .. } | SvcRequest::PokeVar { .. } => None,
        }
    }

    /// The task this request targets, if any.
    #[must_use]
    pub fn target(&self) -> Option<TaskId> {
        match self {
            SvcRequest::Delete { task }
            | SvcRequest::Suspend { task }
            | SvcRequest::Resume { task }
            | SvcRequest::ChangePriority { task, .. }
            | SvcRequest::Yield { task } => Some(*task),
            _ => None,
        }
    }
}

/// Successful reply to a service request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcReply {
    /// `task_create` succeeded; the new task occupies this slot.
    Created(TaskId),
    /// The request completed with no payload.
    Done,
    /// `PeekVar` result.
    Value(i64),
}

/// Error reply to a service request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvcError {
    /// All task slots hold live tasks (pCore's 16-task limit).
    NoFreeSlot,
    /// Another live task already uses this priority.
    PriorityInUse(Priority),
    /// The slot has never held a task.
    NoSuchTask(TaskId),
    /// The slot's task has terminated.
    TaskNotLive(TaskId),
    /// `task_suspend` on an already-suspended task.
    AlreadySuspended(TaskId),
    /// `task_resume` on a task that is not suspended (the paper: resume
    /// "can be performed only when the corresponding task is suspended").
    NotSuspended(TaskId),
    /// The named program was never registered.
    NoSuchProgram(ProgramId),
    /// The named shared variable does not exist.
    NoSuchVar(VarId),
    /// The kernel has panicked and refuses all requests.
    KernelPanicked,
}

impl fmt::Display for SvcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvcError::NoFreeSlot => write!(f, "no free task slot"),
            SvcError::PriorityInUse(p) => write!(f, "priority {p} already in use"),
            SvcError::NoSuchTask(t) => write!(f, "no such task {t}"),
            SvcError::TaskNotLive(t) => write!(f, "task {t} is not live"),
            SvcError::AlreadySuspended(t) => write!(f, "task {t} already suspended"),
            SvcError::NotSuspended(t) => write!(f, "task {t} not suspended"),
            SvcError::NoSuchProgram(p) => write!(f, "no such program {p}"),
            SvcError::NoSuchVar(v) => write!(f, "no such variable {v}"),
            SvcError::KernelPanicked => write!(f, "kernel panicked"),
        }
    }
}

impl std::error::Error for SvcError {}

/// Result of one kernel tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// No runnable task this cycle.
    Idle,
    /// The given task consumed the cycle.
    Ran(TaskId),
    /// The interrupt-service routine consumed the cycle, preempting
    /// whatever task would otherwise have run.
    Isr,
    /// The kernel is dead; nothing ran.
    Panicked,
}

/// The register frame of an execution context: a task's, copied out of
/// its TCB for one cycle, or the interrupt-service routine's, which is
/// the only state an ISR owns.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    pc: u16,
    regs: [i64; NUM_REGS],
    compute_remaining: u64,
}

/// What executes a cycle: a scheduled task, or the ISR, which shares
/// the task ISA but runs above every task priority and cannot block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Context {
    /// The task executes.
    Task(TaskId),
    /// The interrupt-service routine executes.
    Isr,
}

impl Context {
    /// The running task; the ISR traps on ops only a task may execute.
    fn task(self) -> Result<TaskId, Trap> {
        match self {
            Context::Task(task) => Ok(task),
            Context::Isr => Err(Trap::InterruptContext),
        }
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Context::Task(task) => write!(f, "{task}"),
            Context::Isr => f.write_str("isr"),
        }
    }
}

/// How a context continues after a cycle that did not trap.
#[derive(Debug, Clone, Copy)]
enum Flow {
    /// The op retired; run on from the frame's pc.
    Continue,
    /// The op retired and the task blocks.
    Block(WaitReason),
    /// [`Op::Exit`]: the task terminates, or the ISR returns.
    Exit,
}

/// Why an op cannot retire. A trap faults a task and aborts the ISR,
/// which traces it ([`KernelEvent::IsrAbort`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// The op faults the task.
    Fault(TaskFault),
    /// The op names a variable the kernel does not have.
    BadVar,
    /// The op names a semaphore the kernel does not have.
    BadSemaphore,
    /// An op only a task may execute, met in interrupt context.
    InterruptContext,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Fault(fault) => write!(f, "{fault}"),
            Trap::BadVar => f.write_str("bad var"),
            Trap::BadSemaphore => f.write_str("bad semaphore"),
            Trap::InterruptContext => f.write_str("blocking op in interrupt context"),
        }
    }
}

/// A synchronization resource referenced by a wait edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceRef {
    /// A kernel mutex.
    Mutex(MutexId),
    /// A counting semaphore.
    Semaphore(SemId),
}

impl fmt::Display for ResourceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceRef::Mutex(m) => write!(f, "{m}"),
            ResourceRef::Semaphore(s) => write!(f, "{s}"),
        }
    }
}

/// One blocked-on edge of the wait-for graph: `waiter` waits for
/// `resource`, currently held by `holder` (mutexes only; semaphores have
/// no owner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked task.
    pub waiter: TaskId,
    /// What it waits on.
    pub resource: ResourceRef,
    /// Who currently holds the resource (mutexes only).
    pub holder: Option<TaskId>,
}

/// Point-in-time snapshot of one task, consumed by the bug detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSnapshot {
    /// Slot id.
    pub id: TaskId,
    /// Current priority.
    pub priority: Priority,
    /// Scheduling state.
    pub state: TaskState,
    /// TS/TR suspension flag.
    pub suspended: bool,
    /// Program counter.
    pub pc: u16,
    /// Instructions retired so far.
    pub ops_retired: u64,
    /// Mutexes held, in acquisition order.
    pub held_mutexes: Vec<MutexId>,
}

/// Point-in-time snapshot of the whole kernel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelSnapshot {
    /// Kernel's current virtual time.
    pub now: Cycles,
    /// Fatal condition, if the kernel has died.
    pub panic: Option<KernelPanic>,
    /// Every slot that has ever held a task (live or terminated).
    pub tasks: Vec<TaskSnapshot>,
    /// Heap statistics.
    pub heap: HeapStats,
    /// Blocked-on edges of the wait-for graph.
    pub wait_edges: Vec<WaitEdge>,
    /// Total kernel ticks executed.
    pub ticks: u64,
    /// Ticks with no runnable task.
    pub idle_ticks: u64,
    /// Context switches performed.
    pub ctx_switches: u64,
    /// Remote service requests dispatched.
    pub svc_count: u64,
}

impl KernelSnapshot {
    /// Number of live (non-terminated) tasks.
    #[must_use]
    pub fn live_tasks(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| !matches!(t.state, TaskState::Terminated(_)))
            .count()
    }
}

/// The pCore kernel simulator. See the [crate docs](crate) for the
/// slave-system overview.
#[derive(Debug, Clone)]
pub struct Kernel {
    cfg: KernelConfig,
    core: CoreId,
    tasks: Vec<Option<Tcb>>,
    programs: Vec<Program>,
    sems: Vec<Semaphore>,
    mutexes: Vec<KernelMutex>,
    vars: Vec<i64>,
    heap: Heap,
    current: Option<TaskId>,
    panic: Option<KernelPanic>,
    trace: TraceBuffer<KernelEvent>,
    now: Cycles,
    ticks: u64,
    idle_ticks: u64,
    ctx_switches: u64,
    svc_count: u64,
    pending_fences: u64,
    /// Monotonic change epoch: bumped by every mutation that can alter a
    /// [`KernelSnapshot`] beyond its pure time scalars (`now`, `ticks`,
    /// `idle_ticks`) — see [`Kernel::change_epoch`]. Pure idle ticks do
    /// not bump it.
    epoch: u64,
    /// Incrementally maintained [`Kernel::live_task_count`]: +1 on task
    /// creation, -1 when a live task terminates.
    live_count: usize,
    /// [`Kernel::var_write_count`].
    var_writes: u64,
    /// No sleeper's deadline is earlier than this (`u64::MAX` when none
    /// sleeps): lowered when a task blocks on a sleep, recomputed by the
    /// [`Kernel::tick`] that reaches it.
    next_wake: u64,
    /// Quantum length in executed cycles, or `None` for the classic
    /// run-to-block scheduler (the byte-identical fast path).
    quantum: Option<u32>,
    /// Executed cycles of the current task's time slice.
    slice_used: u32,
    /// Involuntary quantum-expiry switches performed.
    preemptions: u64,
    /// Program run in interrupt context, installed by the platform.
    isr_program: Option<ProgramId>,
    /// Active ISR execution frame, if an interrupt is being serviced.
    isr: Option<Frame>,
    /// Interrupts raised but not yet serviced.
    irq_pending: u32,
    /// Interrupt delivery disabled ([`Op::IrqMask`]).
    irq_masked: bool,
    /// Completed ISR activations.
    isr_runs: u64,
    /// Cycles consumed in interrupt context.
    isr_cycles: u64,
    /// [`Kernel::in_steady_loop`].
    steady: bool,
    memo: RotationMemo,
}

impl Kernel {
    /// Boots a kernel with the given configuration, running on the
    /// platform's original slave core, slave 0 ([`CoreId::Slave`]).
    #[must_use]
    pub fn new(cfg: KernelConfig) -> Kernel {
        Kernel::with_core(cfg, CoreId::Slave(0))
    }

    /// Boots a kernel bound to a specific slave core of an N-slave
    /// platform; the core id is stamped into every kernel trace event so
    /// multicore traces stay attributable.
    ///
    /// # Panics
    ///
    /// Panics if `core` is the master — pCore only runs on slave cores.
    #[must_use]
    pub fn with_core(cfg: KernelConfig, core: CoreId) -> Kernel {
        assert!(!core.is_master(), "pCore runs on slave cores only");
        let mut heap = Heap::new(cfg.heap_bytes);
        heap.set_fault_mode(cfg.gc_fault);
        Kernel {
            core,
            tasks: (0..cfg.max_tasks).map(|_| None).collect(),
            programs: Vec::new(),
            sems: Vec::new(),
            mutexes: Vec::new(),
            vars: vec![0; cfg.num_vars],
            heap,
            current: None,
            panic: None,
            trace: TraceBuffer::new(cfg.trace_capacity),
            now: Cycles::ZERO,
            ticks: 0,
            idle_ticks: 0,
            ctx_switches: 0,
            svc_count: 0,
            pending_fences: 0,
            epoch: 0,
            live_count: 0,
            var_writes: 0,
            next_wake: u64::MAX,
            quantum: None,
            slice_used: 0,
            preemptions: 0,
            isr_program: None,
            isr: None,
            irq_pending: 0,
            irq_masked: false,
            isr_runs: 0,
            isr_cycles: 0,
            steady: false,
            memo: RotationMemo::default(),
            cfg,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Registers a program in the code registry; tasks are created from
    /// the returned id.
    pub fn register_program(&mut self, program: Program) -> ProgramId {
        self.programs.push(program);
        ProgramId((self.programs.len() - 1) as u16)
    }

    /// Creates a counting semaphore with an initial count.
    pub fn create_semaphore(&mut self, initial: u32) -> SemId {
        self.sems.push(Semaphore::new(initial));
        SemId((self.sems.len() - 1) as u16)
    }

    /// Creates a mutex.
    pub fn create_mutex(&mut self) -> MutexId {
        self.mutexes.push(KernelMutex::new());
        MutexId((self.mutexes.len() - 1) as u16)
    }

    /// The slave core this kernel runs on.
    #[must_use]
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// A semaphore's current token count, or `None` for an unknown id.
    #[must_use]
    pub fn semaphore_count(&self, sem: SemId) -> Option<u32> {
        self.sems.get(usize::from(sem.0)).map(Semaphore::count)
    }

    /// Takes one token from a semaphore without blocking — the
    /// bridge/interrupt path used by cross-core semaphore hand-off, where
    /// nothing can be queued as a waiter. Returns `true` if a token was
    /// consumed. No-op (returns `false`) on a panicked kernel or an
    /// unknown semaphore.
    pub fn take_semaphore_token(&mut self, sem: SemId) -> bool {
        if self.panic.is_some() {
            return false;
        }
        self.sems
            .get_mut(usize::from(sem.0))
            .is_some_and(Semaphore::try_take)
    }

    /// Posts a semaphore from interrupt context (the cross-core hand-off
    /// path): increments the count or wakes the highest-priority waiter,
    /// exactly like a task-level `SemPost`. Returns `false` (and drops the
    /// token) on a panicked kernel or an unknown semaphore — a dead core
    /// cannot accept hand-offs.
    pub fn post_semaphore_external(&mut self, sem: SemId) -> bool {
        if self.panic.is_some() {
            return false;
        }
        let posted = self.post_and_wake(sem);
        if let Ok(Some(woken)) = posted {
            self.epoch += 1;
            self.trace.record(
                self.now,
                self.core,
                KernelEvent::ExternalPost { sem, woken },
            );
        }
        posted.is_ok()
    }

    /// Writes a shared variable directly (bridge/scenario convenience —
    /// the shared-SRAM mirroring path of multicore systems). Unknown
    /// variables are ignored.
    pub fn set_var(&mut self, var: VarId, value: i64) {
        if let Some(v) = self.vars.get_mut(usize::from(var.0)) {
            if self.cfg.trace_accesses && *v != value {
                self.trace
                    .record(self.now, self.core, KernelEvent::VarMirror { var, value });
            }
            *v = value;
            self.var_writes += 1;
        }
    }

    /// Number of variable writes this kernel has performed: task and ISR
    /// stores, `PokeVar` services and [`Kernel::set_var`]. While it
    /// stands still no variable can have changed, which lets the
    /// platform skip its shared-variable mirroring pass.
    #[must_use]
    pub fn var_write_count(&self) -> u64 {
        self.var_writes
    }

    /// The fatal condition, if the kernel has died.
    #[must_use]
    pub fn panic(&self) -> Option<KernelPanic> {
        self.panic
    }

    /// The kernel trace ring (appended by every service and scheduler
    /// decision).
    #[must_use]
    pub fn trace(&self) -> &TraceBuffer<KernelEvent> {
        &self.trace
    }

    /// Reads a shared variable directly (test/scenario convenience).
    #[must_use]
    pub fn var(&self, var: VarId) -> Option<i64> {
        self.vars.get(usize::from(var.0)).copied()
    }

    /// Drains the count of [`Op::Fence`] ops retired since the last
    /// call. Polled once per cycle by the platform's memory model;
    /// under sequential consistency nothing reads it and fences stay
    /// no-ops.
    pub fn take_fences(&mut self) -> u64 {
        std::mem::take(&mut self.pending_fences)
    }

    /// Number of live tasks. O(1): maintained incrementally on task
    /// creation and termination.
    #[must_use]
    pub fn live_task_count(&self) -> usize {
        self.live_count
    }

    /// The kernel's change epoch: a counter bumped by every mutation
    /// that can alter a [`KernelSnapshot`] beyond its pure time scalars
    /// (`now`, `ticks`, `idle_ticks`) — service dispatches, executed
    /// task cycles, sleeper wake-ups, external semaphore hand-offs,
    /// panics. Observers holding a snapshot taken at a given epoch can
    /// skip re-serializing a kernel whose epoch is unchanged and refresh
    /// just the scalars with [`Kernel::scalars_into`].
    #[must_use]
    pub fn change_epoch(&self) -> u64 {
        self.epoch
    }

    /// Earliest wake deadline among sleeping tasks, suspended sleepers
    /// included (their wake still flips the snapshot-visible state to
    /// `Ready`), or `None` when no task sleeps.
    #[must_use]
    pub fn next_sleeper_wake(&self) -> Option<u64> {
        self.tasks
            .iter()
            .flatten()
            .filter_map(|t| match t.state {
                TaskState::Blocked(WaitReason::Sleep { until }) => Some(until),
                _ => None,
            })
            .min()
    }

    /// Number of retired [`Op::Fence`]s not yet drained by the
    /// platform's memory model.
    #[must_use]
    pub fn pending_fence_count(&self) -> u64 {
        self.pending_fences
    }

    /// Refreshes only the pure time scalars of a cached snapshot — the
    /// fields an idle tick moves. Combined with [`Kernel::change_epoch`]
    /// this keeps a cached snapshot exactly equal to a fresh
    /// [`Kernel::snapshot_into`] while the epoch is unchanged.
    pub fn scalars_into(&self, snap: &mut KernelSnapshot) {
        snap.now = self.now;
        snap.ticks = self.ticks;
        snap.idle_ticks = self.idle_ticks;
    }

    /// Applies `count` consecutive ticks in closed form, leaving the
    /// kernel in exactly the state `count` calls of [`Kernel::tick`]
    /// would have produced, the last at `final_now`. Three windows
    /// qualify, and the caller must certify one of them:
    ///
    /// * An **idle** window, where no tick finds dispatchable work: the
    ///   tick and idle counters advance, no trace is recorded and the
    ///   change epoch stays put, just like real idle ticks.
    /// * A **steady loop** of at most [`Kernel::steady_window`] ticks,
    ///   in which one task keeps the core spinning in a side-effect-free
    ///   loop with no traced `ReadVar` in the body: such a window reads
    ///   no time, so any `final_now` is exact.
    /// * A **yielding rotation** of at most [`Kernel::steady_window`]
    ///   ticks, in which tasks poll and `Yield`, sleeping, waking and
    ///   switching: such a window
    ///   [reads time](SteadyWindow::reads_time), and `final_now` must be
    ///   `count` cycles past now.
    ///
    /// A steady window burns the running task's compute in progress,
    /// then advances the kernel by whole rotations arithmetically.
    /// Registers, instructions retired and cycles used move by `k` times
    /// their per-rotation change, and so do the kernel's ticks, idle
    /// ticks, context switches, preemptions and change epoch. Sleep
    /// deadlines and the cached earliest wake shift by `k` periods. The
    /// trace ring receives the last of the `k` rotations' scheduler
    /// events, at their own times, and counts the rest as dropped. Any
    /// remainder of less than one rotation runs through
    /// [`Kernel::tick`].
    ///
    /// On a panicked kernel only `now` moves, matching
    /// [`Kernel::tick`]'s early return.
    pub fn fast_forward(&mut self, count: u64, final_now: Cycles) {
        let mut memo = self.memo.take();
        let steady = self.rotation_into(&mut memo);
        let start = self.now.get();
        self.now = final_now;
        if self.panic.is_none() {
            if steady {
                self.advance(&memo.rot, count, start, final_now);
            } else {
                debug_assert!(!self.has_dispatchable_work(final_now), "not an idle window");
                self.ticks += count;
                self.idle_ticks += count;
            }
        }
        self.memo.restore(memo);
    }

    /// The steady window of [`Kernel::fast_forward`]: `count` ticks of
    /// `rot` from time `start`.
    fn advance(&mut self, rot: &Rotation, count: u64, start: u64, final_now: Cycles) {
        debug_assert!(count <= rot.window, "{count} ticks past {rot:?}");
        debug_assert!(
            !rot.yields || final_now.get() == start + count,
            "a rotation that reads time needs consecutive ticks"
        );
        let lead = rot.lead.min(count);
        if lead > 0 {
            let task = self.current.expect("a lead burns the running task");
            self.burn(task, lead);
        }
        let rotations = (count - lead) / rot.period;
        if rotations > 0 {
            self.apply_rotations(rot, rotations, start + lead);
        }
        let mut left = count - lead - rotations * rot.period;
        while left > 0 {
            let burning = self.current.filter(|&task| {
                !rot.yields && self.tcb(task).is_some_and(|t| t.compute_remaining > 0)
            });
            match burning {
                // One task holds the core: its compute burns in one go.
                Some(task) => {
                    let burn = self.running(task).compute_remaining.min(left);
                    self.burn(task, burn);
                    left -= burn;
                }
                None => {
                    self.tick(Cycles::new(final_now.get() - (left - 1)));
                    left -= 1;
                }
            }
        }
        self.now = final_now;
    }

    /// Whether the kernel may be steady: a task went round a loop body
    /// made only of [side-effect-free](Op::is_side_effect_free) ops and
    /// `Yield`s, with no traced `ReadVar` in the body
    /// ([`KernelConfig::trace_accesses`]), and since then every executed
    /// op stayed inside its
    /// task's body. A body that yields needs every other live task in a
    /// loop of its own or unable to run; one that does not must keep
    /// the core (under a quantum: alone). O(1): set at the back-edge
    /// and cleared by any other op, an interrupt, the running task's
    /// exit, and any idle tick or context switch that is not a yielding
    /// loop's own. A hint for when [`Kernel::steady_window`] is worth
    /// asking, which checks everything itself.
    #[must_use]
    pub fn in_steady_loop(&self) -> bool {
        self.steady
    }

    /// The bookkeeping of `cycles` ticks that each burn a cycle of
    /// `task`'s `Compute` in progress, `task` already current: ticks,
    /// the change epoch, the task's cycles and the time slice (renewed
    /// in place at each quantum expiry, as for a lone task).
    fn burn(&mut self, task: TaskId, cycles: u64) {
        self.ticks += cycles;
        self.epoch += cycles;
        self.slice_used = slice_after(self.slice_used, cycles, self.quantum);
        let t = self.running(task);
        t.cycles_used += cycles;
        t.compute_remaining -= cycles;
    }

    /// Whether a [`Kernel::tick`] at `now` could make task-level progress:
    /// a runnable task exists, a sleeper's deadline has passed so the
    /// tick would wake it, an ISR is mid-flight, or an unmasked interrupt
    /// is pending (the tick would enter its ISR). Schedule exploration
    /// uses this to tell which kernels are worth advancing — skipping a
    /// kernel for which this is `false` is observationally free (the tick
    /// would only bump idle counters). Always `false` on a panicked
    /// kernel.
    #[must_use]
    pub fn has_dispatchable_work(&self, now: Cycles) -> bool {
        if self.panic.is_some() {
            return false;
        }
        if self.isr.is_some() || (self.irq_pending > 0 && !self.irq_masked) {
            return true;
        }
        self.tasks.iter().flatten().any(|t| {
            t.is_runnable()
                || matches!(
                    t.state,
                    TaskState::Blocked(WaitReason::Sleep { until }) if until <= now.get()
                )
        })
    }

    /// Sets the scheduling quantum: `Some(q)` preempts the running task
    /// after `q` consecutive executed cycles, handing the core to the
    /// highest-priority *other* runnable task for the next slice; `None`
    /// (the default) restores the classic run-to-block behaviour, which
    /// is the byte-identical fast path golden fixtures pin.
    pub fn set_quantum(&mut self, quantum: Option<u32>) {
        self.quantum = quantum;
        self.slice_used = 0;
        self.memo.clear();
    }

    /// The active scheduling quantum, if any.
    #[must_use]
    pub fn quantum(&self) -> Option<u32> {
        self.quantum
    }

    /// Installs the program run in interrupt context. Until a handler is
    /// installed, [`Kernel::raise_interrupt`] is refused — a core with
    /// no ISR vector cannot take interrupts.
    pub fn set_isr_program(&mut self, program: ProgramId) {
        self.isr_program = Some(program);
    }

    /// The installed interrupt-service program, if any.
    #[must_use]
    pub fn isr_program(&self) -> Option<ProgramId> {
        self.isr_program
    }

    /// Queues one interrupt for this core (the platform's deterministic
    /// injection path). The ISR is entered at the next [`Kernel::tick`]
    /// with interrupts unmasked. Returns `false` — and drops the
    /// interrupt — on a panicked kernel or when no handler is installed.
    pub fn raise_interrupt(&mut self) -> bool {
        if self.panic.is_some() || self.isr_program.is_none() {
            return false;
        }
        self.irq_pending += 1;
        true
    }

    /// Interrupts raised but not yet serviced.
    #[must_use]
    pub fn irq_pending(&self) -> u32 {
        self.irq_pending
    }

    /// Whether interrupt delivery is currently masked ([`Op::IrqMask`]).
    #[must_use]
    pub fn irq_masked(&self) -> bool {
        self.irq_masked
    }

    /// Whether an ISR is mid-flight.
    #[must_use]
    pub fn isr_active(&self) -> bool {
        self.isr.is_some()
    }

    /// Completed ISR activations.
    #[must_use]
    pub fn isr_runs(&self) -> u64 {
        self.isr_runs
    }

    /// Cycles consumed in interrupt context.
    #[must_use]
    pub fn isr_cycles(&self) -> u64 {
        self.isr_cycles
    }

    /// Involuntary quantum-expiry switches performed.
    #[must_use]
    pub fn preemption_count(&self) -> u64 {
        self.preemptions
    }

    /// The state of a task slot, if it ever held a task.
    #[must_use]
    pub fn task_state(&self, task: TaskId) -> Option<TaskState> {
        self.tcb(task).map(|t| t.state)
    }

    /// Whether `task` is currently suspended.
    #[must_use]
    pub fn is_suspended(&self, task: TaskId) -> Option<bool> {
        self.tcb(task).map(|t| t.suspended)
    }

    fn tcb(&self, task: TaskId) -> Option<&Tcb> {
        self.tasks.get(task.index()).and_then(Option::as_ref)
    }

    fn tcb_mut(&mut self, task: TaskId) -> Option<&mut Tcb> {
        self.tasks.get_mut(task.index()).and_then(Option::as_mut)
    }

    fn live_tcb(&self, task: TaskId) -> Result<&Tcb, SvcError> {
        match self.tcb(task) {
            None => Err(SvcError::NoSuchTask(task)),
            Some(t) if !t.is_live() => Err(SvcError::TaskNotLive(task)),
            Some(t) => Ok(t),
        }
    }

    /// Handles a remote service request (called from the bridge's
    /// interrupt context).
    ///
    /// # Errors
    ///
    /// Any [`SvcError`]; the error is reported back to the master over the
    /// response mailbox and never kills the kernel (except that a panicked
    /// kernel answers everything with [`SvcError::KernelPanicked`]).
    pub fn dispatch(&mut self, req: SvcRequest, now: Cycles) -> Result<SvcReply, SvcError> {
        self.now = now;
        if self.panic.is_some() {
            return Err(SvcError::KernelPanicked);
        }
        self.svc_count += 1;
        self.epoch += 1;
        let result = self.dispatch_inner(req);
        self.trace
            .record(self.now, self.core, KernelEvent::Svc { req, result });
        result
    }

    fn dispatch_inner(&mut self, req: SvcRequest) -> Result<SvcReply, SvcError> {
        match req {
            SvcRequest::Create {
                program,
                priority,
                stack_bytes,
            } => self.svc_create(program, priority, stack_bytes),
            SvcRequest::Delete { task } => self.terminal_svc(task, ExitKind::Deleted),
            SvcRequest::Suspend { task } => {
                let t = self.live_tcb(task)?;
                if t.suspended {
                    return Err(SvcError::AlreadySuspended(task));
                }
                self.tcb_mut(task).expect("checked live").suspended = true;
                if self.current == Some(task) {
                    self.current = None;
                }
                Ok(SvcReply::Done)
            }
            SvcRequest::Resume { task } => {
                let t = self.live_tcb(task)?;
                if !t.suspended {
                    return Err(SvcError::NotSuspended(task));
                }
                self.tcb_mut(task).expect("checked live").suspended = false;
                Ok(SvcReply::Done)
            }
            SvcRequest::ChangePriority { task, priority } => {
                self.live_tcb(task)?;
                if self.priority_in_use(priority, Some(task)) {
                    return Err(SvcError::PriorityInUse(priority));
                }
                let t = self.tcb_mut(task).expect("checked live");
                t.priority = priority;
                for s in &mut self.sems {
                    s.reprioritize(task, priority);
                }
                for m in &mut self.mutexes {
                    m.reprioritize(task, priority);
                }
                Ok(SvcReply::Done)
            }
            SvcRequest::Yield { task } => {
                // A live task terminates at its next dispatch; a zombie
                // (already exited on its own) is simply reaped — remote
                // terminal commands legitimately race with self-exit.
                match self.tcb(task) {
                    None => Err(SvcError::NoSuchTask(task)),
                    Some(t) if t.is_live() => {
                        self.tcb_mut(task).expect("checked live").yield_requested = true;
                        Ok(SvcReply::Done)
                    }
                    Some(t) if !t.reaped => {
                        self.tcb_mut(task).expect("present").reaped = true;
                        Ok(SvcReply::Done)
                    }
                    Some(_) => Err(SvcError::TaskNotLive(task)),
                }
            }
            SvcRequest::PeekVar { var } => self
                .vars
                .get(usize::from(var.0))
                .copied()
                .map(SvcReply::Value)
                .ok_or(SvcError::NoSuchVar(var)),
            SvcRequest::PokeVar { var, value } => match self.vars.get_mut(usize::from(var.0)) {
                Some(slot) => {
                    *slot = value;
                    self.var_writes += 1;
                    Ok(SvcReply::Done)
                }
                None => Err(SvcError::NoSuchVar(var)),
            },
        }
    }

    /// `task_delete` (and, for zombies, `task_yield`): terminate a live
    /// task or reap an already-terminated one. Only a second terminal
    /// command on the same corpse is an error.
    fn terminal_svc(&mut self, task: TaskId, kind: ExitKind) -> Result<SvcReply, SvcError> {
        match self.tcb(task) {
            None => Err(SvcError::NoSuchTask(task)),
            Some(t) if t.is_live() => {
                self.terminate(task, kind);
                Ok(SvcReply::Done)
            }
            Some(t) if !t.reaped => {
                self.tcb_mut(task).expect("present").reaped = true;
                Ok(SvcReply::Done)
            }
            Some(_) => Err(SvcError::TaskNotLive(task)),
        }
    }

    fn priority_in_use(&self, priority: Priority, exclude: Option<TaskId>) -> bool {
        self.tasks
            .iter()
            .flatten()
            .any(|t| t.is_live() && t.priority == priority && Some(t.id) != exclude)
    }

    fn svc_create(
        &mut self,
        program: ProgramId,
        priority: Priority,
        stack_bytes: Option<u32>,
    ) -> Result<SvcReply, SvcError> {
        if self.live_task_count() >= self.cfg.max_tasks {
            return Err(SvcError::NoFreeSlot);
        }
        if self.priority_in_use(priority, None) {
            return Err(SvcError::PriorityInUse(priority));
        }
        let prog = self
            .programs
            .get(usize::from(program.0))
            .cloned()
            .ok_or(SvcError::NoSuchProgram(program))?;
        let slot = self
            .tasks
            .iter()
            .position(|t| t.as_ref().is_none_or(|t| !t.is_live()))
            .ok_or(SvcError::NoFreeSlot)?;
        let id = TaskId::new(slot as u8);
        let stack = stack_bytes.unwrap_or(self.cfg.default_stack_bytes);

        let tcb_block = self.kernel_alloc(self.cfg.tcb_bytes, Owner::Task(id))?;
        let stack_block = match self.kernel_alloc(stack, Owner::Task(id)) {
            Ok(b) => b,
            Err(e) => {
                // Roll back the TCB allocation if the panic path was not
                // taken (a panicked kernel keeps everything as-is for the
                // post-mortem dump).
                if self.panic.is_none() {
                    let _ = self.heap.free(tcb_block);
                }
                return Err(e);
            }
        };
        self.tasks[slot] = Some(Tcb {
            id,
            priority,
            state: TaskState::Ready,
            suspended: false,
            yield_requested: false,
            reaped: false,
            program: prog,
            pc: 0,
            regs: [0; NUM_REGS],
            compute_remaining: 0,
            stack_bytes: stack,
            stack_peak: 0,
            stack_block,
            tcb_block,
            ops_retired: 0,
            cycles_used: 0,
            held_mutexes: Vec::new(),
            steady_body: None,
        });
        self.live_count += 1;
        Ok(SvcReply::Created(id))
    }

    /// Allocates kernel-side memory, converting exhaustion into a kernel
    /// panic (the slave-system crash of case study 1).
    fn kernel_alloc(&mut self, bytes: u32, owner: Owner) -> Result<BlockHandle, SvcError> {
        match self.heap.alloc(bytes, owner) {
            Ok(b) => Ok(b),
            Err(HeapError::OutOfMemory { requested, .. }) => {
                self.panic = Some(KernelPanic::OutOfMemory { requested });
                self.trace
                    .record(self.now, self.core, KernelEvent::Panic { requested });
                Err(SvcError::KernelPanicked)
            }
            Err(e) => {
                // ZeroSized / bad handles cannot occur for kernel-computed
                // sizes; treat defensively as panic-free internal error.
                self.trace.record(self.now, self.core, KernelEvent::Heap(e));
                Err(SvcError::KernelPanicked)
            }
        }
    }

    fn terminate(&mut self, task: TaskId, kind: ExitKind) {
        // Remove from all wait queues.
        for s in &mut self.sems {
            s.remove_waiter(task);
        }
        let mut woken = Vec::new();
        for (i, m) in self.mutexes.iter_mut().enumerate() {
            m.remove_waiter(task);
            if let Some(next) = m.force_release(task) {
                woken.push((MutexId(i as u16), next));
            }
        }
        for (mid, next) in woken {
            self.grant_mutex(next, mid);
        }
        if let Some(t) = self.tcb_mut(task) {
            let was_live = t.is_live();
            t.state = TaskState::Terminated(kind);
            t.held_mutexes.clear();
            if was_live {
                self.live_count -= 1;
            }
        }
        if self.current == Some(task) {
            self.current = None;
            self.steady = false;
        }
        // The task's memory (TCB, stack, task allocations) becomes garbage
        // for the next GC pass — this is the churn that exposes the GC bug.
        let garbage = self.heap.mark_task_garbage(task);
        self.trace.record(
            self.now,
            self.core,
            KernelEvent::Terminated {
                task,
                exit: kind,
                garbage,
            },
        );
    }

    /// Makes `task` the owner of `mutex` after a handoff and unblocks it.
    fn grant_mutex(&mut self, task: TaskId, mutex: MutexId) {
        if let Some(t) = self.tcb_mut(task) {
            if matches!(t.state, TaskState::Blocked(WaitReason::Mutex(m)) if m == mutex) {
                t.state = TaskState::Ready;
            }
            t.held_mutexes.push(mutex);
        }
    }

    /// Kills `task` with the fault `trap` stands for.
    fn fault(&mut self, task: TaskId, trap: Trap) {
        let fault = match trap {
            Trap::Fault(fault) => fault,
            Trap::BadVar | Trap::BadSemaphore => TaskFault::BadObject,
            Trap::InterruptContext => unreachable!("only the ISR runs in interrupt context"),
        };
        self.trace
            .record(self.now, self.core, KernelEvent::Fault { task, fault });
        self.terminate(task, ExitKind::Faulted(fault));
    }

    fn pick_next(&self) -> Option<TaskId> {
        self.tasks
            .iter()
            .flatten()
            .filter(|t| t.is_runnable())
            .max_by_key(|t| t.priority)
            .map(|t| t.id)
    }

    /// [`Kernel::pick_next`] under quantum scheduling: the running task
    /// keeps the core until its slice of `quantum` executed cycles
    /// expires (preemption happens at slice boundaries, not the instant
    /// a higher priority becomes ready); on expiry the leader is demoted
    /// for one pick and the highest-priority *other* runnable task gets
    /// the next slice, falling back to a renewed slice when it is alone.
    fn pick_next_quantum(&mut self, quantum: u32) -> Option<TaskId> {
        let current_runnable = self
            .current
            .and_then(|c| self.tcb(c))
            .is_some_and(Tcb::is_runnable);
        if !current_runnable {
            return self.pick_next();
        }
        if self.slice_used < quantum {
            return self.current;
        }
        let demoted = self.current;
        let next = self
            .tasks
            .iter()
            .flatten()
            .filter(|t| t.is_runnable() && Some(t.id) != demoted)
            .max_by_key(|t| t.priority)
            .map(|t| t.id);
        match next {
            Some(next) => {
                self.preemptions += 1;
                self.trace
                    .record(self.now, self.core, KernelEvent::Preempt(next));
                Some(next)
            }
            None => {
                // Alone on the core: the slice renews in place.
                self.slice_used = 0;
                demoted
            }
        }
    }

    /// Wakes every sleeper whose deadline has passed. Scans the tasks
    /// only once the cached earliest deadline is reached.
    fn wake_sleepers(&mut self) -> bool {
        let now = self.now.get();
        if now < self.next_wake {
            debug_assert!(self.next_sleeper_wake().is_none_or(|at| at > now));
            return false;
        }
        let mut woke = false;
        let mut next_wake = u64::MAX;
        for t in self.tasks.iter_mut().flatten() {
            if let TaskState::Blocked(WaitReason::Sleep { until }) = t.state {
                if until <= now {
                    t.state = TaskState::Ready;
                    woke = true;
                } else {
                    next_wake = next_wake.min(until);
                }
            }
        }
        self.next_wake = next_wake;
        woke
    }

    /// Advances the kernel by one cycle of virtual time.
    pub fn tick(&mut self, now: Cycles) -> TickOutcome {
        self.now = now;
        if self.panic.is_some() {
            return TickOutcome::Panicked;
        }
        self.ticks += 1;
        if self.wake_sleepers() {
            self.epoch += 1;
        }

        // Interrupt entry: a pending, unmasked interrupt activates the
        // ISR frame, preempting whatever task would otherwise run. The
        // preempted task's slice is frozen, not consumed — it resumes
        // where it left off when the ISR exits.
        if self.isr.is_none() && self.irq_pending > 0 && !self.irq_masked {
            self.irq_pending -= 1;
            self.isr = Some(Frame::default());
            self.trace
                .record(self.now, self.core, KernelEvent::IsrEnter);
        }
        let ctx = if self.isr.is_some() {
            self.isr_cycles += 1;
            self.steady = false;
            Context::Isr
        } else {
            let picked = match self.quantum {
                Some(q) => self.pick_next_quantum(q),
                None => self.pick_next(),
            };
            let Some(next) = picked else {
                self.idle_ticks += 1;
                // A yielding loop's nap keeps the kernel steady.
                self.steady = self.steady
                    && self.tasks.iter().flatten().any(|t| {
                        matches!(t.state, TaskState::Blocked(WaitReason::Sleep { .. }))
                            && t.steady_body.is_some_and(|b| b.yields)
                    });
                return TickOutcome::Idle;
            };
            if self.current != Some(next) {
                self.ctx_switches += 1;
                // So does switching to a yielding loop.
                self.steady = self.steady
                    && self
                        .tcb(next)
                        .and_then(|t| t.steady_body)
                        .is_some_and(|b| b.yields);
                self.trace
                    .record(self.now, self.core, KernelEvent::Run(next));
                self.current = Some(next);
                self.slice_used = 0;
            }
            self.slice_used = self.slice_used.wrapping_add(1);
            Context::Task(next)
        };
        self.epoch += 1;
        self.run_cycle(ctx);
        match ctx {
            _ if self.panic.is_some() => TickOutcome::Panicked,
            Context::Isr => TickOutcome::Isr,
            Context::Task(task) => TickOutcome::Ran(task),
        }
    }

    /// Posts `sem`: increments its count, or hands the token to the
    /// highest-priority waiter, which becomes ready. Returns the woken
    /// task.
    fn post_and_wake(&mut self, sem: SemId) -> Result<Option<TaskId>, Trap> {
        let woken = self.semaphore(sem)?.post();
        if let Some(t) = woken.and_then(|w| self.tcb_mut(w)) {
            if t.state == TaskState::Blocked(WaitReason::Semaphore(sem)) {
                t.state = TaskState::Ready;
            }
        }
        Ok(woken)
    }

    /// Records `ctx`'s access event under
    /// [`trace_accesses`](KernelConfig::trace_accesses). The ISR traces
    /// its stores only. Inlined: untraced ops pay one flag test, no call.
    #[inline]
    fn trace_access(&mut self, ctx: Context, event: KernelEvent) {
        if self.cfg.trace_accesses
            && (ctx != Context::Isr || matches!(event, KernelEvent::VarWrite { .. }))
        {
            self.trace.record(self.now, self.core, event);
        }
    }

    fn semaphore(&mut self, sem: SemId) -> Result<&mut Semaphore, Trap> {
        self.sems
            .get_mut(usize::from(sem.0))
            .ok_or(Trap::BadSemaphore)
    }

    fn mutex(&mut self, mutex: MutexId) -> Result<&mut KernelMutex, Trap> {
        self.mutexes
            .get_mut(usize::from(mutex.0))
            .ok_or(Trap::Fault(TaskFault::BadObject))
    }

    fn read_var(&self, var: VarId) -> Result<i64, Trap> {
        self.vars
            .get(usize::from(var.0))
            .copied()
            .ok_or(Trap::BadVar)
    }

    fn write_var(&mut self, ctx: Context, var: VarId, value: i64) -> Result<(), Trap> {
        *self.vars.get_mut(usize::from(var.0)).ok_or(Trap::BadVar)? = value;
        self.var_writes += 1;
        self.trace_access(ctx, KernelEvent::VarWrite { ctx, var, value });
        Ok(())
    }

    fn running(&mut self, task: TaskId) -> &mut Tcb {
        self.tcb_mut(task).expect("scheduled task exists")
    }

    /// Executes one cycle of `ctx` (inlined into [`Kernel::tick`]): burns
    /// a cycle of a `Compute` in progress in place, or copies the frame
    /// out, executes one op on it and writes the result back.
    #[inline]
    fn run_cycle(&mut self, ctx: Context) {
        let mut frame = match ctx {
            Context::Task(task) => {
                let t = self.running(task);
                t.cycles_used += 1;
                if t.yield_requested {
                    self.terminate(task, ExitKind::Normal);
                    return;
                }
                if t.compute_remaining > 0 {
                    t.compute_remaining -= 1;
                    return;
                }
                Frame {
                    pc: t.pc,
                    regs: t.regs,
                    compute_remaining: 0,
                }
            }
            Context::Isr => {
                let isr = self
                    .isr
                    .as_mut()
                    .expect("ISR cycle without an active frame");
                if isr.compute_remaining > 0 {
                    isr.compute_remaining -= 1;
                    return;
                }
                *isr
            }
        };
        let flow = self.exec(ctx, &mut frame);
        self.write_back(ctx, frame, flow);
    }

    /// Fetches one op of `ctx` and executes it on `frame`, advancing the
    /// pc past it (or to a branch target). Says how the context
    /// continues.
    fn exec(&mut self, ctx: Context, frame: &mut Frame) -> Result<Flow, Trap> {
        let program = match ctx {
            Context::Task(task) => self.tcb(task).map(|t| &t.program),
            Context::Isr => self
                .isr_program
                .and_then(|p| self.programs.get(usize::from(p.0))),
        };
        let op = program.and_then(|p| p.op(frame.pc));
        let op = op.ok_or(Trap::Fault(TaskFault::PcOutOfRange))?;
        let at = frame.pc;
        if !(op.is_side_effect_free() || matches!(op, Op::Yield)) {
            self.steady = false;
        } else if self.steady {
            // Another task's loop may have made the kernel steady; this
            // one must run inside a loop of its own.
            self.steady = match ctx {
                Context::Task(task) => self
                    .tcb(task)
                    .is_some_and(|t| t.steady_body.is_some_and(|b| b.contains(at))),
                Context::Isr => false,
            };
        }
        frame.pc += 1;
        match op {
            Op::Compute(n) => frame.compute_remaining = u64::from(n.saturating_sub(1)),
            Op::Alloc { bytes, reg } => {
                let task = ctx.task()?;
                if bytes == 0 {
                    return Err(Trap::Fault(TaskFault::BadObject));
                }
                // Exhaustion panics the kernel instead; the write-back
                // then leaves the task as it was.
                if let Ok(handle) = self.kernel_alloc(bytes, Owner::Task(task)) {
                    frame.regs[usize::from(reg)] = i64::from(handle.raw());
                }
            }
            Op::Free { reg } => {
                ctx.task()?;
                let handle = u32::try_from(frame.regs[usize::from(reg)]).map(BlockHandle::from_raw);
                if !handle.is_ok_and(|h| self.heap.free(h).is_ok()) {
                    return Err(Trap::Fault(TaskFault::BadFree));
                }
            }
            Op::StackProbe(bytes) => {
                let t = self.running(ctx.task()?);
                t.stack_peak = t.stack_peak.max(bytes);
                if bytes > t.stack_bytes {
                    return Err(Trap::Fault(TaskFault::StackOverflow));
                }
            }
            Op::ReadVar { var, reg } => {
                let value = self.read_var(var)?;
                frame.regs[usize::from(reg)] = value;
                self.trace_access(ctx, KernelEvent::VarRead { ctx, var, value });
            }
            Op::WriteVar { var, value } => self.write_var(ctx, var, value)?,
            Op::WriteVarReg { var, reg } => {
                self.write_var(ctx, var, frame.regs[usize::from(reg)])?
            }
            Op::AddReg { reg, delta } => {
                let r = &mut frame.regs[usize::from(reg)];
                *r = r.wrapping_add(delta);
            }
            Op::BranchIfVarEq { var, value, target } => {
                if self.read_var(var)? == value {
                    frame.pc = target;
                }
            }
            Op::BranchIfRegEq { reg, value, target } => {
                if frame.regs[usize::from(reg)] == value {
                    frame.pc = target;
                }
            }
            Op::Jump(target) => frame.pc = target,
            Op::Fence => {
                // The kernel itself has no store buffer; it records the
                // fence for the platform's memory model to drain at the
                // end of the cycle. A no-op under sequential consistency.
                self.pending_fences += 1;
                self.trace_access(ctx, KernelEvent::Fence(ctx));
            }
            Op::Yield => {
                ctx.task()?;
                let until = self.now.get() + u64::from(self.cfg.yield_delay);
                return Ok(Flow::Block(WaitReason::Sleep { until }));
            }
            Op::SemWait(sem) => {
                let task = ctx.task()?;
                let priority = self.running(task).priority;
                let blocks = !self.semaphore(sem)?.wait(task, priority);
                self.trace_access(ctx, KernelEvent::SemWait { ctx, sem, blocks });
                if blocks {
                    return Ok(Flow::Block(WaitReason::Semaphore(sem)));
                }
            }
            Op::SemPost(sem) => {
                let woken = self.post_and_wake(sem)?;
                self.trace_access(ctx, KernelEvent::SemPost { ctx, sem, woken });
            }
            Op::MutexLock(mutex) => {
                let task = ctx.task()?;
                let priority = self.running(task).priority;
                match self.mutex(mutex)?.lock(task, priority) {
                    LockOutcome::Acquired => self.running(task).held_mutexes.push(mutex),
                    LockOutcome::MustBlock => {
                        self.trace
                            .record(self.now, self.core, KernelEvent::Block { task, mutex });
                        return Ok(Flow::Block(WaitReason::Mutex(mutex)));
                    }
                    LockOutcome::Recursive => return Err(Trap::Fault(TaskFault::RecursiveLock)),
                }
            }
            Op::MutexUnlock(mutex) => {
                let task = ctx.task()?;
                let next = self.mutex(mutex)?.unlock(task);
                let next = next.map_err(|()| Trap::Fault(TaskFault::UnlockNotOwner))?;
                self.running(task).held_mutexes.retain(|&h| h != mutex);
                if let Some(next) = next {
                    self.grant_mutex(next, mutex);
                }
            }
            Op::SleepFor(n) => {
                ctx.task()?;
                let until = self.now.get() + u64::from(n);
                return Ok(Flow::Block(WaitReason::Sleep { until }));
            }
            Op::IrqMask => {
                self.irq_masked = true;
                self.trace_access(ctx, KernelEvent::IrqMask(ctx));
            }
            Op::IrqUnmask => {
                self.irq_masked = false;
                self.trace_access(ctx, KernelEvent::IrqUnmask(ctx));
            }
            Op::Exit => return Ok(Flow::Exit),
        }
        if let Context::Task(task) = ctx {
            if frame.pc <= at {
                // A taken back-edge: the task enters (or goes round) a loop.
                let body = self.steady_body(task, frame.pc, at);
                self.running(task).steady_body = body;
                self.steady = body.is_some_and(|body| self.steadies_kernel(task, body));
            } else if self.steady {
                let t = self.running(task);
                if t.steady_body.is_some_and(|b| !b.contains(frame.pc)) {
                    t.steady_body = None;
                    self.steady = false;
                }
            }
        }
        Ok(Flow::Continue)
    }

    /// Whether `task`, running now under a quantum, keeps the core
    /// while nothing else changes: it is the only runnable task, whose
    /// slice renews in place.
    fn keeps_core(&self, task: TaskId) -> bool {
        self.tasks
            .iter()
            .flatten()
            .filter(|t| t.is_runnable())
            .all(|t| t.id == task)
    }

    /// The loop body `head..=tail` that `task`, running now, has just
    /// gone round, if it is a steady one: its ops are all
    /// side-effect-free or `Yield`, and none is a `ReadVar` that access
    /// tracing records (known when the task was already in this body).
    fn steady_body(&self, task: TaskId, head: u16, tail: u16) -> Option<SteadyBody> {
        let t = self.tcb(task)?;
        let body = match t.steady_body {
            Some(body) if (body.head, body.tail) == (head, tail) => body,
            _ => {
                if u64::from(tail - head) >= STEADY_MAX_OPS {
                    return None;
                }
                let mut yields = false;
                for pc in head..=tail {
                    match t.program.op(pc)? {
                        Op::Yield => yields = true,
                        Op::ReadVar { .. } if self.cfg.trace_accesses => return None,
                        op if op.is_side_effect_free() => {}
                        _ => return None,
                    }
                }
                SteadyBody { head, tail, yields }
            }
        };
        Some(body)
    }

    /// Whether `task`'s loop `body`, just gone round, makes the kernel
    /// steady. A loop that yields lets other tasks run, so they must all
    /// be in steady loops too or unable to run. A loop that does not
    /// yield must keep the core: under a quantum the task is alone;
    /// without one it is the highest-priority runnable task by
    /// construction.
    fn steadies_kernel(&self, task: TaskId, body: SteadyBody) -> bool {
        if body.yields {
            self.others_settled(task)
        } else {
            self.quantum.is_none() || self.keeps_core(task)
        }
    }

    /// Whether every live task but `task` is suspended, blocked on a
    /// semaphore or mutex, or in a steady loop of its own: a yielding
    /// loop beside a task doing anything else is not steady.
    fn others_settled(&self, task: TaskId) -> bool {
        self.tasks.iter().flatten().all(|t| {
            t.id == task
                || !t.is_live()
                || t.suspended
                || t.steady_body.is_some()
                || matches!(
                    t.state,
                    TaskState::Blocked(WaitReason::Semaphore(_) | WaitReason::Mutex(_))
                )
        })
    }

    /// Applies the outcome of `ctx`'s cycle: stores its frame, retires
    /// the op, blocks or ends the context. A cycle that panicked the
    /// kernel (heap exhaustion) leaves the context as it was, for the
    /// post-mortem dump.
    fn write_back(&mut self, ctx: Context, frame: Frame, flow: Result<Flow, Trap>) {
        if self.panic.is_some() {
            return;
        }
        let task = match (ctx, flow) {
            (Context::Task(task), Ok(Flow::Exit)) => return self.terminate(task, ExitKind::Normal),
            (Context::Task(task), Err(trap)) => return self.fault(task, trap),
            (Context::Task(task), Ok(_)) => task,
            (Context::Isr, Ok(Flow::Exit)) => return self.end_isr(KernelEvent::IsrExit),
            (Context::Isr, Err(trap)) => return self.end_isr(KernelEvent::IsrAbort(trap)),
            // The ISR cannot block: its blocking ops trap.
            (Context::Isr, Ok(_)) => {
                self.isr = Some(frame);
                return;
            }
        };
        let t = self.running(task);
        t.pc = frame.pc;
        t.regs = frame.regs;
        t.compute_remaining = frame.compute_remaining;
        t.ops_retired += 1;
        if let Ok(Flow::Block(reason)) = flow {
            t.state = TaskState::Blocked(reason);
            self.current = None;
            if let WaitReason::Sleep { until } = reason {
                self.next_wake = self.next_wake.min(until);
            }
        }
    }

    /// Ends the active ISR, tracing how.
    fn end_isr(&mut self, event: KernelEvent) {
        self.isr = None;
        self.isr_runs += 1;
        self.trace.record(self.now, self.core, event);
    }

    /// Blocked-on edges of the current wait-for graph.
    #[must_use]
    pub fn wait_edges(&self) -> Vec<WaitEdge> {
        let mut edges = Vec::new();
        self.wait_edges_into(&mut edges);
        edges
    }

    /// [`Kernel::wait_edges`] into a caller-owned buffer (cleared first).
    pub fn wait_edges_into(&self, edges: &mut Vec<WaitEdge>) {
        edges.clear();
        for t in self.tasks.iter().flatten() {
            match t.state {
                TaskState::Blocked(WaitReason::Mutex(m)) => {
                    let holder = self
                        .mutexes
                        .get(usize::from(m.0))
                        .and_then(KernelMutex::owner);
                    edges.push(WaitEdge {
                        waiter: t.id,
                        resource: ResourceRef::Mutex(m),
                        holder,
                    });
                }
                TaskState::Blocked(WaitReason::Semaphore(s)) => {
                    edges.push(WaitEdge {
                        waiter: t.id,
                        resource: ResourceRef::Semaphore(s),
                        holder: None,
                    });
                }
                _ => {}
            }
        }
    }

    /// A full point-in-time snapshot for the bug detector.
    #[must_use]
    pub fn snapshot(&self) -> KernelSnapshot {
        let mut snap = KernelSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// [`Kernel::snapshot`] into a caller-owned snapshot, reusing its
    /// task and wait-edge buffers. Observers polling every few hundred
    /// cycles (the bug detector) batch their per-kernel snapshots through
    /// this instead of allocating fresh vectors per call.
    pub fn snapshot_into(&self, snap: &mut KernelSnapshot) {
        snap.now = self.now;
        snap.panic = self.panic;
        snap.tasks.clear();
        snap.tasks
            .extend(self.tasks.iter().flatten().map(|t| TaskSnapshot {
                id: t.id,
                priority: t.priority,
                state: t.state,
                suspended: t.suspended,
                pc: t.pc,
                ops_retired: t.ops_retired,
                held_mutexes: t.held_mutexes.clone(),
            }));
        snap.heap = self.heap.stats();
        self.wait_edges_into(&mut snap.wait_edges);
        snap.ticks = self.ticks;
        snap.idle_ticks = self.idle_ticks;
        snap.ctx_switches = self.ctx_switches;
        snap.svc_count = self.svc_count;
    }

    /// Heap statistics (convenience over [`Kernel::snapshot`]).
    #[must_use]
    pub fn heap_stats(&self) -> HeapStats {
        self.heap.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::rotation::first_flip;
    use super::*;
    use crate::program::ProgramBuilder;
    use ptest_soc::TraceEvent;

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig::default())
    }

    fn exit_prog(k: &mut Kernel) -> ProgramId {
        k.register_program(Program::exit_immediately())
    }

    fn create(k: &mut Kernel, prog: ProgramId, prio: u8) -> TaskId {
        match k
            .dispatch(
                SvcRequest::Create {
                    program: prog,
                    priority: Priority::new(prio),
                    stack_bytes: None,
                },
                Cycles::ZERO,
            )
            .unwrap()
        {
            SvcReply::Created(t) => t,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    fn run(k: &mut Kernel, cycles: u64) {
        let start = k.now.get();
        for c in 0..cycles {
            k.tick(Cycles::new(start + c + 1));
        }
    }

    #[test]
    fn create_and_run_to_exit() {
        let mut k = kernel();
        let p = exit_prog(&mut k);
        let t = create(&mut k, p, 5);
        assert_eq!(k.live_task_count(), 1);
        run(&mut k, 5);
        assert_eq!(
            k.task_state(t),
            Some(TaskState::Terminated(ExitKind::Normal))
        );
        assert_eq!(k.live_task_count(), 0);
    }

    #[test]
    fn sixteen_task_limit_enforced() {
        let mut k = kernel();
        // A program that never exits, so slots stay occupied.
        let p = k.register_program(Program::new(vec![Op::Jump(0)]).unwrap());
        for i in 0..16 {
            create(&mut k, p, i + 1);
        }
        let err = k
            .dispatch(
                SvcRequest::Create {
                    program: p,
                    priority: Priority::new(100),
                    stack_bytes: None,
                },
                Cycles::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, SvcError::NoFreeSlot);
    }

    #[test]
    fn unique_priorities_enforced() {
        let mut k = kernel();
        let p = k.register_program(Program::new(vec![Op::Jump(0)]).unwrap());
        create(&mut k, p, 7);
        let err = k
            .dispatch(
                SvcRequest::Create {
                    program: p,
                    priority: Priority::new(7),
                    stack_bytes: None,
                },
                Cycles::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, SvcError::PriorityInUse(Priority::new(7)));
    }

    #[test]
    fn fence_ops_retire_and_accumulate_for_the_platform() {
        let mut k = kernel();
        let p = k.register_program(Program::new(vec![Op::Fence, Op::Fence, Op::Exit]).unwrap());
        create(&mut k, p, 5);
        run(&mut k, 10);
        assert_eq!(k.live_task_count(), 0, "fences must not block the task");
        assert_eq!(k.take_fences(), 2);
        assert_eq!(k.take_fences(), 0, "the counter drains on read");
    }

    #[test]
    fn highest_priority_task_runs() {
        let mut k = kernel();
        let p = k.register_program(Program::new(vec![Op::Compute(1000), Op::Exit]).unwrap());
        let low = create(&mut k, p, 1);
        let high = create(&mut k, p, 9);
        run(&mut k, 10);
        let snap = k.snapshot();
        let high_cycles = snap
            .tasks
            .iter()
            .find(|t| t.id == high)
            .unwrap()
            .ops_retired;
        let low_cycles = snap.tasks.iter().find(|t| t.id == low).unwrap().ops_retired;
        assert!(high_cycles > 0);
        assert_eq!(low_cycles, 0, "low-priority task must not run");
    }

    #[test]
    fn suspend_resume_legality() {
        let mut k = kernel();
        let p = k.register_program(Program::new(vec![Op::Jump(0)]).unwrap());
        let t = create(&mut k, p, 5);
        assert_eq!(
            k.dispatch(SvcRequest::Resume { task: t }, Cycles::ZERO),
            Err(SvcError::NotSuspended(t))
        );
        k.dispatch(SvcRequest::Suspend { task: t }, Cycles::ZERO)
            .unwrap();
        assert_eq!(
            k.dispatch(SvcRequest::Suspend { task: t }, Cycles::ZERO),
            Err(SvcError::AlreadySuspended(t))
        );
        k.dispatch(SvcRequest::Resume { task: t }, Cycles::ZERO)
            .unwrap();
        assert_eq!(k.is_suspended(t), Some(false));
    }

    #[test]
    fn suspended_task_does_not_run() {
        let mut k = kernel();
        let p = k.register_program(Program::new(vec![Op::Compute(1000), Op::Exit]).unwrap());
        let t = create(&mut k, p, 5);
        k.dispatch(SvcRequest::Suspend { task: t }, Cycles::ZERO)
            .unwrap();
        run(&mut k, 10);
        let snap = k.snapshot();
        assert_eq!(snap.tasks[0].ops_retired, 0);
        assert_eq!(snap.idle_ticks, 10);
    }

    #[test]
    fn remote_yield_terminates_at_next_dispatch() {
        let mut k = kernel();
        let p = k.register_program(Program::new(vec![Op::Jump(0)]).unwrap());
        let t = create(&mut k, p, 5);
        run(&mut k, 3);
        k.dispatch(SvcRequest::Yield { task: t }, Cycles::new(3))
            .unwrap();
        run(&mut k, 2);
        assert_eq!(
            k.task_state(t),
            Some(TaskState::Terminated(ExitKind::Normal))
        );
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut k = kernel();
        let p = k.register_program(Program::new(vec![Op::Jump(0)]).unwrap());
        let t = create(&mut k, p, 5);
        k.dispatch(SvcRequest::Delete { task: t }, Cycles::ZERO)
            .unwrap();
        assert_eq!(k.live_task_count(), 0);
        let t2 = create(&mut k, p, 6);
        assert_eq!(t2, t, "slot is reused");
    }

    #[test]
    fn delete_reaps_zombie_once() {
        let mut k = kernel();
        let p = exit_prog(&mut k);
        let t = create(&mut k, p, 5);
        run(&mut k, 5); // task exits on its own
                        // First terminal command reaps the zombie (delete racing with
                        // self-exit is legitimate)…
        assert_eq!(
            k.dispatch(SvcRequest::Delete { task: t }, Cycles::new(10)),
            Ok(SvcReply::Done)
        );
        // …a second one is an error.
        assert_eq!(
            k.dispatch(SvcRequest::Delete { task: t }, Cycles::new(11)),
            Err(SvcError::TaskNotLive(t))
        );
        assert_eq!(
            k.dispatch(
                SvcRequest::Delete {
                    task: TaskId::new(9)
                },
                Cycles::new(12)
            ),
            Err(SvcError::NoSuchTask(TaskId::new(9)))
        );
    }

    #[test]
    fn yield_reaps_zombie_once() {
        let mut k = kernel();
        let p = exit_prog(&mut k);
        let t = create(&mut k, p, 5);
        run(&mut k, 5);
        assert_eq!(
            k.dispatch(SvcRequest::Yield { task: t }, Cycles::new(10)),
            Ok(SvcReply::Done)
        );
        assert_eq!(
            k.dispatch(SvcRequest::Yield { task: t }, Cycles::new(11)),
            Err(SvcError::TaskNotLive(t))
        );
        // Non-terminal services never reap.
        let t2 = create(&mut k, p, 6);
        run(&mut k, 5);
        assert_eq!(
            k.dispatch(SvcRequest::Suspend { task: t2 }, Cycles::new(20)),
            Err(SvcError::TaskNotLive(t2))
        );
    }

    #[test]
    fn chanprio_respects_uniqueness_and_reorders() {
        let mut k = kernel();
        let p = k.register_program(Program::new(vec![Op::Compute(1000), Op::Exit]).unwrap());
        let a = create(&mut k, p, 2);
        let b = create(&mut k, p, 5);
        assert_eq!(
            k.dispatch(
                SvcRequest::ChangePriority {
                    task: a,
                    priority: Priority::new(5)
                },
                Cycles::ZERO
            ),
            Err(SvcError::PriorityInUse(Priority::new(5)))
        );
        k.dispatch(
            SvcRequest::ChangePriority {
                task: a,
                priority: Priority::new(9),
            },
            Cycles::ZERO,
        )
        .unwrap();
        run(&mut k, 4);
        let snap = k.snapshot();
        assert!(snap.tasks.iter().find(|t| t.id == a).unwrap().ops_retired > 0);
        assert_eq!(
            snap.tasks.iter().find(|t| t.id == b).unwrap().ops_retired,
            0
        );
    }

    #[test]
    fn mutex_blocking_and_handoff() {
        let mut k = kernel();
        let m = k.create_mutex();
        let prog = {
            let mut b = ProgramBuilder::new();
            b.push(Op::MutexLock(m));
            b.push(Op::Compute(10));
            b.push(Op::MutexUnlock(m));
            b.push(Op::Exit);
            k.register_program(b.build().unwrap())
        };
        let low = create(&mut k, prog, 1);
        run(&mut k, 3); // low acquires the mutex and starts computing
        let high = create(&mut k, prog, 9);
        run(&mut k, 2); // high preempts, tries to lock, blocks
        assert!(matches!(
            k.task_state(high),
            Some(TaskState::Blocked(WaitReason::Mutex(_)))
        ));
        let edges = k.wait_edges();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].waiter, high);
        assert_eq!(edges[0].holder, Some(low));
        run(&mut k, 40);
        assert!(matches!(k.task_state(high), Some(TaskState::Terminated(_))));
        assert!(matches!(k.task_state(low), Some(TaskState::Terminated(_))));
    }

    #[test]
    fn semaphore_producer_consumer() {
        let mut k = kernel();
        let s = k.create_semaphore(0);
        let consumer = {
            let mut b = ProgramBuilder::new();
            b.push(Op::SemWait(s));
            b.push(Op::Exit);
            k.register_program(b.build().unwrap())
        };
        let producer = {
            let mut b = ProgramBuilder::new();
            b.push(Op::Compute(5));
            b.push(Op::SemPost(s));
            b.push(Op::Exit);
            k.register_program(b.build().unwrap())
        };
        let c = create(&mut k, consumer, 9); // high priority: waits first
        let p = create(&mut k, producer, 1);
        run(&mut k, 30);
        assert!(matches!(
            k.task_state(c),
            Some(TaskState::Terminated(ExitKind::Normal))
        ));
        assert!(matches!(
            k.task_state(p),
            Some(TaskState::Terminated(ExitKind::Normal))
        ));
    }

    #[test]
    fn stack_overflow_faults_task() {
        let mut k = kernel();
        let p = k.register_program(Program::new(vec![Op::StackProbe(100_000), Op::Exit]).unwrap());
        let t = create(&mut k, p, 5);
        run(&mut k, 3);
        assert_eq!(
            k.task_state(t),
            Some(TaskState::Terminated(ExitKind::Faulted(
                TaskFault::StackOverflow
            )))
        );
        assert!(k.panic().is_none(), "task faults do not kill the kernel");
    }

    #[test]
    fn recursive_lock_faults_task() {
        let mut k = kernel();
        let m = k.create_mutex();
        let p = k.register_program(
            Program::new(vec![Op::MutexLock(m), Op::MutexLock(m), Op::Exit]).unwrap(),
        );
        let t = create(&mut k, p, 5);
        run(&mut k, 5);
        assert_eq!(
            k.task_state(t),
            Some(TaskState::Terminated(ExitKind::Faulted(
                TaskFault::RecursiveLock
            )))
        );
    }

    #[test]
    fn unlock_not_owner_faults_task() {
        let mut k = kernel();
        let m = k.create_mutex();
        let p = k.register_program(Program::new(vec![Op::MutexUnlock(m), Op::Exit]).unwrap());
        let t = create(&mut k, p, 5);
        run(&mut k, 3);
        assert_eq!(
            k.task_state(t),
            Some(TaskState::Terminated(ExitKind::Faulted(
                TaskFault::UnlockNotOwner
            )))
        );
    }

    #[test]
    fn gc_reclaims_dead_task_memory_under_churn() {
        let cfg = KernelConfig {
            heap_bytes: 4 * 1024,
            ..KernelConfig::default()
        };
        let mut k = Kernel::new(cfg);
        let p = exit_prog(&mut k);
        // 4 KB heap, each task needs 64 + 512 = 576 bytes. Creating and
        // completing 100 tasks requires GC to recycle memory.
        for i in 0..100 {
            let t = create(&mut k, p, (i % 200 + 1) as u8);
            run(&mut k, 4);
            assert!(
                matches!(k.task_state(t), Some(TaskState::Terminated(_))),
                "task {i} should have exited"
            );
        }
        assert!(k.panic().is_none());
        assert!(k.heap_stats().gc_runs > 0, "churn must have triggered GC");
    }

    #[test]
    fn gc_leak_fault_eventually_panics_kernel() {
        let cfg = KernelConfig {
            heap_bytes: 4 * 1024,
            gc_fault: GcFaultMode::LeakDeadBlocks { leak_every: 1 },
            ..KernelConfig::default()
        };
        let mut k = Kernel::new(cfg);
        let p = exit_prog(&mut k);
        let mut panicked_at = None;
        for i in 0..100u32 {
            let req = SvcRequest::Create {
                program: p,
                priority: Priority::new((i % 200 + 1) as u8),
                stack_bytes: None,
            };
            match k.dispatch(req, Cycles::new(u64::from(i) * 10)) {
                Ok(_) => run(&mut k, 4),
                Err(SvcError::KernelPanicked) => {
                    panicked_at = Some(i);
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        let at = panicked_at.expect("leaky GC must exhaust the 4 KB heap");
        assert!(at > 2, "should survive the first few tasks");
        assert!(matches!(k.panic(), Some(KernelPanic::OutOfMemory { .. })));
        // A dead kernel refuses everything.
        assert_eq!(
            k.dispatch(SvcRequest::PeekVar { var: VarId(0) }, Cycles::new(1)),
            Err(SvcError::KernelPanicked)
        );
        assert_eq!(k.tick(Cycles::new(1)), TickOutcome::Panicked);
    }

    #[test]
    fn peek_poke_vars() {
        let mut k = kernel();
        k.dispatch(
            SvcRequest::PokeVar {
                var: VarId(3),
                value: 42,
            },
            Cycles::ZERO,
        )
        .unwrap();
        assert_eq!(
            k.dispatch(SvcRequest::PeekVar { var: VarId(3) }, Cycles::ZERO),
            Ok(SvcReply::Value(42))
        );
        assert_eq!(
            k.dispatch(SvcRequest::PeekVar { var: VarId(999) }, Cycles::ZERO),
            Err(SvcError::NoSuchVar(VarId(999)))
        );
    }

    #[test]
    fn yield_lets_lower_priority_task_run() {
        let mut k = kernel();
        // High-priority task yields in a loop; low-priority must progress.
        let yielder = {
            let mut b = ProgramBuilder::new();
            b.bind("top");
            b.push(Op::Yield);
            b.jump_to("top");
            k.register_program(b.build().unwrap())
        };
        let worker = k.register_program(Program::new(vec![Op::Compute(20), Op::Exit]).unwrap());
        let _hi = create(&mut k, yielder, 9);
        let lo = create(&mut k, worker, 1);
        run(&mut k, 100);
        assert!(
            matches!(
                k.task_state(lo),
                Some(TaskState::Terminated(ExitKind::Normal))
            ),
            "low-priority worker should finish thanks to yields: {:?}",
            k.task_state(lo)
        );
    }

    #[test]
    fn deadlock_shows_in_wait_edges() {
        let mut k = kernel();
        let m0 = k.create_mutex();
        let m1 = k.create_mutex();
        let p01 = {
            let mut b = ProgramBuilder::new();
            b.push(Op::MutexLock(m0));
            b.push(Op::Yield);
            b.push(Op::MutexLock(m1));
            b.push(Op::Exit);
            k.register_program(b.build().unwrap())
        };
        let p10 = {
            let mut b = ProgramBuilder::new();
            b.push(Op::MutexLock(m1));
            b.push(Op::Yield);
            b.push(Op::MutexLock(m0));
            b.push(Op::Exit);
            k.register_program(b.build().unwrap())
        };
        create(&mut k, p01, 5);
        create(&mut k, p10, 6);
        run(&mut k, 50);
        let edges = k.wait_edges();
        assert_eq!(edges.len(), 2, "both tasks blocked: {edges:?}");
        // Each waits on a mutex held by the other: a 2-cycle.
        let holders: Vec<_> = edges.iter().filter_map(|e| e.holder).collect();
        assert_eq!(holders.len(), 2);
        assert_ne!(edges[0].waiter, edges[1].waiter);
    }

    #[test]
    fn delete_while_blocked_on_semaphore_cleans_wait_queue() {
        let mut k = kernel();
        let s = k.create_semaphore(0);
        let p = k.register_program(Program::new(vec![Op::SemWait(s), Op::Exit]).unwrap());
        let t = create(&mut k, p, 5);
        run(&mut k, 5); // t blocks on the semaphore
        assert!(matches!(
            k.task_state(t),
            Some(TaskState::Blocked(WaitReason::Semaphore(_)))
        ));
        k.dispatch(SvcRequest::Delete { task: t }, Cycles::new(10))
            .unwrap();
        assert_eq!(k.live_task_count(), 0);
        // A later post must not resurrect or wake the deleted task.
        let poster = k.register_program(Program::new(vec![Op::SemPost(s), Op::Exit]).unwrap());
        let t2 = create(&mut k, poster, 6);
        assert_eq!(t2, t, "the freed slot is reused");
        run(&mut k, 10);
        // The poster ran to completion: had the deleted task still been in
        // the wait queue, the post would have been consumed waking a
        // corpse; instead the semaphore keeps the count.
        assert!(matches!(
            k.task_state(t2),
            Some(TaskState::Terminated(ExitKind::Normal))
        ));
        assert_eq!(k.snapshot().wait_edges.len(), 0);
    }

    #[test]
    fn chanprio_reorders_mutex_wait_queue() {
        let mut k = kernel();
        let m = k.create_mutex();
        let holder = {
            let mut b = ProgramBuilder::new();
            b.push(Op::MutexLock(m));
            b.push(Op::Compute(200));
            b.push(Op::MutexUnlock(m));
            b.push(Op::Exit);
            k.register_program(b.build().unwrap())
        };
        let waiter = {
            let mut b = ProgramBuilder::new();
            b.push(Op::MutexLock(m));
            b.push(Op::WriteVar {
                var: VarId(0),
                value: 1,
            }) // mark who won
            .push(Op::MutexUnlock(m))
            .push(Op::Exit);
            k.register_program(b.build().unwrap())
        };
        let waiter2 = {
            let mut b = ProgramBuilder::new();
            b.push(Op::MutexLock(m));
            b.push(Op::WriteVar {
                var: VarId(0),
                value: 2,
            })
            .push(Op::MutexUnlock(m))
            .push(Op::Exit);
            k.register_program(b.build().unwrap())
        };
        // Low-prio holder runs first (alone), then two waiters block.
        let _h = create(&mut k, holder, 1);
        run(&mut k, 5);
        let w1 = create(&mut k, waiter, 10);
        let w2 = create(&mut k, waiter2, 20);
        run(&mut k, 10); // both block; w2 ahead (higher priority)
                         // Boost w1 above w2: the queue must reorder, so w1 wins the lock.
        k.dispatch(
            SvcRequest::ChangePriority {
                task: w1,
                priority: Priority::new(30),
            },
            Cycles::new(20),
        )
        .unwrap();
        run(&mut k, 400);
        assert!(matches!(k.task_state(w1), Some(TaskState::Terminated(_))));
        assert!(matches!(k.task_state(w2), Some(TaskState::Terminated(_))));
        assert_eq!(k.var(VarId(0)), Some(2), "w1 acquired first, w2 wrote last");
    }

    #[test]
    fn suspended_then_deleted_task_releases_mutex() {
        let mut k = kernel();
        let m = k.create_mutex();
        let p = k.register_program(
            Program::new(vec![Op::MutexLock(m), Op::Compute(1_000), Op::Exit]).unwrap(),
        );
        let t = create(&mut k, p, 5);
        run(&mut k, 5); // t holds the mutex
        k.dispatch(SvcRequest::Suspend { task: t }, Cycles::new(5))
            .unwrap();
        let p2 = k.register_program(
            Program::new(vec![Op::MutexLock(m), Op::MutexUnlock(m), Op::Exit]).unwrap(),
        );
        let t2 = create(&mut k, p2, 6);
        run(&mut k, 10);
        assert!(matches!(
            k.task_state(t2),
            Some(TaskState::Blocked(WaitReason::Mutex(_)))
        ));
        // Deleting the suspended holder hands the mutex to the waiter.
        k.dispatch(SvcRequest::Delete { task: t }, Cycles::new(20))
            .unwrap();
        run(&mut k, 20);
        assert!(matches!(
            k.task_state(t2),
            Some(TaskState::Terminated(ExitKind::Normal))
        ));
    }

    #[test]
    fn snapshot_counts_are_consistent() {
        let mut k = kernel();
        let p = exit_prog(&mut k);
        create(&mut k, p, 5);
        run(&mut k, 10);
        let s = k.snapshot();
        assert_eq!(s.ticks, 10);
        assert_eq!(s.svc_count, 1);
        assert!(s.idle_ticks > 0);
        assert_eq!(s.live_tasks(), 0);
        assert_eq!(s.tasks.len(), 1);
    }

    #[test]
    fn kernel_is_bound_to_a_core() {
        assert_eq!(kernel().core(), CoreId::Slave(0));
        let k = Kernel::with_core(KernelConfig::default(), CoreId::Slave(2));
        assert_eq!(k.core(), CoreId::Slave(2));
    }

    #[test]
    #[should_panic(expected = "slave cores only")]
    fn kernel_on_the_master_core_is_rejected() {
        let _ = Kernel::with_core(KernelConfig::default(), CoreId::Master);
    }

    #[test]
    fn external_semaphore_post_wakes_a_waiter() {
        let mut k = kernel();
        let s = k.create_semaphore(0);
        let p = k.register_program(Program::new(vec![Op::SemWait(s), Op::Exit]).unwrap());
        let t = create(&mut k, p, 5);
        run(&mut k, 5);
        assert!(matches!(
            k.task_state(t),
            Some(TaskState::Blocked(WaitReason::Semaphore(_)))
        ));
        assert!(k.post_semaphore_external(s));
        assert_eq!(k.task_state(t), Some(TaskState::Ready));
        run(&mut k, 10);
        assert!(matches!(
            k.task_state(t),
            Some(TaskState::Terminated(ExitKind::Normal))
        ));
        // Posting an unknown semaphore is a rejected no-op.
        assert!(!k.post_semaphore_external(SemId(99)));
    }

    #[test]
    fn external_token_take_mirrors_counts() {
        let mut k = kernel();
        let s = k.create_semaphore(2);
        assert_eq!(k.semaphore_count(s), Some(2));
        assert!(k.take_semaphore_token(s));
        assert!(k.take_semaphore_token(s));
        assert!(!k.take_semaphore_token(s), "count exhausted");
        assert_eq!(k.semaphore_count(s), Some(0));
        assert!(k.post_semaphore_external(s));
        assert_eq!(k.semaphore_count(s), Some(1));
        assert_eq!(k.semaphore_count(SemId(9)), None);
        assert!(!k.take_semaphore_token(SemId(9)));
    }

    #[test]
    fn set_var_writes_directly() {
        let mut k = kernel();
        k.set_var(VarId(3), -7);
        assert_eq!(k.var(VarId(3)), Some(-7));
        k.set_var(VarId(60_000), 1); // unknown var: ignored
        assert_eq!(k.var(VarId(60_000)), None);
    }

    fn ops_retired_of(k: &Kernel, t: TaskId) -> u64 {
        k.snapshot()
            .tasks
            .iter()
            .find(|s| s.id == t)
            .map(|s| s.ops_retired)
            .unwrap()
    }

    #[test]
    fn quantum_expiry_rotates_between_compute_bound_tasks() {
        let mut k = kernel();
        // A self-loop retires one op per executed cycle, so ops_retired
        // counts exactly the cycles each task got.
        let p = k.register_program(Program::new(vec![Op::Jump(0)]).unwrap());
        let low = create(&mut k, p, 1);
        let high = create(&mut k, p, 9);
        k.set_quantum(Some(4));
        run(&mut k, 16);
        // Two full rotations: 4 cycles high, 4 low, 4 high, 4 low.
        let high_cycles = ops_retired_of(&k, high);
        let low_cycles = ops_retired_of(&k, low);
        assert!(
            low_cycles > 0,
            "quantum expiry must hand the starved task a slice"
        );
        assert_eq!(high_cycles + low_cycles, 16);
        assert_eq!(high_cycles, low_cycles, "4-cycle slices alternate evenly");
        assert_eq!(
            k.preemption_count(),
            3,
            "three involuntary switches in 16 cycles"
        );
    }

    #[test]
    fn without_quantum_low_priority_task_starves() {
        let mut k = kernel();
        let p = k.register_program(Program::new(vec![Op::Compute(1000), Op::Exit]).unwrap());
        let low = create(&mut k, p, 1);
        create(&mut k, p, 9);
        run(&mut k, 16);
        assert_eq!(ops_retired_of(&k, low), 0);
        assert_eq!(k.preemption_count(), 0);
    }

    #[test]
    fn lone_task_renews_its_slice_in_place() {
        let mut k = kernel();
        let p = k.register_program(Program::new(vec![Op::Jump(0)]).unwrap());
        let t = create(&mut k, p, 5);
        k.set_quantum(Some(2));
        run(&mut k, 10);
        assert_eq!(ops_retired_of(&k, t), 10);
        assert_eq!(k.preemption_count(), 0, "no one to preempt for");
        assert_eq!(k.snapshot().ctx_switches, 1, "only the initial dispatch");
    }

    #[test]
    fn interrupt_runs_isr_and_preempted_task_resumes() {
        let mut k = kernel();
        let isr = k.register_program(
            Program::new(vec![
                Op::WriteVar {
                    var: VarId(0),
                    value: 99,
                },
                Op::Exit,
            ])
            .unwrap(),
        );
        let p = k.register_program(Program::new(vec![Op::Compute(100), Op::Exit]).unwrap());
        let t = create(&mut k, p, 5);
        k.set_isr_program(isr);
        run(&mut k, 3);
        let before = ops_retired_of(&k, t);
        assert!(k.raise_interrupt());
        run(&mut k, 2); // ISR: write + exit
        assert_eq!(k.var(VarId(0)), Some(99), "ISR write landed");
        assert_eq!(k.isr_runs(), 1);
        assert_eq!(k.isr_cycles(), 2);
        assert!(!k.isr_active());
        assert_eq!(
            ops_retired_of(&k, t),
            before,
            "preempted task must not retire ops while the ISR runs"
        );
        run(&mut k, 200);
        assert_eq!(
            k.task_state(t),
            Some(TaskState::Terminated(ExitKind::Normal)),
            "preempted task resumes and completes"
        );
    }

    #[test]
    fn interrupts_refused_without_a_handler() {
        let mut k = kernel();
        assert!(!k.raise_interrupt());
        assert_eq!(k.irq_pending(), 0);
    }

    #[test]
    fn irq_mask_defers_isr_until_unmask() {
        let mut k = kernel();
        let isr = k.register_program(
            Program::new(vec![
                Op::WriteVar {
                    var: VarId(0),
                    value: 1,
                },
                Op::Exit,
            ])
            .unwrap(),
        );
        // Mask, busy-spin a while, unmask, then exit.
        let p = k.register_program(
            Program::new(vec![
                Op::IrqMask,
                Op::Compute(10),
                Op::IrqUnmask,
                Op::Compute(5),
                Op::Exit,
            ])
            .unwrap(),
        );
        create(&mut k, p, 5);
        k.set_isr_program(isr);
        run(&mut k, 2); // executes IrqMask, starts Compute
        assert!(k.irq_masked());
        assert!(k.raise_interrupt());
        run(&mut k, 5);
        assert_eq!(k.var(VarId(0)), Some(0), "masked: ISR must not run yet");
        assert_eq!(k.irq_pending(), 1);
        run(&mut k, 20);
        assert_eq!(k.var(VarId(0)), Some(1), "unmask releases the queued irq");
        assert_eq!(k.irq_pending(), 0);
        assert_eq!(k.isr_runs(), 1);
    }

    #[test]
    fn pending_interrupt_counts_as_dispatchable_work() {
        let mut k = kernel();
        let isr = exit_prog(&mut k);
        assert!(!k.has_dispatchable_work(Cycles::new(5)));
        k.set_isr_program(isr);
        assert!(k.raise_interrupt());
        assert!(k.has_dispatchable_work(Cycles::new(5)));
        run(&mut k, 1); // services the (empty) ISR: Exit
        assert!(!k.has_dispatchable_work(Cycles::new(6)));
        assert_eq!(k.isr_runs(), 1);
    }

    #[test]
    fn blocking_op_in_isr_aborts_the_handler() {
        let mut k = kernel();
        let isr = k.register_program(Program::new(vec![Op::SleepFor(5), Op::Exit]).unwrap());
        k.set_isr_program(isr);
        assert!(k.raise_interrupt());
        run(&mut k, 3);
        assert!(!k.isr_active(), "blocking handler must be aborted");
        assert_eq!(k.isr_runs(), 1);
        let aborted = k.trace().iter().any(|e| {
            e.event == KernelEvent::IsrAbort(Trap::InterruptContext)
                && e.to_string()
                    .ends_with("isr] abort: blocking op in interrupt context")
        });
        assert!(aborted, "abort must be traced");
    }

    #[test]
    fn isr_sem_post_wakes_a_blocked_task() {
        let mut k = kernel();
        let s = k.create_semaphore(0);
        let isr = k.register_program(Program::new(vec![Op::SemPost(s), Op::Exit]).unwrap());
        let p = k.register_program(Program::new(vec![Op::SemWait(s), Op::Exit]).unwrap());
        let t = create(&mut k, p, 5);
        k.set_isr_program(isr);
        run(&mut k, 5);
        assert!(matches!(
            k.task_state(t),
            Some(TaskState::Blocked(WaitReason::Semaphore(_)))
        ));
        assert!(k.raise_interrupt());
        run(&mut k, 10);
        assert_eq!(
            k.task_state(t),
            Some(TaskState::Terminated(ExitKind::Normal)),
            "ISR post must wake the waiter"
        );
    }

    /// Whether two kernels are in exactly the same state: snapshot,
    /// change epoch, and everything else (frames, counters, time slice,
    /// trace) through `Debug`.
    fn assert_same(stepped: &Kernel, forwarded: &Kernel) {
        assert_eq!(stepped.snapshot(), forwarded.snapshot());
        assert_eq!(stepped.change_epoch(), forwarded.change_epoch());
        assert_eq!(format!("{stepped:?}"), format!("{forwarded:?}"));
    }

    /// Steps a clone of `k` through the first ticks of its steady
    /// `window` and asserts its turn: each task retires an op within
    /// every `turn` ticks, or retires none.
    fn assert_turns(k: &Kernel, window: SteadyWindow) {
        let ops =
            |k: &Kernel| -> Vec<u64> { k.tasks.iter().flatten().map(|t| t.ops_retired).collect() };
        let span = window.ticks.min(4 * window.turn);
        let mut k = k.clone();
        let mut prev = ops(&k);
        let mut last = vec![None; prev.len()];
        for tick in 1..=span {
            run(&mut k, 1);
            let now = ops(&k);
            for (i, last) in last.iter_mut().enumerate() {
                if now[i] != prev[i] {
                    let gap = tick - last.unwrap_or(0);
                    assert!(gap <= window.turn, "task {i} idle {gap} ticks: {window:?}");
                    *last = Some(tick);
                }
            }
            prev = now;
        }
        for (i, last) in last.iter().enumerate() {
            if let Some(last) = last {
                assert!(
                    span - last < window.turn,
                    "task {i} stopped at {last}: {window:?}"
                );
            }
        }
    }

    #[test]
    fn steady_spin_fast_forwards_to_its_exit_bound() {
        // The guarded races' bounded spin, abandoned by its peer: 30,000
        // four-cycle iterations, then the countdown branch flips.
        let mut b = ProgramBuilder::new();
        b.push(Op::AddReg {
            reg: 7,
            delta: 30_000,
        });
        b.bind("spin");
        b.branch_if_var_eq(VarId(9), 1, "go");
        b.push(Op::AddReg { reg: 7, delta: -1 });
        b.branch_if_reg_eq(7, 0, "give_up");
        b.jump_to("spin");
        b.bind("give_up");
        b.push(Op::Exit);
        b.bind("go");
        b.push(Op::Exit);
        let mut k = kernel();
        let p = k.register_program(b.build().unwrap());
        let t = create(&mut k, p, 5);
        run(&mut k, 5);
        assert!(k.in_steady_loop());
        let window = k
            .steady_window()
            .expect("an abandoned spin is steady")
            .ticks;
        assert!(window > 100_000, "{window}");
        let mut stepped = k.clone();
        run(&mut stepped, window);
        k.fast_forward(window, Cycles::new(5 + window));
        assert_same(&stepped, &k);
        // Past the bound the countdown branch flips and the task exits,
        // on the same cycle either way.
        run(&mut stepped, 8);
        run(&mut k, 8);
        assert_same(&stepped, &k);
        assert_eq!(
            k.task_state(t),
            Some(TaskState::Terminated(ExitKind::Normal))
        );
        assert!(!k.in_steady_loop());
    }

    #[test]
    fn access_tracing_keeps_only_read_spins_stepped() {
        let traced = || {
            Kernel::new(KernelConfig {
                trace_accesses: true,
                ..KernelConfig::default()
            })
        };
        // A spin that reads the variable into a register traces every
        // read, so it is not steady under tracing.
        let read_spin = Program::new(vec![
            Op::ReadVar {
                var: VarId(9),
                reg: 0,
            },
            Op::BranchIfRegEq {
                reg: 0,
                value: 1,
                target: 3,
            },
            Op::Jump(0),
            Op::Exit,
        ])
        .unwrap();
        let mut k = traced();
        let p = k.register_program(read_spin.clone());
        create(&mut k, p, 5);
        run(&mut k, 20);
        assert!(!k.in_steady_loop());
        assert_eq!(k.steady_window(), None);
        let read = |e: &TraceEvent<KernelEvent>| matches!(e.event, KernelEvent::VarRead { .. });
        assert!(k.trace().iter().any(read));
        let mut untraced = kernel();
        let p = untraced.register_program(read_spin);
        create(&mut untraced, p, 5);
        run(&mut untraced, 20);
        assert!(untraced.in_steady_loop());
        // One that branches on the variable traces nothing, so it is
        // steady, and its window equals stepping, trace ring included.
        let mut k = traced();
        let p = k.register_program(
            Program::new(vec![
                Op::BranchIfVarEq {
                    var: VarId(9),
                    value: 1,
                    target: 2,
                },
                Op::Jump(0),
                Op::Exit,
            ])
            .unwrap(),
        );
        create(&mut k, p, 5);
        run(&mut k, 20);
        assert!(k.in_steady_loop());
        let window = k.steady_window().expect("a branch spin is steady").ticks;
        assert!(window >= 1_000, "{window}");
        let mut stepped = k.clone();
        run(&mut stepped, 1_000);
        k.fast_forward(1_000, Cycles::new(1_020));
        assert_same(&stepped, &k);
    }

    #[test]
    fn first_flip_finds_the_branch_flip_or_the_overflow() {
        // A countdown reaching its bound, exactly or never.
        assert_eq!(first_flip(10, -1, 0), 10);
        assert_eq!(first_flip(10, -2, 0), 5);
        assert_eq!(
            first_flip(10, -3, 0),
            ((10 - i128::from(i64::MIN)) / 3 + 1) as u64
        );
        assert_eq!(first_flip(0, 2, -4), (i64::MAX / 2 + 1) as u64);
        // A branch taken now flips next iteration, unless nothing moves.
        assert_eq!(first_flip(5, 1, 5), 1);
        assert_eq!(first_flip(5, 0, 5), u64::MAX);
        assert_eq!(first_flip(5, 0, 7), u64::MAX);
        // Past `i64::MAX` the register wraps: stop before it does.
        assert_eq!(first_flip(i64::MAX - 5, 2, i64::MIN), 3);
    }

    mod steady {
        use super::*;
        use proptest::prelude::*;

        /// One op of a random loop body; branches go to the exit or skip
        /// the next op.
        #[derive(Debug, Clone, Copy)]
        enum BodyOp {
            Add(u8, i64),
            Read(u16, u8),
            VarBranch(u16, i64, bool),
            RegBranch(u8, i64, bool),
            Compute(u32),
            Yield,
        }

        fn body_op() -> impl Strategy<Value = BodyOp> {
            prop_oneof![
                (0u8..4, -2i64..3).prop_map(|(r, d)| BodyOp::Add(r, d)),
                (0u16..3, 0u8..4).prop_map(|(v, r)| BodyOp::Read(v, r)),
                (0u16..3, 0i64..3, any::<bool>()).prop_map(|(v, x, e)| BodyOp::VarBranch(v, x, e)),
                (0u8..4, -12i64..12, any::<bool>())
                    .prop_map(|(r, x, e)| BodyOp::RegBranch(r, x, e)),
                (0u32..5).prop_map(BodyOp::Compute),
            ]
        }

        /// Registers seeded by a prelude, the body, a `Jump` back to its
        /// head, and an `Exit` every exiting branch lands on.
        fn loop_program(init: [i64; 4], body: &[BodyOp]) -> Program {
            let head = init.len() as u16;
            let jump = head + body.len() as u16;
            let exit = jump + 1;
            let mut ops: Vec<Op> = (0..4)
                .map(|r| Op::AddReg {
                    reg: r as u8,
                    delta: init[r],
                })
                .collect();
            for (i, op) in body.iter().enumerate() {
                let target = |to_exit: bool| {
                    if to_exit {
                        exit
                    } else {
                        (head + i as u16 + 2).min(jump)
                    }
                };
                ops.push(match *op {
                    BodyOp::Add(reg, delta) => Op::AddReg { reg, delta },
                    BodyOp::Read(var, reg) => Op::ReadVar {
                        var: VarId(var),
                        reg,
                    },
                    BodyOp::VarBranch(var, value, e) => Op::BranchIfVarEq {
                        var: VarId(var),
                        value,
                        target: target(e),
                    },
                    BodyOp::RegBranch(reg, value, e) => Op::BranchIfRegEq {
                        reg,
                        value,
                        target: target(e),
                    },
                    BodyOp::Compute(n) => Op::Compute(n),
                    BodyOp::Yield => Op::Yield,
                });
            }
            ops.push(Op::Jump(head));
            ops.push(Op::Exit);
            Program::new(ops).unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn closed_form_equals_ticks(
                init in (-40i64..40, -40i64..40, -40i64..40, -40i64..40),
                vars in (0i64..3, 0i64..3, 0i64..3),
                body in proptest::collection::vec(body_op(), 1..8),
                countdown in proptest::option::of((0u8..4, -2i64..3, -12i64..12)),
                quantum in proptest::option::of(1u32..6),
                rival in any::<bool>(),
                warmup in 0u64..6,
                count in 0u64..400,
            ) {
                let mut k = kernel();
                k.set_quantum(quantum);
                for (var, value) in [vars.0, vars.1, vars.2].into_iter().enumerate() {
                    k.set_var(VarId(var as u16), value);
                }
                let mut body = body;
                if let Some((reg, delta, bound)) = countdown {
                    // A counted loop: exits once the counter hits `bound`.
                    body.extend([BodyOp::Add(reg, delta), BodyOp::RegBranch(reg, bound, true)]);
                }
                let p = k.register_program(loop_program([init.0, init.1, init.2, init.3], &body));
                create(&mut k, p, 5);
                if rival {
                    // Never picked without a quantum; rotated with under one.
                    create(&mut k, p, 3);
                }
                run(&mut k, warmup);
                for _ in 0..200 {
                    if k.steady_window().is_some() {
                        break;
                    }
                    run(&mut k, 1);
                }
                let Some(window) = k.steady_window() else {
                    return Ok(());
                };
                prop_assert!(k.in_steady_loop());
                assert_turns(&k, window);
                let count = count.min(window.ticks);
                let now = k.now.get();
                let mut stepped = k.clone();
                run(&mut stepped, count);
                k.fast_forward(count, Cycles::new(now + count));
                assert_same(&stepped, &k);
                // The exit bound is exact: stepping on from either agrees.
                run(&mut stepped, 30);
                run(&mut k, 30);
                assert_same(&stepped, &k);
            }

            #[test]
            fn steady_kernel_closed_form_equals_ticks(
                spinners in proptest::collection::vec(
                    (1u8..40, (-40i64..40, -40i64..40), proptest::collection::vec(body_op(), 0..5), 0usize..6),
                    1..4,
                ),
                vars in (0i64..3, 0i64..3, 0i64..3),
                quantum in proptest::option::of(1u32..6),
                bystander in proptest::option::of(any::<bool>()),
                setup in (1usize..12, 0u64..8, 0u64..400),
            ) {
                let (trace_capacity, warmup, count) = setup;
                let mut k = Kernel::new(KernelConfig {
                    trace_capacity,
                    ..KernelConfig::default()
                });
                k.set_quantum(quantum);
                for (var, value) in [vars.0, vars.1, vars.2].into_iter().enumerate() {
                    k.set_var(VarId(var as u16), value);
                }
                match bystander {
                    // Suspended before it ever runs.
                    Some(true) => {
                        let p = k.register_program(
                            Program::new(vec![Op::Compute(3), Op::Exit]).unwrap(),
                        );
                        let t = create(&mut k, p, 200);
                        k.dispatch(SvcRequest::Suspend { task: t }, Cycles::ZERO).unwrap();
                    }
                    // Runs first and blocks on a semaphore nothing posts.
                    Some(false) => {
                        let sem = k.create_semaphore(0);
                        let p = k.register_program(
                            Program::new(vec![Op::SemWait(sem), Op::Exit]).unwrap(),
                        );
                        create(&mut k, p, 200);
                    }
                    None => {}
                }
                let mut priorities = Vec::new();
                for (priority, init, body, yield_at) in spinners {
                    if priorities.contains(&priority) {
                        continue;
                    }
                    priorities.push(priority);
                    // A polling loop that yields somewhere in its body.
                    let mut body = body;
                    body.insert(yield_at.min(body.len()), BodyOp::Yield);
                    let p = k.register_program(loop_program([init.0, init.1, 0, 0], &body));
                    create(&mut k, p, priority);
                }
                run(&mut k, warmup);
                for _ in 0..200 {
                    if k.steady_window().is_some() {
                        break;
                    }
                    run(&mut k, 1);
                }
                let Some(window) = k.steady_window() else {
                    return Ok(());
                };
                prop_assert!(k.in_steady_loop());
                assert_turns(&k, window);
                let count = count.min(window.ticks);
                let now = k.now.get();
                let mut stepped = k.clone();
                run(&mut stepped, count);
                k.fast_forward(count, Cycles::new(now + count));
                assert_same(&stepped, &k);
                prop_assert_eq!(stepped.trace().dropped(), k.trace().dropped());
                run(&mut stepped, 30);
                run(&mut k, 30);
                assert_same(&stepped, &k);
            }
        }
    }
}
