//! The multicore system: the master core, N slave cores, the bridge, and
//! the master runtime wired together and advanced in lock-step virtual
//! time.
//!
//! [`MultiCoreSystem`] generalizes the original OMAP5912-like dual-core
//! platform from "the slave" to "slave *i* of N": N pCore kernels, N
//! bridge endpoints over disjoint SRAM windows, one mailbox block per
//! slave, plus two cross-core coupling mechanisms the multi-slave fault
//! scenarios are built on — semaphore hand-off links
//! ([`MultiCoreSystem::link_semaphores`]) and SRAM-mirrored shared
//! variables ([`MultiCoreSystem::share_var`]). The `n = 1` system
//! (`SystemConfig::default()`) behaves bit-identically to the historical
//! dual-core implementation.

use std::collections::VecDeque;
use std::sync::Arc;

use ptest_bridge::{BridgeError, BridgeLayout, CmdId, CmdResponse, MasterPort, SlaveEndpoint};
use ptest_pcore::{Kernel, KernelConfig, KernelSnapshot, SemId, SvcRequest, VarId};
use ptest_soc::{CoreId, Cycles, MailboxBank, SharedSram, SramError, TraceBuffer, VirtualClock};

use crate::event::MasterEvent;
use crate::mem::{IdleHorizon, MemoryModel, SharedVarBus};
use crate::preempt::{self, InterruptPlan, PreemptionSpec};
use crate::sched::Scheduler;
use crate::thread::{MasterOp, MasterThread, ThreadId, ThreadState};

/// Configuration of a [`MultiCoreSystem`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of slave cores (1 = the original dual-core platform).
    pub slaves: usize,
    /// Slave-kernel configuration (applied to every slave).
    pub kernel: KernelConfig,
    /// Master scheduler quantum in cycles (time-sharing round robin).
    pub quantum: u32,
    /// Commands each slave endpoint services per doorbell interrupt.
    pub slave_budget: usize,
    /// Most events the system trace ring keeps: a bound on the ring, not
    /// a reservation (it grows as events arrive). A trial that captures
    /// its trace keeps this many; one that does not reads no master
    /// event and keeps 1 (`ptest_core::uncaptured_system`).
    pub trace_capacity: usize,
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig {
            slaves: 1,
            kernel: KernelConfig::default(),
            quantum: 5,
            slave_budget: 16,
            trace_capacity: TraceBuffer::<MasterEvent>::DEFAULT_CAPACITY,
        }
    }
}

impl SystemConfig {
    /// The default configuration scaled to `slaves` slave cores.
    #[must_use]
    pub fn with_slaves(slaves: usize) -> SystemConfig {
        SystemConfig {
            slaves,
            ..SystemConfig::default()
        }
    }

    /// Checks that [`MultiCoreSystem::new`] can build this configuration.
    ///
    /// # Errors
    ///
    /// A message that starts with the first field out of range: `slaves`
    /// must be at least 1 and at most the 194 whose bridge windows fit
    /// the OMAP SRAM, and `trace_capacity` and `kernel.trace_capacity`
    /// must be at least 1.
    pub fn validate(&self) -> Result<(), String> {
        if self.slaves == 0 {
            return Err("slaves: a system needs at least one slave core".to_owned());
        }
        if self.slaves > MAX_SLAVES {
            return Err(format!(
                "slaves: {} exceed the {MAX_SLAVES} whose bridge windows fit the OMAP SRAM",
                self.slaves
            ));
        }
        if self.trace_capacity == 0 {
            return Err("trace_capacity: a trace ring keeps at least 1 event".to_owned());
        }
        if self.kernel.trace_capacity == 0 {
            return Err("kernel.trace_capacity: a trace ring keeps at least 1 event".to_owned());
        }
        Ok(())
    }
}

/// The most slaves a system holds: as many as the OMAP SRAM fits bridge
/// windows for.
const MAX_SLAVES: usize =
    (SharedSram::OMAP5912_BYTES - BridgeLayout::BASE_OFFSET) / BridgeLayout::SLAVE_WINDOW_BYTES;
const _: () = assert!(
    MAX_SLAVES <= 256,
    "the mailbox bank addresses at most 256 slaves"
);

/// One slave core: its kernel plus its bridge endpoint.
#[derive(Debug)]
struct SlaveCore {
    kernel: Kernel,
    endpoint: SlaveEndpoint,
}

/// A cross-core semaphore hand-off link: tokens posted to the *outbox*
/// semaphore on one slave are forwarded (through the bridge, one system
/// cycle later at the earliest) as posts to the *inbox* semaphore on
/// another slave. This is the mechanism behind multi-slave pipeline
/// scenarios, and the wait-for-graph detector uses the link table to
/// follow blocking dependencies across kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SemLink {
    /// Slave whose outbox feeds the link.
    pub from_slave: usize,
    /// The outbox semaphore on `from_slave`.
    pub from_sem: SemId,
    /// Slave whose inbox the link posts to.
    pub to_slave: usize,
    /// The inbox semaphore on `to_slave`.
    pub to_sem: SemId,
}

/// A shared variable mirrored across all slave kernels through a window
/// in shared SRAM. See [`MultiCoreSystem::share_var`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedVar {
    /// The variable id, present in every slave's kernel.
    pub var: VarId,
    /// Byte offset of the 8-byte mirror word in shared SRAM.
    pub sram_offset: usize,
}

/// Error wiring a cross-core coupling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CouplingError {
    /// A slave index exceeds the system's slave count.
    NoSuchSlave {
        /// The offending index.
        slave: usize,
    },
    /// Both ends of a semaphore link name the same slave; intra-core
    /// hand-off uses a local semaphore directly, not the bridge.
    SameSlave,
    /// The shared-variable mirror window does not fit the SRAM.
    Sram(SramError),
}

impl std::fmt::Display for CouplingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CouplingError::NoSuchSlave { slave } => write!(f, "no slave {slave} in this system"),
            CouplingError::SameSlave => {
                write!(f, "semaphore links must connect two distinct slaves")
            }
            CouplingError::Sram(e) => write!(f, "shared-var mirror does not fit: {e}"),
        }
    }
}

impl std::error::Error for CouplingError {}

/// The simulated OMAP-like platform generalized to N slaves: ARM master
/// runtime + N DSP slave kernels + pCore-Bridge middleware + shared
/// hardware, advanced one cycle at a time by [`MultiCoreSystem::step`].
///
/// Both a scripted mode (add [`MasterThread`]s, as in Figure 1) and a
/// direct mode ([`MultiCoreSystem::issue_to`], used by pTest's committer)
/// are supported and can be mixed.
///
/// ```
/// use ptest_master::{MultiCoreSystem, SystemConfig};
/// use ptest_pcore::{Priority, Program, SvcRequest};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sys = MultiCoreSystem::new(SystemConfig::with_slaves(2));
/// let prog = sys.kernel_of_mut(1).register_program(Program::exit_immediately());
/// sys.issue_to(1, SvcRequest::Create { program: prog, priority: Priority::new(5), stack_bytes: None })?;
/// sys.run(100);
/// let resps: Vec<_> = sys.drain_responses().collect();
/// assert_eq!(resps.len(), 1);
/// assert_eq!(resps[0].slave, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MultiCoreSystem {
    clock: VirtualClock,
    sram: SharedSram,
    mailboxes: MailboxBank,
    slaves: Vec<SlaveCore>,
    master_port: MasterPort,
    threads: Vec<MasterThread>,
    run_queue: VecDeque<ThreadId>,
    current_thread: Option<ThreadId>,
    quantum_left: u32,
    inbox: Vec<CmdResponse>,
    trace: TraceBuffer<MasterEvent>,
    sem_links: Vec<SemLink>,
    shared_vars: Vec<SharedVar>,
    /// Last globally agreed value of each shared var (sync epoch state).
    shared_var_mirror: Vec<i64>,
    /// The kernels' summed [`Kernel::var_write_count`] right after the
    /// last sequentially-consistent mirroring pass, which left every
    /// kernel holding the mirror. While the sum stands still nothing can
    /// diverge. `None` once a [`MemoryModel`] has propagated, since a
    /// model may move the mirror without writing any kernel.
    /// ([`MultiCoreSystem::share_var`] seeds every kernel through
    /// [`Kernel::set_var`], which moves the sum.)
    mirrored_at_writes: Option<u64>,
    /// A [`Scheduler`] has driven the system, so a kernel ticks only on
    /// the cycles it picks, not at consecutive times.
    scheduled: bool,
    /// The installed preemption axis, if any (`None` is the inert
    /// unpreempted fast path the golden fixtures pin).
    preempt: Option<PreemptState>,
    cfg: SystemConfig,
}

/// Lowers `horizon` to `at`.
fn merge(horizon: &mut Option<u64>, at: u64) {
    *horizon = Some(horizon.map_or(at, |h| h.min(at)));
}

/// A set of slave indices, with room for the most a system holds: the
/// one shape of a per-slave fact, such as which slaves a [`Scheduler`]
/// finds runnable and advances, or which kernels a [`SnapshotCache`]
/// saw change.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct SlaveSet([u64; MAX_SLAVES.div_ceil(64)]);

impl SlaveSet {
    /// The most slaves a set holds: as many as a system does.
    pub const CAPACITY: usize = MAX_SLAVES;

    /// Every slave a set can hold.
    pub const ALL: SlaveSet = {
        let mut words = [u64::MAX; MAX_SLAVES.div_ceil(64)];
        words[MAX_SLAVES / 64] = (1 << (MAX_SLAVES % 64)) - 1;
        SlaveSet(words)
    };

    /// Adds `slave`; returns whether it was not in the set yet.
    ///
    /// # Panics
    ///
    /// Panics if `slave` is not below [`SlaveSet::CAPACITY`].
    pub fn insert(&mut self, slave: usize) -> bool {
        assert!(slave < Self::CAPACITY, "slave {slave} out of set range");
        let fresh = !self.contains(slave);
        self.0[slave / 64] |= 1 << (slave % 64);
        fresh
    }

    /// Whether `slave` is in the set (never one at or past
    /// [`SlaveSet::CAPACITY`]).
    #[must_use]
    pub fn contains(&self, slave: usize) -> bool {
        slave < Self::CAPACITY && self.0[slave / 64] >> (slave % 64) & 1 != 0
    }

    /// How many slaves the set holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Whether the set holds no slave.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == SlaveSet::default()
    }

    /// Whether the two sets share no slave.
    #[must_use]
    pub fn is_disjoint(&self, other: SlaveSet) -> bool {
        self.0.iter().zip(other.0).all(|(a, b)| a & b == 0)
    }

    /// The slaves in the set, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..Self::CAPACITY).filter(|&slave| self.contains(slave))
    }
}

impl FromIterator<usize> for SlaveSet {
    fn from_iter<I: IntoIterator<Item = usize>>(slaves: I) -> SlaveSet {
        let mut set = SlaveSet::default();
        for slave in slaves {
            set.insert(slave);
        }
        set
    }
}

impl std::fmt::Debug for SlaveSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A fast-forward certificate: what [`MultiCoreSystem::certify`] found
/// at one cycle, and everything [`MultiCoreSystem::advance`] needs to
/// skip cycles of it. Nothing about it is kept in the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// The cycle it was certified at.
    at: Cycles,
    end: IdleHorizon,
    /// The slaves with work a task cycle could progress.
    runnable: SlaveSet,
    /// The slaves that tick at every cycle of the window; the others
    /// tick at none.
    advance: SlaveSet,
    turn: Option<u64>,
}

impl Window {
    /// A window at cycle `at` that certifies nothing yet.
    fn new(at: Cycles) -> Window {
        Window {
            at,
            end: IdleHorizon::Unknown,
            runnable: SlaveSet::default(),
            advance: SlaveSet::default(),
            turn: Some(0),
        }
    }

    /// Where the window ends: every cycle strictly before
    /// [`IdleHorizon::Until`]'s may be skipped, any under
    /// [`IdleHorizon::Unbounded`], none under [`IdleHorizon::Unknown`].
    #[must_use]
    pub fn end(&self) -> IdleHorizon {
        self.end
    }

    /// Ticks within which every task that retires ops in the window
    /// retires one: the longest [turn](ptest_pcore::SteadyWindow::turn)
    /// of its steady kernels (0 with none). `None` when a scheduler
    /// drives a steady kernel, which then does not tick once per cycle.
    #[must_use]
    pub fn turn(&self) -> Option<u64> {
        self.turn
    }
}

/// The compiled preemption axis of one trial: the live injection queue
/// and the per-slave clock-skew rates, both pure functions of
/// `(spec, irq_seed)`.
#[derive(Debug)]
struct PreemptState {
    spec: PreemptionSpec,
    plan: InterruptPlan,
    skew_rates: Vec<u32>,
}

/// Epoch-keyed snapshot cache for
/// [`MultiCoreSystem::snapshots_into_cached`]: a kernel is re-serialized
/// only when its [change epoch](ptest_pcore::Kernel::change_epoch) moved
/// since the cache's last observation; a *clean* kernel's cached
/// snapshot just gets its pure time scalars (`now`, `ticks`,
/// `idle_ticks`) refreshed — the only fields an idle kernel moves.
///
/// A cache is bound to the system it last observed: call
/// [`SnapshotCache::reset`] before pointing it at a different (or fresh)
/// system, since new kernels restart their epochs at zero and could
/// collide with stale entries.
#[derive(Debug, Clone, Default)]
pub struct SnapshotCache {
    snapshots: Vec<KernelSnapshot>,
    epochs: Vec<u64>,
    dirty: SlaveSet,
}

impl SnapshotCache {
    /// An empty cache; the first observation fills it (every kernel is
    /// dirty the first time).
    #[must_use]
    pub fn new() -> SnapshotCache {
        SnapshotCache::default()
    }

    /// Invalidates the cache, keeping its buffers for reuse.
    pub fn reset(&mut self) {
        self.snapshots.clear();
        self.epochs.clear();
        self.dirty = SlaveSet::default();
    }

    /// The cached snapshots, in slave order — exactly what
    /// [`MultiCoreSystem::snapshots`] would return as of the last
    /// [`MultiCoreSystem::snapshots_into_cached`] call.
    #[must_use]
    pub fn snapshots(&self) -> &[KernelSnapshot] {
        &self.snapshots
    }

    /// The slaves dirty at the last observation: those whose kernel's
    /// epoch had moved (its snapshot changed beyond the pure time
    /// scalars) since the observation before.
    #[must_use]
    pub fn dirty(&self) -> SlaveSet {
        self.dirty
    }
}

impl MultiCoreSystem {
    /// Builds and wires a fresh system with `cfg.slaves` slave cores.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SystemConfig::validate`].
    #[must_use]
    pub fn new(cfg: SystemConfig) -> MultiCoreSystem {
        if let Err(e) = cfg.validate() {
            panic!("invalid system configuration: {e}");
        }
        let layouts = BridgeLayout::for_slaves(cfg.slaves);
        let mut sram = SharedSram::omap5912();
        let mut slaves = Vec::with_capacity(cfg.slaves);
        for (i, layout) in layouts.iter().enumerate() {
            layout
                .init(&mut sram)
                .expect("a validated slave count's bridge windows fit the OMAP SRAM window");
            slaves.push(SlaveCore {
                kernel: Kernel::with_core(cfg.kernel.clone(), CoreId::slave(i)),
                endpoint: SlaveEndpoint::for_slave(*layout, i),
            });
        }
        MultiCoreSystem {
            clock: VirtualClock::new(),
            sram,
            mailboxes: MailboxBank::for_slaves(cfg.slaves),
            slaves,
            master_port: MasterPort::for_slaves(layouts),
            threads: Vec::new(),
            run_queue: VecDeque::new(),
            current_thread: None,
            quantum_left: 0,
            inbox: Vec::new(),
            trace: TraceBuffer::new(cfg.trace_capacity),
            sem_links: Vec::new(),
            shared_vars: Vec::new(),
            shared_var_mirror: Vec::new(),
            mirrored_at_writes: None,
            scheduled: false,
            preempt: None,
            cfg,
        }
    }

    /// Installs (or, for an inert spec, removes) the preemption axis:
    /// per-kernel quantum slices, the seeded [`InterruptPlan`], and the
    /// seeded per-slave clock-skew rates. Everything is a pure function
    /// of `(spec, irq_seed)`, so replaying a recorded trial reinstalls
    /// the identical axis.
    ///
    /// The inert default spec compiles to the historical unpreempted
    /// platform: no quantum on any kernel, no plan, no skew — the exact
    /// code path the golden fixtures pin.
    pub fn install_preemption(&mut self, spec: &PreemptionSpec, irq_seed: u64) {
        let quantum = spec.quantum.map(|q| q.cycles);
        for slave in &mut self.slaves {
            slave.kernel.set_quantum(quantum);
        }
        if spec.is_inert() {
            self.preempt = None;
            return;
        }
        let slaves = self.slaves.len();
        let plan = spec
            .interrupts
            .as_ref()
            .map_or_else(InterruptPlan::empty, |cfg| {
                InterruptPlan::new(cfg, irq_seed, slaves)
            });
        let skew_rates = spec.clock_skew.as_ref().map_or_else(
            || vec![0; slaves],
            |cfg| preempt::skew_rates(cfg, irq_seed, slaves),
        );
        self.preempt = Some(PreemptState {
            spec: *spec,
            plan,
            skew_rates,
        });
    }

    /// The installed (non-inert) preemption spec, if any.
    #[must_use]
    pub fn preemption_spec(&self) -> Option<&PreemptionSpec> {
        self.preempt.as_ref().map(|p| &p.spec)
    }

    /// Planned interrupt injections not yet fired.
    #[must_use]
    pub fn pending_injections(&self) -> usize {
        self.preempt.as_ref().map_or(0, |p| p.plan.remaining())
    }

    /// A slave's local time at system cycle `at` under the installed
    /// clock skew (the identity when no skew is installed).
    #[must_use]
    pub fn local_time_of(&self, slave: usize, at: Cycles) -> Cycles {
        match &self.preempt {
            Some(state) => preempt::local_time(at, state.skew_rates[slave]),
            None => at,
        }
    }

    /// Total quantum preemptions across all slave kernels.
    #[must_use]
    pub fn total_preemptions(&self) -> u64 {
        self.slaves
            .iter()
            .map(|s| s.kernel.preemption_count())
            .sum()
    }

    /// Total completed ISR activations across all slave kernels.
    #[must_use]
    pub fn total_isr_runs(&self) -> u64 {
        self.slaves.iter().map(|s| s.kernel.isr_runs()).sum()
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.clock.now()
    }

    /// Number of slave cores.
    #[must_use]
    pub fn slave_count(&self) -> usize {
        self.slaves.len()
    }

    /// Read access to slave `slave`'s kernel (for assertions and the bug
    /// detector's shared-memory debug window).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range slave index.
    #[must_use]
    pub fn kernel_of(&self, slave: usize) -> &Kernel {
        &self.slaves[slave].kernel
    }

    /// Mutable access to slave `slave`'s kernel for *scenario setup only*
    /// (registering programs, creating semaphores/mutexes before the test
    /// starts). Runtime interaction must go through
    /// [`MultiCoreSystem::issue_to`].
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range slave index.
    pub fn kernel_of_mut(&mut self, slave: usize) -> &mut Kernel {
        &mut self.slaves[slave].kernel
    }

    /// The system trace (master-side events; each kernel keeps its own).
    #[must_use]
    pub fn trace(&self) -> &TraceBuffer<MasterEvent> {
        &self.trace
    }

    /// Registers a cross-core semaphore hand-off: tokens posted to
    /// `from_sem` on `from_slave` are forwarded as posts to `to_sem` on
    /// `to_slave` during the next system cycle. Links are drained in
    /// registration order, deterministically.
    ///
    /// # Errors
    ///
    /// [`CouplingError::NoSuchSlave`] for an out-of-range slave and
    /// [`CouplingError::SameSlave`] if both ends name the same slave —
    /// the bridge only mediates *inter*-core traffic.
    pub fn link_semaphores(
        &mut self,
        from_slave: usize,
        from_sem: SemId,
        to_slave: usize,
        to_sem: SemId,
    ) -> Result<(), CouplingError> {
        for slave in [from_slave, to_slave] {
            if slave >= self.slaves.len() {
                return Err(CouplingError::NoSuchSlave { slave });
            }
        }
        if from_slave == to_slave {
            return Err(CouplingError::SameSlave);
        }
        self.sem_links.push(SemLink {
            from_slave,
            from_sem,
            to_slave,
            to_sem,
        });
        Ok(())
    }

    /// The registered cross-core semaphore links.
    #[must_use]
    pub fn sem_links(&self) -> &[SemLink] {
        &self.sem_links
    }

    /// Mirrors shared variable `var` across *all* slave kernels through an
    /// 8-byte window at `sram_offset` in shared SRAM. Once per system
    /// cycle the mirror adopts, in ascending slave order, any local value
    /// that diverged from the last agreed value, then writes the winner
    /// back to the SRAM word and into every kernel. Two slaves updating
    /// within the same cycle therefore race: the higher-indexed slave's
    /// write wins and the other update is lost — the classic shared-memory
    /// read-modify-write hazard, made deterministic.
    ///
    /// # Errors
    ///
    /// [`CouplingError::Sram`] if the 8-byte mirror word does not fit the
    /// SRAM.
    pub fn share_var(&mut self, var: VarId, sram_offset: usize) -> Result<(), CouplingError> {
        let seed = self.kernel_of(0).var(var).unwrap_or(0);
        self.sram
            .write_bytes(sram_offset, &seed.to_le_bytes())
            .map_err(CouplingError::Sram)?;
        for slave in &mut self.slaves {
            slave.kernel.set_var(var, seed);
        }
        self.shared_vars.push(SharedVar { var, sram_offset });
        self.shared_var_mirror.push(seed);
        Ok(())
    }

    /// The registered SRAM-mirrored shared variables.
    #[must_use]
    pub fn shared_vars(&self) -> &[SharedVar] {
        &self.shared_vars
    }

    /// Adds a master thread; it enters the run queue immediately.
    pub fn add_thread(&mut self, name: impl Into<Arc<str>>, ops: Vec<MasterOp>) -> ThreadId {
        let id = ThreadId(self.threads.len() as u16);
        self.threads.push(MasterThread::new(id, name, ops));
        self.run_queue.push_back(id);
        id
    }

    /// Read access to a thread.
    #[must_use]
    pub fn thread(&self, id: ThreadId) -> Option<&MasterThread> {
        self.threads.get(usize::from(id.0))
    }

    /// Whether every scripted thread has finished.
    #[must_use]
    pub fn threads_done(&self) -> bool {
        self.threads.iter().all(MasterThread::is_done)
    }

    /// Issues a remote command directly to slave `slave` (the committer's
    /// path), stamped at the current virtual time.
    ///
    /// # Errors
    ///
    /// [`BridgeError::NoSuchSlave`] for an out-of-range slave;
    /// [`BridgeError::CommandRingFull`] if 32 commands are in flight on
    /// that slave's lane.
    pub fn issue_to(&mut self, slave: usize, req: SvcRequest) -> Result<CmdId, BridgeError> {
        let now = self.clock.now();
        let id = self
            .master_port
            .issue_to(slave, &mut self.sram, &mut self.mailboxes, req, now)?;
        self.trace
            .record(now, CoreId::Master, MasterEvent::Cmd { id, slave, req });
        Ok(id)
    }

    /// Drains, in delivery order, the responses that no scripted thread
    /// claimed (fire-and-forget and committer-issued commands). The inbox
    /// keeps its buffer, and dropping the iterator early still empties
    /// it.
    pub fn drain_responses(&mut self) -> std::vec::Drain<'_, CmdResponse> {
        self.inbox.drain(..)
    }

    /// Commands outstanding longer than `timeout` on slave `slave`'s lane.
    #[must_use]
    pub fn overdue_for(&self, slave: usize, timeout: Cycles) -> Vec<CmdId> {
        self.master_port
            .overdue_for(slave, self.clock.now(), timeout)
    }

    /// Number of commands outstanding longer than `timeout` on slave
    /// `slave`'s lane, without materializing the id list — the detector's
    /// per-observation check.
    #[must_use]
    pub fn overdue_count_for(&self, slave: usize, timeout: Cycles) -> usize {
        self.master_port
            .overdue_count_for(slave, self.clock.now(), timeout)
    }

    /// Number of commands awaiting responses (any slave).
    #[must_use]
    pub fn pending_commands(&self) -> usize {
        self.master_port.pending_count()
    }

    /// When the longest-outstanding command (any slave) was issued, or
    /// `None` if no command awaits a response.
    #[must_use]
    pub fn oldest_pending_issue(&self) -> Option<Cycles> {
        self.master_port.oldest_issue()
    }

    /// A snapshot of slave `slave`'s kernel (the detector's debug window).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range slave index.
    #[must_use]
    pub fn snapshot_of(&self, slave: usize) -> KernelSnapshot {
        self.slaves[slave].kernel.snapshot()
    }

    /// Snapshots of every slave kernel, in slave order.
    #[must_use]
    pub fn snapshots(&self) -> Vec<KernelSnapshot> {
        self.slaves.iter().map(|s| s.kernel.snapshot()).collect()
    }

    /// [`MultiCoreSystem::snapshots`] through an epoch-keyed
    /// [`SnapshotCache`], reusing the buffers of the previous
    /// observation: kernels whose change epoch is unchanged since the
    /// cache's last observation skip re-serialization entirely (only
    /// their time scalars are refreshed). `cache.snapshots()` afterwards
    /// equals what a fresh [`MultiCoreSystem::snapshots`] would return.
    pub fn snapshots_into_cached(&self, cache: &mut SnapshotCache) {
        let n = self.slaves.len();
        cache.snapshots.resize_with(n, KernelSnapshot::default);
        cache.epochs.resize(n, u64::MAX);
        cache.dirty = SlaveSet::default();
        for (i, slave) in self.slaves.iter().enumerate() {
            let epoch = slave.kernel.change_epoch();
            if cache.epochs[i] == epoch {
                slave.kernel.scalars_into(&mut cache.snapshots[i]);
            } else {
                slave.kernel.snapshot_into(&mut cache.snapshots[i]);
                cache.epochs[i] = epoch;
                cache.dirty.insert(i);
            }
        }
    }

    /// Certifies a fast-forward window from the next cycle on, for a
    /// system driven by `scheduler` (`None`: lock-step, every kernel
    /// ticking every cycle) under `memory` (`None`: the
    /// sequentially-consistent epoch). Until the window's
    /// [end](Window::end) nothing observable happens, assuming no external
    /// input arrives: every kernel the window ticks is *idle* (no
    /// dispatchable work) or *steady* ([`Kernel::steady_window`]: its
    /// tasks loop over side-effect-free ops and `Yield`s). A steady
    /// rotation that [reads time](ptest_pcore::SteadyWindow::reads_time)
    /// is certified only where the kernel ticks at consecutive times: on
    /// a system no [`Scheduler`] has driven, without clock skew on its
    /// core. Under a scheduler the window follows its
    /// [`plan_window`](Scheduler::plan_window) over the runnable slaves
    /// and ends with it: a runnable slave the plan does not advance ticks
    /// at none of its cycles, so its work does not end the window.
    ///
    /// The end is [`IdleHorizon::Unknown`] when the platform must be
    /// stepped: other kernel work, in-flight bridge or mailbox traffic,
    /// pending semaphore hand-offs or fences, un-mirrored shared-var
    /// stores, a live master thread, or a plan or memory model that
    /// cannot tell. Otherwise it is [`IdleHorizon::Until`] the earliest
    /// sleeper wake (kernel task or master thread; a rotation's own wake
    /// inside its window does not count), planned interrupt, end of the
    /// plan or of a steady window, or store delivery, and
    /// [`IdleHorizon::Unbounded`] with none. Allocates nothing.
    #[must_use]
    pub fn certify(
        &self,
        scheduler: Option<&dyn Scheduler>,
        memory: Option<&dyn MemoryModel>,
    ) -> Window {
        let mut window = Window::new(self.clock.now());
        let platform = self.horizon(scheduler, &mut window);
        let model = memory.map_or(IdleHorizon::Unbounded, MemoryModel::idle_horizon);
        window.end = match (platform, model) {
            (IdleHorizon::Unknown, _) | (_, IdleHorizon::Unknown) => IdleHorizon::Unknown,
            (IdleHorizon::Until(a), IdleHorizon::Until(b)) => IdleHorizon::Until(a.min(b)),
            (IdleHorizon::Until(at), _) | (_, IdleHorizon::Until(at)) => IdleHorizon::Until(at),
            (IdleHorizon::Unbounded, IdleHorizon::Unbounded) => IdleHorizon::Unbounded,
        };
        window
    }

    /// The platform's part of [`MultiCoreSystem::certify`]: fills in
    /// `window`'s slaves and turn, and returns where the platform lets
    /// it end.
    fn horizon(&self, scheduler: Option<&dyn Scheduler>, window: &mut Window) -> IdleHorizon {
        let next = Cycles::new(self.clock.now().get() + 1);
        // Disqualifiers: work or traffic that can mutate state on any
        // upcoming cycle in ways closed-form bookkeeping cannot replay.
        if self.current_thread.is_some() || !self.inbox.is_empty() || self.mailboxes.any_pending() {
            return IdleHorizon::Unknown;
        }
        // The runnable slaves: each kernel that may be steady, and each
        // other one with dispatchable work, which only a schedule can
        // hold still. Under clock skew a slave's next tick carries its
        // *local* time, so dispatchability (sleeper deadlines, pending
        // unmasked interrupts, an active ISR frame, quantum-expiry
        // rotations — all kernel-local) is probed at local time.
        let mut busy = SlaveSet::default();
        for (i, slave) in self.slaves.iter().enumerate() {
            if slave.kernel.pending_fence_count() > 0 {
                return IdleHorizon::Unknown;
            }
            if slave.kernel.in_steady_loop() {
                window.runnable.insert(i);
            } else if slave
                .kernel
                .has_dispatchable_work(self.local_time_of(i, next))
            {
                if scheduler.is_none() {
                    return IdleHorizon::Unknown;
                }
                window.runnable.insert(i);
                busy.insert(i);
            }
        }
        // The slaves that tick, and for how many cycles: every kernel
        // without a scheduler, and what its plan says with one. Either
        // way it must hold every busy slave.
        let (advance, plan) = match scheduler {
            Some(scheduler) => scheduler.plan_window(window.runnable),
            None => (SlaveSet::ALL, u64::MAX),
        };
        window.advance = advance;
        if plan == 0 || !window.advance.is_disjoint(busy) {
            return IdleHorizon::Unknown;
        }
        for link in &self.sem_links {
            if self.slaves[link.from_slave]
                .kernel
                .semaphore_count(link.from_sem)
                .unwrap_or(0)
                > 0
            {
                return IdleHorizon::Unknown;
            }
        }
        if !self.mirror_is_current() && self.shared_vars_diverge() {
            return IdleHorizon::Unknown;
        }
        let mut horizon: Option<u64> = None;
        // Self-timed events first: the end of the plan, planned
        // injections (never certify a window that crosses a firing
        // cycle), master-thread sleeps, and the sleepers of kernels that
        // are neither steady nor held by the plan.
        if plan != u64::MAX {
            merge(&mut horizon, next.get().saturating_add(plan));
        }
        if let Some(state) = &self.preempt {
            if let Some(fire) = state.plan.next_fire() {
                merge(&mut horizon, fire.max(next.get()));
            }
        }
        for t in &self.threads {
            match t.state {
                // A ready thread acts next cycle (it just isn't current
                // for one rotation); waiting threads wake only through
                // response traffic, which is disqualified above.
                ThreadState::Ready => return IdleHorizon::Unknown,
                ThreadState::Sleeping { until } => merge(&mut horizon, until),
                ThreadState::Waiting(_) | ThreadState::Done => {}
            }
        }
        for (i, slave) in self.slaves.iter().enumerate() {
            if !slave.kernel.in_steady_loop() && !busy.contains(i) {
                self.merge_sleepers(i, &mut horizon);
            }
        }
        // When they leave no cycle to skip, the steady kernels' walks
        // could not open a window either.
        if let Some(at) = horizon.filter(|&at| at <= next.get()) {
            return IdleHorizon::Until(at);
        }
        for (i, slave) in self.slaves.iter().enumerate() {
            if !slave.kernel.in_steady_loop() {
                continue;
            }
            // A steady rotation ticks in closed form up to its window; the
            // kernel ticks at most once per cycle, so the window in ticks
            // caps the window in cycles.
            match slave.kernel.steady_window() {
                Some(w) if !w.reads_time || self.consecutive_ticks(i) => {
                    merge(&mut horizon, next.get().saturating_add(w.ticks));
                    // A window that reads time already ends before any
                    // wake that is not the rotation's own.
                    if !w.reads_time {
                        self.merge_sleepers(i, &mut horizon);
                    }
                    window.turn = match (window.turn, scheduler) {
                        (Some(turn), None) => Some(turn.max(w.turn)),
                        _ => None,
                    };
                }
                _ => return IdleHorizon::Unknown,
            }
        }
        horizon.map_or(IdleHorizon::Unbounded, IdleHorizon::Until)
    }

    /// The slaves whose kernel has work a task cycle at system cycle
    /// `at` could progress, probed at its local time.
    fn runnable_at(&self, at: Cycles) -> SlaveSet {
        (0..self.slaves.len())
            .filter(|&i| {
                self.slaves[i]
                    .kernel
                    .has_dispatchable_work(self.local_time_of(i, at))
            })
            .collect()
    }

    /// Merges slave `slave`'s earliest sleeper wake into `horizon`,
    /// converted from its kernel's local time to the system cycle that
    /// first reaches it.
    fn merge_sleepers(&self, slave: usize, horizon: &mut Option<u64>) {
        if let Some(at) = self.slaves[slave].kernel.next_sleeper_wake() {
            let rate = self.preempt.as_ref().map_or(0, |p| p.skew_rates[slave]);
            merge(horizon, preempt::system_time_for(at, rate));
        }
    }

    /// Whether slave `slave`'s kernel ticks once per cycle at the
    /// system's own times: no scheduler has driven the system and its
    /// core runs without clock skew.
    fn consecutive_ticks(&self, slave: usize) -> bool {
        !self.scheduled
            && self
                .preempt
                .as_ref()
                .is_none_or(|p| p.skew_rates[slave] == 0)
    }

    /// Skips the first `count` cycles of `window`, which
    /// [`MultiCoreSystem::certify`] certified at the current cycle for
    /// `scheduler`: the clock jumps, the scheduler moves on as `count`
    /// [`Scheduler::plan`] calls would ([`Scheduler::apply_window`]),
    /// and every kernel the window ticks applies `count` idle or steady
    /// ticks in closed form ([`Kernel::fast_forward`]), the last at its
    /// local time. Bit-identical to `count` calls of
    /// [`MultiCoreSystem::step_explored`] with the same scheduler and
    /// memory model.
    pub fn advance(
        &mut self,
        window: &Window,
        count: u64,
        scheduler: Option<&mut (dyn Scheduler + '_)>,
    ) {
        debug_assert_eq!(self.clock.now(), window.at, "skipped from another cycle");
        debug_assert!(
            match window.end {
                IdleHorizon::Unknown => count == 0,
                IdleHorizon::Until(end) => window.at.get() + count < end,
                IdleHorizon::Unbounded => true,
            },
            "{count} cycles past {window:?}"
        );
        if count == 0 {
            return;
        }
        if let Some(scheduler) = scheduler {
            debug_assert_eq!(
                self.runnable_at(Cycles::new(window.at.get() + 1)),
                window.runnable
            );
            scheduler.apply_window(count, window.runnable);
            self.scheduled = true;
        }
        self.clock.advance(Cycles::new(count));
        let now = self.clock.now();
        for (i, slave) in self.slaves.iter_mut().enumerate() {
            if window.advance.contains(i) {
                let lnow = match &self.preempt {
                    Some(state) => preempt::local_time(now, state.skew_rates[i]),
                    None => now,
                };
                slave.kernel.fast_forward(count, lnow);
            }
        }
    }

    /// The platform's lock-step horizon: [`MultiCoreSystem::certify`]'s
    /// end without a scheduler or memory model. The active
    /// [`MemoryModel`]'s own [`idle_horizon`](MemoryModel::idle_horizon)
    /// must be intersected by the caller. Kept for ptbench's traced
    /// loop; ROADMAP item 1 deletes it.
    #[must_use]
    pub fn quiescent_horizon(&self) -> IdleHorizon {
        self.certify(None, None).end
    }

    /// Ticks every kernel through `count` idle or steady cycles, as
    /// [`MultiCoreSystem::advance`] does in a lock-step window the
    /// caller certified with [`MultiCoreSystem::quiescent_horizon`].
    /// Kept for ptbench's traced loop; ROADMAP item 1 deletes it.
    pub fn fast_forward_idle(&mut self, count: u64) {
        let mut window = Window::new(self.clock.now());
        window.end = IdleHorizon::Unbounded;
        window.advance = SlaveSet::ALL;
        self.advance(&window, count, None);
    }

    /// [`MultiCoreSystem::fast_forward_idle`] under `scheduler`, in a
    /// window [`MultiCoreSystem::quiescent_horizon`] certified, where
    /// exactly the steady kernels have work. That horizon never asks the
    /// scheduler, so the window is skipped one certified plan at a time,
    /// and a cycle no plan certifies through one [`Scheduler::plan`]
    /// call. Kept for ptbench's traced loop; ROADMAP item 1 deletes it.
    pub fn fast_forward_idle_with(&mut self, mut count: u64, scheduler: &mut dyn Scheduler) {
        let runnable = (0..self.slaves.len())
            .filter(|&i| self.slaves[i].kernel.in_steady_loop())
            .collect();
        while count > 0 {
            self.scheduled = true;
            let (mut advance, plan) = scheduler.plan_window(runnable);
            if plan == 0 {
                advance = scheduler.plan(runnable);
            }
            let cycles = plan.clamp(1, count);
            let mut window = Window::new(self.clock.now());
            window.end = IdleHorizon::Unbounded;
            window.runnable = runnable;
            window.advance = advance;
            self.advance(&window, cycles, (plan > 0).then_some(&mut *scheduler));
            count -= cycles;
        }
    }

    /// Advances the whole platform by one cycle: per-slave interrupt
    /// servicing and one kernel cycle each, cross-core coupling
    /// (semaphore hand-off forwarding, shared-variable mirroring),
    /// response delivery, and one master-thread step under the
    /// round-robin quantum.
    pub fn step(&mut self) {
        self.step_explored(None, None);
    }

    /// The single platform-cycle entry point: one cycle under an
    /// optional [`Scheduler`] and an optional [`MemoryModel`];
    /// [`MultiCoreSystem::step`] is this with neither.
    ///
    /// Without a scheduler every slave kernel executes a task cycle and
    /// no runnable scan runs. With one, the slaves whose kernels have
    /// work a task cycle could progress (probed at each slave's local
    /// time) go to [`Scheduler::plan`], and only the slaves it returns
    /// execute one. Doorbell interrupt servicing, cross-core coupling and
    /// the master side are *not* schedulable — they run every cycle on
    /// every slave, the way interrupts preempt task execution on the real
    /// platform — so [`LockStepScheduler`](crate::sched::LockStepScheduler),
    /// whose plan returns every slave, steps exactly as no scheduler
    /// does. Without a memory model every shared-variable store is
    /// mirrored to every kernel in the cycle it retires (sequential
    /// consistency); a [`MemoryModel`] replaces that propagation step and
    /// changes nothing else, and one that delivers every store with zero
    /// delay is observably equivalent (up to write-write race
    /// resolution; see [`crate::mem`]).
    pub fn step_explored(
        &mut self,
        scheduler: Option<&mut (dyn Scheduler + '_)>,
        memory: Option<&mut (dyn MemoryModel + '_)>,
    ) {
        let advance = scheduler.map(|scheduler| {
            self.scheduled = true;
            scheduler.plan(self.runnable_at(Cycles::new(self.clock.now().get() + 1)))
        });
        self.step_core(advance, memory);
    }

    /// One platform cycle: the slaves in `advance` execute a task cycle
    /// (every slave under `None`), and `memory` (if any) replaces the
    /// sequentially-consistent mirroring epoch with an explored
    /// [`MemoryModel`].
    fn step_core(
        &mut self,
        advance: Option<SlaveSet>,
        memory: Option<&mut (dyn MemoryModel + '_)>,
    ) {
        self.clock.tick();
        let now = self.clock.now();

        // --- Injected interrupts: raise every planned event whose cycle
        //     has arrived (taken by the kernel on this very tick, like a
        //     hardware line going high just before the core's cycle).
        if let Some(state) = &mut self.preempt {
            while let Some(ev) = state.plan.pop_due(now.get()) {
                let accepted = self.slaves[ev.slave].kernel.raise_interrupt();
                let event = MasterEvent::IrqInject {
                    cycle: ev.cycle,
                    accepted,
                };
                self.trace.record(now, CoreId::slave(ev.slave), event);
            }
        }

        // --- DSP side: doorbell interrupts preempt task execution (and
        //     are never gated by the schedule). Each slave sees its own
        //     local time (the identity without installed clock skew).
        //     A quiet mailbox bank rings no slave's doorbell, and a
        //     service posts only to its own slave's boxes, so with none
        //     ringing no endpoint has anything to service.
        let budget = self.cfg.slave_budget;
        let doorbells = self.mailboxes.any_pending();
        for (i, slave) in self.slaves.iter_mut().enumerate() {
            let lnow = match &self.preempt {
                Some(state) => preempt::local_time(now, state.skew_rates[i]),
                None => now,
            };
            if doorbells {
                slave.endpoint.service(
                    &mut self.sram,
                    &mut self.mailboxes,
                    &mut slave.kernel,
                    lnow,
                    budget,
                );
            }
            if advance.is_none_or(|a| a.contains(i)) {
                let _ = slave.kernel.tick(lnow);
            }
        }

        // --- Bridge side: cross-core coupling (no-ops when unused).
        self.forward_sem_links(now);
        match memory {
            // SeqCst: the built-in mirroring epoch.
            None => self.sync_shared_vars(),
            Some(model) => {
                self.mirrored_at_writes = None;
                let mut bus = SystemBus {
                    slaves: &mut self.slaves,
                    sram: &mut self.sram,
                    shared_vars: &self.shared_vars,
                    mirror: &mut self.shared_var_mirror,
                };
                model.sync(now, &mut bus);
            }
        }

        // --- ARM side: deliver responses, then run one thread op.
        let responses = self
            .master_port
            .poll_responses(&mut self.sram, &mut self.mailboxes, now);
        for resp in responses {
            let claimed = self.threads.iter_mut().any(|t| t.deliver(&resp));
            if !claimed {
                self.inbox.push(resp);
            }
        }
        self.step_master(now);
    }

    /// Drains every link's outbox into its inbox, in link order.
    fn forward_sem_links(&mut self, now: Cycles) {
        for i in 0..self.sem_links.len() {
            let link = self.sem_links[i];
            loop {
                if !self.slaves[link.from_slave]
                    .kernel
                    .take_semaphore_token(link.from_sem)
                {
                    break;
                }
                self.slaves[link.to_slave]
                    .kernel
                    .post_semaphore_external(link.to_sem);
                self.trace
                    .record(now, CoreId::slave(link.from_slave), MasterEvent::Link(link));
            }
        }
    }

    /// The kernels' summed variable-write count.
    fn var_writes(&self) -> u64 {
        self.slaves
            .iter()
            .map(|s| s.kernel.var_write_count())
            .fold(0, u64::wrapping_add)
    }

    /// Whether no kernel has written a variable since the last
    /// sequentially-consistent mirroring pass — so every kernel still
    /// holds the mirror.
    fn mirror_is_current(&self) -> bool {
        let current = self.mirrored_at_writes == Some(self.var_writes());
        debug_assert!(!current || !self.shared_vars_diverge());
        current
    }

    /// Whether any kernel's copy of a shared var differs from the mirror.
    fn shared_vars_diverge(&self) -> bool {
        self.shared_vars
            .iter()
            .zip(&self.shared_var_mirror)
            .any(|(shared, &agreed)| {
                self.slaves
                    .iter()
                    .any(|s| s.kernel.var(shared.var).unwrap_or(agreed) != agreed)
            })
    }

    /// One mirroring epoch per cycle: adopt divergent local values in
    /// ascending slave order (highest index wins a same-cycle race), then
    /// publish the winner through the SRAM word to every kernel. Skipped
    /// outright while no kernel has written a variable since the last
    /// pass.
    fn sync_shared_vars(&mut self) {
        if self.mirror_is_current() {
            return;
        }
        for i in 0..self.shared_vars.len() {
            let SharedVar { var, sram_offset } = self.shared_vars[i];
            let mut agreed = self.shared_var_mirror[i];
            for slave in &self.slaves {
                let local = slave.kernel.var(var).unwrap_or(agreed);
                if local != self.shared_var_mirror[i] {
                    agreed = local;
                }
            }
            // No divergence means every kernel already holds the mirror
            // value (it was published last epoch) — skip the writes.
            if agreed != self.shared_var_mirror[i] {
                self.shared_var_mirror[i] = agreed;
                let _ = self.sram.write_bytes(sram_offset, &agreed.to_le_bytes());
                for slave in &mut self.slaves {
                    slave.kernel.set_var(var, agreed);
                }
            }
        }
        self.mirrored_at_writes = Some(self.var_writes());
    }

    /// Runs `cycles` steps.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs until the platform is quiescent — all scripted threads done,
    /// no commands in flight, and every kernel idle — or `max_cycles`
    /// elapse. Returns `true` if quiescence was reached.
    ///
    /// Systems containing spinning or deadlocked tasks never quiesce;
    /// callers rely on the cycle bound (that non-quiescence is exactly
    /// what the bug detector looks for).
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            self.step();
            if self.threads_done() && self.pending_commands() == 0 && self.kernels_idle() {
                return true;
            }
        }
        false
    }

    fn kernels_idle(&self) -> bool {
        self.slaves.iter().all(|s| {
            let snap = s.kernel.snapshot();
            snap.panic.is_none()
                && snap
                    .tasks
                    .iter()
                    .all(|t| matches!(t.state, ptest_pcore::TaskState::Terminated(_)))
        })
    }

    /// Whether any slave kernel has crashed.
    #[must_use]
    pub fn slave_crashed(&self) -> bool {
        self.slaves.iter().any(|s| s.kernel.panic().is_some())
    }

    /// Whether slave `slave`'s kernel has crashed.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range slave index.
    #[must_use]
    pub fn slave_crashed_at(&self, slave: usize) -> bool {
        self.slaves[slave].kernel.panic().is_some()
    }

    fn step_master(&mut self, now: Cycles) {
        // Pick (or keep) the current thread under the quantum policy.
        let now_raw = now.get();
        let runnable_current = self
            .current_thread
            .and_then(|id| self.threads.get(usize::from(id.0)))
            .is_some_and(|t| t.is_runnable(now_raw));
        if !runnable_current || self.quantum_left == 0 {
            if let Some(id) = self.current_thread.take() {
                let t = &self.threads[usize::from(id.0)];
                if !t.is_done() {
                    self.run_queue.push_back(id);
                }
            }
            // Rotate to the next runnable thread.
            let mut rotations = self.run_queue.len();
            while rotations > 0 {
                rotations -= 1;
                let Some(id) = self.run_queue.pop_front() else {
                    break;
                };
                let t = &self.threads[usize::from(id.0)];
                if t.is_done() {
                    continue;
                }
                if t.is_runnable(now_raw) {
                    self.current_thread = Some(id);
                    self.quantum_left = self.cfg.quantum;
                    break;
                }
                self.run_queue.push_back(id);
            }
        }
        let Some(id) = self.current_thread else {
            return;
        };
        self.quantum_left = self.quantum_left.saturating_sub(1);
        self.run_thread_op(id, now);
    }

    fn run_thread_op(&mut self, id: ThreadId, now: Cycles) {
        let idx = usize::from(id.0);
        // Multi-cycle compute in progress?
        {
            let t = &mut self.threads[idx];
            if t.state == ThreadState::Ready && t.compute_remaining > 0 {
                t.compute_remaining -= 1;
                return;
            }
            if let ThreadState::Sleeping { until } = t.state {
                if until <= now.get() {
                    t.state = ThreadState::Ready;
                } else {
                    return;
                }
            }
            if t.state != ThreadState::Ready {
                return;
            }
        }
        let op = self.threads[idx].current_op();
        match op {
            None | Some(MasterOp::Done) => {
                let t = &mut self.threads[idx];
                t.state = ThreadState::Done;
                if self.current_thread == Some(id) {
                    self.current_thread = None;
                }
                let thread = Arc::clone(&t.name);
                self.trace
                    .record(now, CoreId::Master, MasterEvent::ThreadDone { thread });
            }
            Some(op @ (MasterOp::Issue(req) | MasterOp::IssueAndWait(req))) => {
                // A full ring leaves the op in place: it retries next cycle.
                if let Ok(cmd) =
                    self.master_port
                        .issue_to(0, &mut self.sram, &mut self.mailboxes, req, now)
                {
                    let t = &mut self.threads[idx];
                    t.pc += 1;
                    t.ops_retired += 1;
                    let waits = matches!(op, MasterOp::IssueAndWait(_));
                    if waits {
                        t.state = ThreadState::Waiting(cmd);
                    }
                    let event = MasterEvent::ThreadIssue {
                        thread: Arc::clone(&t.name),
                        cmd,
                        req,
                        waits,
                    };
                    self.trace.record(now, CoreId::Master, event);
                }
            }
            Some(MasterOp::Compute(n)) => {
                let t = &mut self.threads[idx];
                t.compute_remaining = u64::from(n.saturating_sub(1));
                t.pc += 1;
                t.ops_retired += 1;
            }
            Some(MasterOp::SleepFor(n)) => {
                let t = &mut self.threads[idx];
                t.state = ThreadState::Sleeping {
                    until: now.get() + u64::from(n),
                };
                t.pc += 1;
                t.ops_retired += 1;
            }
        }
    }
}

/// The platform's [`SharedVarBus`]: split borrows over the slave
/// kernels, the shared SRAM, and the mirror bookkeeping, handed to the
/// active [`MemoryModel`] once per cycle in place of
/// `sync_shared_vars`. Shared indices address `shared_vars` in
/// registration order.
struct SystemBus<'a> {
    slaves: &'a mut [SlaveCore],
    sram: &'a mut SharedSram,
    shared_vars: &'a [SharedVar],
    mirror: &'a mut [i64],
}

impl SharedVarBus for SystemBus<'_> {
    fn slaves(&self) -> usize {
        self.slaves.len()
    }

    fn shared_count(&self) -> usize {
        self.shared_vars.len()
    }

    fn local(&self, slave: usize, idx: usize) -> i64 {
        self.slaves[slave]
            .kernel
            .var(self.shared_vars[idx].var)
            .unwrap_or(self.mirror[idx])
    }

    fn agreed(&self, idx: usize) -> i64 {
        self.mirror[idx]
    }

    fn set_local(&mut self, slave: usize, idx: usize, value: i64) {
        self.slaves[slave]
            .kernel
            .set_var(self.shared_vars[idx].var, value);
    }

    fn publish(&mut self, idx: usize, value: i64) {
        self.mirror[idx] = value;
        let _ = self
            .sram
            .write_bytes(self.shared_vars[idx].sram_offset, &value.to_le_bytes());
    }

    fn take_fences(&mut self, slave: usize) -> u64 {
        self.slaves[slave].kernel.take_fences()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::set;
    use ptest_pcore::{Op, Priority, Program, ProgramId, SvcReply, TaskState, VarId};

    fn sys() -> MultiCoreSystem {
        MultiCoreSystem::new(SystemConfig::default())
    }

    fn exit_prog(s: &mut MultiCoreSystem) -> ProgramId {
        s.kernel_of_mut(0)
            .register_program(Program::exit_immediately())
    }

    #[test]
    fn committer_path_roundtrip() {
        let mut s = sys();
        let p = exit_prog(&mut s);
        create_on(&mut s, 0, p, 5);
        s.run(50);
        let resps: Vec<_> = s.drain_responses().collect();
        assert_eq!(resps.len(), 1);
        assert!(matches!(resps[0].result, Ok(SvcReply::Created(_))));
        assert!(s.run_until_quiescent(1_000));
    }

    #[test]
    fn scripted_thread_creates_and_finishes() {
        let mut s = sys();
        let p = exit_prog(&mut s);
        let m1 = s.add_thread(
            "M1",
            vec![
                MasterOp::IssueAndWait(SvcRequest::Create {
                    program: p,
                    priority: Priority::new(5),
                    stack_bytes: None,
                }),
                MasterOp::Done,
            ],
        );
        assert!(s.run_until_quiescent(5_000));
        let t = s.thread(m1).unwrap();
        assert!(t.is_done());
        assert!(t.bound_task.is_some());
        assert!(matches!(
            t.last_response.as_ref().unwrap().result,
            Ok(SvcReply::Created(_))
        ));
    }

    #[test]
    fn two_threads_time_share() {
        let mut s = sys();
        let m1 = s.add_thread("M1", vec![MasterOp::Compute(50), MasterOp::Done]);
        let m2 = s.add_thread("M2", vec![MasterOp::Compute(50), MasterOp::Done]);
        s.run(40);
        // With a quantum of 5, both threads must have made progress.
        let t1 = s.thread(m1).unwrap();
        let t2 = s.thread(m2).unwrap();
        assert!(t1.ops_retired > 0 || t1.compute_remaining < 50);
        assert!(t2.ops_retired > 0 || t2.compute_remaining < 50);
        assert!(s.run_until_quiescent(200));
    }

    #[test]
    fn poke_peek_via_commands() {
        let mut s = sys();
        s.issue_to(
            0,
            SvcRequest::PokeVar {
                var: VarId(2),
                value: 123,
            },
        )
        .unwrap();
        s.run(20);
        s.issue_to(0, SvcRequest::PeekVar { var: VarId(2) })
            .unwrap();
        s.run(20);
        let resps: Vec<_> = s.drain_responses().collect();
        assert_eq!(resps.len(), 2);
        assert_eq!(resps[1].result, Ok(SvcReply::Value(123)));
    }

    #[test]
    fn commands_beyond_the_service_budget_are_not_stranded() {
        let mut s = sys();
        let burst = s.cfg.slave_budget + 4;
        for _ in 0..burst {
            s.issue_to(0, SvcRequest::PeekVar { var: VarId(0) })
                .unwrap();
        }
        s.run(1_000);
        assert_eq!(s.pending_commands(), 0, "leftover commands were serviced");
        assert_eq!(s.drain_responses().len(), burst);
        assert_eq!(s.quiescent_horizon(), IdleHorizon::Unbounded);
    }

    #[test]
    fn slave_task_actually_runs() {
        let mut s = sys();
        let prog = s.kernel_of_mut(0).register_program(
            Program::new(vec![
                ptest_pcore::Op::WriteVar {
                    var: VarId(0),
                    value: 7,
                },
                ptest_pcore::Op::Exit,
            ])
            .unwrap(),
        );
        create_on(&mut s, 0, prog, 3);
        assert!(s.run_until_quiescent(1_000));
        assert_eq!(s.kernel_of(0).var(VarId(0)), Some(7));
    }

    #[test]
    fn crash_detected_via_timeouts() {
        let mut cfg = SystemConfig::default();
        cfg.kernel.heap_bytes = 1024; // two creates exceed this
        let mut s = MultiCoreSystem::new(cfg);
        let p = exit_prog(&mut s);
        // Park a long-running task so its memory stays live.
        let hog = s.kernel_of_mut(0).register_program(
            Program::new(vec![
                ptest_pcore::Op::Compute(1_000_000),
                ptest_pcore::Op::Exit,
            ])
            .unwrap(),
        );
        create_on(&mut s, 0, hog, 1);
        s.run(20);
        create_on(&mut s, 0, p, 2);
        s.run(20);
        assert!(s.slave_crashed(), "second create must OOM-panic the kernel");
        assert!(s.slave_crashed_at(0));
        // Commands issued after the crash never complete.
        s.issue_to(0, SvcRequest::PeekVar { var: VarId(0) })
            .unwrap();
        s.run(600);
        assert_eq!(s.overdue_for(0, Cycles::new(500)).len(), 1);
    }

    #[test]
    fn fire_and_forget_issue_lands_in_inbox() {
        let mut s = sys();
        let p = exit_prog(&mut s);
        s.add_thread(
            "M1",
            vec![
                MasterOp::Issue(SvcRequest::Create {
                    program: p,
                    priority: Priority::new(5),
                    stack_bytes: None,
                }),
                MasterOp::Done,
            ],
        );
        assert!(s.run_until_quiescent(5_000));
        // The thread never waited, so the response went to the inbox.
        let resps: Vec<_> = s.drain_responses().collect();
        assert_eq!(resps.len(), 1);
        assert!(matches!(resps[0].result, Ok(SvcReply::Created(_))));
    }

    #[test]
    fn master_thread_trace_is_pinned() {
        let mut s = sys();
        let p = exit_prog(&mut s);
        let create = SvcRequest::Create {
            program: p,
            priority: Priority::new(5),
            stack_bytes: None,
        };
        let peek = SvcRequest::PeekVar { var: VarId(0) };
        let m1 = s.add_thread(
            "M1",
            vec![
                MasterOp::Issue(create),
                MasterOp::IssueAndWait(create),
                MasterOp::Compute(3),
                MasterOp::Done,
            ],
        );
        let mut burst = vec![MasterOp::Issue(peek); 33];
        burst.push(MasterOp::Done);
        let m2 = s.add_thread("M2", burst);
        // A stalled slave lets the burst fill the 32-deep command ring,
        // so its last issue meets a full ring and retries every cycle
        // until the slave services again.
        s.cfg.slave_budget = 0;
        s.run(40);
        s.cfg.slave_budget = 16;
        assert!(s.run_until_quiescent(1_000));
        let create = "Create { program: ProgramId(0), priority: Priority(5), stack_bytes: None }";
        let peek_line = |at: u64, cmd: u64| {
            format!("[{at}cy ARM cmd] M2 issues cmd{cmd} PeekVar {{ var: VarId(0) }}")
        };
        let mut expected = vec![
            format!("[1cy ARM cmd] M1 issues cmd1 {create}"),
            format!("[2cy ARM cmd] M1 issues cmd2 {create} (waits)"),
        ];
        expected.extend((3..=32).map(|i| peek_line(i, i)));
        expected.extend([
            peek_line(41, 33),
            peek_line(42, 34),
            "[46cy ARM thread] M1 done".to_string(),
            peek_line(47, 35),
            "[48cy ARM thread] M2 done".to_string(),
        ]);
        let events: Vec<String> = s.trace().iter().map(ToString::to_string).collect();
        assert_eq!(events, expected);
        let (t1, t2) = (s.thread(m1).unwrap(), s.thread(m2).unwrap());
        assert_eq!((t1.ops_retired, t1.state), (3, ThreadState::Done));
        assert_eq!((t2.ops_retired, t2.state), (33, ThreadState::Done));
        // Only the fire-and-forget responses reach the inbox.
        assert_eq!(s.drain_responses().len(), 34);
    }

    #[test]
    fn a_dropped_drain_empties_the_inbox() {
        let mut s = sys();
        for _ in 0..3 {
            s.issue_to(0, SvcRequest::PeekVar { var: VarId(0) })
                .unwrap();
        }
        s.run(50);
        assert_eq!(s.pending_commands(), 0, "all three were answered");
        let mut drain = s.drain_responses();
        assert_eq!(drain.len(), 3);
        assert!(drain.next().is_some());
        drop(drain);
        assert_eq!(s.drain_responses().len(), 0);
    }

    #[test]
    fn sleeping_thread_resumes_on_schedule() {
        let mut s = sys();
        let m = s.add_thread(
            "M1",
            vec![
                MasterOp::SleepFor(200),
                MasterOp::Compute(5),
                MasterOp::Done,
            ],
        );
        s.run(100);
        assert!(!s.thread(m).unwrap().is_done(), "still sleeping");
        s.run(400);
        assert!(s.thread(m).unwrap().is_done());
    }

    #[test]
    fn quiescence_not_reached_by_spinning_task() {
        let mut s = sys();
        let spin = s
            .kernel_of_mut(0)
            .register_program(Program::new(vec![ptest_pcore::Op::Jump(0)]).unwrap());
        create_on(&mut s, 0, spin, 3);
        assert!(!s.run_until_quiescent(2_000));
        let snap = s.snapshot_of(0);
        assert_eq!(snap.live_tasks(), 1);
        assert!(matches!(snap.tasks[0].state, TaskState::Ready));
    }

    // --- multi-slave behaviour -------------------------------------------

    fn create_on(s: &mut MultiCoreSystem, slave: usize, prog: ProgramId, prio: u8) {
        s.issue_to(
            slave,
            SvcRequest::Create {
                program: prog,
                priority: Priority::new(prio),
                stack_bytes: None,
            },
        )
        .unwrap();
    }

    #[test]
    fn slaves_run_isolated_kernels() {
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(3));
        assert_eq!(s.slave_count(), 3);
        for slave in 0..3 {
            let prog = s.kernel_of_mut(slave).register_program(
                Program::new(vec![
                    Op::WriteVar {
                        var: VarId(0),
                        value: slave as i64 + 1,
                    },
                    Op::Exit,
                ])
                .unwrap(),
            );
            create_on(&mut s, slave, prog, 5);
        }
        assert!(s.run_until_quiescent(5_000));
        for slave in 0..3 {
            assert_eq!(
                s.kernel_of(slave).var(VarId(0)),
                Some(slave as i64 + 1),
                "each kernel keeps its own variable store"
            );
            assert_eq!(s.kernel_of(slave).core(), CoreId::slave(slave));
        }
        assert_eq!(s.drain_responses().len(), 3);
        assert_eq!(s.snapshots().len(), 3);
    }

    #[test]
    fn one_crashed_slave_does_not_kill_the_others() {
        let mut cfg = SystemConfig::with_slaves(2);
        cfg.kernel.heap_bytes = 1024; // one create fits, two do not
        let mut s = MultiCoreSystem::new(cfg);
        let hog = s
            .kernel_of_mut(0)
            .register_program(Program::new(vec![Op::Compute(1_000_000), Op::Exit]).unwrap());
        let ok = s
            .kernel_of_mut(1)
            .register_program(Program::exit_immediately());
        create_on(&mut s, 0, hog, 1);
        s.run(20);
        create_on(&mut s, 0, hog, 2); // OOM: kills slave 0
        s.run(20);
        assert!(s.slave_crashed_at(0));
        assert!(!s.slave_crashed_at(1));
        // Slave 1 still services commands; slave 0 is silent from now on.
        create_on(&mut s, 1, ok, 5);
        s.issue_to(0, SvcRequest::PeekVar { var: VarId(0) })
            .unwrap();
        s.run(200);
        let resps: Vec<_> = s.drain_responses().collect();
        assert!(
            resps.iter().any(|r| r.slave == 1 && r.result.is_ok()),
            "healthy slave keeps answering: {resps:?}"
        );
        // Slave 0's unanswered command is overdue; slave 1 is clean.
        s.run(600);
        assert!(!s.overdue_for(0, Cycles::new(500)).is_empty());
        assert!(s.overdue_for(1, Cycles::new(500)).is_empty());
    }

    #[test]
    fn semaphore_links_forward_tokens_across_kernels() {
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(2));
        let outbox = s.kernel_of_mut(0).create_semaphore(0);
        let inbox = s.kernel_of_mut(1).create_semaphore(0);
        s.link_semaphores(0, outbox, 1, inbox).unwrap();
        // Producer on slave 0 posts twice; consumer on slave 1 waits twice.
        let producer = s.kernel_of_mut(0).register_program(
            Program::new(vec![Op::SemPost(outbox), Op::SemPost(outbox), Op::Exit]).unwrap(),
        );
        let consumer = s.kernel_of_mut(1).register_program(
            Program::new(vec![
                Op::SemWait(inbox),
                Op::SemWait(inbox),
                Op::WriteVar {
                    var: VarId(1),
                    value: 99,
                },
                Op::Exit,
            ])
            .unwrap(),
        );
        create_on(&mut s, 1, consumer, 5);
        s.run(50); // consumer blocks first
        create_on(&mut s, 0, producer, 5);
        assert!(s.run_until_quiescent(10_000));
        assert_eq!(s.kernel_of(1).var(VarId(1)), Some(99));
    }

    #[test]
    fn same_slave_links_and_bad_indices_are_rejected() {
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(2));
        let a = s.kernel_of_mut(0).create_semaphore(0);
        assert_eq!(s.link_semaphores(0, a, 0, a), Err(CouplingError::SameSlave));
        assert_eq!(
            s.link_semaphores(0, a, 5, a),
            Err(CouplingError::NoSuchSlave { slave: 5 })
        );
        assert!(s.sem_links().is_empty());
    }

    #[test]
    fn shared_vars_mirror_across_kernels_with_last_writer_wins() {
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(2));
        s.share_var(VarId(2), 0x3_0000).unwrap();
        assert_eq!(s.shared_vars().len(), 1);
        let writer = |value: i64| {
            Program::new(vec![
                Op::WriteVar {
                    var: VarId(2),
                    value,
                },
                Op::Exit,
            ])
            .unwrap()
        };
        let p0 = s.kernel_of_mut(0).register_program(writer(41));
        create_on(&mut s, 0, p0, 5);
        assert!(s.run_until_quiescent(5_000));
        // Slave 0's write propagated to slave 1's kernel.
        assert_eq!(s.kernel_of(1).var(VarId(2)), Some(41));
        let p1 = s.kernel_of_mut(1).register_program(writer(42));
        create_on(&mut s, 1, p1, 5);
        assert!(s.run_until_quiescent(5_000));
        assert_eq!(s.kernel_of(0).var(VarId(2)), Some(42));
    }

    #[test]
    fn same_cycle_shared_var_race_adopts_the_highest_indexed_writer() {
        // Pin the mirroring epoch's tie-break: divergent values are
        // adopted in ascending slave order, so when two slaves update the
        // same variable within one cycle the *highest-indexed* writer
        // wins — not the chronologically last store. The docs (ROADMAP,
        // README, this module) all describe exactly this rule.
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(3));
        s.share_var(VarId(2), 0x3_0000).unwrap();
        s.kernel_of_mut(0).set_var(VarId(2), 10);
        s.kernel_of_mut(1).set_var(VarId(2), 20);
        s.step();
        for slave in 0..3 {
            assert_eq!(
                s.kernel_of(slave).var(VarId(2)),
                Some(20),
                "slave {slave} must hold the highest-indexed divergent value"
            );
        }
        // And the mirror keeps working from the agreed value afterwards.
        s.kernel_of_mut(2).set_var(VarId(2), 30);
        s.step();
        assert_eq!(s.kernel_of(0).var(VarId(2)), Some(30));
    }

    // --- schedule exploration ---------------------------------------

    #[test]
    fn lock_step_scheduler_is_bit_identical_to_plain_step() {
        use crate::sched::LockStepScheduler;
        let build = || {
            let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(2));
            for slave in 0..2 {
                let prog = s.kernel_of_mut(slave).register_program(
                    Program::new(vec![
                        Op::Compute(30),
                        Op::WriteVar {
                            var: VarId(0),
                            value: 7,
                        },
                        Op::Exit,
                    ])
                    .unwrap(),
                );
                create_on(&mut s, slave, prog, 5);
            }
            s
        };
        let mut plain = build();
        let mut scheduled = build();
        let mut sched = LockStepScheduler;
        for _ in 0..500 {
            plain.step();
            scheduled.step_explored(Some(&mut sched), None);
            assert_eq!(plain.now(), scheduled.now());
            assert_eq!(plain.snapshots(), scheduled.snapshots());
        }
        assert_eq!(
            plain
                .trace()
                .tail(64)
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
            scheduled
                .trace()
                .tail(64)
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn random_priority_schedule_skews_relative_progress() {
        use crate::sched::{RandomPriorityConfig, RandomPriorityScheduler};
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(2));
        for slave in 0..2 {
            let prog = s.kernel_of_mut(slave).register_program(
                Program::new(vec![Op::AddReg { reg: 1, delta: 1 }, Op::Jump(0)]).unwrap(),
            );
            create_on(&mut s, slave, prog, 5);
        }
        s.run(50); // both tasks created and running
        let mut sched = RandomPriorityScheduler::new(
            2,
            1,
            RandomPriorityConfig {
                change_points: 0,
                horizon: 1,
                fairness_window: 64,
                ..RandomPriorityConfig::default()
            },
        );
        for _ in 0..1_000 {
            s.step_explored(Some(&mut sched), None);
        }
        let ops: Vec<u64> = (0..2)
            .map(|i| s.snapshot_of(i).tasks[0].ops_retired)
            .collect();
        // One leader runs ~64x faster than the backstopped follower; in
        // lock-step both would retire the same count.
        let (hi, lo) = (ops.iter().max().unwrap(), ops.iter().min().unwrap());
        assert!(
            *hi > *lo * 4,
            "randomized priorities must skew progress: {ops:?}"
        );
        assert!(*lo > 0, "fairness backstop keeps the follower moving");
    }

    #[test]
    fn scheduled_slaves_still_service_doorbells() {
        use crate::sched::{RandomPriorityConfig, RandomPriorityScheduler};
        // Even a slave the scheduler never advances answers commands:
        // interrupt servicing is not schedulable.
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(2));
        let mut sched = RandomPriorityScheduler::new(
            2,
            123,
            RandomPriorityConfig {
                change_points: 0,
                horizon: 1,
                fairness_window: 0,
                ..RandomPriorityConfig::default()
            },
        );
        s.issue_to(
            1,
            SvcRequest::PokeVar {
                var: VarId(2),
                value: 55,
            },
        )
        .unwrap();
        for _ in 0..100 {
            s.step_explored(Some(&mut sched), None);
        }
        let resps: Vec<_> = s.drain_responses().collect();
        assert_eq!(resps.len(), 1, "doorbell must be serviced: {resps:?}");
        assert_eq!(s.kernel_of(1).var(VarId(2)), Some(55));
    }

    #[test]
    #[should_panic(expected = "at least one slave")]
    fn zero_slave_system_panics() {
        let _ = MultiCoreSystem::new(SystemConfig {
            slaves: 0,
            ..SystemConfig::default()
        });
    }

    #[test]
    fn validate_rejects_zero_slaves() {
        let e = SystemConfig::with_slaves(0).validate().unwrap_err();
        assert!(e.starts_with("slaves:"), "{e}");
    }

    #[test]
    fn validate_rejects_more_slaves_than_the_sram_and_mailboxes_hold() {
        for slaves in [195, 257] {
            let e = SystemConfig::with_slaves(slaves).validate().unwrap_err();
            assert!(e.starts_with(&format!("slaves: {slaves} ")), "{e}");
        }
        // The largest valid count's bridge windows fit the OMAP SRAM, and
        // one more does not, so `new`'s layout init cannot fail on a
        // validated config.
        assert_eq!(SystemConfig::with_slaves(194).validate(), Ok(()));
        let sram = SharedSram::omap5912();
        let carve = |n| {
            sram.carve_windows(
                BridgeLayout::BASE_OFFSET,
                BridgeLayout::SLAVE_WINDOW_BYTES,
                n,
            )
        };
        assert!(carve(194).is_ok() && carve(195).is_err());
    }

    #[test]
    fn validate_rejects_a_zero_system_trace_capacity() {
        let cfg = SystemConfig {
            trace_capacity: 0,
            ..SystemConfig::default()
        };
        let e = cfg.validate().unwrap_err();
        assert!(e.starts_with("trace_capacity:"), "{e}");
    }

    #[test]
    fn validate_rejects_a_zero_kernel_trace_capacity() {
        let mut cfg = SystemConfig::default();
        cfg.kernel.trace_capacity = 0;
        let e = cfg.validate().unwrap_err();
        assert!(e.starts_with("kernel.trace_capacity:"), "{e}");
    }

    #[test]
    fn debug_shows_only_the_sram_pages_written() {
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(3));
        // Building writes only the three bridge windows' ring headers, all
        // in page 0 (slave 2's response records would reach page 1).
        assert!(
            format!("{s:?}").contains("sram: SharedSram { capacity: 256000, written_pages: [0] }")
        );
        s.share_var(VarId(2), 0x3_1000).unwrap();
        assert!(format!("{s:?}")
            .contains("sram: SharedSram { capacity: 256000, written_pages: [0, 49] }"));
    }

    // --- memory-model exploration ------------------------------------

    #[test]
    fn store_buffer_delays_cross_core_visibility_but_stays_bounded() {
        use crate::mem::{MemoryModelSpec, StoreBufferConfig};
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(2));
        s.share_var(VarId(2), 0x3_0000).unwrap();
        let spec = MemoryModelSpec::StoreBuffer(StoreBufferConfig {
            max_delay: 40,
            capacity: 8,
        });
        let mut model = spec.model(7).expect("store buffer builds a model");
        // Warm the model's view of the platform, then store out-of-band.
        s.step_explored(None, Some(model.as_mut()));
        s.kernel_of_mut(0).set_var(VarId(2), 77);
        let mut delay = 0u64;
        while s.kernel_of(1).var(VarId(2)) != Some(77) {
            s.step_explored(None, Some(model.as_mut()));
            delay += 1;
            assert!(delay <= 41, "delivery must be bounded by max_delay");
        }
        assert!(
            delay > 1,
            "seed 7 with max_delay 40 must actually delay the store"
        );
        assert_eq!(
            s.kernel_of(0).var(VarId(2)),
            Some(77),
            "writer keeps forward visibility the whole time"
        );
    }

    #[test]
    fn fence_op_drains_the_store_buffer_through_the_platform() {
        use crate::mem::{MemoryModelSpec, StoreBufferConfig};
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(2));
        s.share_var(VarId(2), 0x3_0000).unwrap();
        let fenced = s.kernel_of_mut(0).register_program(
            Program::new(vec![
                Op::WriteVar {
                    var: VarId(2),
                    value: 5,
                },
                Op::Fence,
                Op::Compute(200),
                Op::Exit,
            ])
            .unwrap(),
        );
        let spec = MemoryModelSpec::StoreBuffer(StoreBufferConfig {
            max_delay: 10_000,
            capacity: 8,
        });
        let mut model = spec.model(3).expect("store buffer builds a model");
        create_on(&mut s, 0, fenced, 5);
        // Without the fence a 10k-cycle delay would hide the store for
        // the whole run; the fence forces it out within a few cycles of
        // retiring.
        for _ in 0..200 {
            s.step_explored(None, Some(model.as_mut()));
        }
        assert_eq!(s.kernel_of(1).var(VarId(2)), Some(5));
    }

    #[test]
    fn zero_delay_store_buffer_matches_the_seq_cst_epoch() {
        use crate::mem::{MemoryModelSpec, StoreBufferConfig};
        let build = || {
            let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(2));
            s.share_var(VarId(2), 0x3_0000).unwrap();
            let writer = s.kernel_of_mut(0).register_program(
                Program::new(vec![
                    Op::Compute(25),
                    Op::WriteVar {
                        var: VarId(2),
                        value: 9,
                    },
                    Op::Exit,
                ])
                .unwrap(),
            );
            let reader = s.kernel_of_mut(1).register_program(
                Program::new(vec![
                    Op::BranchIfVarEq {
                        var: VarId(2),
                        value: 9,
                        target: 3,
                    },
                    Op::Compute(1),
                    Op::Jump(0),
                    Op::Exit,
                ])
                .unwrap(),
            );
            create_on(&mut s, 0, writer, 5);
            create_on(&mut s, 1, reader, 5);
            s
        };
        let mut epoch = build();
        let mut modeled = build();
        let spec = MemoryModelSpec::StoreBuffer(StoreBufferConfig {
            max_delay: 0,
            capacity: 8,
        });
        let mut model = spec.model(99).expect("store buffer builds a model");
        for _ in 0..500 {
            epoch.step();
            modeled.step_explored(None, Some(model.as_mut()));
            assert_eq!(epoch.snapshots(), modeled.snapshots());
        }
    }

    // --- event-driven fast-forward ------------------------------------

    /// A system whose only task computes briefly, then sleeps `sleep`
    /// cycles, then exits — the canonical fast-forwardable workload.
    fn sleeper_sys(sleep: u32) -> MultiCoreSystem {
        let mut s = sys();
        let prog = s.kernel_of_mut(0).register_program(
            Program::new(vec![Op::Compute(5), Op::SleepFor(sleep), Op::Exit]).unwrap(),
        );
        create_on(&mut s, 0, prog, 5);
        s
    }

    /// Steps `s` until its horizon certifies an idle window, returning
    /// the window length (cycles strictly before the horizon). Drains
    /// the response inbox each cycle as a trial's committer would — an
    /// undrained inbox is a (conservative) disqualifier.
    fn step_to_idle(s: &mut MultiCoreSystem, max: u64) -> u64 {
        for _ in 0..max {
            s.step();
            s.drain_responses();
            if let IdleHorizon::Until(at) = s.quiescent_horizon() {
                let skip = at.saturating_sub(s.now().get() + 1);
                if skip > 0 {
                    return skip;
                }
            }
        }
        panic!("no skippable idle window found within {max} cycles");
    }

    #[test]
    fn lock_step_fast_forward_matches_stepping() {
        let mut stepped = sleeper_sys(5_000);
        let mut forwarded = sleeper_sys(5_000);
        let skip = step_to_idle(&mut stepped, 200);
        assert_eq!(step_to_idle(&mut forwarded, 200), skip);
        forwarded.fast_forward_idle(skip);
        for _ in 0..skip {
            stepped.step();
        }
        assert_eq!(stepped.now(), forwarded.now());
        assert_eq!(stepped.snapshots(), forwarded.snapshots());
        // Both runs continue identically to quiescence: the sleeper
        // wakes at the horizon and exits.
        assert!(stepped.run_until_quiescent(10_000));
        assert!(forwarded.run_until_quiescent(10_000));
        assert_eq!(stepped.now(), forwarded.now());
        assert_eq!(stepped.snapshots(), forwarded.snapshots());
        assert_eq!(
            stepped.drain_responses().collect::<Vec<_>>(),
            forwarded.drain_responses().collect::<Vec<_>>()
        );
    }

    #[test]
    fn scheduled_fast_forward_matches_stepping() {
        use crate::sched::{RandomPriorityConfig, RandomPriorityScheduler};
        let cfg = RandomPriorityConfig::default();
        let mut stepped = sleeper_sys(4_000);
        let mut forwarded = sleeper_sys(4_000);
        let mut sched_a = RandomPriorityScheduler::new(1, 77, cfg);
        let mut sched_b = RandomPriorityScheduler::new(1, 77, cfg);
        let idle_at = loop {
            stepped.step_explored(Some(&mut sched_a), None);
            forwarded.step_explored(Some(&mut sched_b), None);
            stepped.drain_responses();
            forwarded.drain_responses();
            if let IdleHorizon::Until(at) = forwarded.quiescent_horizon() {
                if at > forwarded.now().get() + 1 {
                    break at;
                }
            }
            assert!(forwarded.now().get() < 1_000, "no idle window found");
        };
        let skip = idle_at - forwarded.now().get() - 1;
        forwarded.fast_forward_idle_with(skip, &mut sched_b);
        for _ in 0..skip {
            stepped.step_explored(Some(&mut sched_a), None);
        }
        assert_eq!(stepped.now(), forwarded.now());
        assert_eq!(stepped.snapshots(), forwarded.snapshots());
        // Post-window behaviour (wake, exit, response delivery) must
        // stay identical — the scheduler states agree too.
        for _ in 0..6_000 {
            stepped.step_explored(Some(&mut sched_a), None);
            forwarded.step_explored(Some(&mut sched_b), None);
        }
        assert_eq!(stepped.snapshots(), forwarded.snapshots());
        assert_eq!(
            stepped.drain_responses().collect::<Vec<_>>(),
            forwarded.drain_responses().collect::<Vec<_>>()
        );
    }

    /// Starts on `slave` a task that spins down a 2,000-iteration
    /// countdown, polling a variable nobody writes.
    fn spin_on(s: &mut MultiCoreSystem, slave: usize) {
        let mut b = ptest_pcore::ProgramBuilder::new();
        b.push(Op::AddReg {
            reg: 0,
            delta: 2_000,
        });
        b.bind("spin");
        b.branch_if_var_eq(VarId(3), 1, "done");
        b.push(Op::AddReg { reg: 0, delta: -1 });
        b.branch_if_reg_eq(0, 0, "done");
        b.jump_to("spin");
        b.bind("done");
        b.push(Op::Exit);
        let spin = s.kernel_of_mut(slave).register_program(b.build().unwrap());
        create_on(s, slave, spin, 5);
    }

    /// Slave 0 spins down the countdown; slave 1 naps between compute
    /// bursts.
    fn spinner_sys() -> MultiCoreSystem {
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(2));
        spin_on(&mut s, 0);
        let nap = s.kernel_of_mut(1).register_program(
            Program::new(vec![
                Op::Compute(5),
                Op::SleepFor(3_000),
                Op::Compute(5),
                Op::Exit,
            ])
            .unwrap(),
        );
        create_on(&mut s, 1, nap, 5);
        s
    }

    /// Both slaves spin down the countdown: two steady kernels runnable
    /// at once, which a randomized schedule takes turns between.
    fn spinners_sys() -> MultiCoreSystem {
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(2));
        spin_on(&mut s, 0);
        spin_on(&mut s, 1);
        s
    }

    /// [`spinners_sys`] across a word boundary of a [`SlaveSet`]: 65
    /// slaves, spinners on slaves 63 and 64.
    fn wide_spinners_sys() -> MultiCoreSystem {
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(65));
        spin_on(&mut s, 63);
        spin_on(&mut s, 64);
        s
    }

    /// How [`run_to`] fast-forwards a system.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Forward {
        /// Never: every cycle is stepped.
        Never,
        /// Through every window the engine's certificate allows.
        Certified,
        /// Through the lock-step horizon, which never asks the
        /// scheduler, in the order ptbench's traced loop calls it.
        LockStepHorizon,
    }

    /// Runs `s` to cycle `end`, fast-forwarding as `forward` says;
    /// returns the cycles skipped.
    fn run_to(
        s: &mut MultiCoreSystem,
        sched: &mut Option<Box<dyn Scheduler>>,
        forward: Forward,
        end: u64,
    ) -> u64 {
        let mut skipped = 0;
        while s.now().get() < end {
            let now = s.now().get();
            let (window, horizon) = match forward {
                Forward::Never => (None, IdleHorizon::Unknown),
                Forward::Certified => {
                    let window = s.certify(sched.as_deref(), None);
                    (Some(window), window.end())
                }
                Forward::LockStepHorizon => (None, s.quiescent_horizon()),
            };
            let target = match horizon {
                IdleHorizon::Until(at) => at.min(end),
                IdleHorizon::Unbounded => end,
                IdleHorizon::Unknown => 0,
            };
            if target > now + 1 {
                let skip = target - now - 1;
                match (window, sched.as_deref_mut()) {
                    (Some(window), sched) => s.advance(&window, skip, sched),
                    (None, Some(sched)) => s.fast_forward_idle_with(skip, sched),
                    (None, None) => s.fast_forward_idle(skip),
                }
                skipped += skip;
            }
            s.step_explored(sched.as_deref_mut(), None);
            s.drain_responses();
        }
        skipped
    }

    /// Runs two copies of `make()` to cycle 12,000, one stepped and one
    /// fast-forwarded, under the randomized schedule at `seed` (`None`:
    /// lock-step); asserts they end identical, traces included, and
    /// returns the forwarded one with the cycles it skipped.
    fn forwarded_matches_stepped(
        make: impl Fn() -> MultiCoreSystem,
        seed: Option<u64>,
    ) -> (MultiCoreSystem, u64) {
        forwarded_by_matches_stepped(make, seed, Forward::Certified)
    }

    /// [`forwarded_matches_stepped`], fast-forwarding as `forward` says.
    fn forwarded_by_matches_stepped(
        make: impl Fn() -> MultiCoreSystem,
        seed: Option<u64>,
        forward: Forward,
    ) -> (MultiCoreSystem, u64) {
        use crate::sched::{RandomPriorityConfig, RandomPriorityScheduler};
        let mut stepped = make();
        let mut forwarded = make();
        let slaves = stepped.slave_count();
        let scheduler = || {
            seed.map(|seed| {
                let cfg = RandomPriorityConfig {
                    horizon: 8_000,
                    ..RandomPriorityConfig::default()
                };
                Box::new(RandomPriorityScheduler::new(slaves, seed, cfg)) as Box<dyn Scheduler>
            })
        };
        let traces =
            |s: &MultiCoreSystem| -> Vec<Vec<ptest_soc::TraceEvent<ptest_pcore::KernelEvent>>> {
                (0..slaves)
                    .map(|i| s.kernel_of(i).trace().iter().cloned().collect())
                    .collect()
            };
        let (mut sched_a, mut sched_b) = (scheduler(), scheduler());
        run_to(&mut stepped, &mut sched_a, Forward::Never, 12_000);
        let skipped = run_to(&mut forwarded, &mut sched_b, forward, 12_000);
        assert_eq!(stepped.snapshots(), forwarded.snapshots(), "{seed:?}");
        assert_eq!(traces(&stepped), traces(&forwarded), "{seed:?}");
        (forwarded, skipped)
    }

    #[test]
    fn steady_spin_fast_forward_matches_stepping() {
        for seed in [None, Some(3), Some(4)] {
            let (forwarded, skipped) = forwarded_matches_stepped(spinner_sys, seed);
            assert!(skipped > 5_000, "seed {seed:?}: skipped only {skipped}");
            // The spin ran out and the napper finished, either way.
            assert_eq!(forwarded.kernel_of(0).live_task_count(), 0);
            assert_eq!(forwarded.kernel_of(1).live_task_count(), 0);
        }
        // Two spinners: under the randomized schedule both stay runnable,
        // so the schedule's plan, not the rotations, bounds the windows:
        // the leader spins until the other's fairness tick.
        for seed in [None, Some(1), Some(2), Some(3), Some(4)] {
            let (_, skipped) = forwarded_matches_stepped(spinners_sys, seed);
            assert!(skipped > 11_500, "seed {seed:?}: skipped only {skipped}");
            let (_, skipped) = forwarded_matches_stepped(wide_spinners_sys, seed);
            assert!(
                skipped > 11_500,
                "seed {seed:?}: 65 slaves skipped only {skipped}"
            );
        }
    }

    #[test]
    fn the_lock_step_horizon_forwards_a_schedule_past_its_plan() {
        // ptbench's traced loop certifies windows with the lock-step
        // horizon and then forwards them under the scheduler, so a
        // window may run past the plan's certified cycles.
        for seed in [Some(1), Some(2), Some(3), Some(4)] {
            let (_, skipped) =
                forwarded_by_matches_stepped(spinners_sys, seed, Forward::LockStepHorizon);
            assert!(skipped > 11_500, "seed {seed:?}: skipped only {skipped}");
        }
    }

    #[test]
    fn a_slave_the_schedule_starves_does_not_end_the_window() {
        // Slave 1 loops over a compute and a write, which never makes a
        // kernel steady. Where slave 0's spinner leads the randomized
        // schedule, slave 1 runs once per fairness window, and the
        // horizon freezes it in between.
        let looper_sys = || {
            let mut s = spinner_sys();
            let looper = s.kernel_of_mut(1).register_program(
                Program::new(vec![
                    Op::Compute(3),
                    Op::WriteVar {
                        var: VarId(5),
                        value: 1,
                    },
                    Op::Jump(0),
                ])
                .unwrap(),
            );
            create_on(&mut s, 1, looper, 9);
            s
        };
        let mut most = 0;
        for seed in [None, Some(1), Some(2), Some(3), Some(4)] {
            let (_, skipped) = forwarded_matches_stepped(looper_sys, seed);
            if seed.is_none() {
                assert_eq!(skipped, 0, "lock-step always runs the looper");
            }
            most = most.max(skipped);
        }
        assert!(most > 5_000, "skipped at most {most}");
    }

    #[test]
    fn quiescent_horizon_disqualifies_active_work() {
        let mut s = sys();
        assert_eq!(
            s.quiescent_horizon(),
            IdleHorizon::Unbounded,
            "an empty platform has nothing scheduled"
        );
        let prog = s
            .kernel_of_mut(0)
            .register_program(Program::new(vec![Op::Compute(50), Op::Exit]).unwrap());
        create_on(&mut s, 0, prog, 5);
        // In-flight command traffic disqualifies...
        assert_eq!(s.quiescent_horizon(), IdleHorizon::Unknown);
        s.run(5);
        // ...and so does the now-running task.
        assert_eq!(s.quiescent_horizon(), IdleHorizon::Unknown);
        assert!(s.run_until_quiescent(1_000));
        s.drain_responses();
        assert_eq!(
            s.quiescent_horizon(),
            IdleHorizon::Unbounded,
            "terminated tasks schedule nothing"
        );
    }

    #[test]
    fn quiescent_horizon_sees_master_thread_sleepers() {
        let mut s = sys();
        s.add_thread("M1", vec![MasterOp::SleepFor(300), MasterOp::Done]);
        s.step(); // thread executes SleepFor at cycle 1
                  // The thread stays `current` for one more cycle; the horizon
                  // must refuse to skip until the rotation retires it.
        while s.quiescent_horizon() == IdleHorizon::Unknown {
            s.step();
            assert!(s.now().get() < 10, "thread must leave the master slot");
        }
        let IdleHorizon::Until(at) = s.quiescent_horizon() else {
            panic!("a sleeping thread must bound the horizon");
        };
        assert_eq!(at, 301, "SleepFor(300) at cycle 1 wakes at 301");
        let skip = at - s.now().get() - 1;
        s.fast_forward_idle(skip);
        assert!(s.run_until_quiescent(50), "thread wakes and finishes");
    }

    #[test]
    fn snapshot_cache_tracks_epochs_and_scalars() {
        let mut s = sleeper_sys(2_000);
        let mut cache = SnapshotCache::new();
        s.run(40); // task created, computed, now asleep
        s.snapshots_into_cached(&mut cache);
        assert_eq!(cache.snapshots(), s.snapshots().as_slice());
        assert_eq!(cache.dirty(), set([0]), "first observation is dirty");
        s.run(10); // pure idle ticks: epoch unchanged
        s.snapshots_into_cached(&mut cache);
        assert!(
            cache.dirty().is_empty(),
            "idle ticks leave the kernel clean"
        );
        assert_eq!(
            cache.snapshots(),
            s.snapshots().as_slice(),
            "clean refresh still matches a full snapshot exactly"
        );
        s.run(3_000); // sleeper wakes, exits: epoch moved
        s.snapshots_into_cached(&mut cache);
        assert_eq!(cache.dirty(), set([0]), "state transitions re-dirty");
        assert_eq!(cache.snapshots(), s.snapshots().as_slice());
        cache.reset();
        s.snapshots_into_cached(&mut cache);
        assert_eq!(cache.dirty(), set([0]), "reset invalidates everything");
    }

    use crate::preempt::{ClockSkewConfig, InterruptConfig, PreemptionSpec, QuantumConfig};

    fn spin_prog(s: &mut MultiCoreSystem) -> ProgramId {
        s.kernel_of_mut(0)
            .register_program(Program::new(vec![Op::Jump(0)]).unwrap())
    }

    fn isr_prog(s: &mut MultiCoreSystem, slave: usize) -> ProgramId {
        let p = s.kernel_of_mut(slave).register_program(
            Program::new(vec![
                Op::WriteVar {
                    var: VarId(9),
                    value: 1,
                },
                Op::Exit,
            ])
            .unwrap(),
        );
        s.kernel_of_mut(slave).set_isr_program(p);
        p
    }

    #[test]
    fn inert_preemption_spec_changes_nothing() {
        let run_workload = |install: bool| {
            let mut s = sys();
            if install {
                s.install_preemption(&PreemptionSpec::default(), 0xDEAD_BEEF);
            }
            let p = exit_prog(&mut s);
            create_on(&mut s, 0, p, 5);
            s.run(200);
            s
        };
        let plain = run_workload(false);
        let inert = run_workload(true);
        assert_eq!(plain.snapshot_of(0), inert.snapshot_of(0));
        assert_eq!(inert.preemption_spec(), None, "inert spec installs nothing");
        assert_eq!(inert.total_preemptions(), 0);
        assert_eq!(inert.total_isr_runs(), 0);
        assert_eq!(inert.pending_injections(), 0);
    }

    #[test]
    fn quantum_rotates_cores_between_spinning_tasks() {
        let ops_of = |s: &MultiCoreSystem| -> Vec<u64> {
            let mut ops: Vec<u64> = s
                .snapshot_of(0)
                .tasks
                .iter()
                .map(|t| t.ops_retired)
                .collect();
            ops.sort_unstable();
            ops
        };
        let run_spinners = |spec: Option<PreemptionSpec>| {
            let mut s = sys();
            if let Some(spec) = spec {
                s.install_preemption(&spec, 3);
            }
            let p = spin_prog(&mut s);
            for pri in [5, 3] {
                s.issue_to(
                    0,
                    SvcRequest::Create {
                        program: p,
                        priority: Priority::new(pri),
                        stack_bytes: None,
                    },
                )
                .unwrap();
            }
            s.run(400);
            s
        };
        let unpreempted = run_spinners(None);
        assert_eq!(
            ops_of(&unpreempted)[0],
            0,
            "without a quantum the high-priority spinner starves the other"
        );
        let sliced = run_spinners(Some(PreemptionSpec {
            quantum: Some(QuantumConfig { cycles: 8 }),
            ..PreemptionSpec::default()
        }));
        assert!(
            ops_of(&sliced)[0] > 0,
            "quantum slices hand the core to the low-priority spinner"
        );
        assert!(sliced.total_preemptions() > 0);
    }

    #[test]
    fn planned_interrupts_run_the_isr_deterministically() {
        let spec = PreemptionSpec {
            interrupts: Some(InterruptConfig {
                count: 3,
                horizon: 200,
                injection_mask: u64::MAX,
            }),
            ..PreemptionSpec::default()
        };
        let run_once = || {
            let mut s = sys();
            isr_prog(&mut s, 0);
            s.install_preemption(&spec, 42);
            s.run(300);
            s
        };
        let a = run_once();
        assert_eq!(a.total_isr_runs(), 3, "every planned injection ran the ISR");
        assert_eq!(a.pending_injections(), 0);
        assert_eq!(
            a.kernel_of(0).var(VarId(9)),
            Some(1),
            "the ISR body executed"
        );
        assert!(
            a.trace()
                .iter()
                .any(|e| matches!(e.event, MasterEvent::IrqInject { .. })),
            "injections are traced"
        );
        let b = run_once();
        assert_eq!(
            a.snapshot_of(0),
            b.snapshot_of(0),
            "the irq axis replays exactly"
        );
    }

    #[test]
    fn fast_forward_replays_planned_injections_exactly() {
        let spec = PreemptionSpec {
            interrupts: Some(InterruptConfig {
                count: 2,
                horizon: 400,
                injection_mask: u64::MAX,
            }),
            ..PreemptionSpec::default()
        };
        let mk = || {
            let mut s = sys();
            isr_prog(&mut s, 0);
            s.install_preemption(&spec, 77);
            s
        };
        let mut stepped = mk();
        for _ in 0..500 {
            stepped.step();
        }
        let mut ffwd = mk();
        let mut rounds = 0;
        while ffwd.now().get() < 500 {
            let left = 500 - ffwd.now().get();
            match ffwd.quiescent_horizon() {
                IdleHorizon::Until(at) if at > ffwd.now().get() + 1 => {
                    ffwd.fast_forward_idle((at - ffwd.now().get() - 1).min(left));
                }
                IdleHorizon::Unbounded => ffwd.fast_forward_idle(left),
                _ => ffwd.step(),
            }
            rounds += 1;
            assert!(rounds < 1_000, "fast-forward must make progress");
        }
        assert!(
            rounds < 500,
            "the horizon must certify some skippable idle windows"
        );
        assert_eq!(stepped.total_isr_runs(), 2);
        assert_eq!(
            ffwd.snapshot_of(0),
            stepped.snapshot_of(0),
            "fast-forward is bit-identical across injection cycles"
        );
        assert_eq!(ffwd.total_isr_runs(), stepped.total_isr_runs());
    }

    #[test]
    fn clock_skew_diverges_per_slave_local_time() {
        let spec = PreemptionSpec {
            clock_skew: Some(ClockSkewConfig { max_rate: 512 }),
            ..PreemptionSpec::default()
        };
        let mut s = MultiCoreSystem::new(SystemConfig::with_slaves(3));
        s.install_preemption(&spec, 11);
        s.run(1_000);
        let mut distinct = std::collections::BTreeSet::new();
        for i in 0..3 {
            let local = s.local_time_of(i, s.now());
            assert_eq!(
                s.snapshot_of(i).now,
                local,
                "each kernel's clock is its local time"
            );
            assert!(local.get() >= 1_000, "skewed clocks only run fast");
            distinct.insert(local.get());
        }
        assert!(
            distinct.len() > 1,
            "a 50% max skew over 1000 cycles must separate 3 slaves: {distinct:?}"
        );
    }
}
