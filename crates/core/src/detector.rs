//! The bug detector (paper §II-B): monitors test progress, detects
//! failures, and dumps reproduction information.
//!
//! Detection rules, mapped to the paper's criteria ("if processes do not
//! terminate or stay in the same state for a period of time, the system
//! may contain synchronization anomalies"):
//!
//! * **Slave crash** — a kernel panicked (observed through the debug
//!   window) or commands time out against a silent slave.
//! * **Deadlock** — a cycle in a kernel's wait-for graph (`waiter →
//!   holder` edges over mutexes).
//! * **Cross-core deadlock** — a cycle *spanning kernels*: every live
//!   task of the involved slaves is blocked, and the slaves wait on each
//!   other through cross-core semaphore hand-off links
//!   ([`ptest_master::SemLink`]). Impossible on a single-slave platform.
//! * **Starvation** — a live task whose instruction counter has not moved
//!   for a whole observation window: either runnable-but-never-scheduled
//!   (CPU starvation under a spinning higher-priority task) or blocked
//!   forever on a resource nobody posts.
//! * **Livelock / no termination** — tasks that keep retiring
//!   instructions but never terminate after the committer has delivered
//!   the whole pattern (Figure 1's spin loops).
//! * **Task fault** — a task killed by a kernel (stack overflow, bad
//!   free, …), surfaced from exit records.
//!
//! On an N-slave [`MultiCoreSystem`] every rule runs per slave kernel in
//! slave order; on the dual-core platform the behaviour (including report
//! rendering) is identical to the historical single-kernel detector.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use ptest_master::{IdleHorizon, MultiCoreSystem, SlaveSet, SnapshotCache};
use ptest_pcore::{
    ExitKind, KernelEvent, KernelPanic, KernelSnapshot, TaskFault, TaskId, TaskState, WaitEdge,
};
use ptest_soc::{CoreId, Cycles, TraceEvent};

use crate::committer::Committer;
use crate::record::StateRecord;

/// Configuration of the bug detector.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// A command unanswered for this long indicates a crashed/wedged
    /// slave.
    pub command_timeout: Cycles,
    /// Observation window for the no-progress rules.
    pub progress_window: Cycles,
    /// How many trailing kernel-trace events to embed in bug reports.
    pub trace_tail: usize,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            command_timeout: Cycles::new(50_000),
            progress_window: Cycles::new(20_000),
            trace_tail: 64,
        }
    }
}

/// The kind of anomaly detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BugKind {
    /// A slave kernel died.
    SlaveCrash {
        /// The kernel's fatal condition.
        panic: KernelPanic,
    },
    /// Commands outstanding past the timeout against a silent slave.
    CommandTimeout {
        /// Number of overdue commands.
        overdue: usize,
    },
    /// A cycle in one kernel's wait-for graph.
    Deadlock {
        /// The tasks forming the cycle, in cycle order.
        cycle: Vec<TaskId>,
    },
    /// A wait-for cycle spanning kernels: each listed task is blocked on
    /// a cross-core semaphore hand-off fed by the next slave in the
    /// cycle. This class of bug cannot exist on a single-slave platform.
    CrossCoreDeadlock {
        /// The blocked tasks forming the cycle, as `(core, task)` pairs
        /// in cycle order.
        cycle: Vec<(CoreId, TaskId)>,
    },
    /// A task made no progress for a whole window.
    Starvation {
        /// The starved task.
        task: TaskId,
        /// Whether it was runnable (CPU starvation) or blocked (resource
        /// starvation).
        runnable: bool,
    },
    /// Tasks keep running but never terminate after the test pattern
    /// completed.
    Livelock {
        /// The non-terminating tasks.
        tasks: Vec<TaskId>,
    },
    /// A task was killed by a kernel-detected fault.
    TaskFault {
        /// The faulted task.
        task: TaskId,
        /// The fault.
        fault: TaskFault,
    },
}

impl BugKind {
    /// Whether this bug ends the run that found it: the slave crashed or
    /// went silent, or a deadlock or livelock will not resolve by itself.
    /// Task faults and starvation leave the system running, so a run
    /// keeps observing after them.
    #[must_use]
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            BugKind::SlaveCrash { .. }
                | BugKind::CommandTimeout { .. }
                | BugKind::Deadlock { .. }
                | BugKind::CrossCoreDeadlock { .. }
                | BugKind::Livelock { .. }
        )
    }

    /// The bug's class, as archived summaries name it: `"slave_crash"`,
    /// `"command_timeout"`, `"deadlock"`, `"cross_core_deadlock"`,
    /// `"starvation"`, `"livelock"` or `"task_fault"`.
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            BugKind::SlaveCrash { .. } => "slave_crash",
            BugKind::CommandTimeout { .. } => "command_timeout",
            BugKind::Deadlock { .. } => "deadlock",
            BugKind::CrossCoreDeadlock { .. } => "cross_core_deadlock",
            BugKind::Starvation { .. } => "starvation",
            BugKind::Livelock { .. } => "livelock",
            BugKind::TaskFault { .. } => "task_fault",
        }
    }
}

impl fmt::Display for BugKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BugKind::SlaveCrash { panic } => write!(f, "slave crash: {panic}"),
            BugKind::CommandTimeout { overdue } => {
                write!(f, "command timeout: {overdue} commands unanswered")
            }
            BugKind::Deadlock { cycle } => {
                let names: Vec<String> = cycle.iter().map(ToString::to_string).collect();
                write!(f, "deadlock cycle: {}", names.join(" -> "))
            }
            BugKind::CrossCoreDeadlock { cycle } => {
                let names: Vec<String> = cycle
                    .iter()
                    .map(|(core, task)| format!("{core}:{task}"))
                    .collect();
                write!(f, "cross-core deadlock cycle: {}", names.join(" -> "))
            }
            BugKind::Starvation { task, runnable } => {
                let how = if *runnable { "runnable" } else { "blocked" };
                write!(f, "starvation: {task} made no progress while {how}")
            }
            BugKind::Livelock { tasks } => {
                let names: Vec<String> = tasks.iter().map(ToString::to_string).collect();
                write!(f, "livelock/no-termination: {}", names.join(", "))
            }
            BugKind::TaskFault { task, fault } => write!(f, "task fault: {task} {fault}"),
        }
    }
}

/// A detected bug, with everything needed to reproduce it (the paper's
/// "dumps the related information to help users reproduce the bugs").
#[derive(Debug, Clone)]
pub struct Bug {
    /// What was detected.
    pub kind: BugKind,
    /// The slave core the anomaly concerns (slave 0 for master-side and
    /// system-wide anomalies like command timeouts; the first involved
    /// core for cross-core deadlocks).
    pub core: CoreId,
    /// Virtual time of detection.
    pub detected_at: Cycles,
    /// Snapshot of the concerned kernel at detection.
    pub snapshot: KernelSnapshot,
    /// Definition-2 state records of every controlled process.
    pub state_records: Vec<StateRecord>,
    /// Tail of the concerned kernel's trace (at most
    /// [`DetectorConfig::trace_tail`] events, oldest first), as the
    /// typed events the kernel recorded; each renders its report line
    /// (`[at core kind] detail`) through `Display`.
    pub trace_tail: Vec<TraceEvent<KernelEvent>>,
}

impl Bug {
    /// The bug's detail line: the kind, prefixed with the concerned core
    /// beyond slave 0 so multi-slave reports stay attributable while
    /// dual-core reports render byte-identically to the original tool.
    #[must_use]
    pub fn detail(&self) -> String {
        if self.core == CoreId::Slave(0) || matches!(self.kind, BugKind::CrossCoreDeadlock { .. }) {
            self.kind.to_string()
        } else {
            format!("[{}] {}", self.core, self.kind)
        }
    }
}

impl fmt::Display for Bug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.detected_at, self.detail())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Progress {
    ops: u64,
    since: Cycles,
}

/// A set of `(slave, task)` pairs: one 256-bit block per slave (task
/// slots are `u8`-indexed, so 256 bits covers every possible task id).
#[derive(Debug, Clone, Default)]
struct SlaveTaskSet {
    bits: Vec<[u64; 4]>,
}

impl SlaveTaskSet {
    /// Inserts the pair, returning `true` when it was not already present.
    fn insert(&mut self, slave: usize, task: TaskId) -> bool {
        if slave >= self.bits.len() {
            self.bits.resize(slave + 1, [0; 4]);
        }
        let slot = task.index();
        let mask = 1u64 << (slot % 64);
        let word = &mut self.bits[slave][slot / 64];
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    fn contains(&self, slave: usize, task: TaskId) -> bool {
        let slot = task.index();
        self.bits
            .get(slave)
            .is_some_and(|b| b[slot / 64] & (1u64 << (slot % 64)) != 0)
    }
}

/// The bug detector. Runs as an independent observer (the paper forks it
/// as a child process); here it is polled with
/// [`BugDetector::observe_cached`] at a configurable cadence.
///
/// A detector observes one system: its per-task progress records and
/// snapshot cache belong to the system it was first pointed at. Use a
/// fresh detector for each run.
#[derive(Debug, Clone)]
pub struct BugDetector {
    cfg: DetectorConfig,
    progress: HashMap<(usize, TaskId), Progress>,
    reported_faults: SlaveTaskSet,
    reported_deadlock: SlaveSet,
    reported_cross_core: bool,
    reported_crash: SlaveSet,
    reported_timeout: SlaveSet,
    reported_livelock: SlaveSet,
    reported_starvation: SlaveTaskSet,
    /// Virtual time at which the committer was first observed done.
    done_since: Option<Cycles>,
    /// `committer_done` at the previous observation: when the gate opens
    /// the gated rules must re-run even if every kernel is clean.
    last_done: bool,
    /// [`BugDetector::deadline`] as of the last observation.
    deadline: IdleHorizon,
    /// Reused across observations: the progress-rule work lists. The
    /// detector observes thousands of times per trial; without these the
    /// observation cadence dominates the trial's allocation profile.
    stalled_scratch: Vec<(usize, TaskId, bool)>,
    moving_scratch: Vec<(usize, TaskId)>,
}

impl BugDetector {
    /// Creates a detector.
    #[must_use]
    pub fn new(cfg: DetectorConfig) -> BugDetector {
        BugDetector {
            cfg,
            progress: HashMap::new(),
            reported_faults: SlaveTaskSet::default(),
            reported_deadlock: SlaveSet::default(),
            reported_cross_core: false,
            reported_crash: SlaveSet::default(),
            reported_timeout: SlaveSet::default(),
            reported_livelock: SlaveSet::default(),
            reported_starvation: SlaveTaskSet::default(),
            done_since: None,
            last_done: false,
            deadline: IdleHorizon::Unknown,
            stalled_scratch: Vec::new(),
            moving_scratch: Vec::new(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &DetectorConfig {
        &self.cfg
    }

    /// The first time at which a time-driven rule (starvation, livelock,
    /// command timeout) could report a bug, as of the last observation,
    /// provided every live task keeps retiring ops between observations
    /// if it did before the last one, and keeps retiring none if it did
    /// not: observations strictly before it report nothing new, and
    /// leave the detector as the last observation did, but for the
    /// moving tasks' progress times, which the next observation
    /// overwrites. [`IdleHorizon::Unknown`] while the committer is not
    /// done (the no-progress rules are gated off, and a new command may
    /// come), [`IdleHorizon::Unbounded`] if no such rule can fire.
    ///
    /// The state-driven rules are not covered: the caller must rule out
    /// crashes, faults, and wait-for or live-set changes meanwhile.
    #[must_use]
    pub fn deadline(&self) -> IdleHorizon {
        self.deadline
    }

    fn make_bug(
        &self,
        kind: BugKind,
        core: CoreId,
        sys: &MultiCoreSystem,
        committer: Option<&Committer>,
        snapshot: &KernelSnapshot,
    ) -> Bug {
        let slave = core.slave_index().unwrap_or(0);
        Bug {
            kind,
            core,
            detected_at: sys.now(),
            snapshot: snapshot.clone(),
            state_records: committer.map(|c| c.state_records(sys)).unwrap_or_default(),
            trace_tail: sys.kernel_of(slave).trace().tail(self.cfg.trace_tail),
        }
    }

    /// Observes the system once, returning any *newly* detected bugs
    /// (each anomaly is reported once).
    ///
    /// `committer_done` gates the no-progress rules: while commands are
    /// still being delivered, long-running tasks are expected, so only
    /// crash/timeout/deadlock/fault detection is active. Cross-core
    /// deadlock detection is likewise gated, because an in-flight
    /// `task_create` could still start the task that would resolve the
    /// wait.
    ///
    /// Observation goes through a caller-owned, epoch-keyed
    /// [`SnapshotCache`]: kernels whose change epoch is unchanged since
    /// the previous observation skip re-serialization (only their scalar
    /// counters are refreshed), and the state-change rules (crash, task
    /// fault, deadlock, cross-core) skip those *clean* kernels entirely.
    /// The time-driven rules (command timeout, starvation, livelock) run
    /// on every observation over the cached — content-identical —
    /// snapshots, so detection cadence and report bytes are unchanged;
    /// the observation also names the next time at which one of them
    /// could fire ([`BugDetector::deadline`]), so that a caller can
    /// leave out the observations before it.
    /// The trial engine passes its per-worker
    /// [`TrialScratch`](crate::TrialScratch) cache here so the snapshot
    /// buffers survive across trials, not just across steps. A fresh
    /// cache sees every kernel dirty, the uncached reference.
    ///
    /// The cache must be [`reset`](SnapshotCache::reset) between trials.
    pub fn observe_cached(
        &mut self,
        sys: &MultiCoreSystem,
        committer: Option<&Committer>,
        committer_done: bool,
        cache: &mut SnapshotCache,
    ) -> Vec<Bug> {
        sys.snapshots_into_cached(cache);
        self.check_rules(
            sys,
            committer,
            committer_done,
            cache.snapshots(),
            cache.dirty(),
        )
    }

    /// Runs every detection rule over this step's batched snapshots.
    /// Rule order (crash, timeout, fault, deadlock, cross-core,
    /// starvation, livelock — each per slave in slave order) is part of
    /// the archive format: reports must stay byte-identical across
    /// reruns *and* releases.
    ///
    /// `dirty` (the slaves whose kernel changed) gates the purely
    /// state-driven rules: a kernel whose change epoch has not moved
    /// since the last observation cannot newly panic, fault a task, or
    /// grow a wait-for cycle, so those rules skip it. Every state
    /// transition bumps the epoch *in* the transitioning cycle, and
    /// dirtiness is measured against the previous observation, so a
    /// changed kernel is always observed dirty at least once.
    fn check_rules(
        &mut self,
        sys: &MultiCoreSystem,
        committer: Option<&Committer>,
        committer_done: bool,
        snapshots: &[KernelSnapshot],
        dirty: SlaveSet,
    ) -> Vec<Bug> {
        let now = sys.now();
        let mut bugs = Vec::new();

        // --- Crash (debug window), per slave.
        for (slave, snapshot) in snapshots.iter().enumerate() {
            if !dirty.contains(slave) {
                continue;
            }
            if let Some(panic) = snapshot.panic {
                if self.reported_crash.insert(slave) {
                    bugs.push(self.make_bug(
                        BugKind::SlaveCrash { panic },
                        CoreId::slave(slave),
                        sys,
                        committer,
                        snapshot,
                    ));
                }
            }
        }
        // --- Crash (timeout path: silent slave), per lane. Time-driven:
        //     commands go overdue while the slave stays clean, so this
        //     rule never skips.
        for (slave, snapshot) in snapshots.iter().enumerate() {
            let overdue = sys.overdue_count_for(slave, self.cfg.command_timeout);
            if overdue > 0 && self.reported_timeout.insert(slave) {
                bugs.push(self.make_bug(
                    BugKind::CommandTimeout { overdue },
                    CoreId::slave(slave),
                    sys,
                    committer,
                    snapshot,
                ));
            }
        }
        // --- Task faults, per slave.
        for (slave, snapshot) in snapshots.iter().enumerate() {
            if !dirty.contains(slave) {
                continue;
            }
            for t in &snapshot.tasks {
                if let TaskState::Terminated(ExitKind::Faulted(fault)) = t.state {
                    if self.reported_faults.insert(slave, t.id) {
                        bugs.push(self.make_bug(
                            BugKind::TaskFault { task: t.id, fault },
                            CoreId::slave(slave),
                            sys,
                            committer,
                            snapshot,
                        ));
                    }
                }
            }
        }
        // --- Deadlock: cycle in one kernel's waiter -> holder edges.
        for (slave, snapshot) in snapshots.iter().enumerate() {
            if !dirty.contains(slave) {
                continue;
            }
            if !self.reported_deadlock.contains(slave) {
                if let Some(cycle) = find_cycle(&snapshot.wait_edges) {
                    self.reported_deadlock.insert(slave);
                    bugs.push(self.make_bug(
                        BugKind::Deadlock { cycle },
                        CoreId::slave(slave),
                        sys,
                        committer,
                        snapshot,
                    ));
                }
            }
        }
        // --- Cross-core deadlock: cycle spanning kernels through the
        //     registered semaphore hand-off links. The wait graph only
        //     changes when some kernel changes, so with every kernel
        //     clean the search is skipped — unless the committer-done
        //     gate just opened, which enables the rule on its own.
        let any_dirty = !dirty.is_empty();
        let gate_opened = committer_done != self.last_done;
        self.last_done = committer_done;
        if committer_done && !self.reported_cross_core && (any_dirty || gate_opened) {
            if let Some(cycle) = find_cross_core_cycle(sys, snapshots) {
                self.reported_cross_core = true;
                let first_core = cycle[0].0;
                let snapshot = &snapshots[first_core.slave_index().unwrap_or(0)];
                bugs.push(self.make_bug(
                    BugKind::CrossCoreDeadlock { cycle },
                    first_core,
                    sys,
                    committer,
                    snapshot,
                ));
            }
        }
        // --- Progress accounting for starvation/livelock, per slave.
        // `next` collects the deadline: here, the first time a frozen
        // task not yet reported could starve.
        let mut next: Option<u64> = None;
        let window = self.cfg.progress_window.get();
        let mut any_live = false;
        let mut stalled = std::mem::take(&mut self.stalled_scratch);
        let mut moving = std::mem::take(&mut self.moving_scratch);
        stalled.clear();
        moving.clear();
        for (slave, snapshot) in snapshots.iter().enumerate() {
            for t in &snapshot.tasks {
                if matches!(t.state, TaskState::Terminated(_)) {
                    self.progress.remove(&(slave, t.id));
                    continue;
                }
                any_live = true;
                let entry = self.progress.entry((slave, t.id)).or_insert(Progress {
                    ops: t.ops_retired,
                    since: now,
                });
                if t.ops_retired != entry.ops {
                    entry.ops = t.ops_retired;
                    entry.since = now;
                    moving.push((slave, t.id));
                } else if now.since(entry.since) >= self.cfg.progress_window {
                    let runnable = matches!(t.state, TaskState::Ready) && !t.suspended;
                    // Suspended tasks are intentionally parked by TS: not a bug.
                    if !t.suspended {
                        stalled.push((slave, t.id, runnable));
                    }
                } else if !t.suspended && !self.reported_starvation.contains(slave, t.id) {
                    let starves = entry.since.get().saturating_add(window);
                    next = Some(next.map_or(starves, |at| at.min(starves)));
                }
            }
        }
        if committer_done {
            let done_since = *self.done_since.get_or_insert(now);
            for &(slave, task, runnable) in &stalled {
                if self.reported_starvation.insert(slave, task) {
                    bugs.push(self.make_bug(
                        BugKind::Starvation { task, runnable },
                        CoreId::slave(slave),
                        sys,
                        committer,
                        &snapshots[slave],
                    ));
                }
            }
            // Livelock / no termination: live tasks still spinning a full
            // window after the whole pattern was delivered (Figure 1).
            // Reported once per slave so multi-slave spinners stay
            // attributable to their kernel.
            if any_live && now.since(done_since) >= self.cfg.progress_window {
                for (slave, snapshot) in snapshots.iter().enumerate() {
                    if self.reported_livelock.contains(slave) {
                        continue;
                    }
                    let tasks: Vec<TaskId> = moving
                        .iter()
                        .filter(|(s, _)| *s == slave)
                        .map(|&(_, t)| t)
                        .collect();
                    if tasks.is_empty() {
                        continue;
                    }
                    self.reported_livelock.insert(slave);
                    bugs.push(self.make_bug(
                        BugKind::Livelock { tasks },
                        CoreId::slave(slave),
                        sys,
                        committer,
                        snapshot,
                    ));
                }
            }
            // A slave still moving and not yet reported livelocks a full
            // window after the pattern was delivered; a pending command
            // times out (on any lane, which can only bring this earlier).
            let livelocks = moving
                .iter()
                .any(|&(slave, _)| !self.reported_livelock.contains(slave))
                .then(|| done_since.get().saturating_add(window));
            let times_out = sys.oldest_pending_issue().map(|issued| {
                issued
                    .get()
                    .saturating_add(self.cfg.command_timeout.get())
                    .saturating_add(1)
            });
            let next = [next, livelocks, times_out].into_iter().flatten().min();
            self.deadline = next.map_or(IdleHorizon::Unbounded, IdleHorizon::Until);
        } else {
            self.deadline = IdleHorizon::Unknown;
        }
        self.stalled_scratch = stalled;
        self.moving_scratch = moving;
        bugs
    }
}

/// Finds a cycle in the waiter→holder graph, if any, returning the tasks
/// on it in order (see [`first_cycle`]).
fn find_cycle(edges: &[WaitEdge]) -> Option<Vec<TaskId>> {
    // waiter -> holder (mutex edges only; semaphores have no holder).
    let next: BTreeMap<TaskId, TaskId> = edges
        .iter()
        .filter_map(|e| Some((e.waiter, e.holder?)))
        .collect();
    first_cycle(&next, |&holder| holder)
}

/// The first cycle of a successor map: walks from each key in ascending
/// order, stops at the first revisit, and returns the revisited loop
/// rotated to start at its smallest key, so reproduced runs report
/// byte-identical cycles. `successor` reads the next key from a value.
fn first_cycle<K: Ord + Copy, V>(
    next: &BTreeMap<K, V>,
    successor: impl Fn(&V) -> K,
) -> Option<Vec<K>> {
    for &start in next.keys() {
        let mut seen = vec![start];
        let mut cur = start;
        while let Some(value) = next.get(&cur) {
            cur = successor(value);
            if let Some(pos) = seen.iter().position(|&k| k == cur) {
                let mut cycle = seen.split_off(pos);
                let min_pos = (0..cycle.len()).min_by_key(|&i| cycle[i]).unwrap_or(0);
                cycle.rotate_left(min_pos);
                return Some(cycle);
            }
            seen.push(cur);
        }
    }
    None
}

/// Finds a wait-for cycle spanning kernels.
///
/// A slave is *stuck* when it has at least one live task and every live
/// task is blocked (not suspended — a suspended task can be resumed by
/// the master, and not sleeping — sleepers wake on their own). A stuck
/// slave `s` *depends on* slave `t` when some blocked task of `s` waits
/// on a semaphore that is the inbox of a hand-off link fed from `t`:
/// only `t`'s progress could produce the token. A cycle among stuck
/// slaves is a deadlock no local scheduler decision can resolve; the
/// reported cycle lists, per slave in cycle order, the blocked task
/// waiting on the cross-core inbox.
fn find_cross_core_cycle(
    sys: &MultiCoreSystem,
    snapshots: &[KernelSnapshot],
) -> Option<Vec<(CoreId, TaskId)>> {
    let links = sys.sem_links();
    if links.is_empty() {
        return None;
    }
    let stuck: Vec<bool> = snapshots
        .iter()
        .map(|snap| {
            let mut live = 0usize;
            let all_blocked = snap.tasks.iter().all(|t| match t.state {
                TaskState::Terminated(_) => true,
                TaskState::Blocked(reason) => {
                    if t.suspended || matches!(reason, ptest_pcore::WaitReason::Sleep { .. }) {
                        false
                    } else {
                        live += 1;
                        true
                    }
                }
                _ => false,
            });
            all_blocked && live > 0
        })
        .collect();
    // slave -> (feeder slave, the waiting task): deterministic by
    // ascending slave order, first blocked waiter wins.
    let mut depends: BTreeMap<usize, (usize, TaskId)> = BTreeMap::new();
    for (slave, snap) in snapshots.iter().enumerate() {
        if !stuck[slave] {
            continue;
        }
        'edges: for e in &snap.wait_edges {
            if let ptest_pcore::ResourceRef::Semaphore(sem) = e.resource {
                for link in links {
                    if link.to_slave == slave && link.to_sem == sem && stuck[link.from_slave] {
                        depends.entry(slave).or_insert((link.from_slave, e.waiter));
                        continue 'edges;
                    }
                }
            }
        }
    }
    let cycle = first_cycle(&depends, |&(feeder, _)| feeder)?;
    Some(
        cycle
            .into_iter()
            .map(|s| (CoreId::slave(s), depends[&s].1))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_pcore::{MutexId, ResourceRef};

    fn edge(w: u8, h: u8, m: u16) -> WaitEdge {
        WaitEdge {
            waiter: TaskId::new(w),
            resource: ResourceRef::Mutex(MutexId(m)),
            holder: Some(TaskId::new(h)),
        }
    }

    #[test]
    fn slave_sets_dedup_in_constant_time() {
        let mut s = SlaveSet::default();
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(70), "second word");
        assert!(s.contains(70));
        assert!(!s.contains(1));
        assert!(!s.contains(500));
        let mut ts = SlaveTaskSet::default();
        assert!(ts.insert(0, TaskId::new(5)));
        assert!(!ts.insert(0, TaskId::new(5)));
        assert!(ts.insert(1, TaskId::new(5)), "keyed by slave too");
        assert!(ts.insert(0, TaskId::new(200)), "full u8 task range");
        assert!(!ts.insert(0, TaskId::new(200)));
    }

    #[test]
    fn two_cycle_detected() {
        let cycle = find_cycle(&[edge(0, 1, 0), edge(1, 0, 1)]).unwrap();
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn three_cycle_detected() {
        let cycle = find_cycle(&[edge(0, 1, 0), edge(1, 2, 1), edge(2, 0, 2)]).unwrap();
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn chain_without_cycle_is_clean() {
        assert_eq!(find_cycle(&[edge(0, 1, 0), edge(1, 2, 1)]), None);
        assert_eq!(find_cycle(&[]), None);
    }

    #[test]
    fn self_cycle_detected() {
        // Cannot normally occur (recursive lock faults the task), but the
        // detector must not loop forever on it.
        let cycle = find_cycle(&[edge(5, 5, 0)]).unwrap();
        assert_eq!(cycle, vec![TaskId::new(5)]);
    }

    #[test]
    fn partial_cycle_with_tail_detected() {
        // 9 -> 0 -> 1 -> 2 -> 0 : cycle is (0 1 2).
        let cycle = find_cycle(&[edge(9, 0, 3), edge(0, 1, 0), edge(1, 2, 1), edge(2, 0, 2)]);
        let cycle = cycle.unwrap();
        assert_eq!(cycle.len(), 3);
        assert!(!cycle.contains(&TaskId::new(9)));
    }

    #[test]
    fn cycle_is_canonicalized_to_smallest_first() {
        let cycle = find_cycle(&[edge(2, 0, 0), edge(0, 1, 1), edge(1, 2, 2)]).unwrap();
        assert_eq!(
            cycle[0],
            TaskId::new(0),
            "rotation starts at min id: {cycle:?}"
        );
    }

    #[test]
    fn cross_core_display_names_cores() {
        let kind = BugKind::CrossCoreDeadlock {
            cycle: vec![
                (CoreId::Slave(0), TaskId::new(0)),
                (CoreId::Slave(1), TaskId::new(0)),
            ],
        };
        assert_eq!(
            kind.to_string(),
            "cross-core deadlock cycle: DSP:T0 -> DSP1:T0"
        );
    }

    mod live_system {
        use super::super::*;
        use ptest_master::{MultiCoreSystem, SnapshotCache, SystemConfig};
        use ptest_pcore::{Op, Priority, Program, SvcRequest};

        fn spin_system() -> MultiCoreSystem {
            let mut sys = MultiCoreSystem::new(SystemConfig::default());
            let spin = sys
                .kernel_of_mut(0)
                .register_program(Program::new(vec![Op::Jump(0)]).unwrap());
            sys.kernel_of_mut(0)
                .dispatch(
                    SvcRequest::Create {
                        program: spin,
                        priority: Priority::new(5),
                        stack_bytes: None,
                    },
                    Cycles::ZERO,
                )
                .unwrap();
            sys
        }

        fn observe_window(
            sys: &mut MultiCoreSystem,
            det: &mut BugDetector,
            cycles: u64,
            done: bool,
        ) -> Vec<Bug> {
            let mut all = Vec::new();
            let mut cache = SnapshotCache::new();
            for i in 0..cycles {
                sys.step();
                if i % 200 == 0 {
                    all.extend(det.observe_cached(sys, None, done, &mut cache));
                }
            }
            all
        }

        #[test]
        fn livelock_reported_exactly_once() {
            let mut sys = spin_system();
            let mut det = BugDetector::new(DetectorConfig {
                progress_window: Cycles::new(2_000),
                ..DetectorConfig::default()
            });
            let bugs = observe_window(&mut sys, &mut det, 30_000, true);
            let livelocks = bugs
                .iter()
                .filter(|b| matches!(b.kind, BugKind::Livelock { .. }))
                .count();
            assert_eq!(livelocks, 1, "anomalies are reported once: {bugs:?}");
        }

        #[test]
        fn no_progress_rules_gated_until_committer_done() {
            let mut sys = spin_system();
            let mut det = BugDetector::new(DetectorConfig {
                progress_window: Cycles::new(2_000),
                ..DetectorConfig::default()
            });
            let bugs = observe_window(&mut sys, &mut det, 30_000, false);
            assert!(
                bugs.is_empty(),
                "while commands are in flight, spinning tasks are expected: {bugs:?}"
            );
        }

        #[test]
        fn suspended_tasks_are_not_reported_starved() {
            let mut sys = spin_system();
            sys.kernel_of_mut(0)
                .dispatch(
                    SvcRequest::Suspend {
                        task: ptest_pcore::TaskId::new(0),
                    },
                    Cycles::ZERO,
                )
                .unwrap();
            let mut det = BugDetector::new(DetectorConfig {
                progress_window: Cycles::new(2_000),
                ..DetectorConfig::default()
            });
            let bugs = observe_window(&mut sys, &mut det, 30_000, true);
            assert!(
                bugs.is_empty(),
                "TS-parked tasks are intentional, not starved: {bugs:?}"
            );
        }

        #[test]
        fn crash_reported_once_with_snapshot() {
            let mut cfg = SystemConfig::default();
            cfg.kernel.heap_bytes = 500; // TCB fits, the 512 B stack cannot
            let mut sys = MultiCoreSystem::new(cfg);
            let prog = sys
                .kernel_of_mut(0)
                .register_program(Program::exit_immediately());
            // Issue the fatal create through the bridge.
            sys.issue_to(
                0,
                SvcRequest::Create {
                    program: prog,
                    priority: Priority::new(1),
                    stack_bytes: None,
                },
            )
            .unwrap();
            let mut det = BugDetector::new(DetectorConfig::default());
            let bugs = observe_window(&mut sys, &mut det, 5_000, false);
            let crashes: Vec<&Bug> = bugs
                .iter()
                .filter(|b| matches!(b.kind, BugKind::SlaveCrash { .. }))
                .collect();
            assert_eq!(crashes.len(), 1);
            assert!(crashes[0].snapshot.panic.is_some());
            assert!(!crashes[0].trace_tail.is_empty());
            assert_eq!(crashes[0].core, CoreId::Slave(0));
        }

        /// Two slaves, two crossed hand-off rings, tokens placed so the
        /// stages block on each other: the canonical cross-core deadlock.
        fn crossed_handoff_system() -> MultiCoreSystem {
            let mut sys = MultiCoreSystem::new(SystemConfig::with_slaves(2));
            // Forward ring: 0 -> 1; backward ring: 1 -> 0.
            let f_out0 = sys.kernel_of_mut(0).create_semaphore(0);
            let f_in1 = sys.kernel_of_mut(1).create_semaphore(0);
            let b_out1 = sys.kernel_of_mut(1).create_semaphore(0);
            // Stage 0 already consumed the forward token (initial credit),
            // so stage 1 waits forward while stage 0 waits backward.
            let b_in0 = sys.kernel_of_mut(0).create_semaphore(0);
            sys.link_semaphores(0, f_out0, 1, f_in1).unwrap();
            sys.link_semaphores(1, b_out1, 0, b_in0).unwrap();
            let stage0 = sys.kernel_of_mut(0).register_program(
                Program::new(vec![Op::SemWait(b_in0), Op::SemPost(f_out0), Op::Exit]).unwrap(),
            );
            let stage1 = sys.kernel_of_mut(1).register_program(
                Program::new(vec![Op::SemWait(f_in1), Op::SemPost(b_out1), Op::Exit]).unwrap(),
            );
            for (slave, prog) in [(0usize, stage0), (1usize, stage1)] {
                sys.issue_to(
                    slave,
                    SvcRequest::Create {
                        program: prog,
                        priority: Priority::new(5),
                        stack_bytes: None,
                    },
                )
                .unwrap();
            }
            sys
        }

        #[test]
        fn cross_core_deadlock_detected_with_cycle_spanning_kernels() {
            let mut sys = crossed_handoff_system();
            sys.run(500);
            let mut det = BugDetector::new(DetectorConfig::default());
            let mut cache = SnapshotCache::new();
            let bugs = det.observe_cached(&sys, None, true, &mut cache);
            let cross: Vec<&Bug> = bugs
                .iter()
                .filter(|b| matches!(b.kind, BugKind::CrossCoreDeadlock { .. }))
                .collect();
            assert_eq!(cross.len(), 1, "{bugs:?}");
            let BugKind::CrossCoreDeadlock { cycle } = &cross[0].kind else {
                unreachable!()
            };
            let cores: std::collections::BTreeSet<CoreId> = cycle.iter().map(|(c, _)| *c).collect();
            assert!(cores.len() >= 2, "cycle must span kernels: {cycle:?}");
            // Reported once.
            assert!(det.observe_cached(&sys, None, true, &mut cache).is_empty());
        }

        #[test]
        fn cross_core_detection_gated_until_committer_done() {
            let mut sys = crossed_handoff_system();
            sys.run(500);
            let mut det = BugDetector::new(DetectorConfig::default());
            assert!(
                det.observe_cached(&sys, None, false, &mut SnapshotCache::new())
                    .is_empty(),
                "an in-flight create could still resolve the wait"
            );
        }

        #[test]
        fn cached_observation_matches_uncached() {
            // A fresh cache per observation sees every kernel dirty: the
            // uncached reference a cache kept across observations must
            // match.
            let mut sys = spin_system();
            let mut plain = BugDetector::new(DetectorConfig {
                progress_window: Cycles::new(2_000),
                ..DetectorConfig::default()
            });
            let mut cached = plain.clone();
            let mut a = Vec::new();
            let mut b = Vec::new();
            let mut cache = SnapshotCache::new();
            for i in 0..30_000u64 {
                sys.step();
                if i % 200 == 0 {
                    a.extend(plain.observe_cached(&sys, None, true, &mut SnapshotCache::new()));
                    b.extend(cached.observe_cached(&sys, None, true, &mut cache));
                }
            }
            assert!(!a.is_empty());
            let plain_lines: Vec<String> = a.iter().map(ToString::to_string).collect();
            let cached_lines: Vec<String> = b.iter().map(ToString::to_string).collect();
            assert_eq!(plain_lines, cached_lines);
        }

        #[test]
        fn cross_core_rule_runs_when_gate_opens_on_clean_kernels() {
            let mut sys = crossed_handoff_system();
            sys.run(500);
            let mut det = BugDetector::new(DetectorConfig::default());
            let mut cache = SnapshotCache::new();
            assert!(det.observe_cached(&sys, None, false, &mut cache).is_empty());
            // Every task is blocked: further cycles leave all kernels
            // clean, so only the committer-done flip enables the rule.
            sys.run(100);
            let bugs = det.observe_cached(&sys, None, true, &mut cache);
            assert!(
                bugs.iter()
                    .any(|b| matches!(b.kind, BugKind::CrossCoreDeadlock { .. })),
                "{bugs:?}"
            );
        }
    }
}
