//! The symbolic walk behind [`Kernel::fast_forward`]'s steady windows.
//!
//! A kernel is *steady* when every task that can run spins in a loop of
//! side-effect-free ops ([`Op::is_side_effect_free`]) and `Yield`s, with
//! no `ReadVar` in the body while access tracing
//! ([`KernelConfig::trace_accesses`]) records each read: each of its
//! ticks changes nothing but task frames, sleep deadlines, counters and
//! the trace ring's scheduler events, which a rotation records traced or
//! not, and the whole kernel comes back to the same configuration after
//! a fixed number of ticks. [`Rotation::walk`] follows [`Kernel::tick`]'s
//! rules from the current state, one tick at a time (a task's compute in
//! progress in one stretch), until the configuration recurs, and records
//! what one such *rotation* does, so that `k` of them can be applied by
//! multiplication.

use std::fmt;
use std::sync::{Mutex, PoisonError};

use ptest_soc::Cycles;

use super::{Kernel, KernelEvent};
use crate::ids::{Priority, TaskId};
use crate::program::{Op, NUM_REGS};
use crate::task::{TaskState, WaitReason};

/// Most ops one rotation may retire before the walk gives up.
pub(super) const STEADY_MAX_OPS: u64 = 64;

/// Most steps (single ticks, or one stretch of a task's compute) a walk
/// takes before it gives up.
const STEADY_MAX_STEPS: u32 = 256;

/// Most trace events one rotation may record.
const MAX_EVENTS: usize = 16;

/// What [`Kernel::steady_window`] certifies: how many ticks from now
/// [`Kernel::fast_forward`] can advance the kernel's steady rotation in
/// closed form, and whether those ticks read the time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteadyWindow {
    /// Ticks the window spans.
    pub ticks: u64,
    /// The rotation sleeps, wakes or traces a context switch, all of
    /// which read the tick's time. Such a window is exact only when the
    /// kernel ticks once per cycle at consecutive times, as it does on
    /// a platform driven without a schedule or clock skew. A window that
    /// reads no time has one task keep the core throughout.
    pub reads_time: bool,
    /// Ticks within which every task that retires ops in the rotation
    /// has retired one: the running task's compute in progress plus one
    /// rotation. Past that, each such task retires one again within
    /// every rotation, and every other task retires none.
    pub turn: u64,
}

/// A register during one symbolic rotation: its value at the rotation's
/// start plus an offset, or a constant loaded from a shared variable.
#[derive(Debug, Clone, Copy)]
enum SymReg {
    Rel(i64),
    Abs(i64),
}

impl SymReg {
    fn add(self, delta: i64) -> SymReg {
        match self {
            SymReg::Rel(o) => SymReg::Rel(o.wrapping_add(delta)),
            SymReg::Abs(v) => SymReg::Abs(v.wrapping_add(delta)),
        }
    }
}

/// The first rotation `j >= 1` at which a register worth `x` in
/// rotation 0 and moving by `delta` per rotation compares differently
/// against `value`, or from which `x + j * delta` leaves the `i64`
/// range, where wrapping would make the comparison non-affine.
/// `u64::MAX` if neither ever happens.
pub(super) fn first_flip(x: i64, delta: i64, value: i64) -> u64 {
    if delta == 0 {
        return u64::MAX;
    }
    if x == value {
        return 1;
    }
    let (x, d, value) = (i128::from(x), i128::from(delta), i128::from(value));
    let limit = i128::from(if d > 0 { i64::MAX } else { i64::MIN });
    let overflow = (limit - x) / d + 1;
    let diff = value - x;
    let hit = if diff % d == 0 && diff / d > 0 {
        diff / d
    } else {
        overflow
    };
    u64::try_from(hit.min(overflow)).unwrap_or(u64::MAX)
}

/// The time slice of the task holding the core after `cycles` more
/// executed cycles, renewed in place at each quantum expiry (as for a
/// task alone on its core).
pub(super) fn slice_after(slice: u32, cycles: u64, quantum: Option<u32>) -> u32 {
    match quantum {
        Some(q) => {
            // The slice counts 1..=q and renews after q; a zero quantum
            // renews every cycle, like a quantum of one.
            let q = u64::from(q.max(1));
            ((u64::from(slice) + cycles - 1) % q + 1) as u32
        }
        // The slice counter wraps, so only `cycles` mod 2^32 counts.
        None => slice.wrapping_add(cycles as u32),
    }
}

/// A task as the walk follows it: every live task that is runnable or
/// asleep. Tasks blocked on a semaphore or mutex, or suspended while
/// awake, cannot change in a steady window and stay out of the walk.
#[derive(Debug, Clone, Copy)]
struct WalkTask {
    id: TaskId,
    priority: Priority,
    suspended: bool,
    yield_requested: bool,
    pc: u16,
    compute: u64,
    /// Wake deadline while asleep.
    sleep: Option<u64>,
    /// Asleep since the walk began: while it stays so the task is a
    /// bystander, outside the rotation, whose wake ends the window.
    asleep_since_start: bool,
    /// Registers relative to their values at the walk's start.
    regs: [SymReg; NUM_REGS],
    /// Ops retired and cycles used since the anchor.
    ops: u64,
    cycles: u64,
    /// The configuration at the anchor.
    anchored: Config,
}

impl WalkTask {
    fn runnable(&self) -> bool {
        self.sleep.is_none() && !self.suspended
    }
}

/// The part of a walk task's state that must recur.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Config {
    pc: u16,
    compute: u64,
    /// Sleep deadline minus the walk's tick count.
    sleep: Option<u64>,
}

/// Where a rotation starts: the tick, the running task and the time
/// slice (each walk task keeps its own configuration there).
#[derive(Debug, Clone, Copy)]
struct Anchor {
    t: u64,
    current: Option<usize>,
    slice: u32,
}

/// One rotation of a steady kernel, as [`Rotation::walk`] finds it from
/// the current state: after `lead` ticks of the running task's compute
/// in progress (the *anchor*), the kernel's configuration recurs every
/// `period` ticks. Everything a rotation changes is counted from the
/// anchor: per-task register deltas, ops and cycles, the kernel's idle
/// ticks, change epoch, switches and preemptions, and its trace events.
#[derive(Debug, Clone, Default)]
pub(super) struct Rotation {
    /// Kernel time at the walk's start.
    start: u64,
    /// Tasks asleep at the start stay asleep throughout the walk.
    hold_sleepers: bool,
    tasks: Vec<WalkTask>,
    current: Option<usize>,
    slice: u32,
    /// Ticks walked.
    t: u64,
    steps: u32,
    pub(super) lead: u64,
    anchor: Option<Anchor>,
    pub(super) period: u64,
    /// Ticks from the start that can be applied in closed form.
    pub(super) window: u64,
    pub(super) idle: u64,
    pub(super) epoch: u64,
    pub(super) switches: u64,
    pub(super) preemptions: u64,
    /// Cycles executed (ticks that ran a task).
    pub(super) executed: u64,
    ops: u64,
    /// A task yielded, so tasks sleep and wake within the rotation.
    pub(super) yields: bool,
    /// Under a quantum, two tasks were runnable at once: the slice's
    /// phase decides preemptions and is part of the configuration.
    contested: bool,
    /// Scheduler events by tick offset from the anchor.
    events: Vec<(u64, KernelEvent)>,
    /// `BranchIfRegEq`s on moving registers: (task, register, value in
    /// rotation 0, compared value).
    checks: Vec<(usize, usize, i64, i64)>,
}

impl Rotation {
    /// Walks `k` from its current state to one rotation of its steady
    /// configuration, reusing this rotation's buffers; `false` if it has
    /// none: an op with side effects
    /// or a trap comes up, a task with a pending remote yield is
    /// picked, the configuration does not recur within the walk's
    /// bounds, or a rotation without `Yield` switches tasks (such a
    /// rotation must keep one task on the core), or a `ReadVar` comes up
    /// under access tracing. The caller rules out interrupts and panics.
    ///
    /// Tasks asleep at the start are woken like any other; if that
    /// finds no rotation, a second walk holds them asleep (their wake
    /// then ends the window), which covers a loop beside an unrelated
    /// sleeper that wakes within the first rotation.
    fn find(&mut self, k: &Kernel) -> bool {
        self.walk(k, false).is_some() || self.walk(k, true).is_some()
    }

    fn walk(&mut self, k: &Kernel, hold_sleepers: bool) -> Option<()> {
        self.reset(k, hold_sleepers)?;
        self.run_lead(k)?;
        self.set_anchor();
        loop {
            self.steps += 1;
            if self.steps > STEADY_MAX_STEPS {
                return None;
            }
            match self.stretch(k) {
                0 => self.tick(k)?,
                n => self.burn(k, n),
            }
            if self.recurs() {
                return self.finish(k);
            }
        }
    }

    /// Starts a walk of `k` from its current state.
    fn reset(&mut self, k: &Kernel, hold_sleepers: bool) -> Option<()> {
        let mut tasks = std::mem::take(&mut self.tasks);
        let mut events = std::mem::take(&mut self.events);
        let mut checks = std::mem::take(&mut self.checks);
        tasks.clear();
        events.clear();
        checks.clear();
        *self = Rotation {
            start: k.now.get(),
            hold_sleepers,
            tasks,
            slice: k.slice_used,
            events,
            checks,
            ..Rotation::default()
        };
        let walk = self;
        for t in k.tasks.iter().flatten() {
            let sleep = match t.state {
                TaskState::Ready if !t.suspended => None,
                TaskState::Blocked(WaitReason::Sleep { until }) => Some(until),
                _ => continue,
            };
            if k.current == Some(t.id) {
                walk.current = Some(walk.tasks.len());
            }
            walk.tasks.push(WalkTask {
                id: t.id,
                priority: t.priority,
                suspended: t.suspended,
                yield_requested: t.yield_requested,
                pc: t.pc,
                compute: t.compute_remaining,
                sleep,
                asleep_since_start: sleep.is_some(),
                regs: [SymReg::Rel(0); NUM_REGS],
                ops: 0,
                cycles: 0,
                anchored: Config {
                    pc: 0,
                    compute: 0,
                    sleep: None,
                },
            });
        }
        // A second walk that holds sleepers only differs if one sleeps.
        if hold_sleepers && !walk.tasks.iter().any(|w| w.asleep_since_start) {
            return None;
        }
        Some(())
    }

    /// Whether the walk wakes `w` when its deadline comes.
    fn wakes(&self, w: &WalkTask) -> bool {
        !(self.hold_sleepers && w.asleep_since_start)
    }

    /// The highest-priority runnable task other than `except`.
    fn highest_runnable(&self, except: Option<usize>) -> Option<usize> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|&(i, w)| w.runnable() && Some(i) != except)
            .max_by_key(|(_, w)| w.priority)
            .map(|(i, _)| i)
    }

    /// Ticks from now for which the running task surely keeps the core
    /// burning its compute in progress, with no wake or scheduling
    /// event: 0 when the next tick must be walked on its own.
    fn stretch(&self, k: &Kernel) -> u64 {
        let Some(c) = self.current else {
            return 0;
        };
        let task = &self.tasks[c];
        if task.yield_requested {
            return 0;
        }
        let mut n = task.compute;
        let now = self.start + self.t;
        for w in &self.tasks {
            if let Some(until) = w.sleep.filter(|_| self.wakes(w)) {
                n = n.min(until.saturating_sub(now + 1));
            }
        }
        let rival = self.highest_runnable(Some(c));
        match k.quantum {
            // Alone, the slice renews in place; beside a rival it must
            // not expire.
            Some(q) if rival.is_some() => n.min(u64::from(q.saturating_sub(self.slice))),
            Some(_) => n,
            None if rival.is_some_and(|r| self.tasks[r].priority > task.priority) => 0,
            None => n,
        }
    }

    /// Runs the current task's compute in progress for `n` ticks, as
    /// [`Kernel::burn`] does.
    fn burn(&mut self, k: &Kernel, n: u64) {
        let c = self.current.expect("a stretch needs a running task");
        if k.quantum.is_some() && self.highest_runnable(Some(c)).is_some() {
            self.contested = true;
        }
        self.t += n;
        self.epoch += n;
        self.executed += n;
        self.slice = slice_after(self.slice, n, k.quantum);
        let task = &mut self.tasks[c];
        task.cycles += n;
        task.compute -= n;
    }

    /// The lead: the running task's compute in progress, which must burn
    /// out with no event before the rotation's anchor.
    fn run_lead(&mut self, k: &Kernel) -> Option<()> {
        let Some(c) = self.current else {
            return Some(());
        };
        let lead = self.tasks[c].compute;
        if lead > 0 {
            if self.stretch(k) < lead {
                return None;
            }
            self.burn(k, lead);
        }
        self.lead = lead;
        Some(())
    }

    /// Task `w`'s configuration `t` ticks into the walk.
    fn config(w: &WalkTask, t: u64) -> Config {
        Config {
            pc: w.pc,
            compute: w.compute,
            sleep: w.sleep.map(|until| until.wrapping_sub(t)),
        }
    }

    /// Fixes the anchor here and counts the rotation from it.
    fn set_anchor(&mut self) {
        self.anchor = Some(Anchor {
            t: self.t,
            current: self.current,
            slice: self.slice,
        });
        self.idle = 0;
        self.epoch = 0;
        self.executed = 0;
        for w in &mut self.tasks {
            w.cycles = 0;
            w.anchored = Rotation::config(w, self.t);
        }
    }

    /// Whether the configuration is back where it was at the anchor:
    /// the running task, the time slice (when it decides preemptions),
    /// and every task's pc, compute in progress and sleep deadline
    /// relative to now, bystanders aside.
    fn recurs(&self) -> bool {
        let Some(anchor) = self.anchor else {
            return false;
        };
        self.t > anchor.t
            && self.current == anchor.current
            && (!self.contested || self.slice == anchor.slice)
            && self
                .tasks
                .iter()
                .all(|w| w.asleep_since_start || Rotation::config(w, self.t) == w.anchored)
    }

    fn event(&mut self, event: KernelEvent) -> Option<()> {
        if self.events.len() == MAX_EVENTS {
            return None;
        }
        let anchor = self.anchor.expect("events come after the anchor");
        self.events.push((self.t - anchor.t, event));
        Some(())
    }

    /// One tick, exactly as [`Kernel::tick`] takes it: sleeper wakes,
    /// the priority or quantum pick, the context switch, one cycle of
    /// the picked task.
    fn tick(&mut self, k: &Kernel) -> Option<()> {
        self.t += 1;
        let now = self.start + self.t;
        let mut woke = false;
        let hold = self.hold_sleepers;
        for w in &mut self.tasks {
            if w.sleep.is_some_and(|until| until <= now) && !(hold && w.asleep_since_start) {
                w.sleep = None;
                w.asleep_since_start = false;
                woke = true;
            }
        }
        if woke {
            self.epoch += 1;
        }
        let current = self.current.filter(|&c| self.tasks[c].runnable());
        let picked = match k.quantum {
            Some(q) => {
                let rival = self.highest_runnable(current);
                if current.is_some() && rival.is_some() {
                    self.contested = true;
                }
                match current {
                    Some(c) if self.slice < q => Some(c),
                    Some(c) => match rival {
                        Some(next) => {
                            self.preemptions += 1;
                            self.event(KernelEvent::Preempt(self.tasks[next].id))?;
                            Some(next)
                        }
                        None => {
                            self.slice = 0;
                            Some(c)
                        }
                    },
                    None => rival,
                }
            }
            None => self.highest_runnable(None),
        };
        let Some(p) = picked else {
            self.idle += 1;
            return Some(());
        };
        if self.current != Some(p) {
            self.switches += 1;
            self.event(KernelEvent::Run(self.tasks[p].id))?;
            self.current = Some(p);
            self.slice = 0;
        }
        self.slice = self.slice.wrapping_add(1);
        self.epoch += 1;
        self.executed += 1;
        let task = &mut self.tasks[p];
        task.cycles += 1;
        if task.yield_requested {
            return None;
        }
        if task.compute > 0 {
            task.compute -= 1;
            return Some(());
        }
        self.exec(k, p, now)
    }

    /// Executes the op at task `p`'s pc; `None` unless it is
    /// side-effect-free or a `Yield`, or if it is a traced `ReadVar`.
    fn exec(&mut self, k: &Kernel, p: usize, now: u64) -> Option<()> {
        if self.ops == STEADY_MAX_OPS {
            return None;
        }
        self.ops += 1;
        let task = &mut self.tasks[p];
        let tcb = k.tcb(task.id)?;
        let op = tcb.program.op(task.pc)?;
        task.ops += 1;
        task.pc += 1;
        match op {
            Op::Compute(n) => task.compute = u64::from(n.saturating_sub(1)),
            Op::AddReg { reg, delta } => {
                let r = &mut task.regs[usize::from(reg)];
                *r = r.add(delta);
            }
            // Access tracing records every read, which no rotation replays.
            Op::ReadVar { var, reg } if !k.cfg.trace_accesses => {
                task.regs[usize::from(reg)] = SymReg::Abs(k.read_var(var).ok()?);
            }
            Op::BranchIfVarEq { var, value, target } => {
                if k.read_var(var).ok()? == value {
                    task.pc = target;
                }
            }
            Op::BranchIfRegEq { reg, value, target } => {
                let r = usize::from(reg);
                let x = match task.regs[r] {
                    SymReg::Rel(offset) => {
                        let x = tcb.regs[r].wrapping_add(offset);
                        self.checks.push((p, r, x, value));
                        x
                    }
                    SymReg::Abs(v) => v,
                };
                if x == value {
                    self.tasks[p].pc = target;
                }
            }
            Op::Jump(target) => task.pc = target,
            Op::Yield => {
                task.sleep = Some(now + u64::from(k.cfg.yield_delay));
                self.current = None;
                self.yields = true;
            }
            _ => return None,
        }
        Some(())
    }

    /// Task `i`'s register `r` change per rotation; `None` if it holds a
    /// loaded constant other than its value at the start, so rotations
    /// would not repeat.
    fn delta(&self, k: &Kernel, i: usize, r: usize) -> Option<i64> {
        match self.tasks[i].regs[r] {
            SymReg::Rel(d) => Some(d),
            SymReg::Abs(v) => (k.tcb(self.tasks[i].id)?.regs[r] == v).then_some(0),
        }
    }

    /// Checks the rotation and bounds its window: it must retire an op,
    /// keep one task on the core unless it yields, and move every
    /// register by the same amount each time. The window ends before the
    /// first rotation in which a `BranchIfRegEq` would branch
    /// differently, and before the wake of any bystander.
    fn finish(&mut self, k: &Kernel) -> Option<()> {
        self.period = self.t - self.anchor.as_ref()?.t;
        if self.ops == 0 || (!self.yields && !self.events.is_empty()) {
            return None;
        }
        for i in 0..self.tasks.len() {
            for r in 0..NUM_REGS {
                self.delta(k, i, r)?;
            }
        }
        let mut rotations = u64::MAX;
        for &(i, r, x, value) in &self.checks {
            let delta = self.delta(k, i, r)?;
            rotations = rotations.min(first_flip(x, delta, value));
        }
        self.window = self
            .lead
            .saturating_add(rotations.saturating_mul(self.period));
        let bystander_wake = self
            .tasks
            .iter()
            .filter(|w| w.asleep_since_start)
            .filter_map(|w| w.sleep)
            .min();
        if let Some(until) = bystander_wake {
            self.window = self.window.min(until.saturating_sub(self.start + 1));
        }
        Some(())
    }

    /// What [`Kernel::steady_window`] reports of the rotation.
    fn summary(&self) -> SteadyWindow {
        SteadyWindow {
            ticks: self.window,
            reads_time: self.yields,
            turn: self.lead + self.period,
        }
    }
}

/// The rotation the kernel last walked, keyed by the state it walked
/// from, so that [`Kernel::steady_window`] and the
/// [`Kernel::fast_forward`] that follows it walk once between them, and
/// every walk reuses the last one's buffers. Not part of the kernel's
/// state: a clone starts empty and `Debug` shows nothing of it.
#[derive(Default)]
pub(super) struct RotationMemo(Box<Mutex<Memo>>);

#[derive(Default)]
pub(super) struct Memo {
    /// The state `rot` was walked from, if it is current.
    key: Option<MemoKey>,
    /// Whether the walk found a rotation.
    found: bool,
    pub(super) rot: Rotation,
}

/// What a rotation depends on moves at least one of these: the change
/// epoch (services, executed cycles, wakes), the tick count, the
/// variable writes and the time. Only a quantum change moves none, and
/// [`Kernel::set_quantum`] clears the memo.
type MemoKey = [u64; 4];

impl RotationMemo {
    fn get_mut(&mut self) -> &mut Memo {
        // Every update leaves a whole memo behind (at worst one whose
        // key no longer matches), so a poisoned one is still valid.
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn clear(&mut self) {
        self.get_mut().key = None;
    }

    /// The memo, lent out for a [`Kernel::fast_forward`] that changes
    /// the state it was keyed on.
    pub(super) fn take(&mut self) -> Memo {
        std::mem::take(self.get_mut())
    }

    /// Returns the memo's buffers after [`RotationMemo::take`].
    pub(super) fn restore(&mut self, mut memo: Memo) {
        memo.key = None;
        *self.get_mut() = memo;
    }
}

impl Clone for RotationMemo {
    fn clone(&self) -> RotationMemo {
        RotationMemo::default()
    }
}

impl fmt::Debug for RotationMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RotationMemo")
    }
}

impl Kernel {
    fn memo_key(&self) -> MemoKey {
        [self.epoch, self.ticks, self.var_writes, self.now.get()]
    }

    /// Whether `memo` holds the kernel's steady rotation from its current
    /// state, walking it there unless the memo already does. No kernel
    /// that the hint calls unsteady, or that an interrupt or a panic
    /// could disturb, has one.
    pub(super) fn rotation_into(&self, memo: &mut Memo) -> bool {
        let steady = self.steady
            && self.panic.is_none()
            && self.isr.is_none()
            && (self.irq_pending == 0 || self.irq_masked);
        if !steady {
            return false;
        }
        let key = self.memo_key();
        if memo.key != Some(key) {
            memo.found = memo.rot.find(self);
            memo.key = Some(key);
        }
        memo.found
    }

    /// How many ticks from now [`Kernel::fast_forward`] can advance the
    /// kernel's steady rotation in closed form, or `None` when it is not
    /// steady. A kernel is steady when every task that can run in the
    /// window loops over side-effect-free ops and `Yield`s, and every
    /// other live task is suspended or blocked on a semaphore or mutex.
    /// The window ends before the first rotation in which a
    /// `BranchIfRegEq` would branch differently, and before the wake of
    /// any task asleep outside the rotation. It assumes nothing else
    /// happens meanwhile: no service, interrupt or shared-variable
    /// write, which the caller must rule out for the window.
    #[must_use]
    pub fn steady_window(&self) -> Option<SteadyWindow> {
        // As in `RotationMemo::get_mut`, a poisoned memo is still valid.
        let mut memo = self.memo.0.lock().unwrap_or_else(PoisonError::into_inner);
        self.rotation_into(&mut memo).then(|| memo.rot.summary())
    }

    /// Applies `k` whole rotations of `rot` in closed form, starting at
    /// the anchor at time `anchor_time`: counters move by `k` times their
    /// per-rotation change, sleep deadlines by `k` periods, and the
    /// trace ring receives the last of the `k` rotations' events.
    pub(super) fn apply_rotations(&mut self, rot: &Rotation, k: u64, anchor_time: u64) {
        let span = k * rot.period;
        self.ticks += span;
        self.idle_ticks += k * rot.idle;
        self.epoch += k * rot.epoch;
        self.ctx_switches += k * rot.switches;
        self.preemptions += k * rot.preemptions;
        for w in &rot.tasks {
            let t = self.tcb_mut(w.id).expect("walked task exists");
            for (reg, sym) in t.regs.iter_mut().zip(w.regs) {
                if let SymReg::Rel(delta) = sym {
                    // Registers wrap, so `k` wrapping adds are one
                    // wrapping multiply, whatever `k as i64` reinterprets.
                    *reg = reg.wrapping_add(delta.wrapping_mul(k as i64));
                }
            }
            t.ops_retired += k * w.ops;
            t.cycles_used += k * w.cycles;
            if let TaskState::Blocked(WaitReason::Sleep { until }) = &mut t.state {
                if !w.asleep_since_start {
                    *until += span;
                }
            }
        }
        self.slice_used = if rot.switches > 0 {
            rot.slice
        } else {
            slice_after(self.slice_used, k * rot.executed, self.quantum)
        };
        if rot.yields {
            // Every rotation wakes a sleeper, which recomputes the cached
            // earliest deadline exactly.
            self.next_wake = self.next_sleeper_wake().unwrap_or(u64::MAX);
        }
        let per = rot.events.len() as u64;
        if per > 0 {
            let total = k * per;
            let kept = total.min(self.cfg.trace_capacity as u64);
            self.trace.count_evicted(total - kept);
            for i in total - kept..total {
                let (offset, event) = rot.events[(i % per) as usize];
                let at = anchor_time + (i / per) * rot.period + offset;
                self.trace.record(Cycles::new(at), self.core, event);
            }
        }
    }
}
