//! Reproducer minimization and root-cause interleaving reports.
//!
//! At campaign scale detected bugs are cheap, but each reproducer is a
//! `(pattern seed, schedule seed, memory seed, irq seed)` quadruple
//! whose replay spans thousands of steps. This module shrinks a detected trial down
//! to its essence, delta-debugging style (the same shrink idiom as
//! proptest: try a smaller candidate, keep it only if the failure still
//! reproduces):
//!
//! 1. **Pattern shrink** — greedily drop chunks of pattern symbols,
//!    re-validating detection after every removal. Every candidate is a
//!    complete deterministic trial through the engine's normal
//!    merge → commit → detect path
//!    ([`TrialOverrides::patterns`](crate::trial::TrialOverrides)), so
//!    "still detects" means exactly what it means in production.
//! 2. **Schedule shrink** — binary-search (ddmin) the minimal set of
//!    [`RandomPriorityScheduler`](ptest_master::RandomPriorityScheduler)
//!    priority-change points that still triggers, via the scheduler's
//!    [`change_point_mask`](ptest_master::RandomPriorityConfig::change_point_mask).
//!    Masking never re-seeds anything: the surviving demotions land on
//!    exactly the cycles they did in the original trial.
//! 3. **Interrupt shrink** — the same ddmin over the seeded interrupt
//!    injections, via the plan's
//!    [`injection_mask`](ptest_master::InterruptConfig::injection_mask).
//! 4. **Root-cause report** — replay the minimized quadruple once with
//!    full-trace capture and emit the cross-core interleaving window
//!    around the failure: racing shared-variable accesses, semaphore
//!    hand-offs and blocking edges, aligned on one virtual-time axis
//!    (after the synchronization-point-aligned timelines of
//!    instruction-driven multicore debuggers).
//!
//! The product is a [`MinimizedRepro`]: self-contained, serializable,
//! and replayable — [`replay_minimized`] re-runs it from the stored
//! patterns, mask and seeds and must reproduce the stored
//! [`ReportSummary`] byte-identically (minimization itself validates
//! this before returning).

use ptest_automata::Sym;
use ptest_master::{
    InterruptConfig, MasterEvent, MemoryModelSpec, PreemptionSpec, RandomPriorityConfig,
    ScheduleSpec, StoreBufferConfig,
};
use ptest_pcore::{KernelEvent, VarId};
use ptest_soc::seed::mask_keeps;
use ptest_soc::{CoreId, TraceEvent};

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

use crate::adaptive::AdaptiveTestError;
use crate::pattern::TestPattern;
use crate::report::ReportSummary;
use crate::scenario::Scenario;
use crate::trial::{TrialEngine, TrialOverrides, TrialScratch, TrialTrace};

/// Knobs of the shrink loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimizeConfig {
    /// Upper bound on candidate trials the shrink loop may run. The loop
    /// keeps its best-so-far reproducer when the budget runs out, so a
    /// tight budget degrades minimality, never correctness.
    pub max_candidates: usize,
    /// Cycles of history before the failure anchor included in the
    /// root-cause window.
    pub trace_window: u64,
    /// Upper bound on timeline events kept in the root-cause report (the
    /// tail closest to the failure wins).
    pub max_events: usize,
}

impl Default for MinimizeConfig {
    fn default() -> MinimizeConfig {
        MinimizeConfig {
            max_candidates: 256,
            trace_window: 600,
            max_events: 256,
        }
    }
}

/// Why minimization could not produce a reproducer.
#[derive(Debug)]
pub enum MinimizeError {
    /// The original trial detected no bug — nothing to minimize.
    NoBug,
    /// A candidate trial failed to run at all (configuration-level
    /// failure; candidate trials that merely don't detect are normal).
    Trial(AdaptiveTestError),
    /// The minimized quadruple did not replay to a byte-identical summary —
    /// a determinism regression in the engine, never expected.
    UnstableReplay,
}

impl std::fmt::Display for MinimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinimizeError::NoBug => write!(f, "the original trial detects no bug"),
            MinimizeError::Trial(e) => write!(f, "candidate trial failed: {e}"),
            MinimizeError::UnstableReplay => {
                write!(f, "minimized reproducer did not replay byte-identically")
            }
        }
    }
}

impl std::error::Error for MinimizeError {}

impl From<AdaptiveTestError> for MinimizeError {
    fn from(e: AdaptiveTestError) -> MinimizeError {
        MinimizeError::Trial(e)
    }
}

/// The minimized trial's schedule, in primitive replayable parts (the
/// serialization model of a possibly-masked
/// [`ScheduleSpec`](ptest_master::ScheduleSpec)).
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct MinimizedSchedule {
    /// `true` for a lock-step trial (no change points to shrink).
    pub lock_step: bool,
    /// The *seeded* change-point budget (PCT's `d`) — masking never
    /// changes it, so the surviving points land on their original
    /// cycles.
    pub change_points: usize,
    /// Sampling horizon of the change points.
    pub horizon: u64,
    /// Fairness backstop window.
    pub fairness_window: u32,
    /// Which seeded change points the minimized schedule keeps (bit `i`
    /// = `i`-th point in ascending cycle order).
    pub change_point_mask: u64,
    /// Number of active change points under the mask.
    pub active_change_points: usize,
}

impl MinimizedSchedule {
    fn lock_step() -> MinimizedSchedule {
        MinimizedSchedule {
            lock_step: true,
            change_points: 0,
            horizon: 0,
            fairness_window: 0,
            change_point_mask: 0,
            active_change_points: 0,
        }
    }

    fn from_random_priority(rp: RandomPriorityConfig, mask: u64) -> MinimizedSchedule {
        let cfg = RandomPriorityConfig {
            change_point_mask: mask,
            ..rp
        };
        MinimizedSchedule {
            lock_step: false,
            change_points: rp.change_points,
            horizon: rp.horizon,
            fairness_window: rp.fairness_window,
            change_point_mask: mask,
            active_change_points: cfg.active_change_points(),
        }
    }

    /// Reconstructs the schedule spec this minimized schedule replays
    /// under.
    #[must_use]
    pub fn spec(&self) -> ScheduleSpec {
        if self.lock_step {
            ScheduleSpec::LockStep
        } else {
            ScheduleSpec::RandomPriority(RandomPriorityConfig {
                change_points: self.change_points,
                horizon: self.horizon,
                fairness_window: self.fairness_window,
                change_point_mask: self.change_point_mask,
            })
        }
    }
}

/// The minimized trial's memory model, in primitive replayable parts.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct MinimizedMemory {
    /// `true` for the store-buffer model, `false` for seq-cst.
    pub store_buffer: bool,
    /// Store-buffer max delay (0 under seq-cst).
    pub max_delay: u64,
    /// Store-buffer capacity (0 under seq-cst).
    pub capacity: usize,
}

impl MinimizedMemory {
    fn capture(memory: MemoryModelSpec) -> MinimizedMemory {
        match memory {
            MemoryModelSpec::SeqCst => MinimizedMemory {
                store_buffer: false,
                max_delay: 0,
                capacity: 0,
            },
            MemoryModelSpec::StoreBuffer(cfg) => MinimizedMemory {
                store_buffer: true,
                max_delay: cfg.max_delay,
                capacity: cfg.capacity,
            },
        }
    }

    /// Reconstructs the memory-model spec this minimized trial replays
    /// under.
    #[must_use]
    pub fn spec(&self) -> MemoryModelSpec {
        if self.store_buffer {
            MemoryModelSpec::StoreBuffer(StoreBufferConfig {
                max_delay: self.max_delay,
                capacity: self.capacity,
            })
        } else {
            MemoryModelSpec::SeqCst
        }
    }
}

/// The minimized trial's preemption/interrupt axis, in primitive
/// replayable parts. The injection mask is the interrupt analogue of
/// [`MinimizedSchedule::change_point_mask`]: it selects among the
/// *seeded* injection events, so every surviving ISR fires on exactly
/// the cycle it did in the original trial and the whole axis still
/// replays from the stored irq seed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct MinimizedPreemption {
    /// `true` for an unpreempted trial (nothing on this axis to shrink).
    pub inert: bool,
    /// Quantum slice length in cycles (`None` without quantum
    /// scheduling).
    pub quantum: Option<u32>,
    /// Max clock-skew rate in parts per 1024 (`None` without skew).
    pub skew_max_rate: Option<u32>,
    /// The *seeded* interrupt-event budget — masking never changes it.
    pub irq_count: usize,
    /// Sampling horizon of the injection cycles.
    pub irq_horizon: u64,
    /// Which seeded injection events the minimized trial keeps (bit `i`
    /// = `i`-th event in firing order).
    pub injection_mask: u64,
    /// Number of active injections under the mask.
    pub active_injections: usize,
}

impl MinimizedPreemption {
    fn capture(spec: &PreemptionSpec, mask: u64) -> MinimizedPreemption {
        let irq = spec.interrupts.map(|ic| InterruptConfig {
            injection_mask: mask,
            ..ic
        });
        MinimizedPreemption {
            inert: spec.is_inert(),
            quantum: spec.quantum.map(|q| q.cycles),
            skew_max_rate: spec.clock_skew.map(|s| s.max_rate),
            irq_count: irq.map_or(0, |ic| ic.count),
            irq_horizon: irq.map_or(0, |ic| ic.horizon),
            injection_mask: irq.map_or(0, |ic| ic.injection_mask),
            active_injections: irq.map_or(0, |ic| ic.active_injections()),
        }
    }

    /// Reconstructs the preemption spec this minimized trial replays
    /// under.
    #[must_use]
    pub fn spec(&self) -> PreemptionSpec {
        PreemptionSpec {
            quantum: self
                .quantum
                .map(|cycles| ptest_master::QuantumConfig { cycles }),
            clock_skew: self
                .skew_max_rate
                .map(|max_rate| ptest_master::ClockSkewConfig { max_rate }),
            interrupts: if self.irq_count == 0 && self.irq_horizon == 0 {
                None
            } else {
                Some(InterruptConfig {
                    count: self.irq_count,
                    horizon: self.irq_horizon,
                    injection_mask: self.injection_mask,
                })
            },
        }
    }
}

/// One event of the root-cause timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct InterleavingEvent {
    /// Virtual cycle of the event.
    pub at: u64,
    /// Core the event occurred on (`"ARM"`, `"DSP"`, `"DSP1"`, …).
    pub core: String,
    /// Event category (`"var-write"`, `"sem-wait"`, `"fault"`, …).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for InterleavingEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>8}  {:<5} {:<10} {}",
            self.at, self.core, self.kind, self.detail
        )
    }
}

/// The cross-core interleaving window around a failure: what the
/// minimized trial's cores were doing to shared state in the cycles
/// leading up to the bug, on one merged virtual-time axis.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct RootCauseReport {
    /// Class of the explained bug (`"task_fault"`, `"deadlock"`, …).
    pub bug_class: String,
    /// Detail line of the explained bug.
    pub bug_detail: String,
    /// Cycle the detector reported the bug at.
    pub detected_at: u64,
    /// The failure anchor: the faulting event's cycle when the trace
    /// names one, otherwise `detected_at`.
    pub anchor: u64,
    /// First cycle of the reported window.
    pub window_start: u64,
    /// Merged cross-core timeline of the window, time-ascending (ties in
    /// master-then-slave-index order). Capped at
    /// [`MinimizeConfig::max_events`], keeping the tail.
    pub events: Vec<InterleavingEvent>,
    /// Timeline events dropped by the cap.
    pub events_dropped: usize,
    /// Shared variables accessed from more than one core (with at least
    /// one write) inside the window — the racing accesses.
    pub racing_vars: Vec<String>,
    /// The accesses (reads, writes, cross-core mirror deliveries) to the
    /// racing variables, in window order.
    pub racing_accesses: Vec<InterleavingEvent>,
    /// Semaphore waits, posts and cross-core semaphore wakes in the
    /// window.
    pub semaphore_handoffs: Vec<InterleavingEvent>,
    /// Blocking edges: tasks blocking on semaphores or mutexes in the
    /// window.
    pub blocking_edges: Vec<InterleavingEvent>,
}

impl RootCauseReport {
    /// Renders the report as human-readable text.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "root cause: {} — {}", self.bug_class, self.bug_detail);
        let _ = writeln!(
            out,
            "window: cycles {}..={} (detected at {})",
            self.window_start, self.anchor, self.detected_at
        );
        if self.racing_vars.is_empty() {
            let _ = writeln!(out, "racing shared variables: none observed in window");
        } else {
            let _ = writeln!(
                out,
                "racing shared variables: {}",
                self.racing_vars.join(", ")
            );
            for e in &self.racing_accesses {
                let _ = writeln!(out, "  {e}");
            }
        }
        if !self.semaphore_handoffs.is_empty() {
            let _ = writeln!(out, "semaphore hand-offs:");
            for e in &self.semaphore_handoffs {
                let _ = writeln!(out, "  {e}");
            }
        }
        if !self.blocking_edges.is_empty() {
            let _ = writeln!(out, "blocking edges:");
            for e in &self.blocking_edges {
                let _ = writeln!(out, "  {e}");
            }
        }
        let _ = writeln!(out, "interleaving ({} events):", self.events.len());
        if self.events_dropped > 0 {
            let _ = writeln!(
                out,
                "  … {} earlier events dropped by the cap …",
                self.events_dropped
            );
        }
        for e in &self.events {
            let _ = writeln!(out, "  {e}");
        }
        out
    }
}

/// A minimized, explained, self-contained reproducer: the shrink loop's
/// product. Replayable via [`replay_minimized`] from the stored parts
/// alone.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct MinimizedRepro {
    /// Scenario the trial ran.
    pub scenario: String,
    /// Class of the bug this reproducer triggers.
    pub bug_class: String,
    /// Pattern seed of the original trial (echoed for provenance; the
    /// minimized patterns are stored explicitly).
    pub seed: u64,
    /// Schedule seed — the minimized schedule replays from it.
    pub schedule_seed: u64,
    /// Memory seed — the memory model replays from it.
    pub memory_seed: u64,
    /// Interrupt/preemption seed — the minimized preemption axis replays
    /// from it, completing the stored quadruple.
    pub irq_seed: u64,
    /// Label of the minimized schedule spec.
    pub schedule_label: String,
    /// Label of the memory-model spec.
    pub memory_label: String,
    /// Label of the minimized preemption spec.
    pub preemption_label: String,
    /// The minimized schedule, replayable.
    pub schedule: MinimizedSchedule,
    /// The memory model, replayable.
    pub memory: MinimizedMemory,
    /// The preemption/interrupt axis, replayable (injection mask
    /// minimized).
    pub preemption: MinimizedPreemption,
    /// Total pattern symbols before shrinking.
    pub original_symbols: usize,
    /// Total pattern symbols after shrinking.
    pub minimized_symbols: usize,
    /// Original patterns, rendered as space-separated symbol names.
    pub original_patterns: Vec<String>,
    /// Minimized patterns, rendered as space-separated symbol names —
    /// parsed back by [`replay_minimized`].
    pub minimized_patterns: Vec<String>,
    /// Seeded change points of the original schedule (active under its
    /// mask).
    pub original_change_points: usize,
    /// Active change points of the minimized schedule.
    pub minimized_change_points: usize,
    /// Active interrupt injections of the original preemption spec.
    pub original_injections: usize,
    /// Active interrupt injections after the injection-mask ddmin.
    pub minimized_injections: usize,
    /// Candidate trials the shrink loop executed.
    pub candidates: usize,
    /// Machine summary of the minimized trial — replays must reproduce
    /// this byte-identically.
    pub summary: ReportSummary,
    /// The root-cause interleaving window of the minimized trial.
    pub root_cause: RootCauseReport,
}

/// Shrinks one detected scenario trial to a [`MinimizedRepro`].
///
/// `(seed, schedule_seed, memory_seed, irq_seed, schedule, memory,
/// preemption)` name the original trial exactly as the campaign ran it;
/// the engine must be the one (same configuration, same learned
/// distribution) that produced the hit, or the original trial will not
/// reproduce.
///
/// `target_class` picks which of the trial's bug classes to shrink
/// toward (`None` = the first detected bug) — a trial can detect several
/// classes, and a campaign minimizes each class off the trial that first
/// hit it.
///
/// # Errors
///
/// [`MinimizeError::NoBug`] when the named trial does not detect the
/// target class; [`MinimizeError::Trial`] when a trial fails to run at
/// all.
#[allow(clippy::too_many_arguments)]
pub fn minimize_scenario_trial(
    engine: &TrialEngine,
    scenario: &dyn Scenario,
    seed: u64,
    schedule_seed: u64,
    memory_seed: u64,
    irq_seed: u64,
    schedule: ScheduleSpec,
    memory: MemoryModelSpec,
    preemption: PreemptionSpec,
    target_class: Option<&str>,
    cfg: &MinimizeConfig,
    scratch: &mut TrialScratch,
) -> Result<MinimizedRepro, MinimizeError> {
    let alphabet = engine.generator().regex().alphabet();

    // The original trial, exactly as recorded.
    let original = engine.run_scenario_trial_overridden(
        scenario,
        seed,
        schedule_seed,
        memory_seed,
        TrialOverrides {
            schedule: Some(schedule),
            memory: Some(memory),
            preemption: Some(preemption),
            irq_seed: Some(irq_seed),
            ..TrialOverrides::default()
        },
        scratch,
    )?;
    let original_summary = original.machine_summary();
    let target = match target_class {
        Some(class) => original_summary.bugs.iter().find(|b| b.class == class),
        None => original_summary.bugs.first(),
    };
    let Some(target) = target else {
        return Err(MinimizeError::NoBug);
    };
    let bug_class = target.class.clone();
    let original_patterns: Vec<String> = original
        .patterns
        .iter()
        .map(|p| p.render(alphabet))
        .collect();
    let original_symbols: usize = original.patterns.iter().map(TestPattern::len).sum();

    let candidates = std::cell::Cell::new(0usize);
    // Runs one candidate (patterns × schedule) trial and reports whether
    // the target bug class still manifests.
    let detects = |patterns: &[TestPattern],
                   spec: ScheduleSpec,
                   preempt: PreemptionSpec,
                   scratch: &mut TrialScratch|
     -> Result<bool, MinimizeError> {
        candidates.set(candidates.get() + 1);
        let report = engine.run_scenario_trial_overridden(
            scenario,
            seed,
            schedule_seed,
            memory_seed,
            TrialOverrides {
                schedule: Some(spec),
                memory: Some(memory),
                preemption: Some(preempt),
                irq_seed: Some(irq_seed),
                patterns: Some(patterns),
                ..TrialOverrides::default()
            },
            scratch,
        )?;
        Ok(report.bugs.iter().any(|b| b.kind.class() == bug_class))
    };

    // --- 1. Pattern shrink: greedy chunked removal over the flattened
    // symbol coordinates, re-validated per candidate (ddmin's reduce
    // phase; the pattern count is structural — pattern `i` programs
    // slave task `i` — so only symbols shrink, never patterns).
    let mut current: Vec<Vec<Sym>> = original
        .patterns
        .iter()
        .map(|p| p.symbols().to_vec())
        .collect();
    let total = |pats: &[Vec<Sym>]| pats.iter().map(Vec::len).sum::<usize>();
    let as_patterns =
        |pats: &[Vec<Sym>]| -> Vec<TestPattern> { pats.iter().cloned().map(Into::into).collect() };
    // Removes flattened coordinates [pos, pos + len) across the pattern
    // boundaries.
    let remove_range = |pats: &[Vec<Sym>], pos: usize, len: usize| -> Vec<Vec<Sym>> {
        let mut out = Vec::with_capacity(pats.len());
        let mut global = 0usize;
        for p in pats {
            let mut kept = Vec::with_capacity(p.len());
            for &sym in p {
                if !(global >= pos && global < pos + len) {
                    kept.push(sym);
                }
                global += 1;
            }
            out.push(kept);
        }
        out
    };

    let mut chunk = (total(&current) / 2).max(1);
    'pattern_shrink: loop {
        let mut progressed = false;
        let mut pos = 0usize;
        while pos < total(&current) {
            if candidates.get() >= cfg.max_candidates {
                break 'pattern_shrink;
            }
            let candidate = remove_range(&current, pos, chunk);
            if detects(&as_patterns(&candidate), schedule, preemption, scratch)? {
                current = candidate;
                progressed = true;
                // The coordinates shifted left; rescan from here.
            } else {
                pos += chunk;
            }
        }
        if chunk == 1 {
            if !progressed {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
    let minimized_patterns_syms = as_patterns(&current);

    // --- 2. Schedule shrink: ddmin over the active change-point bits.
    // The mask selects among the *seeded* points, so every surviving
    // demotion lands on its original cycle and the whole thing still
    // replays from `schedule_seed`.
    let minimized_schedule = match schedule {
        ScheduleSpec::LockStep => MinimizedSchedule::lock_step(),
        ScheduleSpec::RandomPriority(rp) => {
            let masked = |mask: u64| {
                ScheduleSpec::RandomPriority(RandomPriorityConfig {
                    change_point_mask: mask,
                    ..rp
                })
            };
            let active: Vec<usize> = (0..rp.change_points.min(64))
                .filter(|&i| mask_keeps(rp.change_point_mask, i))
                .collect();
            let active = ddmin_mask_bits(
                active,
                |mask| detects(&minimized_patterns_syms, masked(mask), preemption, scratch),
                || candidates.get() >= cfg.max_candidates,
            )?;
            MinimizedSchedule::from_random_priority(rp, mask_of(&active))
        }
    };
    let minimized_spec = minimized_schedule.spec();

    // --- 3. Interrupt-injection shrink: the same ddmin, this time over
    // the seeded injection events' mask — the interrupt analogue of the
    // schedule shrink (both masks filter a sorted seeded set without
    // re-seeding, so survivors fire on their original cycles).
    let minimized_preemption = match preemption.interrupts {
        None => MinimizedPreemption::capture(&preemption, 0),
        Some(ic) => {
            let masked = |mask: u64| PreemptionSpec {
                interrupts: Some(InterruptConfig {
                    injection_mask: mask,
                    ..ic
                }),
                ..preemption
            };
            let active: Vec<usize> = (0..ic.count.min(64))
                .filter(|&i| mask_keeps(ic.injection_mask, i))
                .collect();
            let active = ddmin_mask_bits(
                active,
                |mask| {
                    detects(
                        &minimized_patterns_syms,
                        minimized_spec,
                        masked(mask),
                        scratch,
                    )
                },
                || candidates.get() >= cfg.max_candidates,
            )?;
            MinimizedPreemption::capture(&preemption, mask_of(&active))
        }
    };
    let minimized_preempt_spec = minimized_preemption.spec();

    // --- 4. Validate byte-identical replay: the minimized quadruple
    // must detect the same class twice with identical machine summaries.
    let run_minimized = |scratch: &mut TrialScratch,
                         trace: Option<&mut TrialTrace>|
     -> Result<crate::TestReport, MinimizeError> {
        Ok(engine.run_scenario_trial_overridden(
            scenario,
            seed,
            schedule_seed,
            memory_seed,
            TrialOverrides {
                schedule: Some(minimized_spec),
                memory: Some(memory),
                preemption: Some(minimized_preempt_spec),
                irq_seed: Some(irq_seed),
                patterns: Some(&minimized_patterns_syms),
                capture_trace: trace,
            },
            scratch,
        )?)
    };
    let first = run_minimized(scratch, None)?;
    let mut trace = TrialTrace::default();
    let replayed = run_minimized(scratch, Some(&mut trace))?;
    let summary = first.machine_summary();
    if summary != replayed.machine_summary() {
        return Err(MinimizeError::UnstableReplay);
    }
    if !summary.bugs.iter().any(|b| b.class == bug_class) {
        return Err(MinimizeError::UnstableReplay);
    }

    let root_cause = build_root_cause(&summary, &bug_class, &trace, cfg);
    Ok(MinimizedRepro {
        scenario: scenario.name().to_owned(),
        bug_class,
        seed,
        schedule_seed,
        memory_seed,
        irq_seed,
        schedule_label: minimized_spec.label(),
        memory_label: memory.label(),
        preemption_label: minimized_preempt_spec.label(),
        schedule: minimized_schedule,
        memory: MinimizedMemory::capture(memory),
        preemption: minimized_preemption.clone(),
        original_symbols,
        minimized_symbols: minimized_patterns_syms.iter().map(TestPattern::len).sum(),
        original_patterns,
        minimized_patterns: minimized_patterns_syms
            .iter()
            .map(|p| p.render(alphabet))
            .collect(),
        original_change_points: schedule.active_change_points(),
        minimized_change_points: minimized_spec.active_change_points(),
        original_injections: preemption.interrupts.map_or(0, |ic| ic.active_injections()),
        minimized_injections: minimized_preemption.active_injections,
        candidates: candidates.get(),
        summary,
        root_cause,
    })
}

fn mask_of(bits: &[usize]) -> u64 {
    bits.iter().fold(0u64, |m, &b| m | (1 << b))
}

/// The shared ddmin over a set of active mask bits, used by both the
/// schedule change-point shrink and the interrupt-injection shrink:
/// first try the empty mask, then repeatedly drop chunks (testing the
/// complement) at refining granularity, and finally retry dropping a
/// lone survivor. `detects_mask` runs one candidate trial under the
/// given mask; `exhausted` reports whether the candidate budget is
/// spent.
fn ddmin_mask_bits(
    mut active: Vec<usize>,
    mut detects_mask: impl FnMut(u64) -> Result<bool, MinimizeError>,
    exhausted: impl Fn() -> bool,
) -> Result<Vec<usize>, MinimizeError> {
    // Fast path: none of the masked events needed at all.
    if !active.is_empty() && !exhausted() && detects_mask(0)? {
        active.clear();
    }
    // ddmin: split the active set into n chunks, try dropping each chunk
    // (testing its complement); refine granularity until single bits
    // fail to drop.
    let mut granularity = 2usize;
    while active.len() > 1 && !exhausted() {
        let n = granularity.min(active.len());
        let chunk_len = active.len().div_ceil(n);
        let mut reduced = false;
        for c in 0..n {
            if exhausted() {
                break;
            }
            let lo = c * chunk_len;
            let hi = ((c + 1) * chunk_len).min(active.len());
            if lo >= hi {
                continue;
            }
            let complement: Vec<usize> = active
                .iter()
                .enumerate()
                .filter(|&(i, _)| i < lo || i >= hi)
                .map(|(_, &b)| b)
                .collect();
            if detects_mask(mask_of(&complement))? {
                active = complement;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if granularity >= active.len() {
                break;
            }
            granularity = (granularity * 2).min(active.len());
        }
    }
    // A single surviving bit might still be droppable.
    if active.len() == 1 && !exhausted() && detects_mask(0)? {
        active.clear();
    }
    Ok(active)
}

/// Replays a [`MinimizedRepro`] from its stored parts: parses the
/// minimized patterns back through the engine's alphabet and re-runs the
/// trial from its seed quadruple under the minimized schedule mask, the
/// stored memory model and the minimized preemption spec (its
/// interrupt-injection mask). The
/// result's machine summary must equal [`MinimizedRepro::summary`] —
/// minimization validated exactly this before returning the repro.
///
/// # Errors
///
/// As for [`TrialEngine::run_trial`].
pub fn replay_minimized(
    engine: &TrialEngine,
    scenario: &dyn Scenario,
    repro: &MinimizedRepro,
    scratch: &mut TrialScratch,
) -> Result<crate::TestReport, AdaptiveTestError> {
    let alphabet = engine.generator().regex().alphabet();
    let patterns: Vec<TestPattern> = repro
        .minimized_patterns
        .iter()
        .map(|rendered| {
            rendered
                .split_whitespace()
                .filter_map(|name| alphabet.sym(name))
                .collect::<Vec<Sym>>()
                .into()
        })
        .collect();
    engine.run_scenario_trial_overridden(
        scenario,
        repro.seed,
        repro.schedule_seed,
        repro.memory_seed,
        TrialOverrides {
            schedule: Some(repro.schedule.spec()),
            memory: Some(repro.memory.spec()),
            preemption: Some(repro.preemption.spec()),
            irq_seed: Some(repro.irq_seed),
            patterns: Some(&patterns),
            ..TrialOverrides::default()
        },
        scratch,
    )
}

/// One captured event on the merged timeline: the master's, or a slave
/// kernel's.
#[derive(Clone, Copy)]
enum Captured<'a> {
    Master(&'a TraceEvent<MasterEvent>),
    Kernel(&'a TraceEvent<KernelEvent>),
}

impl Captured<'_> {
    fn at(self) -> u64 {
        match self {
            Captured::Master(e) => e.at.get(),
            Captured::Kernel(e) => e.at.get(),
        }
    }

    fn kind(self) -> &'static str {
        match self {
            Captured::Master(e) => e.kind(),
            Captured::Kernel(e) => e.kind(),
        }
    }

    fn kernel_event(self) -> Option<KernelEvent> {
        match self {
            Captured::Master(_) => None,
            Captured::Kernel(e) => Some(e.event),
        }
    }

    fn render(self) -> InterleavingEvent {
        let (at, core, detail) = match self {
            Captured::Master(e) => (e.at, e.core, e.event.to_string()),
            Captured::Kernel(e) => (e.at, e.core, e.event.to_string()),
        };
        InterleavingEvent {
            at: at.get(),
            core: core.to_string(),
            kind: self.kind().to_owned(),
            detail,
        }
    }
}

/// Builds the interleaving window around `bug_class`'s first hit from a
/// captured trial trace. It selects the window on the events' cycles and
/// kinds and renders only the events inside it.
fn build_root_cause(
    summary: &ReportSummary,
    bug_class: &str,
    trace: &TrialTrace,
    cfg: &MinimizeConfig,
) -> RootCauseReport {
    let bug = summary
        .bugs
        .iter()
        .find(|b| b.class == bug_class)
        .expect("caller validated the class is present");

    // Anchor on the latest faulting event at or before detection (the
    // detector only observes at check intervals, so the fault itself is
    // usually earlier).
    let detected_at = bug.detected_at;
    let anchor = trace
        .kernels
        .iter()
        .flatten()
        .filter(|e| {
            e.at.get() <= detected_at
                && matches!(
                    e.event,
                    KernelEvent::Fault { .. } | KernelEvent::Panic { .. }
                )
        })
        .map(|e| e.at.get())
        .max()
        .unwrap_or(detected_at);
    let window_start = anchor.saturating_sub(cfg.trace_window);

    // Merge the window of every per-core timeline onto one time axis.
    // Master events rank before slave events at the same cycle (the
    // master's command issue precedes the slave's same-cycle service),
    // slaves by index; the stable sort keeps each core's own order.
    let in_window = |at: u64| at >= window_start && at <= anchor;
    let mut window: Vec<(usize, Captured)> = trace
        .master
        .iter()
        .filter(|e| in_window(e.at.get()))
        .map(|e| (0, Captured::Master(e)))
        .collect();
    for (i, events) in trace.kernels.iter().enumerate() {
        let events = events.iter().filter(|e| in_window(e.at.get()));
        window.extend(events.map(|e| (i + 1, Captured::Kernel(e))));
    }
    window.sort_by_key(|&(rank, e)| (e.at(), rank));
    let window: Vec<Captured> = window.into_iter().map(|(_, e)| e).collect();
    let rendered: Vec<InterleavingEvent> = window.iter().map(|e| e.render()).collect();

    // Racing shared variables: accessed from ≥ 2 distinct cores with at
    // least one write (or cross-core mirror delivery) in the window.
    use std::collections::{BTreeMap, BTreeSet};
    let mut vars: BTreeMap<VarId, (BTreeSet<CoreId>, bool)> = BTreeMap::new();
    for e in &window {
        if let Captured::Kernel(e) = e {
            if let Some((var, writes)) = e.event.var_access() {
                let entry = vars.entry(var).or_default();
                entry.0.insert(e.core);
                entry.1 |= writes;
            }
        }
    }
    let racing: BTreeSet<VarId> = vars
        .into_iter()
        .filter(|(_, (cores, written))| cores.len() >= 2 && *written)
        .map(|(var, _)| var)
        .collect();
    let mut racing_vars: Vec<String> = racing.iter().map(ToString::to_string).collect();
    racing_vars.sort();
    let select = |keep: &dyn Fn(Captured) -> bool| -> Vec<InterleavingEvent> {
        window
            .iter()
            .zip(&rendered)
            .filter(|&(&e, _)| keep(e))
            .map(|(_, r)| r.clone())
            .collect()
    };
    let racing_accesses = select(&|e| {
        e.kernel_event()
            .and_then(|k| k.var_access())
            .is_some_and(|(var, _)| racing.contains(&var))
    });
    let semaphore_handoffs = select(&|e| matches!(e.kind(), "sem-wait" | "sem-post" | "isr"));
    let blocking_edges = select(&|e| {
        matches!(
            e.kernel_event(),
            Some(KernelEvent::Block { .. } | KernelEvent::SemWait { blocks: true, .. })
        )
    });

    let events_dropped = rendered.len().saturating_sub(cfg.max_events);
    let events: Vec<InterleavingEvent> = rendered.into_iter().skip(events_dropped).collect();

    RootCauseReport {
        bug_class: bug.class.clone(),
        bug_detail: bug.detail.clone(),
        detected_at,
        anchor,
        window_start,
        events,
        events_dropped,
        racing_vars,
        racing_accesses,
        semaphore_handoffs,
        blocking_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BugSummary;
    use ptest_bridge::CmdId;
    use ptest_pcore::{Context, Priority, ProgramId, SemId, SvcRequest, TaskFault, TaskId};

    fn event<E>(at: u64, core: CoreId, event: E) -> TraceEvent<E> {
        TraceEvent {
            at: ptest_soc::Cycles::new(at),
            core,
            event,
        }
    }

    fn write(var: u16, value: i64) -> KernelEvent {
        KernelEvent::VarWrite {
            ctx: Context::Task(TaskId::new(0)),
            var: VarId(var),
            value,
        }
    }

    fn read(var: u16, value: i64) -> KernelEvent {
        KernelEvent::VarRead {
            ctx: Context::Task(TaskId::new(0)),
            var: VarId(var),
            value,
        }
    }

    fn faulting_summary(detected_at: u64) -> ReportSummary {
        ReportSummary {
            regex: "TC".to_owned(),
            n: 1,
            s: 1,
            merge_op: "Sequential".to_owned(),
            seed: 1,
            completed: true,
            commands_issued: 1,
            error_replies: 0,
            ordering_errors: 0,
            cycles: detected_at,
            transition_coverage: 1.0,
            bugs: vec![BugSummary {
                class: "task_fault".to_owned(),
                detail: "task fault: T0 stack overflow".to_owned(),
                detected_at,
            }],
        }
    }

    #[test]
    fn minimized_schedule_round_trips_through_its_spec() {
        let rp = RandomPriorityConfig {
            change_points: 3,
            ..RandomPriorityConfig::default()
        };
        let m = MinimizedSchedule::from_random_priority(rp, 0b101);
        assert!(!m.lock_step);
        assert_eq!(m.active_change_points, 2);
        match m.spec() {
            ScheduleSpec::RandomPriority(cfg) => {
                assert_eq!(cfg.change_points, 3);
                assert_eq!(cfg.change_point_mask, 0b101);
            }
            ScheduleSpec::LockStep => panic!("mask round-trip lost the scheduler"),
        }
        assert_eq!(
            MinimizedSchedule::lock_step().spec(),
            ScheduleSpec::LockStep
        );
    }

    #[test]
    fn minimized_memory_round_trips_through_its_spec() {
        let sb = MemoryModelSpec::StoreBuffer(StoreBufferConfig {
            max_delay: 7,
            capacity: 3,
        });
        assert_eq!(MinimizedMemory::capture(sb).spec(), sb);
        assert_eq!(
            MinimizedMemory::capture(MemoryModelSpec::SeqCst).spec(),
            MemoryModelSpec::SeqCst
        );
    }

    #[test]
    fn root_cause_windows_anchor_on_the_faulting_event() {
        let create = SvcRequest::Create {
            program: ProgramId(0),
            priority: Priority::new(1),
            stack_bytes: None,
        };
        let fault = KernelEvent::Fault {
            task: TaskId::new(0),
            fault: TaskFault::StackOverflow,
        };
        let wait = KernelEvent::SemWait {
            ctx: Context::Task(TaskId::new(0)),
            sem: SemId(1),
            blocks: true,
        };
        let cmd = MasterEvent::Cmd {
            id: CmdId(1),
            slave: 0,
            req: create,
        };
        let trace = TrialTrace {
            master: vec![event(5, CoreId::Master, cmd)],
            kernels: vec![
                vec![
                    event(6, CoreId::Slave(0), write(8, 1)),
                    event(40, CoreId::Slave(0), fault),
                ],
                vec![
                    event(6, CoreId::Slave(1), write(8, 2)),
                    event(7, CoreId::Slave(1), read(9, 0)),
                    event(8, CoreId::Slave(1), wait),
                ],
            ],
            dropped: Vec::new(),
        };
        // Detection happens later than the fault; the window anchors on
        // the fault event itself.
        let report = build_root_cause(
            &faulting_summary(90),
            "task_fault",
            &trace,
            &MinimizeConfig::default(),
        );
        assert_eq!(report.anchor, 40);
        assert_eq!(report.detected_at, 90);
        assert_eq!(report.racing_vars, ["v8"]);
        assert_eq!(report.racing_accesses.len(), 2);
        assert_eq!(report.semaphore_handoffs.len(), 1);
        assert_eq!(report.blocking_edges.len(), 1);
        assert_eq!(report.events_dropped, 0);
        // Same-cycle events order master first, then slaves by index.
        let at6: Vec<&str> = report
            .events
            .iter()
            .filter(|e| e.at == 6)
            .map(|e| e.core.as_str())
            .collect();
        assert_eq!(at6, ["DSP", "DSP1"]);
        let text = report.render_text();
        assert!(text.contains("root cause: task_fault"));
        assert!(text.contains("racing shared variables: v8"));
        assert!(text.contains("blocking edges:"));
    }

    #[test]
    fn root_cause_event_caps_keep_the_tail() {
        let kernels = vec![(0..50u64)
            .map(|i| event(i, CoreId::Slave(0), KernelEvent::Run(TaskId::new(0))))
            .collect()];
        let trace = TrialTrace {
            master: Vec::new(),
            kernels,
            dropped: Vec::new(),
        };
        let report = build_root_cause(
            &faulting_summary(49),
            "task_fault",
            &trace,
            &MinimizeConfig {
                max_events: 10,
                ..MinimizeConfig::default()
            },
        );
        assert_eq!(report.events.len(), 10);
        assert_eq!(report.events_dropped, 40);
        assert_eq!(report.events.last().unwrap().at, 49);
        assert!(report
            .render_text()
            .contains("40 earlier events dropped by the cap"));
    }

    #[test]
    fn reads_alone_are_not_a_race() {
        let trace = TrialTrace {
            master: Vec::new(),
            kernels: vec![
                vec![event(1, CoreId::Slave(0), read(5, 0))],
                vec![event(2, CoreId::Slave(1), read(5, 0))],
            ],
            dropped: Vec::new(),
        };
        let report = build_root_cause(
            &faulting_summary(10),
            "task_fault",
            &trace,
            &MinimizeConfig::default(),
        );
        assert!(report.racing_vars.is_empty(), "two readers do not race");
        assert!(report
            .render_text()
            .contains("racing shared variables: none observed in window"));
    }
}
