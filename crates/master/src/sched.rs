//! Schedule exploration: who advances this cycle?
//!
//! Every trial of the adaptive tester used to advance all slave kernels
//! in lock-step — one kernel cycle each per system cycle. That explores
//! the *input* side of concurrency testing (which service patterns are
//! issued) but pins the *schedule* side: a bug that needs slave 1 to run
//! twenty cycles ahead of slave 0 is structurally unreachable no matter
//! how the PFA adapts. A [`Scheduler`] breaks that pin: each system
//! cycle it decides which slave kernels execute a task cycle
//! ([`MultiCoreSystem::step_explored`](crate::MultiCoreSystem::step_explored)),
//! turning each trial into a point in (pattern × schedule) space.
//!
//! Two schedulers ship:
//!
//! * [`LockStepScheduler`] — every kernel advances every cycle, exactly
//!   as [`MultiCoreSystem::step`](crate::MultiCoreSystem::step) does.
//! * [`RandomPriorityScheduler`] — a PCT-style randomized-priority
//!   search (cf. Burckhardt et al., *A Randomized Scheduler with
//!   Probabilistic Guarantees of Finding Bugs*): each slave gets a
//!   seeded random priority, only the highest-priority runnable slave
//!   executes, and at a small budget of seeded *priority-change points*
//!   the leader is demoted below everyone else. All decisions derive
//!   from one `schedule_seed`, so any interleaving the search finds is
//!   replayable from the `(pattern_seed, schedule_seed)` pair alone.
//!
//! Doorbell interrupts are *not* schedulable: command servicing and the
//! cross-core coupling (semaphore forwarding, SRAM mirroring) happen
//! every cycle on every slave regardless of the scheduler, exactly as
//! interrupts preempt task execution on the real platform. The scheduler
//! gates only the task-level kernel cycle.
//!
//! ## Fairness backstop
//!
//! Textbook PCT assumes a liveness-agnostic bug oracle (crashes,
//! assertions). pTest's detector also runs *no-progress* rules
//! (starvation, livelock) that presume a weakly fair scheduler, so the
//! randomized scheduler guarantees: a runnable slave is never skipped
//! more than [`RandomPriorityConfig::fairness_window`] consecutive
//! cycles. The leader still runs up to `fairness_window` times faster
//! than everyone else — plenty of relative drift to expose ordering
//! races — while keeping every slave's progress bounded, so the
//! no-progress rules stay sound.

use std::fmt;

use crate::system::SlaveSet;

/// Decides, each system cycle, which slave kernels execute a task cycle.
///
/// Implementations must be deterministic: the advance decisions may
/// depend only on construction inputs (seed, configuration) and the
/// sequence of `plan` calls — never on wall-clock time or global state —
/// so a recorded `schedule_seed` replays the exact interleaving.
pub trait Scheduler: fmt::Debug + Send {
    /// This cycle's decision: the slaves that execute a task cycle.
    /// `runnable` holds the slaves whose kernel has work a task cycle
    /// could progress (a dispatchable task or a sleeper due at the cycle
    /// about to execute).
    fn plan(&mut self, runnable: SlaveSet) -> SlaveSet;

    /// Certifies the next calls of [`Scheduler::plan`] under one constant
    /// `runnable` set: returns the slaves each of them would advance, and
    /// for how many calls that holds; every other slave is advanced in
    /// none of them. `u64::MAX` means for every call, 0 that the
    /// scheduler cannot tell, and then the set means nothing. A
    /// fast-forward window
    /// ([`MultiCoreSystem::certify`](crate::MultiCoreSystem::certify))
    /// ends with the plan, and holds every runnable slave it does not
    /// advance, whatever its work.
    fn plan_window(&self, runnable: SlaveSet) -> (SlaveSet, u64);

    /// Leaves the scheduler exactly as `count` calls of
    /// [`Scheduler::plan`] with the constant `runnable` set would, in
    /// closed form. `count` lies within the window
    /// [`Scheduler::plan_window`] certified for that set, so each call
    /// would have advanced the slaves it returned.
    fn apply_window(&mut self, count: u64, runnable: SlaveSet);
}

/// Every kernel advances every cycle, runnable or not: its plan is
/// [`SlaveSet::ALL`], certified for every call, so driving a system
/// through `step_explored(Some(&mut LockStepScheduler), None)` steps it
/// exactly as [`MultiCoreSystem::step`](crate::MultiCoreSystem::step)
/// does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStepScheduler;

impl Scheduler for LockStepScheduler {
    fn plan(&mut self, _runnable: SlaveSet) -> SlaveSet {
        SlaveSet::ALL
    }

    fn plan_window(&self, _runnable: SlaveSet) -> (SlaveSet, u64) {
        (SlaveSet::ALL, u64::MAX)
    }

    fn apply_window(&mut self, _count: u64, _runnable: SlaveSet) {
        // Lock-step keeps no state.
    }
}

/// Knobs of the [`RandomPriorityScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomPriorityConfig {
    /// Budget of priority-change points (PCT's `d - 1`): seeded cycle
    /// indices at which the current leader is demoted below every other
    /// slave. 0 keeps the initial priority order for the whole trial.
    pub change_points: usize,
    /// Horizon (in scheduled cycles) the change points are sampled over
    /// — roughly the expected trial length in cycles.
    pub horizon: u64,
    /// A runnable slave is never skipped more than this many consecutive
    /// cycles (see the module docs on fairness). 0 disables the backstop
    /// (pure PCT; only safe with liveness-agnostic oracles).
    pub fairness_window: u32,
    /// Which of the seeded change points are *active*: bit `i` keeps the
    /// `i`-th change point in ascending scheduled-cycle order. The
    /// default all-ones mask keeps every point, which is bit-identical
    /// to the pre-mask scheduler for any seed. Reproducer minimization
    /// clears bits to binary-search the minimal set of demotions that
    /// still triggers a bug; the seeds, priorities and surviving points
    /// are untouched, so the shrunk schedule replays from the same
    /// `schedule_seed`. Points beyond bit 63 are always kept.
    pub change_point_mask: u64,
}

impl Default for RandomPriorityConfig {
    fn default() -> RandomPriorityConfig {
        RandomPriorityConfig {
            change_points: 3,
            horizon: 60_000,
            fairness_window: 64,
            change_point_mask: u64::MAX,
        }
    }
}

impl RandomPriorityConfig {
    /// How many of the seeded change points the mask keeps active.
    #[must_use]
    pub fn active_change_points(&self) -> usize {
        (0..self.change_points)
            .filter(|&i| mask_keeps(self.change_point_mask, i))
            .count()
    }
}

/// How a trial schedules its slave kernels — the serializable description
/// a configuration carries, compiled into a [`Scheduler`] per trial via
/// [`ScheduleSpec::scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleSpec {
    /// Advance every kernel every cycle (the historical default).
    #[default]
    LockStep,
    /// PCT-style randomized-priority exploration.
    RandomPriority(RandomPriorityConfig),
}

impl ScheduleSpec {
    /// The default randomized-priority exploration spec.
    #[must_use]
    pub fn random_priority() -> ScheduleSpec {
        ScheduleSpec::RandomPriority(RandomPriorityConfig::default())
    }

    /// Compiles the spec into a scheduler for a `slaves`-slave system,
    /// seeded with `schedule_seed`. Returns `None` for
    /// [`ScheduleSpec::LockStep`]: callers drive the plain
    /// [`MultiCoreSystem::step`](crate::MultiCoreSystem::step) path,
    /// which skips the per-cycle runnable scan entirely.
    #[must_use]
    pub fn scheduler(&self, slaves: usize, schedule_seed: u64) -> Option<Box<dyn Scheduler>> {
        match *self {
            ScheduleSpec::LockStep => None,
            ScheduleSpec::RandomPriority(cfg) => Some(Box::new(RandomPriorityScheduler::new(
                slaves,
                schedule_seed,
                cfg,
            ))),
        }
    }

    /// How many priority-change points the schedule keeps active (none
    /// under lock-step).
    #[must_use]
    pub fn active_change_points(&self) -> usize {
        match self {
            ScheduleSpec::LockStep => 0,
            ScheduleSpec::RandomPriority(cfg) => cfg.active_change_points(),
        }
    }

    /// Short stable label for reports (e.g. `"lock-step"`,
    /// `"random-priority(d=3)"`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ScheduleSpec::LockStep => "lock-step".to_owned(),
            ScheduleSpec::RandomPriority(cfg) => {
                let active = cfg.active_change_points();
                if active == cfg.change_points {
                    format!("random-priority(d={})", cfg.change_points)
                } else {
                    format!(
                        "random-priority(d={},mask={:#b})",
                        cfg.change_points, cfg.change_point_mask
                    )
                }
            }
        }
    }
}

/// The workspace's seed-stream mixer, re-exported from its single home
/// in [`ptest_soc::seed`] under this module's historical path. Every
/// derived seed in the repo — campaign trial seeds, campaign schedule
/// seeds, the trial engine's implicit schedule seed, this module's
/// priority and change-point streams — goes through that one
/// definition, so the documented seed-derivation story cannot drift
/// between crates.
pub use ptest_soc::seed::splitmix64;
use ptest_soc::seed::{mask_keeps, splitmix64_next};

/// The PCT-style randomized-priority scheduler. See the [module
/// docs](self) for the search it performs and its determinism contract.
#[derive(Debug, Clone)]
pub struct RandomPriorityScheduler {
    /// Per-slave priorities; the highest runnable one advances.
    priorities: Vec<u64>,
    /// Remaining change points, as *descending* scheduled-cycle indices
    /// (popped from the back as the trial passes them).
    change_points: Vec<u64>,
    /// Cycles planned so far.
    planned: u64,
    /// Next value handed out by a demotion; strictly decreasing, and
    /// starting below every initial priority, so each demoted leader
    /// lands below everyone demoted before it.
    next_demoted: u64,
    /// Per-slave count of consecutive planned cycles the slave was
    /// runnable but not advanced.
    skipped: Vec<u32>,
    fairness_window: u32,
}

impl RandomPriorityScheduler {
    /// Seeds priorities and change points for a `slaves`-slave system.
    ///
    /// # Panics
    ///
    /// Panics if `slaves` is zero, or more than a [`SlaveSet`] holds
    /// ([`SlaveSet::CAPACITY`]).
    #[must_use]
    pub fn new(slaves: usize, schedule_seed: u64, cfg: RandomPriorityConfig) -> Self {
        assert!(slaves > 0, "a schedule needs at least one slave");
        assert!(
            slaves <= SlaveSet::CAPACITY,
            "a schedule covers at most {} slaves",
            SlaveSet::CAPACITY
        );
        let mut stream = schedule_seed;
        // Initial priorities in the upper half of u64 space; demotions
        // count down from below them. Ties are broken by slave index in
        // `leader`, so duplicates would not break determinism — they are
        // just astronomically unlikely.
        let priorities: Vec<u64> = (0..slaves)
            .map(|_| (1 << 63) | splitmix64_next(&mut stream))
            .collect();
        // The full seeded point set is always drawn — masking filters
        // *after* sorting, so clearing a bit never shifts which cycles
        // the surviving points land on (and the all-ones mask is
        // bit-identical to the pre-mask scheduler).
        let mut change_points: Vec<u64> = (0..cfg.change_points)
            .map(|_| splitmix64_next(&mut stream) % cfg.horizon.max(1))
            .collect();
        change_points.sort_unstable();
        let mut change_points: Vec<u64> = change_points
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| mask_keeps(cfg.change_point_mask, i))
            .map(|(_, cp)| cp)
            .collect();
        // Descending, so passing cycles pop from the back in order.
        change_points.reverse();
        RandomPriorityScheduler {
            priorities,
            change_points,
            planned: 0,
            next_demoted: 1 << 62,
            skipped: vec![0; slaves],
            fairness_window: cfg.fairness_window,
        }
    }

    /// The slave with the highest priority among `eligible` ones
    /// (smallest index wins ties).
    fn leader(&self, eligible: SlaveSet) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (i, &p) in self.priorities.iter().enumerate() {
            if eligible.contains(i) && best.is_none_or(|(bp, _)| p > bp) {
                best = Some((p, i));
            }
        }
        best.map(|(_, i)| i)
    }
}

impl Scheduler for RandomPriorityScheduler {
    fn plan(&mut self, runnable: SlaveSet) -> SlaveSet {
        // Demote the current leader at each passed change point.
        while self
            .change_points
            .last()
            .is_some_and(|&cp| cp <= self.planned)
        {
            self.change_points.pop();
            if let Some(leader) = self.leader(runnable) {
                self.next_demoted -= 1;
                self.priorities[leader] = self.next_demoted;
            }
        }
        self.planned += 1;

        let chosen = self.leader(runnable);
        let mut advance = SlaveSet::default();
        for (i, skipped) in self.skipped.iter_mut().enumerate() {
            if !runnable.contains(i) {
                // Nothing a task cycle could progress: skipping is free
                // (and resets the fairness debt).
                *skipped = 0;
                continue;
            }
            let starved =
                self.fairness_window > 0 && skipped.saturating_add(1) >= self.fairness_window;
            if Some(i) == chosen || starved {
                advance.insert(i);
                *skipped = 0;
            } else {
                *skipped += 1;
            }
        }
        advance
    }

    fn plan_window(&self, runnable: SlaveSet) -> (SlaveSet, u64) {
        if runnable.len() <= 1 {
            // A lone runnable slave is its own leader, demoted or not,
            // and with none runnable nobody advances.
            return (runnable, u64::MAX);
        }
        let leader = self.leader(runnable);
        // The leader holds until the next change point demotes it, and
        // every other runnable slave waits until its fairness tick.
        let mut window = self
            .change_points
            .last()
            .map_or(u64::MAX, |&cp| cp.saturating_sub(self.planned));
        if self.fairness_window > 0 {
            for (i, &skipped) in self.skipped.iter().enumerate() {
                if runnable.contains(i) && Some(i) != leader {
                    let wait = self
                        .fairness_window
                        .saturating_sub(skipped.saturating_add(1));
                    window = window.min(u64::from(wait));
                }
            }
        }
        (leader.into_iter().collect(), window)
    }

    fn apply_window(&mut self, count: u64, runnable: SlaveSet) {
        if count == 0 {
            return;
        }
        // Every call inside the window advances the same leader. A change
        // point passes inside it only when at most one slave is runnable,
        // and then demotes that slave, which stays its own leader.
        let leader = self.leader(runnable);
        let end = self.planned + count;
        while self.change_points.last().is_some_and(|&cp| cp < end) {
            self.change_points.pop();
            if let Some(i) = leader {
                self.next_demoted -= 1;
                self.priorities[i] = self.next_demoted;
            }
        }
        self.planned = end;
        // The other runnable slaves' fairness debt grows by one each call;
        // the leader's and every idle slave's is cleared.
        let count32 = u32::try_from(count).unwrap_or(u32::MAX);
        for (i, skipped) in self.skipped.iter_mut().enumerate() {
            *skipped = if runnable.contains(i) && Some(i) != leader {
                skipped.saturating_add(count32)
            } else {
                0
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{replay, set, skip};

    /// Slaves `0..n`.
    fn all_of(n: usize) -> SlaveSet {
        (0..n).collect()
    }

    #[test]
    fn lock_step_advances_everyone() {
        let mut s = LockStepScheduler;
        assert_eq!(s.plan(set([0, 2])), SlaveSet::ALL);
    }

    #[test]
    fn random_priority_advances_exactly_one_runnable_slave() {
        let mut s = RandomPriorityScheduler::new(4, 7, RandomPriorityConfig::default());
        let advance = s.plan(all_of(4));
        assert_eq!(advance.len(), 1, "{advance:?}");
    }

    #[test]
    fn non_runnable_slaves_are_never_advanced() {
        let mut s = RandomPriorityScheduler::new(3, 9, RandomPriorityConfig::default());
        for _ in 0..200 {
            assert_eq!(s.plan(set([1])), set([1]));
        }
    }

    #[test]
    #[should_panic(expected = "at most 194 slaves")]
    fn random_priority_rejects_more_slaves_than_a_set_holds() {
        let _ = RandomPriorityScheduler::new(
            SlaveSet::CAPACITY + 1,
            1,
            RandomPriorityConfig::default(),
        );
    }

    #[test]
    fn same_seed_same_plan_stream() {
        let cfg = RandomPriorityConfig::default();
        let mut a = RandomPriorityScheduler::new(3, 42, cfg);
        let mut b = RandomPriorityScheduler::new(3, 42, cfg);
        for step in 0..5_000u64 {
            let runnable = (0..3).filter(|&i| i != 1 || step % 7 != 0).collect();
            assert_eq!(a.plan(runnable), b.plan(runnable));
        }
    }

    #[test]
    fn different_seeds_disagree_somewhere() {
        let cfg = RandomPriorityConfig::default();
        let mut a = RandomPriorityScheduler::new(4, 1, cfg);
        let mut b = RandomPriorityScheduler::new(4, 2, cfg);
        let disagreements = (0..500)
            .filter(|_| a.plan(all_of(4)) != b.plan(all_of(4)))
            .count();
        assert!(disagreements > 0, "seeds must shape the schedule");
    }

    #[test]
    fn fairness_backstop_bounds_skips() {
        let cfg = RandomPriorityConfig {
            fairness_window: 8,
            ..RandomPriorityConfig::default()
        };
        let mut s = RandomPriorityScheduler::new(2, 3, cfg);
        let mut gap = [0u32; 2];
        for _ in 0..2_000 {
            let advance = s.plan(all_of(2));
            for (i, gap) in gap.iter_mut().enumerate() {
                if advance.contains(i) {
                    *gap = 0;
                } else {
                    *gap += 1;
                    assert!(*gap < 8, "slave {i} skipped {gap} cycles");
                }
            }
        }
    }

    #[test]
    fn change_points_demote_the_leader() {
        let cfg = RandomPriorityConfig {
            change_points: 1,
            horizon: 10,
            fairness_window: 0,
            ..RandomPriorityConfig::default()
        };
        // With one change point inside the first 10 cycles and no
        // fairness backstop, the leader must flip exactly once in a
        // 2-slave always-runnable system.
        let mut s = RandomPriorityScheduler::new(2, 11, cfg);
        let mut leaders = Vec::new();
        for _ in 0..30 {
            leaders.push(s.plan(all_of(2)).iter().next().unwrap());
        }
        let flips = leaders.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(flips, 1, "{leaders:?}");
    }

    #[test]
    fn zero_change_points_keep_one_leader_without_backstop() {
        let cfg = RandomPriorityConfig {
            change_points: 0,
            horizon: 100,
            fairness_window: 0,
            ..RandomPriorityConfig::default()
        };
        let mut s = RandomPriorityScheduler::new(3, 5, cfg);
        let first = s.plan(all_of(3));
        for _ in 0..100 {
            assert_eq!(s.plan(all_of(3)), first);
        }
    }

    /// The runnable sets a fast-forwarded window can hold still on three
    /// slaves: all idle, one runnable, and two runnable.
    fn runnable_sets() -> [SlaveSet; 5] {
        [set([]), set([0]), set([1]), set([2]), set([0, 2])]
    }

    /// Runs `count` cycles over the constant `runnable` set through
    /// every window `skipped` certifies, planning a cycle it cannot
    /// certify one by one, and checks each window's advances against
    /// `replayed`'s per-cycle replay. Returns the cycles skipped.
    fn windows_match_replay(
        skipped: &mut dyn Scheduler,
        replayed: &mut dyn Scheduler,
        count: u64,
        runnable: SlaveSet,
    ) -> u64 {
        let (mut left, mut skipped_cycles) = (count, 0);
        while left > 0 {
            let window = skipped.plan_window(runnable).1.min(left);
            if window == 0 {
                assert_eq!(skipped.plan(runnable), replayed.plan(runnable));
                left -= 1;
                continue;
            }
            assert_eq!(
                skip(skipped, window, runnable),
                replay(replayed, window, runnable),
                "{window} cycles over {runnable:?}"
            );
            left -= window;
            skipped_cycles += window;
        }
        skipped_cycles
    }

    #[test]
    fn lock_step_skip_matches_per_cycle_replay() {
        for runnable in runnable_sets() {
            let mut replayed = LockStepScheduler;
            let mut skipped = LockStepScheduler;
            assert_eq!(
                windows_match_replay(&mut skipped, &mut replayed, 1_000, runnable),
                1_000,
                "{runnable:?}"
            );
            assert!(skip(&mut skipped, 0, runnable).is_empty());
        }
    }

    #[test]
    fn random_priority_skip_matches_per_cycle_replay() {
        // Exercise the closed form across change-point boundaries: a
        // short horizon puts every change point inside one of the
        // skipped stretches, a cleared mask bit drops one of them, and
        // interleaving skipped stretches with live plan calls checks the
        // scheduler state (planned, change points, priorities, fairness
        // debt) is left exactly as the replay leaves it. With one slave
        // runnable or none a window spans whole stretches; with two it
        // ends at each change point and fairness tick.
        for (seed, runnable) in (0..16u64).zip(runnable_sets().into_iter().cycle()) {
            let cfg = RandomPriorityConfig {
                change_points: 3,
                horizon: 500,
                fairness_window: 8,
                change_point_mask: if seed % 3 == 0 { 0b101 } else { u64::MAX },
            };
            let mut replayed = RandomPriorityScheduler::new(3, seed, cfg);
            let mut skipped = RandomPriorityScheduler::new(3, seed, cfg);
            // Build up some fairness debt and demotions first.
            for step in 0..40u64 {
                let before = (0..3).filter(|&i| i != 1 || step % 3 != 0).collect();
                assert_eq!(replayed.plan(before), skipped.plan(before));
            }
            for count in [150, 0, 450] {
                let cycles = windows_match_replay(&mut skipped, &mut replayed, count, runnable);
                assert!(
                    cycles == count || (runnable.len() > 1 && cycles * 8 >= count * 6),
                    "seed {seed} runnable {runnable:?}: skipped {cycles} of {count}"
                );
            }
            // Post-skip streams must stay identical: the internal state
            // agrees, not just the per-slave advances.
            for step in 0..100u64 {
                let after = (0..3).filter(|&i| i != 0 || step % 5 != 0).collect();
                assert_eq!(replayed.plan(after), skipped.plan(after));
            }
        }
    }

    #[test]
    fn plan_windows_certify_exactly_the_plans_that_follow() {
        // Random slave counts (at and across word boundaries of a set),
        // seeds, change-point budgets and masks, fairness windows (0
        // included), a random prefix of plans, then a constant runnable
        // set: the certified number of following plans advance exactly
        // the certified slaves, and skipping them in one call leaves the
        // scheduler as those plans do.
        let mut stream = 0x5eed_u64;
        let mut draw = |n: u64| splitmix64_next(&mut stream) % n;
        let mut certified = 0;
        for case in 0..3_000 {
            let slaves = [1, 2, 3, 4, 63, 64, 65, 128, 129, 194][draw(10) as usize];
            let cfg = RandomPriorityConfig {
                change_points: draw(5) as usize,
                horizon: 1 + draw(400),
                fairness_window: [0, 1, 2, 8, 64][draw(5) as usize],
                change_point_mask: if draw(2) == 0 { u64::MAX } else { draw(32) },
            };
            let mut s = RandomPriorityScheduler::new(slaves, draw(1 << 20), cfg);
            for _ in 0..draw(300) {
                s.plan((0..slaves).filter(|_| draw(3) != 0).collect());
            }
            let runnable: SlaveSet = (0..slaves).filter(|_| draw(3) != 0).collect();
            let (advance, window) = s.plan_window(runnable);
            if runnable.len() <= 1 {
                // A lone runnable slave advances at every call, and under
                // lock-step so does every idle one.
                assert_eq!((advance, window), (runnable, u64::MAX), "case {case}");
                assert_eq!(
                    LockStepScheduler.plan_window(runnable),
                    (SlaveSet::ALL, u64::MAX),
                    "case {case}"
                );
            }
            if window == 0 {
                continue;
            }
            certified += 1;
            let calls = window.min(500);
            let mut skipped = s.clone();
            for call in 0..calls {
                assert_eq!(
                    s.plan(runnable),
                    advance,
                    "case {case}: call {call} of {window}, {cfg:?}, {runnable:?}"
                );
            }
            let ticks = skip(&mut skipped, calls, runnable);
            let expected: Vec<_> = advance.iter().map(|i| (i, calls)).collect();
            assert_eq!(ticks, expected, "case {case}");
            for _ in 0..100 {
                assert_eq!(
                    skipped.plan(all_of(slaves)),
                    s.plan(all_of(slaves)),
                    "case {case}: state after the window"
                );
            }
        }
        assert!(certified > 1_000, "only {certified} windows certified");
        assert_eq!(
            LockStepScheduler.plan_window(set([0, 2])),
            (SlaveSet::ALL, u64::MAX)
        );
    }

    #[test]
    fn full_mask_is_bit_identical_to_the_default_config() {
        let full = RandomPriorityConfig::default();
        let explicit = RandomPriorityConfig {
            change_point_mask: u64::MAX,
            ..full
        };
        for seed in 0..8u64 {
            let mut a = RandomPriorityScheduler::new(3, seed, full);
            let mut b = RandomPriorityScheduler::new(3, seed, explicit);
            for step in 0..2_000u64 {
                let runnable = (0..3).filter(|&i| i != 1 || step % 5 != 0).collect();
                assert_eq!(a.plan(runnable), b.plan(runnable));
            }
        }
    }

    #[test]
    fn empty_mask_behaves_like_zero_change_points() {
        let masked = RandomPriorityConfig {
            change_points: 3,
            horizon: 100,
            fairness_window: 0,
            change_point_mask: 0,
        };
        let none = RandomPriorityConfig {
            change_points: 0,
            ..masked
        };
        // Same seed: the priority draws precede the change-point draws,
        // so initial priorities agree and neither ever demotes.
        let mut a = RandomPriorityScheduler::new(2, 17, masked);
        let mut b = RandomPriorityScheduler::new(2, 17, none);
        for _ in 0..300 {
            assert_eq!(a.plan(all_of(2)), b.plan(all_of(2)));
        }
        assert_eq!(masked.active_change_points(), 0);
        assert_eq!(RandomPriorityConfig::default().active_change_points(), 3);
    }

    #[test]
    fn masking_drops_exactly_the_cleared_demotions() {
        // d=2, no fairness: the full schedule flips leadership at both
        // points; keeping only one (either bit) flips exactly once.
        let full = RandomPriorityConfig {
            change_points: 2,
            horizon: 20,
            fairness_window: 0,
            change_point_mask: u64::MAX,
        };
        let flips = |mask: u64| {
            let cfg = RandomPriorityConfig {
                change_point_mask: mask,
                ..full
            };
            let mut s = RandomPriorityScheduler::new(2, 23, cfg);
            let mut leaders = Vec::new();
            for _ in 0..60 {
                leaders.push(s.plan(all_of(2)).iter().next().unwrap());
            }
            leaders.windows(2).filter(|w| w[0] != w[1]).count()
        };
        assert_eq!(flips(0), 0);
        assert_eq!(flips(0b01), 1);
        assert_eq!(flips(0b10), 1);
        assert_eq!(flips(u64::MAX), flips(0b11));
    }

    #[test]
    fn masked_specs_label_the_mask() {
        let masked = ScheduleSpec::RandomPriority(RandomPriorityConfig {
            change_point_mask: 0b101,
            ..RandomPriorityConfig::default()
        });
        assert_eq!(masked.label(), "random-priority(d=3,mask=0b101)");
        assert_eq!(masked.active_change_points(), 2);
        assert_eq!(ScheduleSpec::LockStep.active_change_points(), 0);
    }

    #[test]
    fn spec_compiles_to_the_right_scheduler() {
        assert!(ScheduleSpec::LockStep.scheduler(2, 1).is_none());
        assert!(ScheduleSpec::random_priority().scheduler(2, 1).is_some());
        assert_eq!(ScheduleSpec::LockStep.label(), "lock-step");
        assert_eq!(
            ScheduleSpec::random_priority().label(),
            "random-priority(d=3)"
        );
    }
}
