#![cfg(test)]
//! Shared test-only scheduler shims for the `sched` unit tests:
//! one-cycle planning, and the per-cycle replay that closed-form
//! `apply_window` is checked against.

use crate::sched::Scheduler;
use ptest_soc::Cycles;

/// Plans one cycle (at cycle 1) over `runnable` and returns the advance
/// mask.
pub(crate) fn plan_once(s: &mut dyn Scheduler, runnable: &[bool]) -> Vec<bool> {
    let mut advance = vec![true; runnable.len()];
    s.plan(Cycles::new(1), runnable, &mut advance);
    advance
}

/// Replays `count` cycles one by one over the constant `runnable` mask
/// and returns in how many of them each slave advanced — what a skipped
/// window must equal, written out independently so tests can compare a
/// closed form against it on the same type.
pub(crate) fn replay(s: &mut dyn Scheduler, count: u64, runnable: &[bool]) -> Vec<u64> {
    let mut ticks = vec![0; runnable.len()];
    for _ in 0..count {
        for (t, advanced) in ticks.iter_mut().zip(plan_once(s, runnable)) {
            *t += u64::from(advanced);
        }
    }
    ticks
}

/// Skips `count` cycles over the constant `runnable` mask the way a
/// fast-forward window does: one `plan_window` call, which must certify
/// at least `count` cycles, then one `apply_window` call. Returns in how
/// many of them each slave advanced.
pub(crate) fn skip(s: &mut dyn Scheduler, count: u64, runnable: &[bool]) -> Vec<u64> {
    let mut advance = vec![false; runnable.len()];
    let window = s.plan_window(runnable, &mut advance);
    assert!(count <= window, "{count} cycles past a {window}-cycle plan");
    s.apply_window(count, runnable);
    advance.iter().map(|&a| if a { count } else { 0 }).collect()
}
