#![cfg(test)]
//! Shared test-only scheduler shims for the `sched` unit tests: the
//! per-cycle replay that closed-form `apply_window` is checked against,
//! and the one-window skip it is compared with.

use crate::sched::Scheduler;
use crate::system::SlaveSet;

/// The set of `slaves`.
pub(crate) fn set<const N: usize>(slaves: [usize; N]) -> SlaveSet {
    slaves.into_iter().collect()
}

/// Replays `count` cycles one by one over the constant `runnable` set
/// and returns, for each slave that advanced, in how many of them it
/// did — what a skipped window must equal, written out independently so
/// tests can compare a closed form against it on the same type.
pub(crate) fn replay(s: &mut dyn Scheduler, count: u64, runnable: SlaveSet) -> Vec<(usize, u64)> {
    let mut ticks = vec![0; SlaveSet::CAPACITY];
    for _ in 0..count {
        for slave in s.plan(runnable).iter() {
            ticks[slave] += 1;
        }
    }
    (0..SlaveSet::CAPACITY)
        .map(|slave| (slave, ticks[slave]))
        .filter(|&(_, t)| t > 0)
        .collect()
}

/// Skips `count` cycles over the constant `runnable` set the way a
/// fast-forward window does: one `plan_window` call, which must certify
/// at least `count` cycles, then one `apply_window` call. Returns, for
/// each slave that advanced, in how many of them it did.
pub(crate) fn skip(s: &mut dyn Scheduler, count: u64, runnable: SlaveSet) -> Vec<(usize, u64)> {
    let (advance, window) = s.plan_window(runnable);
    assert!(count <= window, "{count} cycles past a {window}-cycle plan");
    s.apply_window(count, runnable);
    if count == 0 {
        return Vec::new();
    }
    advance.iter().map(|slave| (slave, count)).collect()
}
