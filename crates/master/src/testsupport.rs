//! Shared test-only scheduler replay shims, used by the `sched` unit
//! tests and the preemption/system suites alike: one-cycle planning and
//! the per-cycle replay that closed-form `skip_cycles` overrides are
//! checked against.

use crate::sched::{Scheduler, TickAdvance};
use ptest_soc::Cycles;

/// Plans one cycle (at cycle 1) over `runnable` and returns the advance
/// mask.
pub(crate) fn plan_once(s: &mut dyn Scheduler, runnable: &[bool]) -> Vec<bool> {
    let mut advance = vec![true; runnable.len()];
    s.plan(Cycles::new(1), runnable, &mut advance);
    advance
}

/// Replays `count` cycles one by one over the constant `runnable` mask —
/// what `skip_cycles` must equal, written out independently so tests can
/// compare a closed-form override against it on the same type.
pub(crate) fn replay(
    s: &mut dyn Scheduler,
    start: u64,
    count: u64,
    runnable: &[bool],
) -> Vec<TickAdvance> {
    let mut advance = vec![true; runnable.len()];
    let mut ticks = vec![TickAdvance::default(); runnable.len()];
    for c in 0..count {
        advance.fill(true);
        s.plan(Cycles::new(start + c), runnable, &mut advance);
        for (i, &a) in advance.iter().enumerate() {
            if a {
                ticks[i].ticks += 1;
                ticks[i].last = Some(Cycles::new(start + c));
            }
        }
    }
    ticks
}

/// Skips `count` cycles over the constant `runnable` mask in one
/// `skip_cycles` call and returns the per-slave tick advances.
pub(crate) fn skip(
    s: &mut dyn Scheduler,
    start: u64,
    count: u64,
    runnable: &[bool],
) -> Vec<TickAdvance> {
    let mut advance = vec![true; runnable.len()];
    let mut ticks = vec![TickAdvance::default(); runnable.len()];
    s.skip_cycles(
        Cycles::new(start),
        count,
        runnable,
        &mut advance,
        &mut ticks,
    );
    ticks
}
