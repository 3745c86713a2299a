//! The preemption/interrupt exploration axis: quantum scheduling,
//! per-slave clock skew, and deterministic interrupt injection.
//!
//! The `Scheduler` trait decides *which kernels run each cycle*; this
//! module decides what happens *inside* a kernel's cycle — whether the
//! running task is preempted at quantum boundaries, how the slave's
//! local clock relates to system time, and at which cycles an ISR is
//! injected. Together with the pattern, schedule and memory seeds this
//! forms the fourth axis of the replay quadruple: a
//! ([`PreemptionSpec`], irq seed) pair is a pure function input, so any
//! recorded trial replays bit-for-bit.
//!
//! The default [`PreemptionSpec`] is inert — no quantum, no skew, no
//! interrupts — and installs nothing, leaving the platform on the exact
//! code path the golden fixtures pin.

use ptest_soc::seed::{mask_keeps, splitmix64, splitmix64_next};
use ptest_soc::Cycles;

/// Quantum (time-slice) configuration applied to every slave kernel:
/// the running task is preempted after `cycles` consecutive executed
/// cycles and the highest-priority *other* runnable task gets the next
/// slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantumConfig {
    /// Slice length in executed cycles.
    pub cycles: u32,
}

impl Default for QuantumConfig {
    fn default() -> QuantumConfig {
        QuantumConfig { cycles: 8 }
    }
}

/// Per-slave independent time sources: each slave's local clock runs
/// fast relative to system time by a seeded rate of up to `max_rate`
/// parts per 1024, so cross-core deadlines (sleeps, yields, timeouts)
/// diverge deterministically the way unsynchronized hardware timers do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockSkewConfig {
    /// Maximum skew rate in parts per 1024 of system time (a slave with
    /// rate `r` sees local time `c + c*r/1024` at system cycle `c`).
    pub max_rate: u32,
}

impl Default for ClockSkewConfig {
    fn default() -> ClockSkewConfig {
        ClockSkewConfig { max_rate: 16 }
    }
}

/// Deterministic interrupt injection: `count` ISR events drawn from the
/// irq seed, each at a seeded cycle within `horizon` on a seeded slave.
///
/// `injection_mask` mirrors the schedule axis's
/// [`change_point_mask`](crate::sched::RandomPriorityConfig::change_point_mask):
/// the full seeded event set is always drawn and sorted, then bit `i`
/// of the mask decides whether the `i`-th event (in firing order)
/// survives. Clearing a bit never moves the surviving events, which is
/// what lets minimization ddmin over the mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptConfig {
    /// Number of interrupt events drawn from the seed.
    pub count: usize,
    /// Injection cycles are drawn in `[0, horizon)`.
    pub horizon: u64,
    /// Bitmask over the sorted event set; bit `i` keeps event `i`.
    /// Events beyond bit 63 are always kept.
    pub injection_mask: u64,
}

impl Default for InterruptConfig {
    fn default() -> InterruptConfig {
        InterruptConfig {
            count: 4,
            horizon: 60_000,
            injection_mask: u64::MAX,
        }
    }
}

impl InterruptConfig {
    /// Number of events the mask keeps.
    #[must_use]
    pub fn active_injections(&self) -> usize {
        (0..self.count)
            .filter(|&i| mask_keeps(self.injection_mask, i))
            .count()
    }
}

/// The preemption axis of a trial: all `None` (the default) is inert
/// and compiles to the platform's unpreempted fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreemptionSpec {
    /// Quantum scheduling inside each slave kernel.
    pub quantum: Option<QuantumConfig>,
    /// Seeded per-slave clock skew.
    pub clock_skew: Option<ClockSkewConfig>,
    /// Seeded interrupt injection.
    pub interrupts: Option<InterruptConfig>,
}

impl PreemptionSpec {
    /// Whether this spec changes nothing (the byte-identical fast path).
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.quantum.is_none() && self.clock_skew.is_none() && self.interrupts.is_none()
    }

    /// A human-readable label for reports, e.g. `"none"` or
    /// `"quantum(q=8)+irq(n=4)"`.
    #[must_use]
    pub fn label(&self) -> String {
        if self.is_inert() {
            return "none".to_owned();
        }
        let mut parts = Vec::new();
        if let Some(q) = self.quantum {
            parts.push(format!("quantum(q={})", q.cycles));
        }
        if let Some(s) = self.clock_skew {
            parts.push(format!("skew(r={})", s.max_rate));
        }
        if let Some(i) = self.interrupts {
            if i.injection_mask == u64::MAX {
                parts.push(format!("irq(n={})", i.count));
            } else {
                parts.push(format!("irq(n={},mask={:#b})", i.count, i.injection_mask));
            }
        }
        parts.join("+")
    }
}

/// One planned interrupt injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptEvent {
    /// System cycle at which the interrupt is raised.
    pub cycle: u64,
    /// Target slave.
    pub slave: usize,
}

/// The compiled, seeded injection schedule of one trial: a sorted queue
/// of [`InterruptEvent`]s popped as system time passes them. A pure
/// function of `(config, irq_seed, slaves)`, so replays are exact.
#[derive(Debug, Clone)]
pub struct InterruptPlan {
    /// Remaining events, *descending* by cycle (popped from the back).
    events: Vec<InterruptEvent>,
}

impl InterruptPlan {
    /// Draws and sorts the event set, then applies the injection mask.
    ///
    /// The full seeded set is always drawn — masking filters *after*
    /// sorting, so clearing a bit never shifts where the surviving
    /// events land (and the all-ones mask is identical to the unmasked
    /// plan), mirroring the schedule axis's change-point masking.
    #[must_use]
    pub fn new(cfg: &InterruptConfig, irq_seed: u64, slaves: usize) -> InterruptPlan {
        let mut stream = irq_seed;
        let mut events: Vec<InterruptEvent> = (0..cfg.count)
            .map(|_| {
                let cycle = splitmix64_next(&mut stream) % cfg.horizon.max(1);
                let slave = (splitmix64_next(&mut stream) % slaves.max(1) as u64) as usize;
                InterruptEvent { cycle, slave }
            })
            .collect();
        events.sort_by_key(|e| (e.cycle, e.slave));
        let mut events: Vec<InterruptEvent> = events
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| mask_keeps(cfg.injection_mask, i))
            .map(|(_, e)| e)
            .collect();
        events.reverse();
        InterruptPlan { events }
    }

    /// An empty plan (no injections).
    #[must_use]
    pub fn empty() -> InterruptPlan {
        InterruptPlan { events: Vec::new() }
    }

    /// The cycle of the next injection, if any remain.
    #[must_use]
    pub fn next_fire(&self) -> Option<u64> {
        self.events.last().map(|e| e.cycle)
    }

    /// Pops the next event whose cycle is `<= now`, if any.
    pub fn pop_due(&mut self, now: u64) -> Option<InterruptEvent> {
        if self.events.last().is_some_and(|e| e.cycle <= now) {
            self.events.pop()
        } else {
            None
        }
    }

    /// Number of events not yet fired.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.events.len()
    }
}

/// Draws the per-slave clock-skew rates (parts per 1024) from the irq
/// seed, on a stream decorrelated from the injection draws.
#[must_use]
pub fn skew_rates(cfg: &ClockSkewConfig, irq_seed: u64, slaves: usize) -> Vec<u32> {
    const SKEW_STREAM: u64 = 0x8BB8_4B93_962E_ACC9;
    let mut stream = splitmix64(irq_seed ^ SKEW_STREAM);
    (0..slaves)
        .map(|_| (splitmix64_next(&mut stream) % (u64::from(cfg.max_rate) + 1)) as u32)
        .collect()
}

/// A slave's local time at system cycle `c` under skew rate `rate`
/// (parts per 1024): `c + c*rate/1024`, monotone and zero-preserving.
/// Rate 0 is the identity.
#[must_use]
pub fn local_time(c: Cycles, rate: u32) -> Cycles {
    if rate == 0 {
        return c;
    }
    let c = c.get();
    let skew = (u128::from(c) * u128::from(rate)) / 1024;
    Cycles::new(c + skew as u64)
}

/// The inverse of [`local_time`]: the smallest system cycle whose local
/// time is `>= target`. Used to translate kernel-local deadlines
/// (sleeper wakes) back into the system-cycle horizon.
#[must_use]
pub fn system_time_for(target: u64, rate: u32) -> u64 {
    if rate == 0 {
        return target;
    }
    let approx = ((u128::from(target) * 1024) / (1024 + u128::from(rate))) as u64;
    let mut c = approx.saturating_sub(2);
    while local_time(Cycles::new(c), rate).get() < target {
        c += 1;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_inert_with_label_none() {
        let spec = PreemptionSpec::default();
        assert!(spec.is_inert());
        assert_eq!(spec.label(), "none");
    }

    #[test]
    fn labels_name_the_active_axes() {
        let spec = PreemptionSpec {
            quantum: Some(QuantumConfig { cycles: 6 }),
            clock_skew: None,
            interrupts: Some(InterruptConfig {
                count: 3,
                ..InterruptConfig::default()
            }),
        };
        assert_eq!(spec.label(), "quantum(q=6)+irq(n=3)");
        let masked = PreemptionSpec {
            interrupts: Some(InterruptConfig {
                count: 3,
                injection_mask: 0b101,
                ..InterruptConfig::default()
            }),
            ..PreemptionSpec::default()
        };
        assert_eq!(masked.label(), "irq(n=3,mask=0b101)");
    }

    #[test]
    fn plan_is_deterministic_and_sorted() {
        let cfg = InterruptConfig {
            count: 8,
            horizon: 10_000,
            injection_mask: u64::MAX,
        };
        let a = InterruptPlan::new(&cfg, 42, 2);
        let mut b = InterruptPlan::new(&cfg, 42, 2);
        assert_eq!(a.events, b.events);
        assert_eq!(a.remaining(), 8);
        // Popping in time order yields ascending cycles within horizon.
        let mut last = 0;
        while let Some(ev) = b.pop_due(u64::MAX) {
            assert!(ev.cycle >= last);
            assert!(ev.cycle < 10_000);
            assert!(ev.slave < 2);
            last = ev.cycle;
        }
        assert_eq!(b.remaining(), 0);
        let c = InterruptPlan::new(&cfg, 43, 2);
        assert_ne!(a.events, c.events, "different seeds draw different plans");
    }

    #[test]
    fn mask_filters_after_sorting_without_moving_survivors() {
        let cfg = InterruptConfig {
            count: 6,
            horizon: 10_000,
            injection_mask: u64::MAX,
        };
        let full = InterruptPlan::new(&cfg, 7, 3);
        let masked = InterruptPlan::new(
            &InterruptConfig {
                injection_mask: 0b1010,
                ..cfg
            },
            7,
            3,
        );
        // Events 1 and 3 (firing order) survive, unmoved.
        let mut fired_full: Vec<InterruptEvent> = full.events.clone();
        fired_full.reverse();
        let mut fired_masked: Vec<InterruptEvent> = masked.events.clone();
        fired_masked.reverse();
        assert_eq!(fired_masked, vec![fired_full[1], fired_full[3]]);
        assert_eq!(
            InterruptConfig {
                injection_mask: 0b1010,
                ..cfg
            }
            .active_injections(),
            2
        );
    }

    #[test]
    fn pop_due_only_releases_past_events() {
        let cfg = InterruptConfig {
            count: 4,
            horizon: 1_000,
            injection_mask: u64::MAX,
        };
        let mut plan = InterruptPlan::new(&cfg, 9, 1);
        let first = plan.next_fire().unwrap();
        assert!(plan.pop_due(first.saturating_sub(1)).is_none());
        assert_eq!(plan.pop_due(first).unwrap().cycle, first);
    }

    #[test]
    fn skew_rates_are_seeded_and_bounded() {
        let cfg = ClockSkewConfig { max_rate: 16 };
        let a = skew_rates(&cfg, 5, 4);
        let b = skew_rates(&cfg, 5, 4);
        assert_eq!(a, b);
        assert!(a.iter().all(|&r| r <= 16));
        let c = skew_rates(&cfg, 6, 4);
        assert_ne!(a, c, "different irq seeds draw different rates");
    }

    #[test]
    fn local_time_is_monotone_and_invertible() {
        for rate in [0u32, 1, 7, 16, 128, 1024] {
            let mut prev = 0;
            for c in 0..2_000u64 {
                let l = local_time(Cycles::new(c), rate).get();
                assert!(l >= prev, "local time must be monotone");
                assert!(l >= c, "skewed clocks only run fast");
                prev = l;
            }
            for target in [0u64, 1, 999, 60_000, 1 << 40] {
                let c = system_time_for(target, rate);
                assert!(
                    local_time(Cycles::new(c), rate).get() >= target,
                    "inverse must reach the target"
                );
                if c > 0 {
                    assert!(
                        local_time(Cycles::new(c - 1), rate).get() < target,
                        "inverse must be the smallest such cycle"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_rate_is_the_identity() {
        assert_eq!(local_time(Cycles::new(12_345), 0), Cycles::new(12_345));
        assert_eq!(system_time_for(12_345, 0), 12_345);
    }
}
