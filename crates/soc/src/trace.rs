//! Bounded event tracing used for bug reproduction dumps.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;

use crate::clock::Cycles;
use crate::CoreId;

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time at which the event occurred.
    pub at: Cycles,
    /// Core on which the event occurred.
    pub core: CoreId,
    /// Short machine-readable category, e.g. `"svc"`, `"irq"`, `"sched"`.
    pub kind: &'static str,
    /// Human-readable detail, e.g. `"task_create slot=3 prio=7"`. A
    /// recurring detail can be a `&'static str`, which records without
    /// allocating.
    pub detail: Cow<'static, str>,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} {}] {}",
            self.at, self.core, self.kind, self.detail
        )
    }
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// Every layer of the simulated system appends here; when the bug detector
/// fires it dumps the tail of this buffer into the [`BugReport`] so a user
/// can see the exact command/schedule history that led to the failure —
/// the paper's "helps users reproduce the bugs".
///
/// The buffer keeps only the most recent `capacity` events; older ones are
/// discarded (`dropped()` counts them).
///
/// [`BugReport`]: https://docs.rs/ptest-core
///
/// ```
/// use ptest_soc::{Cycles, CoreId, TraceBuffer};
/// let mut tb = TraceBuffer::new(2);
/// tb.record(Cycles::new(1), CoreId::Master, "cmd", "issue TC");
/// tb.record(Cycles::new(2), CoreId::Slave(0), "svc", "task_create");
/// tb.record(Cycles::new(3), CoreId::Slave(0), "sched", "run slot 0");
/// assert_eq!(tb.len(), 2); // oldest evicted
/// assert_eq!(tb.dropped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// Default capacity used by the system wiring: generous enough to hold
    /// the full history of the paper-scale experiments.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates a buffer keeping at most `capacity` events. The capacity
    /// bounds the ring; it reserves nothing, and the ring grows as events
    /// arrive.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> TraceBuffer {
        assert!(capacity > 0, "trace buffer capacity must be at least 1");
        TraceBuffer {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if the buffer is full.
    pub fn record(
        &mut self,
        at: Cycles,
        core: CoreId,
        kind: &'static str,
        detail: impl Into<Cow<'static, str>>,
    ) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            at,
            core,
            kind,
            detail: detail.into(),
        });
    }

    /// Counts `n` events as recorded and already evicted, without
    /// storing them. Followed by at least `capacity` more records, this
    /// leaves the buffer exactly as recording those `n` events first
    /// would: the later records evict everything held now, and the
    /// drop count includes the `n`.
    pub fn count_evicted(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events have been evicted since creation.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over held events from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// The most recent `n` events, oldest first.
    #[must_use]
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        let skip = self.events.len().saturating_sub(n);
        self.events.iter().skip(skip).cloned().collect()
    }

    /// Events matching a `kind` filter, oldest first.
    #[must_use]
    pub fn of_kind(&self, kind: &str) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Discards all held events (the drop counter is preserved).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl Default for TraceBuffer {
    fn default() -> TraceBuffer {
        TraceBuffer::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tb: &mut TraceBuffer, t: u64, detail: &str) {
        tb.record(Cycles::new(t), CoreId::Slave(0), "test", detail.to_owned());
    }

    #[test]
    fn records_in_order() {
        let mut tb = TraceBuffer::new(10);
        ev(&mut tb, 1, "a");
        ev(&mut tb, 2, "b");
        let all: Vec<&str> = tb.iter().map(|e| e.detail.as_ref()).collect();
        assert_eq!(all, vec!["a", "b"]);
    }

    #[test]
    fn evicts_oldest_and_counts_drops() {
        let mut tb = TraceBuffer::new(2);
        ev(&mut tb, 1, "a");
        ev(&mut tb, 2, "b");
        ev(&mut tb, 3, "c");
        assert_eq!(tb.len(), 2);
        assert_eq!(tb.dropped(), 1);
        assert_eq!(tb.iter().next().unwrap().detail, "b");
    }

    #[test]
    fn tail_returns_most_recent() {
        let mut tb = TraceBuffer::new(10);
        for i in 0..5 {
            ev(&mut tb, i, &format!("e{i}"));
        }
        let t = tb.tail(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].detail, "e3");
        assert_eq!(t[1].detail, "e4");
        assert_eq!(tb.tail(99).len(), 5);
    }

    #[test]
    fn of_kind_filters() {
        let mut tb = TraceBuffer::new(10);
        tb.record(Cycles::new(1), CoreId::Master, "cmd", "x");
        tb.record(Cycles::new(2), CoreId::Slave(0), "svc", "y");
        tb.record(Cycles::new(3), CoreId::Master, "cmd", "z");
        let cmds = tb.of_kind("cmd");
        assert_eq!(cmds.len(), 2);
        assert!(cmds.iter().all(|e| e.kind == "cmd"));
    }

    #[test]
    fn display_contains_fields() {
        let e = TraceEvent {
            at: Cycles::new(7),
            core: CoreId::Master,
            kind: "irq",
            detail: "mailbox 0".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("7cy") && s.contains("ARM") && s.contains("irq") && s.contains("mailbox 0")
        );
    }

    #[test]
    fn clear_keeps_drop_counter() {
        let mut tb = TraceBuffer::new(1);
        ev(&mut tb, 1, "a");
        ev(&mut tb, 2, "b");
        tb.clear();
        assert!(tb.is_empty());
        assert_eq!(tb.dropped(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = TraceBuffer::new(0);
    }
}
