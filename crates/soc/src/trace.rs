//! Bounded event tracing used for bug reproduction dumps.
//!
//! A trace records facts, not text: each layer defines its own event
//! type whose variants carry the typed fields of what happened, and a
//! record stores that value as it is. The text a user reads is rendered
//! from those fields only when someone displays the event, so a trial
//! that nobody inspects never formats a string.

use std::collections::VecDeque;
use std::fmt;

use crate::clock::Cycles;
use crate::CoreId;

/// The payload of a trace record: one layer's typed event. Its
/// [`Display`](fmt::Display) renders the human-readable detail, e.g.
/// `"task_create slot=3 prio=7"`.
pub trait TraceDetail: fmt::Display {
    /// Short machine-readable category, e.g. `"svc"`, `"irq"`, `"sched"`.
    fn kind(&self) -> &'static str;
}

/// One timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent<E> {
    /// Virtual time at which the event occurred.
    pub at: Cycles,
    /// Core on which the event occurred.
    pub core: CoreId,
    /// What happened.
    pub event: E,
}

impl<E: TraceDetail> TraceEvent<E> {
    /// The event's category ([`TraceDetail::kind`]).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.event.kind()
    }
}

impl<E: TraceDetail> fmt::Display for TraceEvent<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} {}] {}",
            self.at,
            self.core,
            self.event.kind(),
            self.event
        )
    }
}

/// A bounded ring buffer of [`TraceEvent`]s over one event type `E`.
///
/// Every layer of the simulated system appends here; when the bug detector
/// fires it dumps the tail of this buffer into the [`BugReport`] so a user
/// can see the exact command/schedule history that led to the failure —
/// the paper's "helps users reproduce the bugs".
///
/// The buffer keeps only the most recent `capacity` events; older ones are
/// discarded (`dropped()` counts them). Recording moves the event into
/// the ring and nothing else; an event type without drop glue (a `Copy`
/// enum) makes eviction and the ring's own drop free as well.
///
/// [`BugReport`]: https://docs.rs/ptest-core
///
/// ```
/// use std::fmt;
/// use ptest_soc::{Cycles, CoreId, TraceBuffer, TraceDetail};
///
/// #[derive(Clone, Copy)]
/// struct Issue(u32);
/// impl TraceDetail for Issue {
///     fn kind(&self) -> &'static str {
///         "cmd"
///     }
/// }
/// impl fmt::Display for Issue {
///     fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
///         write!(f, "issue cmd{}", self.0)
///     }
/// }
///
/// let mut tb = TraceBuffer::new(2);
/// for i in 1..=3 {
///     tb.record(Cycles::new(i.into()), CoreId::Master, Issue(i));
/// }
/// assert_eq!(tb.len(), 2); // oldest evicted
/// assert_eq!(tb.dropped(), 1);
/// assert_eq!(tb.tail(1)[0].to_string(), "[3cy ARM cmd] issue cmd3");
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuffer<E> {
    events: VecDeque<TraceEvent<E>>,
    capacity: usize,
    dropped: u64,
}

impl<E> TraceBuffer<E> {
    /// Default capacity of the system's rings. A trial that captures its
    /// trace for a root-cause report keeps this many events per ring,
    /// which holds the whole timeline of most paper-scale trials; a
    /// trial that does not keeps only the tail its bug reports show.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates a buffer keeping at most `capacity` events. The capacity
    /// bounds the ring; it reserves nothing, and the ring grows as events
    /// arrive.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> TraceBuffer<E> {
        assert!(capacity > 0, "trace buffer capacity must be at least 1");
        TraceBuffer {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if the buffer is full.
    #[inline]
    pub fn record(&mut self, at: Cycles, core: CoreId, event: E) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { at, core, event });
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
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent<E>> {
        self.events.iter()
    }
}

impl<E: Clone> TraceBuffer<E> {
    /// The most recent `n` events, oldest first.
    #[must_use]
    pub fn tail(&self, n: usize) -> Vec<TraceEvent<E>> {
        let skip = self.events.len().saturating_sub(n);
        self.events.range(skip..).cloned().collect()
    }
}

impl<E> Default for TraceBuffer<E> {
    fn default() -> TraceBuffer<E> {
        TraceBuffer::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test event: a kind and a numbered label.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Ev(&'static str, u64);

    impl TraceDetail for Ev {
        fn kind(&self) -> &'static str {
            self.0
        }
    }

    impl fmt::Display for Ev {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "e{}", self.1)
        }
    }

    fn ev(tb: &mut TraceBuffer<Ev>, t: u64) {
        tb.record(Cycles::new(t), CoreId::Slave(0), Ev("test", t));
    }

    fn labels(tb: &TraceBuffer<Ev>) -> Vec<u64> {
        tb.iter().map(|e| e.event.1).collect()
    }

    #[test]
    fn records_in_order() {
        let mut tb = TraceBuffer::new(10);
        ev(&mut tb, 1);
        ev(&mut tb, 2);
        assert_eq!(labels(&tb), vec![1, 2]);
    }

    #[test]
    fn evicts_oldest_and_counts_drops() {
        let mut tb = TraceBuffer::new(2);
        ev(&mut tb, 1);
        ev(&mut tb, 2);
        ev(&mut tb, 3);
        assert_eq!(tb.len(), 2);
        assert_eq!(tb.dropped(), 1);
        assert_eq!(labels(&tb), vec![2, 3]);
    }

    #[test]
    fn count_evicted_then_a_full_ring_matches_recording() {
        let mut recorded = TraceBuffer::new(3);
        let mut counted = TraceBuffer::new(3);
        for t in 0..5 {
            ev(&mut recorded, t);
        }
        counted.count_evicted(2);
        for t in 2..5 {
            ev(&mut counted, t);
        }
        assert_eq!(labels(&counted), labels(&recorded));
        assert_eq!(counted.dropped(), recorded.dropped());
    }

    #[test]
    fn tail_returns_most_recent() {
        let mut tb = TraceBuffer::new(10);
        for i in 0..5 {
            ev(&mut tb, i);
        }
        let t = tb.tail(2);
        assert_eq!(t.len(), 2);
        assert_eq!((t[0].event.1, t[1].event.1), (3, 4));
        assert_eq!(tb.tail(99).len(), 5);
    }

    #[test]
    fn kind_reads_the_event() {
        let mut tb = TraceBuffer::new(10);
        tb.record(Cycles::new(1), CoreId::Master, Ev("cmd", 1));
        tb.record(Cycles::new(2), CoreId::Slave(0), Ev("svc", 2));
        let kinds: Vec<&str> = tb.iter().map(TraceEvent::kind).collect();
        assert_eq!(kinds, vec!["cmd", "svc"]);
    }

    #[test]
    fn display_contains_fields() {
        let e = TraceEvent {
            at: Cycles::new(7),
            core: CoreId::Master,
            event: Ev("irq", 0),
        };
        assert_eq!(e.to_string(), "[7cy ARM irq] e0");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = TraceBuffer::<Ev>::new(0);
    }
}
