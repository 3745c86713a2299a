//! The inter-processor mailbox peripheral.

use std::collections::VecDeque;

use crate::error::MailboxError;
use crate::CoreId;

/// A single hardware mailbox: a small FIFO of 32-bit words flowing in one
/// direction between the two cores, raising an interrupt at the receiver
/// whenever it is non-empty.
#[derive(Debug, Clone)]
pub struct Mailbox {
    fifo: VecDeque<u32>,
    capacity: usize,
    receiver: CoreId,
}

impl Mailbox {
    /// Creates a mailbox delivering to `receiver` with the given FIFO depth.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-deep mailbox cannot transfer
    /// anything and always indicates a configuration bug.
    #[must_use]
    pub fn new(receiver: CoreId, capacity: usize) -> Mailbox {
        assert!(capacity > 0, "mailbox capacity must be at least 1");
        Mailbox {
            fifo: VecDeque::with_capacity(capacity),
            capacity,
            receiver,
        }
    }

    /// The core that receives (and is interrupted by) this mailbox.
    #[must_use]
    pub fn receiver(&self) -> CoreId {
        self.receiver
    }

    /// Number of words currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the FIFO is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Whether the FIFO is full (a post would fail).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.fifo.len() == self.capacity
    }

    /// Posts one word into the FIFO.
    ///
    /// # Errors
    ///
    /// [`MailboxError::Full`] if the FIFO has no room; real firmware retries
    /// after the receiver drains a word.
    pub fn post(&mut self, word: u32) -> Result<(), MailboxError> {
        if self.is_full() {
            return Err(MailboxError::Full {
                mailbox: usize::MAX,
            });
        }
        self.fifo.push_back(word);
        Ok(())
    }

    /// Pops the oldest word, or `None` if the FIFO is empty.
    pub fn take(&mut self) -> Option<u32> {
        self.fifo.pop_front()
    }

    /// Peeks at the oldest word without consuming it.
    #[must_use]
    pub fn peek(&self) -> Option<u32> {
        self.fifo.front().copied()
    }
}

/// A bank of inter-processor mailboxes: one block of four per slave.
///
/// Every slave `i` owns a contiguous block of [`MailboxBank::BOXES_PER_SLAVE`]
/// mailboxes, mirroring how the OMAP5912 dedicated its four mailboxes to
/// its single DSP (that original bank is exactly [`MailboxBank::omap5912`],
/// i.e. `for_slaves(1)`):
///
/// | block offset | accessor | direction | purpose |
/// |---|---|---|---|
/// | 0 | [`MailboxBank::cmd_index`]   | master → slave *i* | command doorbells |
/// | 1 | [`MailboxBank::data_index`]  | master → slave *i* | auxiliary data |
/// | 2 | [`MailboxBank::resp_index`]  | slave *i* → master | command responses |
/// | 3 | [`MailboxBank::event_index`] | slave *i* → master | asynchronous events |
///
/// The interrupt-line queries are O(1): a slave's line reads its own
/// block, and [`MailboxBank::any_pending`] reads a count of queued words
/// that [`MailboxBank::post`] and [`MailboxBank::take`] keep.
#[derive(Debug, Clone)]
pub struct MailboxBank {
    boxes: Vec<Mailbox>,
    /// Words queued across the whole bank.
    queued: usize,
}

impl MailboxBank {
    /// Mailboxes per slave block: command, data, response, event.
    pub const BOXES_PER_SLAVE: usize = 4;

    /// Index of slave `slave`'s command doorbell (master → slave).
    #[must_use]
    pub const fn cmd_index(slave: usize) -> usize {
        slave * Self::BOXES_PER_SLAVE
    }

    /// Index of slave `slave`'s auxiliary data mailbox (master → slave).
    #[must_use]
    pub const fn data_index(slave: usize) -> usize {
        slave * Self::BOXES_PER_SLAVE + 1
    }

    /// Index of slave `slave`'s response doorbell (slave → master).
    #[must_use]
    pub const fn resp_index(slave: usize) -> usize {
        slave * Self::BOXES_PER_SLAVE + 2
    }

    /// Index of slave `slave`'s asynchronous event doorbell (slave → master).
    #[must_use]
    pub const fn event_index(slave: usize) -> usize {
        slave * Self::BOXES_PER_SLAVE + 3
    }

    /// The OMAP5912 bank: one slave block of four mailboxes with a FIFO
    /// depth of 4 words.
    #[must_use]
    pub fn omap5912() -> MailboxBank {
        MailboxBank::with_depth(4)
    }

    /// A single-slave bank with the given per-mailbox FIFO depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (see [`Mailbox::new`]).
    #[must_use]
    pub fn with_depth(depth: usize) -> MailboxBank {
        MailboxBank::for_slaves_with_depth(1, depth)
    }

    /// A bank serving `slaves` slave cores with the OMAP FIFO depth of 4.
    ///
    /// # Panics
    ///
    /// Panics if `slaves` is zero or exceeds 256.
    #[must_use]
    pub fn for_slaves(slaves: usize) -> MailboxBank {
        MailboxBank::for_slaves_with_depth(slaves, 4)
    }

    /// A bank serving `slaves` slave cores with the given FIFO depth.
    ///
    /// # Panics
    ///
    /// Panics if `slaves` is zero or exceeds 256, or if `depth` is zero.
    #[must_use]
    pub fn for_slaves_with_depth(slaves: usize, depth: usize) -> MailboxBank {
        assert!(slaves > 0, "a mailbox bank needs at least one slave block");
        assert!(slaves <= 256, "slave count exceeds the addressable range");
        let mut boxes = Vec::with_capacity(slaves * Self::BOXES_PER_SLAVE);
        for slave in 0..slaves {
            let core = CoreId::slave(slave);
            boxes.push(Mailbox::new(core, depth)); // command doorbell
            boxes.push(Mailbox::new(core, depth)); // auxiliary data
            boxes.push(Mailbox::new(CoreId::Master, depth)); // responses
            boxes.push(Mailbox::new(CoreId::Master, depth)); // events
        }
        MailboxBank { boxes, queued: 0 }
    }

    /// Number of slave blocks in the bank.
    #[must_use]
    pub fn slave_count(&self) -> usize {
        self.boxes.len() / Self::BOXES_PER_SLAVE
    }

    /// Number of mailboxes in the bank (four per slave).
    #[must_use]
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the bank has no mailboxes (never true for constructed banks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    fn get(&self, mailbox: usize) -> Result<&Mailbox, MailboxError> {
        self.boxes
            .get(mailbox)
            .ok_or(MailboxError::NoSuchMailbox { mailbox })
    }

    /// Posts a word to mailbox `mailbox`.
    ///
    /// # Errors
    ///
    /// [`MailboxError::NoSuchMailbox`] for an invalid index, or
    /// [`MailboxError::Full`] if the FIFO has no room.
    pub fn post(&mut self, mailbox: usize, word: u32) -> Result<(), MailboxError> {
        let slot = self
            .boxes
            .get_mut(mailbox)
            .ok_or(MailboxError::NoSuchMailbox { mailbox })?;
        slot.post(word)
            .map_err(|_| MailboxError::Full { mailbox })?;
        self.queued += 1;
        Ok(())
    }

    /// Pops the oldest word of mailbox `mailbox`, or `None` if it is empty
    /// or the index is invalid.
    pub fn take(&mut self, mailbox: usize) -> Option<u32> {
        let word = self.boxes.get_mut(mailbox)?.take()?;
        self.queued -= 1;
        Some(word)
    }

    /// Peeks at the oldest word of mailbox `mailbox` without consuming it.
    #[must_use]
    pub fn peek(&self, mailbox: usize) -> Option<u32> {
        self.get(mailbox).ok()?.peek()
    }

    /// Number of queued words in mailbox `mailbox` (0 for invalid indices).
    #[must_use]
    pub fn pending(&self, mailbox: usize) -> usize {
        self.get(mailbox).map_or(0, Mailbox::len)
    }

    /// Whether any mailbox delivering to `core` holds at least one word —
    /// i.e. whether the mailbox interrupt line of `core` is asserted.
    #[must_use]
    pub fn irq_pending(&self, core: CoreId) -> bool {
        // A slave's inbound boxes are its own command and data boxes.
        let CoreId::Slave(i) = core else {
            return self.scan_pending(Some(core));
        };
        let i = usize::from(i);
        let pending = self.pending(Self::cmd_index(i)) > 0 || self.pending(Self::data_index(i)) > 0;
        debug_assert_eq!(pending, self.scan_pending(Some(core)));
        pending
    }

    /// Whether any mailbox in the bank, in either direction, holds at
    /// least one word — i.e. whether any doorbell anywhere is still
    /// ringing. `false` means no interrupt-driven work is pending on
    /// the whole platform.
    #[must_use]
    pub fn any_pending(&self) -> bool {
        debug_assert_eq!(self.queued > 0, self.scan_pending(None));
        self.queued > 0
    }

    /// The reference the O(1) line queries stand for: a scan of every
    /// box delivering to `core` (any core for `None`).
    fn scan_pending(&self, core: Option<CoreId>) -> bool {
        self.boxes
            .iter()
            .any(|m| core.is_none_or(|c| m.receiver() == c) && !m.is_empty())
    }

    /// Indices of the mailboxes delivering to `core`.
    #[must_use]
    pub fn inbound_for(&self, core: CoreId) -> Vec<usize> {
        self.boxes
            .iter()
            .enumerate()
            .filter(|(_, m)| m.receiver() == core)
            .map(|(i, _)| i)
            .collect()
    }
}

impl Default for MailboxBank {
    fn default() -> MailboxBank {
        MailboxBank::omap5912()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut m = Mailbox::new(CoreId::Slave(0), 4);
        m.post(1).unwrap();
        m.post(2).unwrap();
        m.post(3).unwrap();
        assert_eq!(m.take(), Some(1));
        assert_eq!(m.take(), Some(2));
        assert_eq!(m.take(), Some(3));
        assert_eq!(m.take(), None);
    }

    #[test]
    fn full_mailbox_rejects_posts() {
        let mut m = Mailbox::new(CoreId::Master, 2);
        m.post(1).unwrap();
        m.post(2).unwrap();
        assert!(m.is_full());
        assert!(m.post(3).is_err());
        assert_eq!(m.take(), Some(1));
        m.post(3).unwrap();
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Mailbox::new(CoreId::Master, 0);
    }

    #[test]
    fn bank_directions_match_omap_convention() {
        let bank = MailboxBank::omap5912();
        assert_eq!(bank.len(), 4);
        assert_eq!(bank.inbound_for(CoreId::Slave(0)), vec![0, 1]);
        assert_eq!(bank.inbound_for(CoreId::Master), vec![2, 3]);
    }

    #[test]
    fn irq_tracks_pending_words() {
        let mut bank = MailboxBank::omap5912();
        assert!(!bank.irq_pending(CoreId::Slave(0)));
        assert!(!bank.irq_pending(CoreId::Master));
        bank.post(MailboxBank::cmd_index(0), 5).unwrap();
        assert!(bank.irq_pending(CoreId::Slave(0)));
        assert!(!bank.irq_pending(CoreId::Master));
        assert_eq!(bank.take(MailboxBank::cmd_index(0)), Some(5));
        assert!(!bank.irq_pending(CoreId::Slave(0)));
    }

    #[test]
    fn multi_slave_bank_routes_per_block() {
        let mut bank = MailboxBank::for_slaves(3);
        assert_eq!(bank.slave_count(), 3);
        assert_eq!(bank.len(), 12);
        assert_eq!(
            bank.inbound_for(CoreId::Slave(1)),
            vec![MailboxBank::cmd_index(1), MailboxBank::data_index(1)]
        );
        assert_eq!(
            bank.inbound_for(CoreId::Master),
            vec![
                MailboxBank::resp_index(0),
                MailboxBank::event_index(0),
                MailboxBank::resp_index(1),
                MailboxBank::event_index(1),
                MailboxBank::resp_index(2),
                MailboxBank::event_index(2),
            ]
        );
        bank.post(MailboxBank::cmd_index(2), 9).unwrap();
        assert!(bank.irq_pending(CoreId::Slave(2)));
        assert!(!bank.irq_pending(CoreId::Slave(0)));
        assert!(!bank.irq_pending(CoreId::Slave(1)));
        bank.post(MailboxBank::resp_index(1), 3).unwrap();
        assert!(bank.irq_pending(CoreId::Master));
    }

    #[test]
    #[should_panic(expected = "at least one slave")]
    fn zero_slave_bank_panics() {
        let _ = MailboxBank::for_slaves(0);
    }

    #[test]
    fn invalid_index_errors() {
        let mut bank = MailboxBank::omap5912();
        assert!(matches!(
            bank.post(9, 0),
            Err(MailboxError::NoSuchMailbox { mailbox: 9 })
        ));
        assert_eq!(bank.take(9), None);
        assert_eq!(bank.pending(9), 0);
        assert_eq!(bank.peek(9), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut bank = MailboxBank::omap5912();
        bank.post(2, 77).unwrap();
        assert_eq!(bank.peek(2), Some(77));
        assert_eq!(bank.pending(2), 1);
        assert_eq!(bank.take(2), Some(77));
    }

    #[test]
    fn full_bank_error_reports_index() {
        let mut bank = MailboxBank::with_depth(1);
        bank.post(3, 1).unwrap();
        assert_eq!(bank.post(3, 2), Err(MailboxError::Full { mailbox: 3 }));
    }
}
