//! The two endpoints of the bridge: the master-side command port and the
//! slave-side interrupt service endpoint.

use std::collections::HashMap;

use ptest_pcore::{Kernel, SvcError, SvcReply, SvcRequest};
use ptest_soc::{CoreId, Cycles, MailboxBank, SharedSram};

use crate::codec::{
    decode_cmd, decode_resp, encode_cmd, encode_resp, CmdId, CMD_RECORD_BYTES, RESP_RECORD_BYTES,
};
use crate::ring::{RingError, SramRing};

/// Where one slave's bridge rings live in shared SRAM.
///
/// An N-slave platform uses N layouts, one per slave, occupying disjoint
/// windows carved out of the shared SRAM (see [`BridgeLayout::for_slaves`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeLayout {
    /// Command ring (master → slave).
    pub cmd_ring: SramRing,
    /// Response ring (slave → master).
    pub resp_ring: SramRing,
}

const fn align16(x: usize) -> usize {
    (x + 15) & !15
}

impl BridgeLayout {
    /// Records per ring.
    pub const RING_CAPACITY: u32 = 32;

    /// SRAM offset of slave 0's window (below it live the boot vectors of
    /// the original firmware image).
    pub const BASE_OFFSET: usize = 0x100;

    /// Bytes of shared SRAM one slave's window occupies: a
    /// [`RING_CAPACITY`](Self::RING_CAPACITY)-deep command ring plus an
    /// equally deep response ring, each 16-byte aligned.
    pub const SLAVE_WINDOW_BYTES: usize =
        align16(8 + CMD_RECORD_BYTES * Self::RING_CAPACITY as usize)
            + align16(8 + RESP_RECORD_BYTES * Self::RING_CAPACITY as usize);

    /// The layout of slave `slave`'s window. Windows are laid out
    /// back-to-back from [`BridgeLayout::BASE_OFFSET`] with a stride of
    /// [`BridgeLayout::SLAVE_WINDOW_BYTES`]; slave 0's is the dual-core
    /// original, a 32-deep command ring at offset `0x100` and a 32-deep
    /// response ring right after it.
    #[must_use]
    pub fn for_slave(slave: usize) -> BridgeLayout {
        let base = Self::BASE_OFFSET + slave * Self::SLAVE_WINDOW_BYTES;
        let cmd_ring = SramRing {
            base,
            record_bytes: CMD_RECORD_BYTES,
            capacity: Self::RING_CAPACITY,
        };
        let resp_ring = SramRing {
            base: base + align16(cmd_ring.footprint()),
            record_bytes: RESP_RECORD_BYTES,
            capacity: Self::RING_CAPACITY,
        };
        BridgeLayout {
            cmd_ring,
            resp_ring,
        }
    }

    /// Partitioned layouts for an `slaves`-slave platform: one
    /// command/response ring pair per slave in disjoint SRAM windows.
    #[must_use]
    pub fn for_slaves(slaves: usize) -> Vec<BridgeLayout> {
        (0..slaves).map(BridgeLayout::for_slave).collect()
    }

    /// Initialises both ring headers in SRAM.
    ///
    /// # Errors
    ///
    /// [`ptest_soc::SramError`] if the layout exceeds the SRAM window.
    pub fn init(&self, sram: &mut SharedSram) -> Result<(), ptest_soc::SramError> {
        self.cmd_ring.init(sram)?;
        self.resp_ring.init(sram)?;
        Ok(())
    }
}

/// Error issuing a command from the master side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeError {
    /// The command ring is full (more than 32 unserviced commands).
    CommandRingFull,
    /// The target slave index exceeds the port's lane count.
    NoSuchSlave {
        /// The requested slave index.
        slave: usize,
    },
    /// An SRAM layout violation (configuration bug).
    Sram(ptest_soc::SramError),
}

impl std::fmt::Display for BridgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgeError::CommandRingFull => write!(f, "command ring is full"),
            BridgeError::NoSuchSlave { slave } => write!(f, "no bridge lane for slave {slave}"),
            BridgeError::Sram(e) => write!(f, "bridge sram access failed: {e}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<RingError> for BridgeError {
    fn from(e: RingError) -> BridgeError {
        match e {
            RingError::Full => BridgeError::CommandRingFull,
            RingError::Sram(s) => BridgeError::Sram(s),
        }
    }
}

impl From<ptest_soc::SramError> for BridgeError {
    fn from(e: ptest_soc::SramError) -> BridgeError {
        BridgeError::Sram(e)
    }
}

/// A completed command: its id, the original request, the slave's answer,
/// and the issue/completion times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdResponse {
    /// Correlation id.
    pub id: CmdId,
    /// The slave that answered.
    pub slave: usize,
    /// The request as originally issued.
    pub request: SvcRequest,
    /// The slave's reply.
    pub result: Result<SvcReply, SvcError>,
    /// When the command was issued (master clock).
    pub issued_at: Cycles,
    /// When the response was observed (master clock).
    pub completed_at: Cycles,
}

/// Statistics counters of a [`MasterPort`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Commands issued.
    pub issued: u64,
    /// Responses received.
    pub completed: u64,
    /// Issue attempts rejected because the ring was full.
    pub ring_full_rejections: u64,
}

/// One in-flight command on the master side.
#[derive(Debug, Clone)]
struct PendingCmd {
    slave: usize,
    request: SvcRequest,
    issued_at: Cycles,
}

/// The master-side endpoint: issues commands to any slave over per-slave
/// lanes (one command/response ring pair each) and collects responses.
/// Command ids are unique across lanes; issue and pending counts are kept
/// both in aggregate and per slave, overdue tracking per slave.
///
/// The port does not own the hardware; the system wiring passes the shared
/// [`SharedSram`] and [`MailboxBank`] into each call, mirroring how real
/// firmware banks on memory-mapped peripherals.
#[derive(Debug, Clone)]
pub struct MasterPort {
    lanes: Vec<BridgeLayout>,
    next_id: u32,
    pending: HashMap<CmdId, PendingCmd>,
    stats: PortStats,
    lane_stats: Vec<PortStats>,
}

impl MasterPort {
    /// Creates a port with one lane per slave layout.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty — a master with nothing to command is a
    /// wiring bug.
    #[must_use]
    pub fn for_slaves(lanes: Vec<BridgeLayout>) -> MasterPort {
        assert!(!lanes.is_empty(), "master port needs at least one lane");
        let lane_stats = vec![PortStats::default(); lanes.len()];
        MasterPort {
            lanes,
            next_id: 1,
            pending: HashMap::new(),
            stats: PortStats::default(),
            lane_stats,
        }
    }

    /// Number of slave lanes.
    #[must_use]
    pub fn slave_count(&self) -> usize {
        self.lanes.len()
    }

    /// Aggregate issue counters across all lanes.
    #[must_use]
    pub fn stats(&self) -> PortStats {
        self.stats
    }

    /// Issue counters of one slave's lane, or `None` for an unknown slave.
    #[must_use]
    pub fn stats_for(&self, slave: usize) -> Option<PortStats> {
        self.lane_stats.get(slave).copied()
    }

    /// Number of commands awaiting a response (all slaves).
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// When the longest-outstanding command was issued, or `None` if no
    /// command awaits a response.
    #[must_use]
    pub fn oldest_issue(&self) -> Option<Cycles> {
        self.pending.values().map(|p| p.issued_at).min()
    }

    /// Number of commands awaiting a response from one slave.
    #[must_use]
    pub fn pending_count_for(&self, slave: usize) -> usize {
        self.pending.values().filter(|p| p.slave == slave).count()
    }

    /// The slave a pending command targets, or `None` if it is not in
    /// flight.
    #[must_use]
    pub fn slave_of(&self, id: CmdId) -> Option<usize> {
        self.pending.get(&id).map(|p| p.slave)
    }

    /// Number of commands overdue on `slave`'s lane, without allocating
    /// the id list ([`MasterPort::overdue_for`] for callers that only
    /// need the count).
    #[must_use]
    pub fn overdue_count_for(&self, slave: usize, now: Cycles, timeout: Cycles) -> usize {
        self.pending
            .iter()
            .filter(|(_, p)| p.slave == slave && now.since(p.issued_at) > timeout)
            .count()
    }

    /// Commands to `slave` issued before `now - timeout` that are still
    /// unanswered — the master-side symptom of a crashed or wedged slave.
    #[must_use]
    pub fn overdue_for(&self, slave: usize, now: Cycles, timeout: Cycles) -> Vec<CmdId> {
        let mut ids: Vec<CmdId> = self
            .pending
            .iter()
            .filter(|(_, p)| p.slave == slave && now.since(p.issued_at) > timeout)
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        ids
    }

    /// Issues a command to slave `slave`: writes the record into that
    /// lane's command ring and rings the slave's doorbell mailbox
    /// (coalesced — the doorbell is only posted when the mailbox is empty,
    /// since one interrupt drains the whole ring).
    ///
    /// # Errors
    ///
    /// [`BridgeError::NoSuchSlave`] for an out-of-range slave index;
    /// [`BridgeError::CommandRingFull`] if 32 commands are already queued
    /// on the lane.
    pub fn issue_to(
        &mut self,
        slave: usize,
        sram: &mut SharedSram,
        mailboxes: &mut MailboxBank,
        req: SvcRequest,
        now: Cycles,
    ) -> Result<CmdId, BridgeError> {
        let Some(lane) = self.lanes.get(slave) else {
            return Err(BridgeError::NoSuchSlave { slave });
        };
        let id = CmdId(self.next_id);
        let record = encode_cmd(id, &req);
        match lane.cmd_ring.push(sram, &record) {
            Ok(()) => {}
            Err(e) => {
                if matches!(e, RingError::Full) {
                    self.stats.ring_full_rejections += 1;
                    self.lane_stats[slave].ring_full_rejections += 1;
                }
                return Err(e.into());
            }
        }
        self.next_id += 1;
        if mailboxes.pending(MailboxBank::cmd_index(slave)) == 0 {
            // Coalesced doorbell; the FIFO can only be full transiently.
            let _ = mailboxes.post(MailboxBank::cmd_index(slave), id.0);
        }
        self.pending.insert(
            id,
            PendingCmd {
                slave,
                request: req,
                issued_at: now,
            },
        );
        self.stats.issued += 1;
        self.lane_stats[slave].issued += 1;
        Ok(id)
    }

    /// Drains every lane's response ring in slave order, matching
    /// responses to pending commands.
    pub fn poll_responses(
        &mut self,
        sram: &mut SharedSram,
        mailboxes: &mut MailboxBank,
        now: Cycles,
    ) -> Vec<CmdResponse> {
        let mut out = Vec::new();
        for slave in 0..self.lanes.len() {
            self.poll_slave_responses(slave, sram, mailboxes, now, &mut out);
        }
        out
    }

    fn poll_slave_responses(
        &mut self,
        slave: usize,
        sram: &mut SharedSram,
        mailboxes: &mut MailboxBank,
        now: Cycles,
        out: &mut Vec<CmdResponse>,
    ) {
        let resp_ring = self.lanes[slave].resp_ring;
        // A quiet doorbell means an empty ring: the slave rings on every
        // push into an empty doorbell, and this drain empties the ring.
        if mailboxes.pending(MailboxBank::resp_index(slave)) == 0 {
            debug_assert!(resp_ring.is_empty(sram).unwrap_or(true));
            return;
        }
        // Acknowledge the lane's response doorbell(s).
        while mailboxes.take(MailboxBank::resp_index(slave)).is_some() {}
        let mut buf = [0u8; RESP_RECORD_BYTES];
        while let Ok(true) = resp_ring.pop(sram, &mut buf) {
            let Ok((id, result)) = decode_resp(&buf) else {
                continue; // corrupt record: drop, keep draining
            };
            if let Some(p) = self.pending.remove(&id) {
                self.stats.completed += 1;
                self.lane_stats[slave].completed += 1;
                out.push(CmdResponse {
                    id,
                    slave: p.slave,
                    request: p.request,
                    result,
                    issued_at: p.issued_at,
                    completed_at: now,
                });
            }
        }
    }
}

/// Statistics counters of a [`SlaveEndpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Commands dispatched into the kernel.
    pub serviced: u64,
    /// Responses dropped because the response ring was full.
    pub resp_drops: u64,
}

/// The slave-side endpoint: drains the command ring on doorbell
/// interrupts, dispatches requests into the kernel and writes responses.
///
/// When the kernel has panicked the endpoint goes silent (the firmware
/// died with the kernel) — the master then observes *command timeouts*,
/// which is exactly how pTest's bug detector notices a slave crash.
#[derive(Debug, Clone)]
pub struct SlaveEndpoint {
    layout: BridgeLayout,
    slave: usize,
    stats: EndpointStats,
}

impl SlaveEndpoint {
    /// Creates the endpoint of slave `slave`, listening on that slave's
    /// mailbox block.
    #[must_use]
    pub fn for_slave(layout: BridgeLayout, slave: usize) -> SlaveEndpoint {
        SlaveEndpoint {
            layout,
            slave,
            stats: EndpointStats::default(),
        }
    }

    /// The slave index this endpoint serves.
    #[must_use]
    pub fn slave(&self) -> usize {
        self.slave
    }

    /// Endpoint counters.
    #[must_use]
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// Services the command doorbell: if the slave's mailbox interrupt is
    /// pending, drains the command ring (up to `budget` commands),
    /// dispatching each into `kernel` and pushing a response. Returns the
    /// number serviced. Records left over when the budget runs out
    /// re-ring the doorbell, so they are serviced on the next call; a
    /// live slave's command ring is therefore never non-empty without a
    /// pending doorbell.
    pub fn service(
        &mut self,
        sram: &mut SharedSram,
        mailboxes: &mut MailboxBank,
        kernel: &mut Kernel,
        now: Cycles,
        budget: usize,
    ) -> usize {
        if kernel.panic().is_some() {
            return 0; // dead slave: leave doorbells unanswered
        }
        if !mailboxes.irq_pending(CoreId::slave(self.slave)) {
            debug_assert!(self.layout.cmd_ring.is_empty(sram).unwrap_or(true));
            return 0;
        }
        // Acknowledge all queued doorbells; leftovers re-ring below.
        while mailboxes.take(MailboxBank::cmd_index(self.slave)).is_some() {}
        while mailboxes
            .take(MailboxBank::data_index(self.slave))
            .is_some()
        {}

        let mut serviced = 0;
        let mut buf = [0u8; CMD_RECORD_BYTES];
        while serviced < budget {
            match self.layout.cmd_ring.pop(sram, &mut buf) {
                Ok(true) => {
                    let Ok((id, req)) = decode_cmd(&buf) else {
                        continue;
                    };
                    let result = kernel.dispatch(req, now);
                    let resp = encode_resp(id, &result);
                    if self.layout.resp_ring.push(sram, &resp).is_err() {
                        self.stats.resp_drops += 1;
                    } else if mailboxes.pending(MailboxBank::resp_index(self.slave)) == 0 {
                        let _ = mailboxes.post(MailboxBank::resp_index(self.slave), id.0);
                    }
                    self.stats.serviced += 1;
                    serviced += 1;
                    if kernel.panic().is_some() {
                        break; // the dispatch killed the kernel
                    }
                }
                Ok(false) | Err(_) => break,
            }
        }
        if serviced == budget
            && kernel.panic().is_none()
            && !self.layout.cmd_ring.is_empty(sram).unwrap_or(true)
        {
            // The box was drained above, so this post cannot fail.
            let _ = mailboxes.post(MailboxBank::cmd_index(self.slave), 0);
        }
        serviced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_pcore::{KernelConfig, Priority, Program, TaskId};

    struct Rig {
        sram: SharedSram,
        mailboxes: MailboxBank,
        kernel: Kernel,
        master: MasterPort,
        slave: SlaveEndpoint,
    }

    fn rig() -> Rig {
        let layout = BridgeLayout::for_slave(0);
        let mut sram = SharedSram::omap5912();
        layout.init(&mut sram).unwrap();
        let mut kernel = Kernel::new(KernelConfig::default());
        kernel.register_program(Program::exit_immediately());
        Rig {
            sram,
            mailboxes: MailboxBank::omap5912(),
            kernel,
            master: MasterPort::for_slaves(vec![layout]),
            slave: SlaveEndpoint::for_slave(layout, 0),
        }
    }

    #[test]
    fn end_to_end_create_roundtrip() {
        let mut r = rig();
        let req = SvcRequest::Create {
            program: ptest_pcore::ProgramId(0),
            priority: Priority::new(5),
            stack_bytes: None,
        };
        let id = r
            .master
            .issue_to(0, &mut r.sram, &mut r.mailboxes, req, Cycles::new(1))
            .unwrap();
        assert_eq!(r.master.pending_count(), 1);
        let n = r.slave.service(
            &mut r.sram,
            &mut r.mailboxes,
            &mut r.kernel,
            Cycles::new(2),
            16,
        );
        assert_eq!(n, 1);
        let resps = r
            .master
            .poll_responses(&mut r.sram, &mut r.mailboxes, Cycles::new(3));
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].id, id);
        assert_eq!(resps[0].result, Ok(SvcReply::Created(TaskId::new(0))));
        assert_eq!(resps[0].request, req);
        assert_eq!(r.master.pending_count(), 0);
    }

    #[test]
    fn doorbell_is_coalesced() {
        let mut r = rig();
        for _ in 0..6 {
            r.master
                .issue_to(
                    0,
                    &mut r.sram,
                    &mut r.mailboxes,
                    SvcRequest::PeekVar {
                        var: ptest_pcore::VarId(0),
                    },
                    Cycles::new(1),
                )
                .unwrap();
        }
        // Only one doorbell word despite six commands.
        assert_eq!(r.mailboxes.pending(MailboxBank::cmd_index(0)), 1);
        let n = r.slave.service(
            &mut r.sram,
            &mut r.mailboxes,
            &mut r.kernel,
            Cycles::new(2),
            16,
        );
        assert_eq!(n, 6, "one interrupt drains the whole ring");
    }

    #[test]
    fn ring_full_is_reported() {
        let mut r = rig();
        for _ in 0..32 {
            r.master
                .issue_to(
                    0,
                    &mut r.sram,
                    &mut r.mailboxes,
                    SvcRequest::PeekVar {
                        var: ptest_pcore::VarId(0),
                    },
                    Cycles::new(1),
                )
                .unwrap();
        }
        let err = r
            .master
            .issue_to(
                0,
                &mut r.sram,
                &mut r.mailboxes,
                SvcRequest::PeekVar {
                    var: ptest_pcore::VarId(0),
                },
                Cycles::new(1),
            )
            .unwrap_err();
        assert_eq!(err, BridgeError::CommandRingFull);
        assert_eq!(r.master.stats().ring_full_rejections, 1);
    }

    #[test]
    fn service_budget_limits_batch() {
        let mut r = rig();
        for _ in 0..10 {
            r.master
                .issue_to(
                    0,
                    &mut r.sram,
                    &mut r.mailboxes,
                    SvcRequest::PeekVar {
                        var: ptest_pcore::VarId(0),
                    },
                    Cycles::new(1),
                )
                .unwrap();
        }
        let n = r.slave.service(
            &mut r.sram,
            &mut r.mailboxes,
            &mut r.kernel,
            Cycles::new(2),
            4,
        );
        assert_eq!(n, 4);
        // The six left over re-rang the doorbell themselves.
        assert_eq!(r.mailboxes.pending(MailboxBank::cmd_index(0)), 1);
        let n2 = r.slave.service(
            &mut r.sram,
            &mut r.mailboxes,
            &mut r.kernel,
            Cycles::new(3),
            100,
        );
        assert_eq!(n2, 6);
        // A drained ring leaves the doorbell quiet.
        assert_eq!(r.mailboxes.pending(MailboxBank::cmd_index(0)), 0);
    }

    #[test]
    fn error_replies_propagate() {
        let mut r = rig();
        r.master
            .issue_to(
                0,
                &mut r.sram,
                &mut r.mailboxes,
                SvcRequest::Delete {
                    task: TaskId::new(3),
                },
                Cycles::new(1),
            )
            .unwrap();
        r.slave.service(
            &mut r.sram,
            &mut r.mailboxes,
            &mut r.kernel,
            Cycles::new(2),
            16,
        );
        let resps = r
            .master
            .poll_responses(&mut r.sram, &mut r.mailboxes, Cycles::new(3));
        assert_eq!(resps[0].result, Err(SvcError::NoSuchTask(TaskId::new(3))));
    }

    #[test]
    fn overdue_detects_silent_slave() {
        let mut r = rig();
        r.master
            .issue_to(
                0,
                &mut r.sram,
                &mut r.mailboxes,
                SvcRequest::PeekVar {
                    var: ptest_pcore::VarId(0),
                },
                Cycles::new(10),
            )
            .unwrap();
        // Slave never services. After the timeout the command is overdue.
        assert!(r
            .master
            .overdue_for(0, Cycles::new(20), Cycles::new(100))
            .is_empty());
        let overdue = r.master.overdue_for(0, Cycles::new(200), Cycles::new(100));
        assert_eq!(overdue.len(), 1);
    }

    #[test]
    fn panicked_kernel_goes_silent() {
        let cfg = KernelConfig {
            heap_bytes: 1024,
            ..KernelConfig::default()
        };
        let mut kernel = Kernel::new(cfg);
        let prog = kernel.register_program(Program::exit_immediately());
        let layout = BridgeLayout::for_slave(0);
        let mut sram = SharedSram::omap5912();
        layout.init(&mut sram).unwrap();
        let mut mailboxes = MailboxBank::omap5912();
        let mut master = MasterPort::for_slaves(vec![layout]);
        let mut slave = SlaveEndpoint::for_slave(layout, 0);

        // Two creates: 2 * (64 + 512) = 1152 > 1024, so the second one
        // panics the kernel (OOM with no garbage to collect).
        for p in [1u8, 2] {
            master
                .issue_to(
                    0,
                    &mut sram,
                    &mut mailboxes,
                    SvcRequest::Create {
                        program: prog,
                        priority: Priority::new(p),
                        stack_bytes: None,
                    },
                    Cycles::new(1),
                )
                .unwrap();
        }
        slave.service(&mut sram, &mut mailboxes, &mut kernel, Cycles::new(2), 16);
        assert!(kernel.panic().is_some());
        let resps = master.poll_responses(&mut sram, &mut mailboxes, Cycles::new(3));
        // First command succeeded; the panicking one got its error out
        // before the firmware died.
        assert_eq!(resps.len(), 2);
        // From now on the slave is silent.
        master
            .issue_to(
                0,
                &mut sram,
                &mut mailboxes,
                SvcRequest::PeekVar {
                    var: ptest_pcore::VarId(0),
                },
                Cycles::new(4),
            )
            .unwrap();
        let n = slave.service(&mut sram, &mut mailboxes, &mut kernel, Cycles::new(5), 16);
        assert_eq!(n, 0);
        assert_eq!(
            master
                .overdue_for(0, Cycles::new(10_000), Cycles::new(100))
                .len(),
            1
        );
    }

    #[test]
    fn slave_windows_are_disjoint_and_slave0_keeps_its_offsets() {
        let layouts = BridgeLayout::for_slaves(4);
        for pair in layouts.windows(2) {
            let end = pair[0].resp_ring.base + pair[0].resp_ring.footprint();
            assert!(end <= pair[1].cmd_ring.base, "windows overlap: {pair:?}");
        }
        // The historical offsets of slave 0 are preserved.
        assert_eq!(layouts[0].cmd_ring.base, 0x100);
        assert_eq!(layouts[0].resp_ring.base, 0x100 + 784);
    }

    #[test]
    fn two_slave_lanes_route_independently() {
        let layouts = BridgeLayout::for_slaves(2);
        let mut sram = SharedSram::omap5912();
        let mut mailboxes = MailboxBank::for_slaves(2);
        let mut master = MasterPort::for_slaves(layouts.clone());
        let mut kernels = [
            Kernel::with_core(KernelConfig::default(), ptest_soc::CoreId::Slave(0)),
            Kernel::with_core(KernelConfig::default(), ptest_soc::CoreId::Slave(1)),
        ];
        let mut endpoints = [
            SlaveEndpoint::for_slave(layouts[0], 0),
            SlaveEndpoint::for_slave(layouts[1], 1),
        ];
        for (slave, kernel) in kernels.iter_mut().enumerate() {
            layouts[slave].init(&mut sram).unwrap();
            kernel.register_program(Program::exit_immediately());
            master
                .issue_to(
                    slave,
                    &mut sram,
                    &mut mailboxes,
                    SvcRequest::PokeVar {
                        var: ptest_pcore::VarId(0),
                        value: slave as i64 + 10,
                    },
                    Cycles::new(1),
                )
                .unwrap();
        }
        assert_eq!(master.pending_count(), 2);
        assert_eq!(master.pending_count_for(0), 1);
        assert_eq!(master.pending_count_for(1), 1);
        // Service only slave 1: slave 0's command must stay untouched.
        let n = endpoints[1].service(
            &mut sram,
            &mut mailboxes,
            &mut kernels[1],
            Cycles::new(2),
            16,
        );
        assert_eq!(n, 1);
        assert_eq!(kernels[1].var(ptest_pcore::VarId(0)), Some(11));
        assert_eq!(kernels[0].var(ptest_pcore::VarId(0)), Some(0));
        let resps = master.poll_responses(&mut sram, &mut mailboxes, Cycles::new(3));
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].slave, 1);
        assert_eq!(master.pending_count_for(0), 1);
        assert_eq!(master.pending_count_for(1), 0);
        // Only slave 0's lane is overdue.
        assert_eq!(
            master
                .overdue_for(0, Cycles::new(1_000), Cycles::new(100))
                .len(),
            1
        );
        assert!(master
            .overdue_for(1, Cycles::new(1_000), Cycles::new(100))
            .is_empty());
        assert_eq!(master.stats_for(0).unwrap().completed, 0);
        assert_eq!(master.stats_for(1).unwrap().completed, 1);
    }

    #[test]
    fn issue_to_unknown_slave_is_rejected() {
        let mut sram = SharedSram::omap5912();
        let mut mailboxes = MailboxBank::omap5912();
        let mut master = MasterPort::for_slaves(vec![BridgeLayout::for_slave(0)]);
        let err = master
            .issue_to(
                3,
                &mut sram,
                &mut mailboxes,
                SvcRequest::PeekVar {
                    var: ptest_pcore::VarId(0),
                },
                Cycles::new(1),
            )
            .unwrap_err();
        assert_eq!(err, BridgeError::NoSuchSlave { slave: 3 });
    }
}
