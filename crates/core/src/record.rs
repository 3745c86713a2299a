//! State recording of concurrent processes (paper Definition 2).
//!
//! Each record is the five-tuple `(qm, qs, TP, SN, δS)`: the master
//! process state, the slave process state, the test pattern, the sequence
//! number of the current pattern position, and the remaining subsequence.
//! The bug detector reads these records to monitor testing progress, and
//! they are dumped into bug reports for reproduction (Figure 4 shows two
//! such records).

use std::fmt::Write as _;
use std::sync::Arc;

use ptest_automata::{Alphabet, Sym};
use ptest_pcore::{TaskId, TaskState};
use ptest_soc::CoreId;

/// The master-side state component `qm` of a state record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterState {
    /// The controlling process has not issued anything yet.
    Idle,
    /// Last observed issuing the given service (by wire code).
    Issuing(ptest_pcore::Service),
    /// Waiting for the response of the last issued service.
    AwaitingResponse(ptest_pcore::Service),
    /// The pattern is exhausted.
    Finished,
}

impl std::fmt::Display for MasterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MasterState::Idle => write!(f, "idle"),
            MasterState::Issuing(s) => write!(f, "issue:{s}"),
            MasterState::AwaitingResponse(s) => write!(f, "await:{s}"),
            MasterState::Finished => write!(f, "finished"),
        }
    }
}

/// Definition 2: `(qm, qs, TP, SN, δS)` for one controlled slave process.
#[derive(Debug, Clone, PartialEq)]
pub struct StateRecord {
    /// Which test pattern (and hence which master/slave process pair)
    /// this record describes.
    pub pattern_index: usize,
    /// The slave core the controlled process runs on: pattern `i` of an
    /// N-slave system runs on [`CoreId::Slave`] `i mod N`.
    pub slave_core: CoreId,
    /// `qm` — the state of the controlling master process.
    pub master_state: MasterState,
    /// `qs` — the state of the slave process (`None` before the first
    /// `task_create` completes).
    pub slave_task: Option<TaskId>,
    /// The slave task's scheduling state, if one is bound.
    pub slave_state: Option<TaskState>,
    /// `TP` — the full test pattern assigned to this process. Interned:
    /// every record of the same pattern shares one allocation (the
    /// committer hands out `Arc` clones), so dumping records in the trial
    /// hot loop no longer copies pattern buffers.
    pub test_pattern: Arc<[Sym]>,
    /// `SN` — the 1-based sequence number of the *current* position in
    /// the pattern (0 = nothing executed yet).
    pub sequence_number: usize,
}

impl StateRecord {
    /// `δS` — the subsequence of the test pattern still to be executed.
    #[must_use]
    pub fn remaining(&self) -> &[Sym] {
        &self.test_pattern[self.sequence_number.min(self.test_pattern.len())..]
    }

    /// Renders the record in the paper's Figure 4 style:
    /// `CP1 = (m2, s1, p1->p2->p3, 2, p3)`.
    #[must_use]
    pub fn render(&self, alphabet: &Alphabet) -> String {
        let mut out = String::new();
        self.render_into(alphabet, &mut out);
        out
    }

    /// [`StateRecord::render`] into a caller-owned buffer (appended):
    /// report loops that render many records reuse one `String` instead
    /// of building intermediate name vectors per record.
    pub fn render_into(&self, alphabet: &Alphabet, out: &mut String) {
        let write_seq = |out: &mut String, seq: &[Sym]| {
            if seq.is_empty() {
                out.push('-');
                return;
            }
            for (i, &s) in seq.iter().enumerate() {
                if i > 0 {
                    out.push_str("->");
                }
                out.push_str(alphabet.name(s).unwrap_or("?"));
            }
        };
        let _ = write!(out, "CP{} = ({}, ", self.pattern_index, self.master_state);
        // The slave core is only spelled out beyond slave 0, keeping the
        // dual-core rendering identical to the paper's Figure 4.
        match (self.slave_task, self.slave_state) {
            (Some(t), st) => {
                if self.slave_core != CoreId::Slave(0) {
                    let _ = write!(out, "{}:", self.slave_core);
                }
                match st {
                    Some(st) => {
                        let _ = write!(out, "{t}:{st}");
                    }
                    None => {
                        let _ = write!(out, "{t}");
                    }
                }
            }
            _ => out.push('-'),
        }
        out.push_str(", ");
        write_seq(out, &self.test_pattern);
        let _ = write!(out, ", {}, ", self.sequence_number);
        write_seq(out, self.remaining());
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_pcore::Service;

    fn record() -> (Alphabet, StateRecord) {
        let mut a = Alphabet::new();
        let tc = a.intern("TC");
        let tch = a.intern("TCH");
        let td = a.intern("TD");
        let r = StateRecord {
            pattern_index: 1,
            slave_core: CoreId::Slave(0),
            master_state: MasterState::AwaitingResponse(Service::ChangePriority),
            slave_task: Some(TaskId::new(3)),
            slave_state: Some(TaskState::Ready),
            test_pattern: vec![tc, tch, td].into(),
            sequence_number: 2,
        };
        (a, r)
    }

    #[test]
    fn remaining_is_suffix() {
        let (a, r) = record();
        assert_eq!(r.remaining().len(), 1);
        assert_eq!(a.name(r.remaining()[0]), Some("TD"));
    }

    #[test]
    fn remaining_is_empty_at_end() {
        let (_, mut r) = record();
        r.sequence_number = 3;
        assert!(r.remaining().is_empty());
        r.sequence_number = 99; // clamped, no panic
        assert!(r.remaining().is_empty());
    }

    #[test]
    fn render_matches_fig4_shape() {
        let (a, r) = record();
        let s = r.render(&a);
        assert_eq!(s, "CP1 = (await:TCH, T3:ready, TC->TCH->TD, 2, TD)");
    }

    #[test]
    fn render_names_non_zero_slave_cores() {
        let (a, mut r) = record();
        r.slave_core = CoreId::Slave(2);
        let s = r.render(&a);
        assert_eq!(s, "CP1 = (await:TCH, DSP2:T3:ready, TC->TCH->TD, 2, TD)");
    }

    #[test]
    fn render_unbound_slave() {
        let (a, mut r) = record();
        r.slave_task = None;
        r.slave_state = None;
        r.sequence_number = 0;
        let s = r.render(&a);
        assert!(s.contains("-,"), "{s}");
        assert!(s.contains("TC->TCH->TD"), "{s}");
    }

    #[test]
    fn master_state_display() {
        assert_eq!(MasterState::Idle.to_string(), "idle");
        assert_eq!(
            MasterState::Issuing(Service::Create).to_string(),
            "issue:TC"
        );
        assert_eq!(MasterState::Finished.to_string(), "finished");
    }
}
