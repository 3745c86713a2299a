//! Serializable summaries of test reports.
//!
//! Full [`TestReport`](crate::TestReport)s embed kernel snapshots and
//! execution records that are not stable serialization targets; this
//! module distils the stable, machine-readable core — what CI dashboards
//! and the experiment harness archive.

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

use crate::adaptive::TestReport;

/// A machine-readable bug entry.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct BugSummary {
    /// Classification ([`BugKind::class`](crate::BugKind::class)).
    pub class: String,
    /// Human-readable description.
    pub detail: String,
    /// Virtual detection time in cycles.
    pub detected_at: u64,
}

/// A machine-readable run summary (stable across versions).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct ReportSummary {
    /// The regular expression tested against.
    pub regex: String,
    /// Number of patterns `n`.
    pub n: usize,
    /// Pattern size `s`.
    pub s: usize,
    /// Merge policy, rendered.
    pub merge_op: String,
    /// Master seed.
    pub seed: u64,
    /// Whether the merged pattern was fully delivered.
    pub completed: bool,
    /// Remote commands issued.
    pub commands_issued: u64,
    /// Error replies received.
    pub error_replies: u64,
    /// Ordering (legality) violations among the errors.
    pub ordering_errors: usize,
    /// Virtual cycles consumed.
    pub cycles: u64,
    /// DFA transition coverage in `[0, 1]`.
    pub transition_coverage: f64,
    /// Detected bugs.
    pub bugs: Vec<BugSummary>,
}

impl ReportSummary {
    /// Extracts the stable summary of a report.
    #[must_use]
    pub fn from_report(report: &TestReport) -> ReportSummary {
        ReportSummary {
            regex: report.config.regex_source.clone(),
            n: report.config.n,
            s: report.config.s,
            merge_op: format!("{:?}", report.config.op),
            seed: report.config.seed,
            completed: report.completed,
            commands_issued: report.commands_issued,
            error_replies: report.error_replies,
            ordering_errors: report.ordering_errors(),
            cycles: report.cycles,
            transition_coverage: report.coverage.transition_coverage(),
            bugs: report
                .bugs
                .iter()
                .map(|b| BugSummary {
                    class: b.kind.class().to_owned(),
                    detail: b.detail(),
                    detected_at: b.detected_at.get(),
                })
                .collect(),
        }
    }
}

impl TestReport {
    /// The stable machine-readable summary (serializable with serde).
    #[must_use]
    pub fn machine_summary(&self) -> ReportSummary {
        ReportSummary::from_report(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{AdaptiveTest, AdaptiveTestConfig};
    use ptest_pcore::{Op, Program};

    fn run() -> TestReport {
        AdaptiveTest::run(
            AdaptiveTestConfig {
                n: 2,
                s: 6,
                seed: 4,
                ..AdaptiveTestConfig::default()
            },
            |sys| {
                vec![sys
                    .kernel_of_mut(0)
                    .register_program(Program::new(vec![Op::Compute(20), Op::Exit]).unwrap())]
            },
        )
        .unwrap()
    }

    #[test]
    fn summary_mirrors_report() {
        let report = run();
        let s = report.machine_summary();
        assert_eq!(s.n, 2);
        assert_eq!(s.s, 6);
        assert_eq!(s.seed, 4);
        assert_eq!(s.completed, report.completed);
        assert_eq!(s.commands_issued, report.commands_issued);
        assert_eq!(s.bugs.len(), report.bugs.len());
        assert!(s.regex.contains("TC"));
    }

    #[test]
    fn bug_classification_covers_all_kinds() {
        use crate::detector::BugKind;
        use ptest_pcore::{KernelPanic, TaskFault, TaskId};
        let kinds = [
            BugKind::SlaveCrash {
                panic: KernelPanic::OutOfMemory { requested: 1 },
            },
            BugKind::CommandTimeout { overdue: 1 },
            BugKind::Deadlock {
                cycle: vec![TaskId::new(0)],
            },
            BugKind::CrossCoreDeadlock {
                cycle: vec![(ptest_soc::CoreId::Slave(0), TaskId::new(0))],
            },
            BugKind::Starvation {
                task: TaskId::new(0),
                runnable: true,
            },
            BugKind::Livelock {
                tasks: vec![TaskId::new(0)],
            },
            BugKind::TaskFault {
                task: TaskId::new(0),
                fault: TaskFault::StackOverflow,
            },
        ];
        let classes: std::collections::BTreeSet<&str> = kinds.iter().map(BugKind::class).collect();
        assert_eq!(classes.len(), kinds.len(), "each kind has a distinct class");
    }
}
