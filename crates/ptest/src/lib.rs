//! # ptest — adaptive stress testing of concurrent software on simulated
//! # embedded multicore processors
//!
//! This is the facade crate of the pTest reproduction (Chang, Hsieh, Lee,
//! *pTest: An Adaptive Testing Tool for Concurrent Software on Embedded
//! Multicore Processors*, DATE 2009). It re-exports the whole stack:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | campaign | [`campaign`] | parallel multi-trial engine with cross-trial distribution learning |
//! | tool | [`core`](mod@crate::core) | pattern generator (PFA), pattern merger, committer, bug detector, Algorithm 1 |
//! | automata | [`automata`] | regex → NFA → DFA → PFA pipeline, distribution learning |
//! | baselines | [`baselines`] | ConTest-style random and CHESS-style systematic testers |
//! | faults | [`faults`] | Figure 1, dining philosophers, GC-churn stress, starvation/inversion/races, multi-slave pipeline + SRAM race, schedule-sensitive cross-core races, memory-model-sensitive races (Dekker, IRIW), preemption-sensitive timer/ISR faults |
//! | master | [`master`] | master runtime, the wired N-slave [`MultiCoreSystem`], schedule exploration ([`ScheduleSpec`], [`RandomPriorityScheduler`]), memory-model exploration ([`MemoryModelSpec`], [`StoreBufferModel`]), preemption/interrupt exploration ([`PreemptionSpec`]: quantum slices, per-slave clock skew, seeded interrupt plans) |
//! | bridge | [`bridge`] | pCore-Bridge middleware (SRAM rings + mailbox doorbells) |
//! | slave | [`pcore`] | the pCore microkernel simulator |
//! | hardware | [`soc`] | the OMAP5912-like simulated SoC |
//!
//! The most common entry points are re-exported at the crate root.
//!
//! ## Quick start
//!
//! ```
//! use ptest::{AdaptiveTest, AdaptiveTestConfig};
//! use ptest::pcore::{Op, Program};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = AdaptiveTest::run(AdaptiveTestConfig::default(), |sys| {
//!     vec![sys.kernel_of_mut(0).register_program(
//!         Program::new(vec![Op::Compute(20), Op::Exit]).expect("valid program"),
//!     )]
//! })?;
//! println!("{}", report.summary());
//! # Ok(())
//! # }
//! ```
//!
//! ## Reproducing the paper's case studies
//!
//! ```no_run
//! use ptest::{AdaptiveTest, BugKind};
//! use ptest::faults::stress::StressScenario;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Case study 1: 16 quick-sorting tasks over a heap with a leaky GC.
//! let report = AdaptiveTest::run_scenario(&StressScenario::paper(), 1)?;
//! assert!(report.found(|k| matches!(k, BugKind::SlaveCrash { .. } | BugKind::CommandTimeout { .. })));
//! # Ok(())
//! # }
//! ```
//!
//! ## Running a campaign
//!
//! A [`Campaign`] fans many seeded trials of one [`Scenario`] across a
//! worker-thread pool and re-learns the probability distribution from
//! the trials' execution traces between rounds — the paper's adaptive
//! loop at fleet scale. Results are deterministic: the aggregate report
//! is a pure function of (scenario, configuration, master seed),
//! independent of worker count.
//!
//! ```
//! use ptest::campaign::{Campaign, CampaignConfig};
//! use ptest::faults::philosophers::PhilosophersScenario;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = Campaign::run(
//!     &CampaignConfig { trials_per_round: 4, rounds: 2, workers: 2, ..CampaignConfig::default() },
//!     &PhilosophersScenario::buggy(),
//! )?;
//! println!("{}", report.summary());
//! println!("{}", ptest::campaign_report_to_json(&report)?);
//! # Ok(())
//! # }
//! ```
//!
//! Campaigns too large for one process or one sitting can be split
//! across machines ([`Campaign::run_shard`] /
//! [`Campaign::merge_shard_reports`] with a [`ShardSpec`]) and survive
//! kills ([`Campaign::run_with_checkpoint_file`], or
//! [`Campaign::run_until`] / [`Campaign::resume`] with a
//! [`CampaignCheckpoint`]) — in every case the final archive is
//! byte-identical to the uninterrupted, unsharded run's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ptest_automata as automata;
pub use ptest_baselines as baselines;
pub use ptest_bridge as bridge;
pub use ptest_campaign as campaign;
pub use ptest_core as core;
pub use ptest_faults as faults;
pub use ptest_master as master;
pub use ptest_pcore as pcore;
pub use ptest_soc as soc;

pub use ptest_automata::{Alphabet, Dfa, GenerateOptions, Pfa, ProbabilityAssignment, Regex, Sym};
pub use ptest_campaign::{
    config_fingerprint, AxisDetection, Campaign, CampaignCheckpoint, CampaignConfig,
    CampaignReport, LearningConfig, MinimizedOutcome, RoundReport, ShardReport, ShardSpec,
    CHECKPOINT_SCHEMA,
};
pub use ptest_core::{
    derived_irq_seed, derived_memory_seed, derived_schedule_seed, minimize_scenario_trial,
    replay_minimized, AdaptiveTest, AdaptiveTestConfig, Bug, BugDetector, BugKind, Committer,
    CommitterConfig, CommitterStatus, Configured, CoverageReport, DetectorConfig, FnScenario,
    InterleavingEvent, MergeOp, MergedPattern, MinimizeConfig, MinimizeError, MinimizedMemory,
    MinimizedRepro, MinimizedSchedule, PatternGenerator, PatternMerger, RootCauseReport, Scenario,
    StateRecord, TestPattern, TestReport, TrialEngine, TrialOverrides, TrialScratch, TrialTrace,
};
pub use ptest_master::{
    ClockSkewConfig, InterruptConfig, LockStepScheduler, MasterOp, MemoryModel, MemoryModelSpec,
    MultiCoreSystem, PreemptionSpec, QuantumConfig, RandomPriorityConfig, RandomPriorityScheduler,
    ScheduleSpec, Scheduler, SlaveSet, StoreBufferConfig, StoreBufferModel, SystemConfig,
};
pub use ptest_pcore::{
    GcFaultMode, Kernel, KernelConfig, Priority, Program, ProgramBuilder, ProgramId, Service,
    SvcReply, SvcRequest, TaskId, TaskState,
};
pub use ptest_soc::Cycles;

/// Serializes a report's stable summary as pretty JSON — the format the
/// experiment harness archives and CI dashboards consume.
///
/// # Errors
///
/// Propagates `serde_json` errors (practically unreachable for this
/// data).
pub fn report_to_json(report: &TestReport) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(&report.machine_summary())
}

/// Parses a summary back from JSON.
///
/// # Errors
///
/// `serde_json` errors on malformed input.
pub fn summary_from_json(json: &str) -> Result<core::ReportSummary, serde_json::Error> {
    serde_json::from_str(json)
}

/// Serializes a campaign's aggregate report as pretty JSON — the
/// per-round archive format the experiment binaries emit. Because the
/// report is a pure function of (scenario, configuration, master seed),
/// the JSON is byte-identical across worker counts; the determinism
/// property tests compare exactly these strings.
///
/// # Errors
///
/// Propagates `serde_json` errors (practically unreachable for this
/// data).
pub fn campaign_report_to_json(report: &CampaignReport) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(report)
}

/// Parses a campaign report back from JSON.
///
/// # Errors
///
/// `serde_json` errors on malformed input.
pub fn campaign_report_from_json(json: &str) -> Result<CampaignReport, serde_json::Error> {
    serde_json::from_str(json)
}

/// Serializes a campaign checkpoint as pretty JSON — the resumable
/// round-boundary snapshot format (see
/// [`Campaign::run_with_checkpoint_file`] for the file-based loop).
///
/// # Errors
///
/// Propagates `serde_json` errors (practically unreachable for this
/// data).
pub fn campaign_checkpoint_to_json(
    checkpoint: &CampaignCheckpoint,
) -> Result<String, serde_json::Error> {
    checkpoint.to_json()
}

/// Parses a campaign checkpoint back from JSON.
///
/// # Errors
///
/// `serde_json` errors on malformed input.
pub fn campaign_checkpoint_from_json(json: &str) -> Result<CampaignCheckpoint, serde_json::Error> {
    CampaignCheckpoint::from_json(json)
}

/// Serializes a minimized reproducer — shrunk patterns, schedule mask,
/// seeds and the root-cause interleaving report — as pretty JSON; the
/// artifact format CI uploads for every shrunk bug class.
///
/// # Errors
///
/// Propagates `serde_json` errors (practically unreachable for this
/// data).
pub fn minimized_repro_to_json(repro: &MinimizedRepro) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(repro)
}

/// Parses a minimized reproducer back from JSON — the input to
/// [`replay_minimized`].
///
/// # Errors
///
/// `serde_json` errors on malformed input.
pub fn minimized_repro_from_json(json: &str) -> Result<MinimizedRepro, serde_json::Error> {
    serde_json::from_str(json)
}

#[cfg(test)]
mod tests {
    use ptest_pcore::{Op, Program};

    #[test]
    fn facade_reexports_compile_together() {
        // Types from different layers interoperate through the facade.
        let cfg = crate::AdaptiveTestConfig::default();
        assert_eq!(cfg.n, 4);
        let re = crate::Regex::pcore_task_lifecycle();
        assert_eq!(re.alphabet().len(), 6);
    }

    #[test]
    fn campaign_json_roundtrip() {
        let scenario = crate::FnScenario::new(
            "compute",
            crate::AdaptiveTestConfig {
                n: 2,
                s: 4,
                ..crate::AdaptiveTestConfig::default()
            },
            |sys| {
                vec![sys
                    .kernel_of_mut(0)
                    .register_program(Program::new(vec![Op::Compute(10), Op::Exit]).unwrap())]
            },
        );
        let report = crate::Campaign::run(
            &crate::CampaignConfig {
                trials_per_round: 3,
                rounds: 2,
                workers: 2,
                ..crate::CampaignConfig::default()
            },
            &scenario,
        )
        .unwrap();
        let json = crate::campaign_report_to_json(&report).unwrap();
        assert!(json.contains("\"trials_per_round\""));
        let parsed = crate::campaign_report_from_json(&json).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn json_roundtrip() {
        let report = crate::AdaptiveTest::run(
            crate::AdaptiveTestConfig {
                n: 2,
                s: 4,
                seed: 1,
                ..crate::AdaptiveTestConfig::default()
            },
            |sys| {
                vec![sys
                    .kernel_of_mut(0)
                    .register_program(Program::new(vec![Op::Compute(10), Op::Exit]).unwrap())]
            },
        )
        .unwrap();
        let json = crate::report_to_json(&report).unwrap();
        assert!(json.contains("\"commands_issued\""));
        let parsed = crate::summary_from_json(&json).unwrap();
        assert_eq!(parsed, report.machine_summary());
    }
}
