//! # ptest-campaign — parallel multi-trial adaptive testing with
//! # cross-trial learning
//!
//! The paper's pTest is adaptive across *runs*: execution feedback
//! retrains the PFA's probability distribution so later test patterns
//! steer toward fault-revealing interleavings. This crate lifts that
//! loop from one run to a **fleet**: a [`Campaign`] executes
//! `rounds × trials_per_round` independent trials of one
//! [`Scenario`] across a worker-thread pool (each trial on a private
//! deterministic simulated SoC), aggregates each trial's trace-derived
//! [`TransitionCounts`](ptest_automata::TransitionCounts), and
//! re-learns the [`ProbabilityAssignment`](ptest_automata::ProbabilityAssignment)
//! between rounds.
//!
//! Determinism is the load-bearing guarantee: a campaign's aggregate
//! [`CampaignReport`] is a pure function of (scenario, configuration,
//! master seed) — the worker count changes wall-clock time, never
//! results.
//!
//! ## Quick start
//!
//! ```
//! use ptest_campaign::{Campaign, CampaignConfig};
//! use ptest_core::{AdaptiveTestConfig, FnScenario};
//! use ptest_pcore::{Op, Program};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = FnScenario::new(
//!     "compute-worker",
//!     AdaptiveTestConfig { n: 2, s: 4, ..AdaptiveTestConfig::default() },
//!     |sys| {
//!         vec![sys.kernel_of_mut(0).register_program(
//!             Program::new(vec![Op::Compute(20), Op::Exit]).expect("valid"),
//!         )]
//!     },
//! );
//! let report = Campaign::run(
//!     &CampaignConfig { trials_per_round: 4, rounds: 2, workers: 2, ..CampaignConfig::default() },
//!     &scenario,
//! )?;
//! assert_eq!(report.total_trials(), 8);
//! println!("{}", report.summary());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod engine;
pub mod learning;
mod pool;
mod report;
mod shard;

pub use checkpoint::{
    config_fingerprint, CampaignCheckpoint, CountEntry, CountsSnapshot, CHECKPOINT_SCHEMA,
};
pub use engine::{
    irq_seed, memory_seed, schedule_seed, trial_seed, Campaign, CampaignConfig, CampaignError,
    LearningConfig,
};
pub use report::{
    AxisDetection, CampaignReport, DistributionEntry, LearnedDistribution, MinimizedOutcome,
    RoundReport, TrialOutcome,
};
pub use shard::{ShardReport, ShardRound, ShardSpec};

// The Scenario abstraction campaigns are written against.
pub use ptest_core::{Configured, FnScenario, Scenario};
