//! # ptest-core — the pTest adaptive testing tool
//!
//! Reproduction of *pTest: An Adaptive Testing Tool for Concurrent
//! Software on Embedded Multicore Processors* (Chang, Hsieh, Lee — DATE
//! 2009). pTest stress-tests a slave runtime system from the master core
//! of an embedded multicore SoC and detects synchronization anomalies of
//! concurrent master-slave programs.
//!
//! The three key components of the paper's §II-B, plus the surrounding
//! machinery:
//!
//! * [`PatternGenerator`] — builds the PFA from a regular expression and
//!   probability distribution, and walks it to produce test patterns
//!   (Algorithm 2).
//! * [`PatternMerger`] — interleaves `n` patterns into one under a
//!   bug-class-targeting [`MergeOp`] (the `op` of Algorithm 1).
//! * [`Committer`] — issues the merged pattern as remote commands over
//!   the bridge, awaiting each response so the slave observes exactly
//!   the merged order.
//! * [`BugDetector`] — watches for crashes, command timeouts, deadlock
//!   (wait-for-graph cycles), starvation and livelock; dumps
//!   Definition-2 [`StateRecord`]s and trace tails into [`Bug`] reports.
//! * [`AdaptiveTest`] — Algorithm 1 end to end, returning a
//!   [`TestReport`] that can be [reproduced](AdaptiveTest::reproduce)
//!   bit-for-bit from its embedded seed and configuration.
//!
//! ## Quick start
//!
//! ```
//! use ptest_core::{AdaptiveTest, AdaptiveTestConfig};
//! use ptest_pcore::{Op, Program};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = AdaptiveTest::run(AdaptiveTestConfig::default(), |sys| {
//!     vec![sys.kernel_of_mut(0).register_program(
//!         Program::new(vec![Op::Compute(20), Op::Exit]).expect("valid program"),
//!     )]
//! })?;
//! assert!(report.completed);
//! println!("{}", report.summary());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod committer;
pub mod coverage;
mod detector;
mod generator;
mod merger;
mod minimize;
mod pattern;
mod record;
mod report;
mod scenario;
mod trial;

pub use adaptive::{AdaptiveTest, AdaptiveTestConfig, AdaptiveTestError, TestReport};
pub use committer::{
    Committer, CommitterConfig, CommitterError, CommitterStatus, ExecRecord, PriorityBands,
};
pub use coverage::CoverageReport;
pub use detector::{Bug, BugDetector, BugKind, DetectorConfig};
pub use generator::PatternGenerator;
pub use merger::{MergeOp, PatternMerger};
pub use minimize::{
    minimize_scenario_trial, replay_minimized, InterleavingEvent, MinimizeConfig, MinimizeError,
    MinimizedMemory, MinimizedRepro, MinimizedSchedule, RootCauseReport,
};
pub use pattern::{MergedPattern, MergedStep, TestPattern};
pub use record::{MasterState, StateRecord};
pub use report::{BugSummary, ReportSummary};
pub use scenario::{Configured, FnScenario, Scenario};
pub use trial::{
    derived_irq_seed, derived_memory_seed, derived_schedule_seed, uncaptured_system, CycleLoop,
    Driver, TrialEngine, TrialOverrides, TrialScratch, TrialTrace,
};

// Schedule and memory-model exploration vocabulary, re-exported so
// configurations can be built from this crate alone.
pub use ptest_master::{
    ClockSkewConfig, InterruptConfig, MemoryModelSpec, PreemptionSpec, QuantumConfig,
    RandomPriorityConfig, ScheduleSpec, StoreBufferConfig,
};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::PatternGenerator>();
        assert_send_sync::<super::Committer>();
        assert_send_sync::<super::BugDetector>();
        assert_send_sync::<super::TestReport>();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use ptest_automata::{GenerateOptions, Sym};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arb_patterns() -> impl Strategy<Value = Vec<TestPattern>> {
        proptest::collection::vec(
            proptest::collection::vec(0u16..6, 0..12)
                .prop_map(|v| TestPattern::new(v.into_iter().map(Sym).collect())),
            1..6,
        )
    }

    proptest! {
        /// Every merge policy preserves per-pattern order and loses no
        /// steps — the merger is a scheduler, not a rewriter.
        #[test]
        fn merge_preserves_order(patterns in arb_patterns(), seed in 0u64..100, chunk in 1usize..4, overlap in 0usize..4) {
            let merger = PatternMerger::new();
            for op in [
                MergeOp::Sequential,
                MergeOp::RoundRobin { chunk },
                MergeOp::RandomInterleave { seed },
                MergeOp::Staggered { overlap },
            ] {
                let merged = merger.merge(&patterns, op);
                prop_assert!(merged.preserves_order_of(&patterns), "op {op:?} broke order");
            }
        }

        /// Generated patterns are always legal prefixes, and completed
        /// ones are accepted lifecycles.
        #[test]
        fn generator_emits_legal_patterns(seed in 0u64..500, s in 1usize..40) {
            let g = PatternGenerator::pcore_paper().unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let p = g.generate(&mut rng, GenerateOptions::sized(s));
            prop_assert!(g.is_legal_prefix(p.symbols()));
            prop_assert!(p.len() <= s);
        }

        /// Cyclic generation emits exactly `s` services and stays legal
        /// per lifecycle segment.
        #[test]
        fn cyclic_generator_fills_size(seed in 0u64..200, s in 1usize..64) {
            let g = PatternGenerator::pcore_paper().unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let p = g.generate(&mut rng, GenerateOptions::cyclic(s));
            prop_assert_eq!(p.len(), s);
            // Split at TC boundaries: every segment must be a legal prefix.
            let tc = g.regex().alphabet().sym("TC").unwrap();
            let mut segment: Vec<Sym> = Vec::new();
            for &sym in p.symbols() {
                if sym == tc && !segment.is_empty() {
                    prop_assert!(g.is_legal_prefix(&segment));
                    segment.clear();
                }
                segment.push(sym);
            }
            prop_assert!(g.is_legal_prefix(&segment));
        }
    }
}
