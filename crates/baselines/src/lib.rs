//! # ptest-baselines — the testers pTest is compared against
//!
//! The paper positions pTest against two families of concurrency-testing
//! tools (§I):
//!
//! * **ConTest-style random testing** — [`RandomTester`]: uniformly
//!   random commands with no legality discipline. Simple and eventually
//!   effective, but wasteful: a measurable fraction of its budget is
//!   rejected by the slave as illegal service orders.
//! * **CHESS-style systematic exploration** — [`SystematicExplorer`]:
//!   enumerates every order-preserving interleaving of a set of test
//!   patterns and executes each deterministically. Exhaustive on small
//!   spaces, combinatorially explosive beyond them.
//!
//! Both run on the trial engine's cycle loop
//! ([`CycleLoop`](ptest_core::CycleLoop)), so they share pTest's
//! fast-forward and stop rules and differ from it only in what drives
//! the slave: the random tester's uniform command issuer, or a
//! [`Committer`](ptest_core::Committer) over each enumerated
//! interleaving. [`harness`] provides [`run_merged`], the single-run
//! executor used by the explorer and by ablation experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
mod random;
mod systematic;

pub use harness::{run_merged, run_merged_scenario, RunKnobs, RunOutcome};
pub use random::{RandomTestReport, RandomTester, RandomTesterConfig};
pub use systematic::{SystematicConfig, SystematicExplorer, SystematicReport};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::RandomTester>();
        assert_send_sync::<super::SystematicExplorer>();
    }
}
