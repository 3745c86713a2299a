//! The [`Scenario`] abstraction: a reusable, thread-safe description of
//! *what* to test.
//!
//! [`AdaptiveTest::run`](crate::AdaptiveTest::run) historically took a
//! one-shot `FnOnce` setup closure — enough for a single trial, but a
//! campaign runs *many* trials of the same scenario concurrently, so the
//! setup must be repeatable (`&self`) and shareable across worker threads
//! (`Send + Sync`). A [`Scenario`] packages the three things every tester
//! needs:
//!
//! 1. a **name** for reports,
//! 2. a **base configuration** (the Algorithm 1 inputs; the seed field is
//!    overridden per trial), and
//! 3. a **setup** that prepares a fresh slave system — registering task
//!    programs, creating semaphores/mutexes, seeding shared variables —
//!    and returns the programs `task_create` commands should start.
//!
//! Every tester in the workspace accepts a scenario: the adaptive tester
//! ([`AdaptiveTest::run_scenario`](crate::AdaptiveTest::run_scenario)),
//! the campaign engine, and the ConTest-style/CHESS-style baselines.

use ptest_master::MultiCoreSystem;
use ptest_pcore::ProgramId;

use crate::adaptive::AdaptiveTestConfig;

/// A named, repeatable, thread-safe test scenario.
///
/// `setup` is called once per trial on a fresh [`MultiCoreSystem`]; it
/// must be deterministic (same system state in, same programs out) for
/// campaign results to be reproducible.
pub trait Scenario: Send + Sync {
    /// Scenario name, echoed into campaign reports.
    fn name(&self) -> &str;

    /// The adaptive-test configuration this scenario is designed for.
    /// The `seed` field is a default; testers override it per trial.
    fn base_config(&self) -> AdaptiveTestConfig;

    /// Prepares a fresh slave system and returns the programs that
    /// `task_create` commands should start (one per pattern, cycled if
    /// shorter).
    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId>;
}

/// Adapter turning a configuration plus a `Fn` closure into a
/// [`Scenario`] — the ergonomic path for ad-hoc campaigns.
///
/// ```
/// use ptest_core::{AdaptiveTestConfig, FnScenario, Scenario};
/// use ptest_pcore::{Op, Program};
///
/// let scenario = FnScenario::new(
///     "compute-worker",
///     AdaptiveTestConfig::default(),
///     |sys| {
///         vec![sys.kernel_of_mut(0).register_program(
///             Program::new(vec![Op::Compute(20), Op::Exit]).expect("valid"),
///         )]
///     },
/// );
/// assert_eq!(scenario.name(), "compute-worker");
/// ```
pub struct FnScenario<F> {
    name: String,
    config: AdaptiveTestConfig,
    setup: F,
}

impl<F> FnScenario<F>
where
    F: Fn(&mut MultiCoreSystem) -> Vec<ProgramId> + Send + Sync,
{
    /// Wraps a name, configuration and setup closure.
    pub fn new(name: impl Into<String>, config: AdaptiveTestConfig, setup: F) -> FnScenario<F> {
        FnScenario {
            name: name.into(),
            config,
            setup,
        }
    }
}

impl<F> Scenario for FnScenario<F>
where
    F: Fn(&mut MultiCoreSystem) -> Vec<ProgramId> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        self.config.clone()
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        (self.setup)(sys)
    }
}

impl<F> std::fmt::Debug for FnScenario<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnScenario")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Combinator overriding a scenario's base configuration while keeping
/// its name and slave setup — how experiments sweep merge policies,
/// distributions or budgets over one fault scenario.
///
/// ```
/// use ptest_core::{Configured, MergeOp, Scenario};
/// # use ptest_core::{AdaptiveTestConfig, FnScenario};
/// # let inner = FnScenario::new("w", AdaptiveTestConfig::default(), |_sys| vec![]);
/// let mut cfg = inner.base_config();
/// cfg.op = MergeOp::Sequential;
/// let sequential = Configured::new(inner, cfg);
/// assert!(matches!(sequential.base_config().op, MergeOp::Sequential));
/// ```
#[derive(Debug, Clone)]
pub struct Configured<S> {
    inner: S,
    config: AdaptiveTestConfig,
}

impl<S: Scenario> Configured<S> {
    /// Wraps `inner` with a replacement configuration.
    pub fn new(inner: S, config: AdaptiveTestConfig) -> Configured<S> {
        Configured { inner, config }
    }

    /// Wraps `inner`, deriving the replacement by mutating its own base
    /// configuration.
    pub fn adjust(inner: S, f: impl FnOnce(&mut AdaptiveTestConfig)) -> Configured<S> {
        let mut config = inner.base_config();
        f(&mut config);
        Configured { inner, config }
    }
}

impl<S: Scenario> Scenario for Configured<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn base_config(&self) -> AdaptiveTestConfig {
        self.config.clone()
    }

    fn setup(&self, sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        self.inner.setup(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_pcore::{Op, Program};

    fn compute_scenario() -> impl Scenario {
        FnScenario::new("compute", AdaptiveTestConfig::default(), |sys| {
            vec![sys
                .kernel_of_mut(0)
                .register_program(Program::new(vec![Op::Compute(10), Op::Exit]).unwrap())]
        })
    }

    #[test]
    fn scenarios_are_object_safe_and_thread_safe() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Scenario>();
        let s = compute_scenario();
        let dyn_ref: &dyn Scenario = &s;
        assert_eq!(dyn_ref.name(), "compute");
        assert_eq!(dyn_ref.base_config().n, 4);
    }

    #[test]
    fn setup_is_repeatable() {
        let s = compute_scenario();
        let mut a = ptest_master::MultiCoreSystem::new(s.base_config().system);
        let mut b = ptest_master::MultiCoreSystem::new(s.base_config().system);
        assert_eq!(s.setup(&mut a), s.setup(&mut b));
    }
}
