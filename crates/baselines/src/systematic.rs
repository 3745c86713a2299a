//! A CHESS-style bounded systematic explorer.
//!
//! CHESS "uses model checking techniques to provide higher fault
//! coverage" by enumerating thread schedules, but "model checking is not
//! efficient when searching infinite state spaces" (paper §I). The
//! command-level equivalent here enumerates **every order-preserving
//! interleaving** of the given test patterns (optionally capped) and
//! executes each on a fresh deterministic system. It is exhaustive on
//! small inputs — and visibly explodes beyond them, which is precisely
//! the trade-off the paper positions pTest against.

use ptest_automata::Alphabet;
use ptest_core::{BugKind, PatternMerger, TestPattern};
use ptest_master::MultiCoreSystem;
use ptest_pcore::ProgramId;

use crate::harness::{run_merged, RunKnobs};

/// Configuration of the systematic explorer.
#[derive(Debug, Clone)]
pub struct SystematicConfig {
    /// Refuse to enumerate more than this many interleavings.
    pub interleaving_limit: usize,
    /// Stop at the first fatal bug instead of exhausting the space.
    pub stop_at_first_bug: bool,
    /// Per-run knobs.
    pub knobs: RunKnobs,
}

impl Default for SystematicConfig {
    fn default() -> SystematicConfig {
        SystematicConfig {
            interleaving_limit: 2_000,
            stop_at_first_bug: true,
            knobs: RunKnobs::default(),
        }
    }
}

/// Outcome of a systematic exploration.
#[derive(Debug, Default)]
pub struct SystematicReport {
    /// Interleavings executed.
    pub runs: usize,
    /// Total interleavings in the space (`None` if it exceeded the
    /// limit and exploration was refused).
    pub space_size: Option<usize>,
    /// Index of the first run that found a fatal bug.
    pub first_bug_run: Option<usize>,
    /// All `(run index, bug kind)` pairs observed.
    pub bugs: Vec<(usize, BugKind)>,
    /// Total commands issued across runs.
    pub total_commands: u64,
    /// Total cycles simulated across runs.
    pub total_cycles: u64,
}

impl SystematicReport {
    /// Whether any run found a bug matching the predicate.
    #[must_use]
    pub fn found<F: Fn(&BugKind) -> bool>(&self, pred: F) -> bool {
        self.bugs.iter().any(|(_, k)| pred(k))
    }
}

/// The explorer.
#[derive(Debug)]
pub struct SystematicExplorer {
    cfg: SystematicConfig,
}

impl SystematicExplorer {
    /// Creates an explorer.
    #[must_use]
    pub fn new(cfg: SystematicConfig) -> SystematicExplorer {
        SystematicExplorer { cfg }
    }

    /// Enumerates and executes the interleavings of `patterns`.
    ///
    /// `setup` must be callable once per run (each run gets a fresh
    /// system). Returns a report; if the interleaving space exceeds the
    /// configured limit, `space_size` is `None` and zero runs execute.
    pub fn explore(
        &self,
        patterns: &[TestPattern],
        alphabet: &Alphabet,
        mut setup: impl FnMut(&mut MultiCoreSystem) -> Vec<ProgramId>,
    ) -> SystematicReport {
        let merger = PatternMerger::new();
        let Some(all) = merger.enumerate_all(patterns, self.cfg.interleaving_limit) else {
            return SystematicReport::default();
        };
        let mut report = SystematicReport {
            space_size: Some(all.len()),
            ..SystematicReport::default()
        };
        for (i, merged) in all.into_iter().enumerate() {
            let outcome = run_merged(merged, alphabet, &self.cfg.knobs, &mut setup);
            report.runs += 1;
            report.total_commands += outcome.commands;
            report.total_cycles += outcome.cycles;
            let fatal = outcome.bugs.iter().any(|b| b.kind.is_fatal());
            report
                .bugs
                .extend(outcome.bugs.into_iter().map(|b| (i, b.kind)));
            if fatal && report.first_bug_run.is_none() {
                report.first_bug_run = Some(i);
                if self.cfg.stop_at_first_bug {
                    break;
                }
            }
        }
        report
    }

    /// Enumerates and executes the interleavings of `patterns`, preparing
    /// each fresh system from `scenario` — the [`Scenario`]-first face of
    /// [`SystematicExplorer::explore`].
    ///
    /// [`Scenario`]: ptest_core::Scenario
    pub fn explore_scenario(
        &self,
        patterns: &[TestPattern],
        alphabet: &Alphabet,
        scenario: &dyn ptest_core::Scenario,
    ) -> SystematicReport {
        self.explore(patterns, alphabet, |sys| scenario.setup(sys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_automata::Regex;
    use ptest_core::PatternGenerator;
    use ptest_core::Scenario;
    use ptest_faults::philosophers::{self, PhilosophersScenario};
    use ptest_faults::Variant;
    use ptest_pcore::{Op, Program};

    /// Hand-built patterns: each task gets `TC TCH TD` so it stays alive
    /// across a few commands.
    fn lifecycle_patterns(n: usize) -> (Vec<TestPattern>, Alphabet) {
        let g = PatternGenerator::pcore_paper().unwrap();
        let a = g.regex().alphabet().clone();
        let tc = a.sym("TC").unwrap();
        let tch = a.sym("TCH").unwrap();
        let td = a.sym("TD").unwrap();
        let patterns = (0..n)
            .map(|_| TestPattern::new(vec![tc, tch, td]))
            .collect();
        (patterns, a)
    }

    #[test]
    fn explorer_finds_ab_ba_deadlock() {
        // Two tasks, two mutexes, opposite acquisition order: the classic
        // AB-BA deadlock, built from the philosopher program over a
        // 2-fork "table". C(6;3,3) = 20 interleavings — small enough to
        // exhaust, and only those where both creates precede the first
        // delete can deadlock.
        let (patterns, alphabet) = lifecycle_patterns(2);
        let explorer = SystematicExplorer::new(SystematicConfig::default());
        let report = explorer.explore(&patterns, &alphabet, |sys| {
            let kernel = sys.kernel_of_mut(0);
            let forks = vec![kernel.create_mutex(), kernel.create_mutex()];
            (0..2)
                .map(|i| {
                    kernel.register_program(philosophers::philosopher_program(
                        i,
                        &forks,
                        Variant::Buggy,
                    ))
                })
                .collect()
        });
        assert_eq!(report.space_size, Some(20));
        assert!(
            report.found(|k| matches!(k, BugKind::Deadlock { .. })),
            "exhaustive search must find the AB-BA deadlock: {} runs",
            report.runs
        );
        assert!(report.first_bug_run.is_some());
    }

    #[test]
    fn explorer_respects_limit() {
        let (patterns, alphabet) = lifecycle_patterns(3);
        // C(9; 3,3,3) = 1680 interleavings > 100.
        let explorer = SystematicExplorer::new(SystematicConfig {
            interleaving_limit: 100,
            ..SystematicConfig::default()
        });
        let scenario = PhilosophersScenario::buggy();
        let report = explorer.explore(&patterns, &alphabet, |sys| scenario.setup(sys));
        assert_eq!(report.space_size, None, "space explosion must be refused");
        assert_eq!(report.runs, 0);
    }

    #[test]
    fn scenario_exploration_matches_closure_exploration() {
        let (patterns, alphabet) = lifecycle_patterns(2);
        let explorer = SystematicExplorer::new(SystematicConfig::default());
        let scenario = PhilosophersScenario::buggy();
        let via_scenario = explorer.explore_scenario(&patterns, &alphabet, &scenario);
        let via_closure = explorer.explore(&patterns, &alphabet, |sys| scenario.setup(sys));
        assert_eq!(via_scenario.runs, via_closure.runs);
        assert_eq!(via_scenario.total_commands, via_closure.total_commands);
        assert_eq!(via_scenario.first_bug_run, via_closure.first_bug_run);
    }

    #[test]
    fn explorer_exhausts_clean_space_without_bugs() {
        let re = Regex::pcore_task_lifecycle();
        let a = re.alphabet().clone();
        let tc = a.sym("TC").unwrap();
        let td = a.sym("TD").unwrap();
        let patterns = vec![
            TestPattern::new(vec![tc, td]),
            TestPattern::new(vec![tc, td]),
        ];
        let explorer = SystematicExplorer::new(SystematicConfig::default());
        let report = explorer.explore(&patterns, &a, |sys| {
            vec![sys
                .kernel_of_mut(0)
                .register_program(Program::new(vec![Op::Compute(5), Op::Exit]).unwrap())]
        });
        assert_eq!(report.space_size, Some(6), "C(4,2) = 6 interleavings");
        assert_eq!(report.runs, 6);
        assert!(report.bugs.is_empty());
        assert_eq!(report.first_bug_run, None);
    }

    #[test]
    fn cross_core_deadlock_stops_the_exploration() {
        // Every interleaving of three `TC TCH` patterns on the buggy
        // 3-slave pipeline ends in a cross-core deadlock, so the first
        // run is the first bug run and exploration stops there.
        let scenario = ptest_faults::multicore::CrossCorePipelineScenario::buggy();
        let g = PatternGenerator::pcore_paper().unwrap();
        let alphabet = g.regex().alphabet().clone();
        let tc = alphabet.sym("TC").unwrap();
        let tch = alphabet.sym("TCH").unwrap();
        let patterns: Vec<TestPattern> = (0..3).map(|_| TestPattern::new(vec![tc, tch])).collect();
        let explorer = SystematicExplorer::new(SystematicConfig {
            knobs: RunKnobs::from_scenario(&scenario),
            ..SystematicConfig::default()
        });
        let report = explorer.explore_scenario(&patterns, &alphabet, &scenario);
        assert_eq!(report.space_size, Some(90), "C(6; 2,2,2) interleavings");
        assert!(report.found(|k| matches!(k, BugKind::CrossCoreDeadlock { .. })));
        assert_eq!(report.first_bug_run, Some(0));
        assert_eq!(report.runs, 1);
    }
}
