//! Cross-trial feedback: turning executed trials back into probability
//! distributions.
//!
//! The paper's tool is adaptive across runs — "the probability
//! distribution can be learned through system profiling" — and this
//! module is that loop at campaign scale. Each trial's *execution trace*
//! (the services actually committed to the slave, per controlled task,
//! truncated where a crash or hang stopped the committer) is segmented
//! into legal lifecycle walks over the DFA skeleton and accumulated into
//! [`TransitionCounts`]; between rounds the counts are re-estimated into
//! the next round's [`ProbabilityAssignment`].
//!
//! [`ProbabilityAssignment`]: ptest_automata::ProbabilityAssignment

use ptest_automata::{Dfa, Sym, TransitionCounts};
use ptest_core::TestReport;

/// Extracts the delivered service trace of each controlled slave task
/// from a trial report, segmented into DFA-legal walks.
///
/// Only steps the committer actually issued count (skipped steps and
/// steps after a fatal stop do not); cyclically generated patterns are
/// split at lifecycle boundaries, so every returned trace is a legal
/// walk from the skeleton's start state.
#[must_use]
pub fn delivered_traces(report: &TestReport, dfa: &Dfa) -> Vec<Vec<Sym>> {
    let mut per_pattern: Vec<Vec<Sym>> = vec![Vec::new(); report.config.n.max(1)];
    for (step, rec) in report.merged.steps().iter().zip(report.exec_records.iter()) {
        if rec.request.is_some() && step.pattern < per_pattern.len() {
            per_pattern[step.pattern].push(step.sym);
        }
    }

    let mut traces = Vec::new();
    for symbols in per_pattern {
        let mut segment: Vec<Sym> = Vec::new();
        let mut q = dfa.start();
        for sym in symbols {
            if let Some(next) = dfa.next(q, sym) {
                segment.push(sym);
                q = next;
                continue;
            }
            // Lifecycle boundary (or absorbed final state): close the
            // segment and restart the walk from q0 with this symbol.
            if !segment.is_empty() {
                traces.push(std::mem::take(&mut segment));
            }
            if let Some(next) = dfa.next(dfa.start(), sym) {
                segment.push(sym);
                q = next;
            } else {
                q = dfa.start();
            }
        }
        if !segment.is_empty() {
            traces.push(segment);
        }
    }
    traces
}

/// Feeds every delivered trace of `report` into `counts`. Returns how
/// many traces were accumulated.
pub fn observe_report(counts: &mut TransitionCounts, report: &TestReport, dfa: &Dfa) -> u64 {
    let mut added = 0u64;
    for trace in delivered_traces(report, dfa) {
        let index = usize::try_from(counts.trace_count()).unwrap_or(usize::MAX);
        if counts.observe(dfa, index, &trace).is_ok() {
            added += 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptest_core::{AdaptiveTest, AdaptiveTestConfig, PatternGenerator};
    use ptest_master::MultiCoreSystem;
    use ptest_pcore::{Op, Program, ProgramId};

    fn quick_setup(sys: &mut MultiCoreSystem) -> Vec<ProgramId> {
        vec![sys
            .kernel_of_mut(0)
            .register_program(Program::new(vec![Op::Compute(20), Op::Exit]).unwrap())]
    }

    #[test]
    fn completed_run_yields_one_trace_per_lifecycle() {
        let report = AdaptiveTest::run(
            AdaptiveTestConfig {
                n: 3,
                s: 6,
                seed: 11,
                ..AdaptiveTestConfig::default()
            },
            quick_setup,
        )
        .unwrap();
        assert!(report.completed);
        let g = PatternGenerator::pcore_paper().unwrap();
        let traces = delivered_traces(&report, g.dfa());
        // Non-cyclic generation: each pattern is one lifecycle walk.
        assert_eq!(traces.len(), 3);
        for trace in &traces {
            assert!(g.is_legal_prefix(trace), "every trace is a legal walk");
            assert!(!trace.is_empty());
        }
    }

    #[test]
    fn cyclic_patterns_are_split_at_lifecycle_boundaries() {
        let report = AdaptiveTest::run(
            AdaptiveTestConfig {
                n: 2,
                s: 24,
                cyclic_generation: true,
                seed: 5,
                ..AdaptiveTestConfig::default()
            },
            quick_setup,
        )
        .unwrap();
        let g = PatternGenerator::pcore_paper().unwrap();
        let traces = delivered_traces(&report, g.dfa());
        assert!(
            traces.len() > 2,
            "24 cyclic services per pattern must span several lifecycles"
        );
        let mut counts = TransitionCounts::new();
        let added = observe_report(&mut counts, &report, g.dfa());
        assert_eq!(added, traces.len() as u64, "every segment is observable");
        assert_eq!(
            counts.symbol_count(),
            traces.iter().map(Vec::len).sum::<usize>() as u64
        );
    }
}
