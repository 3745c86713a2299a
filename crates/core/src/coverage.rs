//! Coverage accounting for test patterns.
//!
//! The paper notes that "the code coverage analysis is a useful
//! information for stress testing on large software systems" and lists
//! unverified fault coverage as future work. This module provides the
//! measurable proxies available in this reproduction: service coverage,
//! service-pair (adjacency) coverage per task, and PFA transition
//! coverage.

use std::collections::{BTreeMap, BTreeSet};

use ptest_automata::{Alphabet, Dfa, Sym};

use crate::pattern::TestPattern;

/// Coverage achieved by a set of test patterns over a service DFA.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// How many times each service was used, by name.
    pub service_counts: BTreeMap<String, u64>,
    /// Distinct ordered service pairs `(a, b)` observed adjacently within
    /// a single pattern.
    pub pairs_covered: usize,
    /// Distinct DFA transitions exercised.
    pub transitions_covered: usize,
    /// Total DFA transitions.
    pub transitions_total: usize,
    /// Distinct DFA states visited.
    pub states_covered: usize,
    /// Total DFA states.
    pub states_total: usize,
}

impl CoverageReport {
    /// Transition coverage in `[0, 1]`.
    #[must_use]
    pub fn transition_coverage(&self) -> f64 {
        if self.transitions_total == 0 {
            return 1.0;
        }
        self.transitions_covered as f64 / self.transitions_total as f64
    }

    /// State coverage in `[0, 1]`.
    #[must_use]
    pub fn state_coverage(&self) -> f64 {
        if self.states_total == 0 {
            return 1.0;
        }
        self.states_covered as f64 / self.states_total as f64
    }
}

/// Measures the coverage of `patterns` over the DFA skeleton.
#[must_use]
pub fn measure(patterns: &[TestPattern], dfa: &Dfa, alphabet: &Alphabet) -> CoverageReport {
    let mut service_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut pairs: BTreeSet<(Sym, Sym)> = BTreeSet::new();
    let mut transitions: BTreeSet<(usize, Sym)> = BTreeSet::new();
    let mut states: BTreeSet<usize> = BTreeSet::new();

    for p in patterns {
        let mut q = dfa.start();
        states.insert(q);
        for window in p.symbols().windows(2) {
            pairs.insert((window[0], window[1]));
        }
        for &sym in p.symbols() {
            // Symbols the alphabet cannot name are counted *distinctly*
            // (`?#3`-style buckets, one per unknown symbol id). Folding
            // them all into one `"?"` bucket — as this used to do —
            // silently inflated a single phantom service's count and
            // hid how many distinct unknowns appeared. A name is copied
            // into the map only the first time it is counted.
            match alphabet.name(sym) {
                Some(name) => match service_counts.get_mut(name) {
                    Some(count) => *count += 1,
                    None => {
                        service_counts.insert(name.to_owned(), 1);
                    }
                },
                None => *service_counts.entry(format!("?{sym}")).or_insert(0) += 1,
            }
            if let Some(next) = dfa.next(q, sym) {
                transitions.insert((q, sym));
                states.insert(next);
                q = next;
            } else {
                break; // illegal tail: patterns from the generator never hit this
            }
        }
    }
    let transitions_total = dfa.transition_count();
    CoverageReport {
        service_counts,
        pairs_covered: pairs.len(),
        transitions_covered: transitions.len(),
        transitions_total,
        states_covered: states.len(),
        states_total: dfa.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::PatternGenerator;
    use ptest_automata::GenerateOptions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_patterns_cover_start_state_only() {
        let g = PatternGenerator::pcore_paper().unwrap();
        let report = measure(&[], g.dfa(), g.regex().alphabet());
        assert_eq!(report.transitions_covered, 0);
        assert_eq!(report.states_covered, 0);
        assert!(report.service_counts.is_empty());
    }

    #[test]
    fn single_lifecycle_covers_some_transitions() {
        let g = PatternGenerator::pcore_paper().unwrap();
        let a = g.regex().alphabet();
        let p = TestPattern::new(vec![a.sym("TC").unwrap(), a.sym("TD").unwrap()]);
        let report = measure(&[p], g.dfa(), a);
        assert_eq!(report.transitions_covered, 2);
        assert_eq!(report.service_counts["TC"], 1);
        assert_eq!(report.service_counts["TD"], 1);
        assert!(report.transition_coverage() < 1.0);
        assert_eq!(report.pairs_covered, 1);
    }

    #[test]
    fn many_patterns_reach_full_transition_coverage() {
        let g = PatternGenerator::pcore_paper().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let patterns = g.generate_batch(&mut rng, 200, GenerateOptions::sized(16));
        let report = measure(&patterns, g.dfa(), g.regex().alphabet());
        assert!(
            (report.transition_coverage() - 1.0).abs() < f64::EPSILON,
            "200 sizable patterns should exercise all {} transitions, got {}",
            report.transitions_total,
            report.transitions_covered
        );
        assert!((report.state_coverage() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn unknown_symbols_are_counted_distinctly_not_aliased() {
        let g = PatternGenerator::pcore_paper().unwrap();
        let a = g.regex().alphabet();
        let known = a.sym("TC").unwrap();
        // Two patterns, each hitting a different symbol outside the
        // 6-service alphabet: the unknowns must land in two distinct
        // `?`-buckets, not merge into a single inflated one. (The DFA
        // walk stops at the first illegal symbol of each pattern, so
        // each contributes exactly one unknown.)
        let p1 = TestPattern::new(vec![known, Sym(900)]);
        let p2 = TestPattern::new(vec![known, Sym(901)]);
        let report = measure(&[p1, p2], g.dfa(), a);
        assert_eq!(report.service_counts["TC"], 2);
        assert_eq!(report.service_counts["?#900"], 1);
        assert_eq!(report.service_counts["?#901"], 1);
        assert!(
            !report.service_counts.contains_key("?"),
            "no aggregate alias bucket: {:?}",
            report.service_counts
        );
    }

    #[test]
    fn coverage_is_monotone_in_patterns() {
        let g = PatternGenerator::pcore_paper().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let patterns = g.generate_batch(&mut rng, 50, GenerateOptions::sized(8));
        let small = measure(&patterns[..5], g.dfa(), g.regex().alphabet());
        let large = measure(&patterns, g.dfa(), g.regex().alphabet());
        assert!(large.transitions_covered >= small.transitions_covered);
        assert!(large.pairs_covered >= small.pairs_covered);
    }
}
