//! The pattern generator (paper Algorithm 2).
//!
//! `PatternGenerator(RE, PD, s)`: interpret the regular expression,
//! convert it to an NFA, attach the probability distribution to obtain
//! the PFA, then walk the PFA emitting `s` services per pattern.

use ptest_automata::{Dfa, GenerateOptions, Pfa, PfaError, ProbabilityAssignment, Regex, Sym};
use rand::Rng;

use crate::pattern::TestPattern;

/// The pattern generator: a compiled PFA plus its legality oracle.
///
/// ```
/// use ptest_core::PatternGenerator;
/// use ptest_automata::GenerateOptions;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let generator = PatternGenerator::pcore_paper()?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pattern = generator.generate(&mut rng, GenerateOptions::sized(8));
/// assert!(generator.is_legal_prefix(pattern.symbols()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PatternGenerator {
    regex: Regex,
    dfa: Dfa,
    pfa: Pfa,
}

impl PatternGenerator {
    /// Compiles a regular expression and probability distribution into a
    /// generator (`ConvertToNFA` + `ConstructPFA` of Algorithm 2).
    ///
    /// # Errors
    ///
    /// [`PfaError`] if the distribution is invalid for the skeleton.
    pub fn new(regex: Regex, pd: &ProbabilityAssignment) -> Result<PatternGenerator, PfaError> {
        let dfa = Dfa::from_regex(&regex).minimize();
        let pfa = Pfa::from_dfa(&dfa, regex.alphabet().clone(), pd)?;
        Ok(PatternGenerator { regex, dfa, pfa })
    }

    /// The generator for pCore used throughout the paper's evaluation:
    /// Eq. 2 with the Figure 5 probability distribution.
    ///
    /// The paper's Figure 5 edge labels map onto the minimal lifecycle
    /// skeleton as: from the running state TCH 0.6, TS 0.2, TD 0.1,
    /// TY 0.1; the TC and TR edges are forced (probability 1).
    ///
    /// # Errors
    ///
    /// Never fails in practice; the error type is kept for uniformity.
    pub fn pcore_paper() -> Result<PatternGenerator, PfaError> {
        PatternGenerator::new(
            Regex::pcore_task_lifecycle(),
            &ProbabilityAssignment::weights([
                ("TC", 1.0),
                ("TCH", 0.6),
                ("TS", 0.2),
                ("TD", 0.1),
                ("TY", 0.1),
                ("TR", 1.0),
            ]),
        )
    }

    /// The regular expression this generator was built from.
    #[must_use]
    pub fn regex(&self) -> &Regex {
        &self.regex
    }

    /// The deterministic skeleton (the legality oracle).
    #[must_use]
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// The probabilistic automaton.
    #[must_use]
    pub fn pfa(&self) -> &Pfa {
        &self.pfa
    }

    /// Generates one test pattern (one invocation of Algorithm 2).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, opts: GenerateOptions) -> TestPattern {
        TestPattern::new(self.pfa.generate(rng, opts))
    }

    /// Generates one pattern into a caller-owned symbol buffer (clearing
    /// it first) — the zero-allocation walk for loops that do not keep
    /// the pattern, such as the campaign learning pass.
    pub fn generate_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        opts: GenerateOptions,
        buf: &mut Vec<Sym>,
    ) {
        self.pfa.generate_into(rng, opts, buf);
    }

    /// Generates the set `T` of `n` patterns (Algorithm 1, lines 1–3).
    pub fn generate_batch<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
        opts: GenerateOptions,
    ) -> Vec<TestPattern> {
        (0..n).map(|_| self.generate(rng, opts)).collect()
    }

    /// Whether `seq` is a prefix of the service language — every pattern
    /// this generator emits satisfies this.
    #[must_use]
    pub fn is_legal_prefix(&self, seq: &[Sym]) -> bool {
        self.dfa.is_valid_prefix(seq)
    }

    /// Probability of this exact pattern being generated (product of
    /// branch probabilities along its unique path).
    #[must_use]
    pub fn pattern_probability(&self, pattern: &TestPattern) -> f64 {
        self.pfa.sequence_probability(pattern.symbols())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pcore_paper_generator_builds() {
        let g = PatternGenerator::pcore_paper().unwrap();
        assert_eq!(g.regex().alphabet().len(), 6);
        assert_eq!(g.dfa().len(), 4);
        g.pfa().validate().unwrap();
    }

    #[test]
    fn batch_has_n_patterns_all_legal() {
        let g = PatternGenerator::pcore_paper().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let batch = g.generate_batch(&mut rng, 16, GenerateOptions::sized(32));
        assert_eq!(batch.len(), 16);
        for p in &batch {
            assert!(
                g.is_legal_prefix(p.symbols()),
                "{}",
                p.render(g.regex().alphabet())
            );
            assert!(!p.is_empty());
        }
    }

    #[test]
    fn every_pattern_starts_with_tc() {
        let g = PatternGenerator::pcore_paper().unwrap();
        let tc = g.regex().alphabet().sym("TC").unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..200 {
            let p = g.generate(&mut rng, GenerateOptions::sized(8));
            assert_eq!(p.symbols().first(), Some(&tc), "life cycle starts with TC");
        }
    }

    #[test]
    fn cyclic_patterns_contain_multiple_lifecycles() {
        let g = PatternGenerator::pcore_paper().unwrap();
        let tc = g.regex().alphabet().sym("TC").unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut saw_restart = false;
        for _ in 0..100 {
            let p = g.generate(&mut rng, GenerateOptions::cyclic(32));
            assert_eq!(p.len(), 32);
            if p.symbols().iter().filter(|&&s| s == tc).count() > 1 {
                saw_restart = true;
            }
        }
        assert!(saw_restart, "cyclic generation should restart life cycles");
    }

    #[test]
    fn pattern_probability_is_positive_for_generated() {
        let g = PatternGenerator::pcore_paper().unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            let p = g.generate(&mut rng, GenerateOptions::sized(16));
            assert!(g.pattern_probability(&p) > 0.0);
        }
    }

    #[test]
    fn suspend_is_always_followed_eventually_by_resume() {
        // In any *completed* pattern (ends with TD/TY), every TS is
        // followed by TR before the terminal service — guaranteed by the
        // regex structure; spot-check generation respects it.
        let g = PatternGenerator::pcore_paper().unwrap();
        let a = g.regex().alphabet();
        let (ts, tr) = (a.sym("TS").unwrap(), a.sym("TR").unwrap());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let p = g.generate(&mut rng, GenerateOptions::sized(64));
            let mut suspended = false;
            for &s in p.symbols() {
                if s == ts {
                    assert!(!suspended, "TS TS without TR is illegal");
                    suspended = true;
                } else if s == tr {
                    assert!(suspended, "TR without TS is illegal");
                    suspended = false;
                }
            }
        }
    }
}
