//! Probabilistic finite-state automata (paper Definition 1).
//!
//! A PFA is the six-tuple `(Q, Σ, δ, q0, F, P)` where `P : δ → R+`
//! satisfies Eq. 1: for every state with outgoing transitions the
//! probabilities sum to 1. pTest builds the PFA by attaching a
//! *probability distribution* to the deterministic skeleton obtained from
//! the user's regular expression (`ConstructPFA` in Algorithm 2), then
//! walks it to generate test patterns (`MakeChoice`).

use std::collections::HashMap;
use std::fmt;

use rand::Rng;

use crate::alphabet::{Alphabet, Sym};
use crate::dfa::{Dfa, DfaStateId};

/// How transition probabilities are assigned to the DFA skeleton.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbabilityAssignment {
    /// Every outgoing transition of a state is equally likely.
    Uniform,
    /// Per-symbol weights (e.g. `TCH → 0.6`), renormalized per state over
    /// the symbols actually available there. Symbols without an entry get
    /// weight 1.
    SymbolWeights(HashMap<String, f64>),
    /// Exact per-(state, symbol) probabilities; every transition of the
    /// skeleton must be covered and each state must sum to 1.
    Explicit(HashMap<(DfaStateId, String), f64>),
}

impl ProbabilityAssignment {
    /// Convenience constructor for [`ProbabilityAssignment::SymbolWeights`].
    #[must_use]
    pub fn weights<I, S>(pairs: I) -> ProbabilityAssignment
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        ProbabilityAssignment::SymbolWeights(
            pairs.into_iter().map(|(s, w)| (s.into(), w)).collect(),
        )
    }
}

/// Error constructing or validating a PFA.
#[derive(Debug, Clone, PartialEq)]
pub enum PfaError {
    /// A state's outgoing probabilities do not sum to 1 (Eq. 1).
    NotNormalized {
        /// The offending state.
        state: DfaStateId,
        /// The actual sum.
        sum: f64,
    },
    /// A weight was negative or non-finite.
    BadWeight {
        /// The offending state.
        state: DfaStateId,
        /// The symbol whose weight is bad.
        symbol: String,
        /// The offending weight.
        weight: f64,
    },
    /// An explicit assignment is missing a probability for a transition
    /// present in the skeleton.
    MissingProbability {
        /// The offending state.
        state: DfaStateId,
        /// The uncovered symbol.
        symbol: String,
    },
    /// A non-final state has no outgoing transitions: generation would
    /// strand there without ever completing a pattern.
    DeadNonFinal {
        /// The offending state.
        state: DfaStateId,
    },
}

impl fmt::Display for PfaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PfaError::NotNormalized { state, sum } => {
                write!(f, "state {state} probabilities sum to {sum}, expected 1")
            }
            PfaError::BadWeight {
                state,
                symbol,
                weight,
            } => {
                write!(
                    f,
                    "state {state} symbol {symbol} has invalid weight {weight}"
                )
            }
            PfaError::MissingProbability { state, symbol } => {
                write!(
                    f,
                    "state {state} symbol {symbol} has no probability assigned"
                )
            }
            PfaError::DeadNonFinal { state } => {
                write!(f, "non-final state {state} has no outgoing transitions")
            }
        }
    }
}

impl std::error::Error for PfaError {}

/// Options for [`Pfa::generate`] (the paper's Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerateOptions {
    /// Pattern size `s`: number of symbols to emit.
    pub size: usize,
    /// When the walk reaches an absorbing final state before emitting `s`
    /// symbols, restart from `q0` (modelling a task life cycle repeating,
    /// as the stress test of case study 1 does) instead of stopping.
    pub restart_on_final: bool,
}

impl GenerateOptions {
    /// Exactly the paper's Algorithm 2: emit up to `size` symbols, stop
    /// early if the walk is absorbed.
    #[must_use]
    pub fn sized(size: usize) -> GenerateOptions {
        GenerateOptions {
            size,
            restart_on_final: false,
        }
    }

    /// Stress-test variant: restart the life cycle until `size` symbols
    /// have been emitted.
    #[must_use]
    pub fn cyclic(size: usize) -> GenerateOptions {
        GenerateOptions {
            size,
            restart_on_final: true,
        }
    }
}

/// A probabilistic finite-state automaton (Definition 1).
///
/// ```
/// use ptest_automata::{Dfa, GenerateOptions, Pfa, ProbabilityAssignment, Regex};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Figure 3: (ac*d)|b with P(a)=.6, P(b)=.4, P(c)=.3, P(d)=.7
/// let re = Regex::parse("(a c* d) | b")?;
/// let dfa = Dfa::from_regex(&re).minimize();
/// let pd = ProbabilityAssignment::weights([("a", 0.6), ("b", 0.4), ("c", 0.3), ("d", 0.7)]);
/// let pfa = Pfa::from_dfa(&dfa, re.alphabet().clone(), &pd)?;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pattern = pfa.generate(&mut rng, GenerateOptions::sized(8));
/// assert!(!pattern.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pfa {
    alphabet: Alphabet,
    /// `transitions[q]` = `(symbol, target, probability)` in symbol order.
    transitions: Vec<Vec<(Sym, DfaStateId, f64)>>,
    accepting: Vec<bool>,
    start: DfaStateId,
}

/// Tolerance used when checking Eq. 1.
const NORMALIZATION_EPS: f64 = 1e-9;

impl Pfa {
    /// Attaches probabilities to a DFA skeleton (`ConstructPFA`).
    ///
    /// # Errors
    ///
    /// Any [`PfaError`]: bad weights, missing explicit probabilities,
    /// normalization violations, or dead non-final states.
    pub fn from_dfa(
        dfa: &Dfa,
        alphabet: Alphabet,
        pd: &ProbabilityAssignment,
    ) -> Result<Pfa, PfaError> {
        let mut transitions = Vec::with_capacity(dfa.len());
        for state in 0..dfa.len() {
            let outgoing = dfa.transitions_from(state);
            if outgoing.is_empty() {
                if !dfa.is_accepting(state) {
                    return Err(PfaError::DeadNonFinal { state });
                }
                transitions.push(Vec::new());
                continue;
            }
            let mut weighted: Vec<(Sym, DfaStateId, f64)> = Vec::with_capacity(outgoing.len());
            for (sym, target) in outgoing {
                let name = alphabet.name(sym).unwrap_or("?").to_owned();
                let w = match pd {
                    ProbabilityAssignment::Uniform => 1.0,
                    ProbabilityAssignment::SymbolWeights(map) => {
                        map.get(&name).copied().unwrap_or(1.0)
                    }
                    ProbabilityAssignment::Explicit(map) => map
                        .get(&(state, name.clone()))
                        .copied()
                        .ok_or(PfaError::MissingProbability {
                            state,
                            symbol: name.clone(),
                        })?,
                };
                if !w.is_finite() || w <= 0.0 {
                    return Err(PfaError::BadWeight {
                        state,
                        symbol: name,
                        weight: w,
                    });
                }
                weighted.push((sym, target, w));
            }
            let sum: f64 = weighted.iter().map(|(_, _, w)| w).sum();
            match pd {
                ProbabilityAssignment::Explicit(_) => {
                    if (sum - 1.0).abs() > 1e-6 {
                        return Err(PfaError::NotNormalized { state, sum });
                    }
                    // Renormalize away rounding noise.
                    for entry in &mut weighted {
                        entry.2 /= sum;
                    }
                }
                _ => {
                    for entry in &mut weighted {
                        entry.2 /= sum;
                    }
                }
            }
            transitions.push(weighted);
        }
        let pfa = Pfa {
            alphabet,
            transitions,
            accepting: (0..dfa.len()).map(|q| dfa.is_accepting(q)).collect(),
            start: dfa.start(),
        };
        pfa.validate()?;
        Ok(pfa)
    }

    /// Checks Eq. 1 on every state; the constructor already enforces this,
    /// so this is primarily for property tests and post-mutation checks.
    ///
    /// # Errors
    ///
    /// [`PfaError::NotNormalized`] or [`PfaError::DeadNonFinal`].
    pub fn validate(&self) -> Result<(), PfaError> {
        for (state, out) in self.transitions.iter().enumerate() {
            if out.is_empty() {
                if !self.accepting[state] {
                    return Err(PfaError::DeadNonFinal { state });
                }
                continue;
            }
            let sum: f64 = out.iter().map(|(_, _, p)| p).sum();
            if (sum - 1.0).abs() > NORMALIZATION_EPS {
                return Err(PfaError::NotNormalized { state, sum });
            }
        }
        Ok(())
    }

    /// The alphabet Σ.
    #[must_use]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The initial state `q0`.
    #[must_use]
    pub fn start(&self) -> DfaStateId {
        self.start
    }

    /// Number of states |Q|.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Whether the PFA has no states (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Whether `state` ∈ F.
    #[must_use]
    pub fn is_accepting(&self, state: DfaStateId) -> bool {
        self.accepting[state]
    }

    /// Outgoing `(symbol, target, probability)` triples of `state`.
    #[must_use]
    pub fn transitions_from(&self, state: DfaStateId) -> &[(Sym, DfaStateId, f64)] {
        &self.transitions[state]
    }

    /// The probability `P(state, sym, ·)`, or 0 if no such transition.
    #[must_use]
    pub fn probability(&self, state: DfaStateId, sym: Sym) -> f64 {
        self.transitions[state]
            .iter()
            .find(|(s, _, _)| *s == sym)
            .map_or(0.0, |(_, _, p)| *p)
    }

    /// `MakeChoice` of Algorithm 2: samples one outgoing transition by
    /// the cumulative scan over the state's probabilities, in transition
    /// order. Returns `None` at absorbing states. A state with one
    /// outgoing transition makes no probabilistic choice and draws no
    /// roll, so the RNG advances once per branching state visited.
    #[inline]
    pub fn make_choice<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        state: DfaStateId,
    ) -> Option<(Sym, DfaStateId)> {
        let out = &self.transitions[state];
        match out.len() {
            0 => None,
            // Algorithm 2 line 10-13: no probabilistic choice to make.
            1 => Some((out[0].0, out[0].1)),
            _ => {
                let roll: f64 = rng.random();
                let mut acc = 0.0;
                for &(sym, target, p) in out {
                    acc += p;
                    if roll < acc {
                        return Some((sym, target));
                    }
                }
                // Floating-point slack: take the last transition.
                let last = out.last().expect("non-empty");
                Some((last.0, last.1))
            }
        }
    }

    /// Algorithm 2: generates one test pattern by walking the PFA.
    ///
    /// Emits up to `opts.size` symbols; stops early at an absorbing final
    /// state unless `opts.restart_on_final` is set, in which case the walk
    /// restarts from `q0` (repeated task life cycles). A walk whose `q0`
    /// is itself absorbing (the language {ε}) ends at once either way: a
    /// restart there could emit nothing.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, opts: GenerateOptions) -> Vec<Sym> {
        let mut pattern = Vec::with_capacity(opts.size);
        self.generate_into(rng, opts, &mut pattern);
        pattern
    }

    /// [`Pfa::generate`] into a caller-owned buffer: clears `pattern` and
    /// fills it with one walk. Trial loops that generate thousands of
    /// patterns reuse one buffer per worker instead of allocating a fresh
    /// `Vec` per pattern — the zero-allocation hot path.
    pub fn generate_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        opts: GenerateOptions,
        pattern: &mut Vec<Sym>,
    ) {
        pattern.clear();
        pattern.reserve(opts.size);
        let mut q = self.start;
        while pattern.len() < opts.size {
            match self.make_choice(rng, q) {
                Some((sym, next)) => {
                    pattern.push(sym);
                    q = next;
                }
                // The walk starts at `q0`, so `q == q0` here means `q0` is
                // absorbing and a restart could emit nothing.
                None if opts.restart_on_final && q != self.start => q = self.start,
                None => break,
            }
        }
    }

    /// The probability of the PFA emitting exactly this symbol sequence
    /// along its (deterministic) path; 0 if the sequence leaves the
    /// skeleton.
    #[must_use]
    pub fn sequence_probability(&self, seq: &[Sym]) -> f64 {
        let mut q = self.start;
        let mut p = 1.0;
        for &sym in seq {
            let Some(&(_, target, prob)) = self.transitions[q].iter().find(|(s, _, _)| *s == sym)
            else {
                return 0.0;
            };
            p *= prob;
            q = target;
        }
        p
    }

    /// Expected number of symbols until absorption, by fixed-point
    /// iteration on `E[q] = 1 + Σ p·E[q′]`. Returns `None` if the
    /// expectation does not converge within `max_iter` iterations (e.g. a
    /// probability-1 cycle that never reaches a final state).
    #[must_use]
    pub fn expected_pattern_length(&self, max_iter: usize, tol: f64) -> Option<f64> {
        let n = self.transitions.len();
        let mut e = vec![0.0f64; n];
        for _ in 0..max_iter {
            let mut next = vec![0.0f64; n];
            let mut delta: f64 = 0.0;
            for q in 0..n {
                if self.transitions[q].is_empty() {
                    next[q] = 0.0;
                } else {
                    let mut acc = 1.0;
                    for &(_, target, p) in &self.transitions[q] {
                        acc += p * e[target];
                    }
                    next[q] = acc;
                }
                delta = delta.max((next[q] - e[q]).abs());
            }
            e = next;
            if delta < tol {
                return Some(e[self.start]);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn fig3() -> (Regex, Pfa) {
        let re = Regex::parse("(a c* d) | b").unwrap();
        let dfa = Dfa::from_regex(&re).minimize();
        let pd = ProbabilityAssignment::weights([("a", 0.6), ("b", 0.4), ("c", 0.3), ("d", 0.7)]);
        let pfa = Pfa::from_dfa(&dfa, re.alphabet().clone(), &pd).unwrap();
        (re, pfa)
    }

    #[test]
    fn fig3_probabilities_match_paper() {
        let (re, pfa) = fig3();
        let a = re.alphabet().sym("a").unwrap();
        let b = re.alphabet().sym("b").unwrap();
        let c = re.alphabet().sym("c").unwrap();
        let d = re.alphabet().sym("d").unwrap();
        let q0 = pfa.start();
        assert!((pfa.probability(q0, a) - 0.6).abs() < 1e-12);
        assert!((pfa.probability(q0, b) - 0.4).abs() < 1e-12);
        let q1 = pfa
            .transitions_from(q0)
            .iter()
            .find(|(s, _, _)| *s == a)
            .map(|(_, t, _)| *t)
            .unwrap();
        assert!((pfa.probability(q1, c) - 0.3).abs() < 1e-12);
        assert!((pfa.probability(q1, d) - 0.7).abs() < 1e-12);
        pfa.validate().unwrap();
    }

    #[test]
    fn sequence_probabilities_multiply() {
        let (re, pfa) = fig3();
        let sym = |n: &str| re.alphabet().sym(n).unwrap();
        let p_b = pfa.sequence_probability(&[sym("b")]);
        assert!((p_b - 0.4).abs() < 1e-12);
        let p_ad = pfa.sequence_probability(&[sym("a"), sym("d")]);
        assert!((p_ad - 0.6 * 0.7).abs() < 1e-12);
        let p_acd = pfa.sequence_probability(&[sym("a"), sym("c"), sym("d")]);
        assert!((p_acd - 0.6 * 0.3 * 0.7).abs() < 1e-12);
        assert_eq!(pfa.sequence_probability(&[sym("b"), sym("b")]), 0.0);
    }

    #[test]
    fn generated_patterns_follow_the_skeleton() {
        let (re, pfa) = fig3();
        let dfa = Dfa::from_regex(&re).minimize();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..500 {
            let p = pfa.generate(&mut rng, GenerateOptions::sized(16));
            assert!(
                dfa.is_valid_prefix(&p),
                "illegal pattern {:?}",
                re.alphabet().render(&p)
            );
            // Absorption means every completed fig-3 walk is a full word.
            assert!(
                dfa.accepts(&p),
                "fig3 walks always absorb: {:?}",
                re.alphabet().render(&p)
            );
        }
    }

    #[test]
    fn empirical_branch_frequencies_approach_pd() {
        let (re, pfa) = fig3();
        let a = re.alphabet().sym("a").unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut starts_with_a = 0;
        for _ in 0..n {
            let p = pfa.generate(&mut rng, GenerateOptions::sized(64));
            if p.first() == Some(&a) {
                starts_with_a += 1;
            }
        }
        let freq = f64::from(starts_with_a) / f64::from(n);
        assert!((freq - 0.6).abs() < 0.02, "empirical {freq} vs 0.6");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (_, pfa) = fig3();
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            assert_eq!(
                pfa.generate(&mut r1, GenerateOptions::sized(32)),
                pfa.generate(&mut r2, GenerateOptions::sized(32))
            );
        }
    }

    #[test]
    fn cyclic_generation_fills_requested_size() {
        let (_, pfa) = fig3();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let p = pfa.generate(&mut rng, GenerateOptions::cyclic(40));
            assert_eq!(p.len(), 40);
        }
    }

    #[test]
    fn expected_length_matches_analytic_value() {
        let (_, pfa) = fig3();
        // E = P(b)*1 + P(a)*(1 + E_q1); E_q1 = 1/(1-0.3) = 1/0.7.
        let analytic = 0.4 + 0.6 * (1.0 + 1.0 / 0.7);
        let e = pfa.expected_pattern_length(10_000, 1e-12).unwrap();
        assert!((e - analytic).abs() < 1e-9, "{e} vs {analytic}");
    }

    #[test]
    fn uniform_assignment_splits_evenly() {
        let re = Regex::pcore_task_lifecycle();
        let dfa = Dfa::from_regex(&re).minimize();
        let pfa =
            Pfa::from_dfa(&dfa, re.alphabet().clone(), &ProbabilityAssignment::Uniform).unwrap();
        let running = {
            let (_, t, p) = pfa.transitions_from(pfa.start())[0];
            assert!((p - 1.0).abs() < 1e-12, "TC is the only start transition");
            t
        };
        // running has 4 outgoing (TCH, TS, TD, TY) at 0.25 each.
        let out = pfa.transitions_from(running);
        assert_eq!(out.len(), 4);
        for &(_, _, p) in out {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn explicit_assignment_must_cover_and_normalize() {
        let re = Regex::parse("a | b").unwrap();
        let dfa = Dfa::from_regex(&re).minimize();
        let mut map = HashMap::new();
        map.insert((dfa.start(), "a".to_owned()), 0.5);
        let err = Pfa::from_dfa(
            &dfa,
            re.alphabet().clone(),
            &ProbabilityAssignment::Explicit(map.clone()),
        )
        .unwrap_err();
        assert!(matches!(err, PfaError::MissingProbability { .. }));

        map.insert((dfa.start(), "b".to_owned()), 0.2);
        let err = Pfa::from_dfa(
            &dfa,
            re.alphabet().clone(),
            &ProbabilityAssignment::Explicit(map.clone()),
        )
        .unwrap_err();
        assert!(matches!(err, PfaError::NotNormalized { .. }));

        map.insert((dfa.start(), "b".to_owned()), 0.5);
        let pfa = Pfa::from_dfa(
            &dfa,
            re.alphabet().clone(),
            &ProbabilityAssignment::Explicit(map),
        )
        .unwrap();
        pfa.validate().unwrap();
    }

    #[test]
    fn negative_weight_rejected() {
        let re = Regex::parse("a | b").unwrap();
        let dfa = Dfa::from_regex(&re).minimize();
        let err = Pfa::from_dfa(
            &dfa,
            re.alphabet().clone(),
            &ProbabilityAssignment::weights([("a", -1.0), ("b", 1.0)]),
        )
        .unwrap_err();
        assert!(matches!(err, PfaError::BadWeight { .. }));
    }

    #[test]
    fn spinning_pfa_expected_length_diverges() {
        // a* b with P(a) → 1 cycle never absorbs if we weight b to ~0...
        // Build a pure cycle instead: `a a*`? Simplest: a* where the star
        // state is final, so absorption happens only via the stop choice —
        // with SymbolWeights the self-loop keeps probability 1 and the
        // expectation diverges.
        let re = Regex::parse("a a*").unwrap();
        let dfa = Dfa::from_regex(&re).minimize();
        let pfa =
            Pfa::from_dfa(&dfa, re.alphabet().clone(), &ProbabilityAssignment::Uniform).unwrap();
        // State after `a` is accepting but has a self-loop with p=1.0; the
        // walk never stops by itself.
        assert_eq!(pfa.expected_pattern_length(1_000, 1e-12), None);
    }

    /// An RNG that answers every draw with one chosen word and counts the
    /// draws, so a test picks the exact roll `make_choice` sees: the word
    /// `j << 11` reads as the roll `j / 2^53`.
    struct FixedRoll {
        word: u64,
        draws: usize,
    }

    impl RngCore for FixedRoll {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.word
        }
    }

    /// Rolls are multiples of `2^-53`; `ROLL_STEPS` of them cover `[0, 1)`.
    const ROLL_STEPS: u64 = 1 << 53;

    /// A one-state PFA whose self-loops carry exactly `probabilities`,
    /// unnormalized, so degenerate sums reach `make_choice` as written.
    fn one_state(probabilities: &[f64]) -> Pfa {
        let transitions = probabilities
            .iter()
            .enumerate()
            .map(|(k, &p)| (Sym(k as u16), 0, p))
            .collect();
        Pfa {
            alphabet: Alphabet::new(),
            transitions: vec![transitions],
            accepting: vec![true],
            start: 0,
        }
    }

    /// Algorithm 2's scan, restated: the first transition whose
    /// cumulative sum exceeds the roll, else the last one.
    fn scan(probabilities: &[f64], roll: f64) -> usize {
        let mut acc = 0.0;
        for (k, &p) in probabilities.iter().enumerate() {
            acc += p;
            if roll < acc {
                return k;
            }
        }
        probabilities.len() - 1
    }

    /// `make_choice` on a dense grid of rolls and on the representable
    /// rolls at and next to every cumulative boundary: each picks the
    /// transition the restated scan picks, with exactly one draw.
    fn assert_identical_on_grid(probabilities: &[f64]) {
        let pfa = one_state(probabilities);
        let grid = 1u64 << 14;
        let mut steps: Vec<u64> = (0..grid).map(|j| j * (ROLL_STEPS / grid)).collect();
        let mut acc = 0.0;
        for &p in probabilities {
            acc += p;
            let at = (acc * ROLL_STEPS as f64) as u64;
            steps.extend([at.saturating_sub(1), at, at + 1]);
        }
        for step in steps.into_iter().filter(|&j| j < ROLL_STEPS) {
            let roll = step as f64 / ROLL_STEPS as f64;
            let mut rng = FixedRoll {
                word: step << 11,
                draws: 0,
            };
            let expected = Sym(scan(probabilities, roll) as u16);
            assert_eq!(
                pfa.make_choice(&mut rng, 0),
                Some((expected, 0)),
                "roll {roll} over {probabilities:?}"
            );
            assert_eq!(rng.draws, 1);
        }
    }

    #[test]
    fn uniform_distributions_match_reference() {
        for n in 2..=9 {
            assert_identical_on_grid(&vec![1.0 / n as f64; n]);
        }
    }

    #[test]
    fn skewed_distributions_match_reference() {
        assert_identical_on_grid(&[0.6, 0.4]);
        assert_identical_on_grid(&[0.3, 0.7]);
        assert_identical_on_grid(&[0.6, 0.2, 0.1, 0.1]);
        assert_identical_on_grid(&[0.05, 0.9, 0.05]);
        assert_identical_on_grid(&[0.97, 0.01, 0.01, 0.01]);
    }

    #[test]
    fn unnormalized_sums_keep_the_last_transition_fallback() {
        // Floating-point slack can leave the sum slightly below 1; rolls
        // beyond it take the last transition.
        assert_identical_on_grid(&[0.1, 0.2, 0.7 - 1e-12]);
    }

    #[test]
    fn all_minimum_probability_states_match_reference() {
        // Every transition at the same tiny mass: the cumulative range
        // collapses near 0 and almost every roll takes the fallback.
        for n in 2..=12 {
            assert_identical_on_grid(&vec![1e-9; n]);
            assert_identical_on_grid(&vec![1e-300; n]);
            assert_identical_on_grid(&vec![1.0 / n as f64; n]);
        }
    }

    #[test]
    fn single_outcome_states_sample_totally() {
        // Out-degree 0 and 1 states make no probabilistic choice: they
        // answer without drawing a roll, whatever the RNG holds.
        for word in [0, ROLL_STEPS / 4, ROLL_STEPS - 1].map(|j| j << 11) {
            let mut rng = FixedRoll { word, draws: 0 };
            assert_eq!(one_state(&[]).make_choice(&mut rng, 0), None);
            assert_eq!(
                one_state(&[1.0]).make_choice(&mut rng, 0),
                Some((Sym(0), 0))
            );
            assert_eq!(rng.draws, 0);
        }
    }
}
