//! # ptest-automata — regular expressions, NFAs, DFAs and PFAs
//!
//! The pattern generator of pTest (paper §III) interprets a regular
//! expression over slave-system services, converts it to an NFA, attaches
//! a probability distribution to obtain a **probabilistic finite-state
//! automaton** (PFA, Definition 1), and walks the PFA to emit test
//! patterns (Algorithm 2). This crate is that pipeline:
//!
//! ```text
//! Regex::parse ──► Nfa::from_regex ──► Dfa::from_nfa (+ minimize)
//!                                        │
//!                 ProbabilityAssignment ─┴─► Pfa::from_dfa ──► generate
//! ```
//!
//! * [`Regex`] — whitespace-separated symbol regexes; parses the paper's
//!   Eq. 2 verbatim.
//! * [`Nfa`] — Thompson construction with ε-transitions.
//! * [`Dfa`] — subset construction plus partition-refinement
//!   minimization; doubles as the *legality oracle* for generated
//!   patterns.
//! * [`Pfa`] — Definition 1 with Eq. 1 validation, `MakeChoice` sampling,
//!   sequence probabilities and expected pattern length.
//! * [`train`] — learning a [`ProbabilityAssignment`] from profiled
//!   traces (the paper's "learned through system profiling").
//!
//! ## Example: the paper's Figure 3
//!
//! ```
//! use ptest_automata::{Dfa, GenerateOptions, Pfa, ProbabilityAssignment, Regex};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let re = Regex::parse("(a c* d) | b")?;
//! let dfa = Dfa::from_regex(&re).minimize();
//! let pd = ProbabilityAssignment::weights([("a", 0.6), ("b", 0.4), ("c", 0.3), ("d", 0.7)]);
//! let pfa = Pfa::from_dfa(&dfa, re.alphabet().clone(), &pd)?;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2009);
//! let pattern = pfa.generate(&mut rng, GenerateOptions::sized(8));
//! assert!(dfa.is_valid_prefix(&pattern));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod dfa;
pub mod dot;
mod nfa;
mod pfa;
mod regex;
pub mod train;

pub use alphabet::{Alphabet, Sym};
pub use dfa::{Dfa, DfaStateId};
pub use dot::{dfa_to_dot, pfa_to_dot};
pub use nfa::{Nfa, NfaStateId};
pub use pfa::{GenerateOptions, Pfa, PfaError, ProbabilityAssignment};
pub use regex::{Ast, ParseRegexError, Regex};
pub use train::{learn_assignment, TrainError, TransitionCounts};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::Regex>();
        assert_send_sync::<super::Nfa>();
        assert_send_sync::<super::Dfa>();
        assert_send_sync::<super::Pfa>();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Strategy: random regexes over a 4-symbol alphabet, depth-bounded.
    fn arb_regex_src() -> impl Strategy<Value = String> {
        let leaf = prop_oneof![
            Just("a".to_owned()),
            Just("b".to_owned()),
            Just("c".to_owned()),
            Just("d".to_owned()),
        ];
        leaf.prop_recursive(4, 32, 3, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} {r})")),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| format!("({l} | {r})")),
                inner.clone().prop_map(|x| format!("({x})*")),
                inner.prop_map(|x| format!("({x})?")),
            ]
        })
    }

    proptest! {
        /// The DFA accepts exactly what the NFA accepts, on random words.
        #[test]
        fn dfa_equals_nfa(src in arb_regex_src(), word in proptest::collection::vec(0u16..4, 0..12)) {
            let re = Regex::parse(&src).unwrap();
            let nfa = Nfa::from_regex(&re);
            let dfa = Dfa::from_regex(&re);
            let min = dfa.minimize();
            // Map word indices onto interned symbols (skip unknown ones).
            let seq: Vec<Sym> = word
                .iter()
                .filter_map(|&i| re.alphabet().name(Sym(i)).map(|_| Sym(i)))
                .collect();
            prop_assert_eq!(nfa.accepts(&seq), dfa.accepts(&seq));
            prop_assert_eq!(dfa.accepts(&seq), min.accepts(&seq));
        }

        /// Every PFA built on a random skeleton passes Eq. 1 validation,
        /// and every generated pattern is a valid prefix of the language;
        /// a cyclic one is a run of such walks, each restarted only at
        /// an absorbing final state, and fills its size.
        #[test]
        fn generated_patterns_are_valid_prefixes(
            src in arb_regex_src(),
            seed in 0u64..1_000,
            cyclic in any::<bool>(),
        ) {
            let re = Regex::parse(&src).unwrap();
            let dfa = Dfa::from_regex(&re).minimize();
            let pfa = match Pfa::from_dfa(&dfa, re.alphabet().clone(), &ProbabilityAssignment::Uniform) {
                Ok(p) => p,
                Err(PfaError::DeadNonFinal { .. }) => return Ok(()), // degenerate skeleton
                Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
            };
            pfa.validate().unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            if !cyclic {
                let pattern = pfa.generate(&mut rng, GenerateOptions::sized(24));
                prop_assert!(dfa.is_valid_prefix(&pattern));
                return Ok(());
            }
            let pattern = pfa.generate(&mut rng, GenerateOptions::cyclic(24));
            // Every generated language holds a nonempty word, so `q0`
            // branches and every restart emits.
            prop_assert_eq!(pattern.len(), 24);
            let mut q = dfa.start();
            for &sym in &pattern {
                if dfa.transitions_from(q).is_empty() {
                    prop_assert!(dfa.is_accepting(q));
                    q = dfa.start();
                }
                let next = dfa.next(q, sym);
                prop_assert!(next.is_some(), "{} leaves the skeleton", re.alphabet().render(&pattern));
                q = next.unwrap();
            }
        }

        /// Sequence probability of a generated pattern is positive.
        #[test]
        fn generated_patterns_have_positive_probability(seed in 0u64..2_000) {
            let re = Regex::pcore_task_lifecycle();
            let dfa = Dfa::from_regex(&re).minimize();
            let pfa = Pfa::from_dfa(&dfa, re.alphabet().clone(), &ProbabilityAssignment::Uniform).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let pattern = pfa.generate(&mut rng, GenerateOptions::sized(16));
            prop_assert!(pfa.sequence_probability(&pattern) > 0.0);
        }
    }
}
