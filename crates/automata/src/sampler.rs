//! O(1) transition sampling: a Walker-style alias table that is
//! **exactly** stream-identical to Algorithm 2's cumulative scan.
//!
//! `MakeChoice` historically resolved a uniform roll `r ∈ [0, 1)` by
//! scanning the state's transition list and accumulating probabilities —
//! O(out-degree) per emitted symbol. This module compiles each state's
//! distribution into a bucket table at [`Pfa`](crate::Pfa) construction
//! so the common case is a single indexed lookup.
//!
//! ## Exactness, not resemblance
//!
//! A textbook alias table repartitions probability mass across buckets,
//! which changes *which* outcome a given roll maps to — breaking
//! seed-for-seed reproducibility against the retained reference sampler.
//! This table is built differently: the unit interval is cut into
//! `m = 2^k` equal buckets (`m ≥ 2·out_degree`), and each bucket stores
//! the reference scan's own cumulative partial sums as its split point.
//! Because `m` is a power of two and rolls are dyadic rationals
//! (`rng.random::<f64>()` yields `j/2^53`), the bucket index
//! `⌊r·m⌋` is computed without rounding error, and every comparison a
//! lookup performs is a comparison the reference scan would also have
//! performed — so for every representable roll the sampled transition is
//! **identical** to the reference implementation's, by construction.
//!
//! Buckets fall into three cases:
//!
//! * no cumulative boundary inside the bucket → every roll in it maps to
//!   one outcome (stored; zero comparisons beyond the split test);
//! * exactly one distinct boundary → the bucket is a two-outcome alias
//!   cell: `roll < split ? left : right`;
//! * two or more boundaries (only possible when several near-zero
//!   probabilities crowd within `1/m`) → the bucket degrades to a guide
//!   table: the scan resumes from the bucket's first outcome, which is
//!   still exactly the reference result because cumulative sums are
//!   monotone.
//!
//! The stream-identity property is pinned by dense-grid unit tests here
//! and by the `alias_sampler_stream_identical_*` property tests in the
//! crate root.

/// Out-degree at which the alias table takes over from the inline
/// cumulative scan. Below this, the branchy early-exit scan wins on real
/// hardware: the paper's distributions are small and skewed (e.g. the
/// pCore running state, 4-way at 0.6/0.2/0.1/0.1), so the scan exits
/// after ~1.7 predicted iterations while a table lookup stalls on a
/// dependent memory load. Measured on 4- and 16-way fan-out PFAs: the
/// scan is ~25% faster at out-degree 4, the table ~20% faster at 16.
pub(crate) const ALIAS_MIN_OUT_DEGREE: usize = 8;

/// Sentinel in [`Bucket::right`]: resolve by scanning `cum` from `left`.
const SCAN: u32 = u32::MAX;

/// One bucket of the table: rolls in `[i/m, (i+1)/m)` resolve to `left`
/// when `roll < split`, to `right` otherwise (or by a short guided scan
/// when `right == SCAN`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bucket {
    split: f64,
    left: u32,
    right: u32,
}

/// The compiled sampler of one PFA state with out-degree ≥ 2.
///
/// States with zero or one outgoing transition never consume randomness
/// (Algorithm 2 lines 10–13) and carry an empty table.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct AliasTable {
    /// Cumulative partial sums of the transition probabilities, in
    /// transition order, folded exactly like the reference scan folds
    /// them (`acc += p`) so comparisons agree bit-for-bit.
    cum: Vec<f64>,
    /// Bucket count as `f64` (`m`), precomputed so the hot path never
    /// pays an integer→float conversion.
    scale: f64,
    buckets: Vec<Bucket>,
}

impl AliasTable {
    /// Compiles the table for one state's transition probabilities.
    /// Returns an empty table for out-degrees 0 and 1 (never sampled).
    pub(crate) fn build(probabilities: &[f64]) -> AliasTable {
        let n = probabilities.len();
        if n < 2 {
            return AliasTable::default();
        }
        // The reference fold: cum[k] = p_0 + p_1 + … + p_k in order.
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for &p in probabilities {
            acc += p;
            cum.push(acc);
        }
        let m = (2 * n).next_power_of_two();
        let m_f = m as f64;
        let outcome_at = |x: f64| AliasTable::reference_outcome(&cum, x);
        let mut buckets = Vec::with_capacity(m);
        for i in 0..m {
            // Exact: m is a power of two, so these divisions only shift
            // the exponent.
            let lo = i as f64 / m_f;
            let hi = (i + 1) as f64 / m_f;
            let left = outcome_at(lo);
            // Distinct cumulative boundaries strictly inside (lo, hi);
            // only cum[0..n-1] can change the outcome (the final sum
            // cannot — beyond it the reference takes the last transition
            // either way).
            let mut boundary: Option<f64> = None;
            let mut crowded = false;
            for &c in &cum[..n - 1] {
                if lo < c && c < hi {
                    match boundary {
                        None => boundary = Some(c),
                        Some(b) if b == c => {}
                        Some(_) => {
                            crowded = true;
                            break;
                        }
                    }
                }
            }
            let bucket = if crowded {
                Bucket {
                    split: f64::NEG_INFINITY,
                    left,
                    right: SCAN,
                }
            } else if let Some(b) = boundary {
                Bucket {
                    split: b,
                    left,
                    right: outcome_at(b),
                }
            } else {
                Bucket {
                    split: f64::INFINITY,
                    left,
                    right: left,
                }
            };
            buckets.push(bucket);
        }
        AliasTable {
            cum,
            scale: m_f,
            buckets,
        }
    }

    /// Whether the table was compiled (out-degree ≥ 2).
    pub(crate) fn is_compiled(&self) -> bool {
        !self.buckets.is_empty()
    }

    /// The reference scan's answer for roll `x` over cumulative sums
    /// `cum`, spelled out so its equivalence to
    /// [`Pfa::make_choice_reference`](crate::Pfa::make_choice_reference)
    /// is structural rather than incidental.
    ///
    /// The reference scans *all* `n` entries for the first `k` with
    /// `x < cum[k]` and falls back to the last transition when none
    /// matches. This form scans only `cum[..n-1]` and clamps `None` to
    /// `n - 1`; the two agree on **every** `x`, including degenerate
    /// tails, because index `n - 1` is the answer either way once
    /// `cum[..n-1]` has no entry above `x`:
    ///
    /// * if `x < cum[n-1]`, the reference's final iteration returns
    ///   `n - 1`;
    /// * if `x >= cum[n-1]` — reachable when the sums are
    ///   under-normalized, e.g. an all-minimum-probability state whose
    ///   total mass rounds below 1 — the reference's fallback returns
    ///   `n - 1` too.
    ///
    /// Duplicated cumulative values (zero-width segments from
    /// minimum-probability flooring) are also handled identically: both
    /// forms skip every segment with `cum[k] <= x`, so a roll landing on
    /// a duplicated boundary resolves past the entire zero-width run,
    /// exactly like the reference. The property test
    /// `alias_table_matches_the_reference_scan_on_degenerate_tails`
    /// pins all of this against the reference semantics.
    fn reference_outcome(cum: &[f64], x: f64) -> u32 {
        let n = cum.len();
        match cum[..n - 1].iter().position(|&c| x < c) {
            Some(k) => k as u32,
            None => (n - 1) as u32,
        }
    }

    /// Resolves `roll ∈ [0, 1)` to a transition index — the same index
    /// the reference cumulative scan returns for the same roll.
    ///
    /// The common path is branch-light on purpose: the two-way bucket
    /// resolve compiles to a conditional move (no data-dependent branch
    /// to mispredict), and the only real branch — the guided-scan
    /// fallback for crowded buckets — is rare and predictably not taken.
    #[inline]
    pub(crate) fn sample(&self, roll: f64) -> usize {
        // Single-outcome (and empty) states have no compiled table and
        // no probabilistic choice to make: the only sound answer is
        // transition 0. `Pfa::make_choice` never reaches here for them
        // (it short-circuits out-degree ≤ 1), but the table is total
        // anyway — an uncompiled table must not index below zero.
        if !self.is_compiled() {
            return 0;
        }
        // Exact for dyadic rolls; min() guards hypothetical roll == 1.0.
        let i = ((roll * self.scale) as usize).min(self.buckets.len() - 1);
        let b = self.buckets[i];
        let idx = if roll < b.split { b.left } else { b.right };
        if idx != SCAN {
            return idx as usize;
        }
        // Guided reference scan from the bucket's first outcome. SCAN
        // buckets carry `split == -inf`, so `left` (the guide index) is
        // never selected by the resolve above.
        let n = self.cum.len();
        let mut k = b.left as usize;
        while k < n - 1 && roll >= self.cum[k] {
            k += 1;
        }
        k
    }

    /// Bucket count of the compiled table (0 for 0/1-out states).
    #[cfg(test)]
    fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// How many buckets degraded to guided scans.
    #[cfg(test)]
    fn scan_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| b.right == SCAN).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retained reference semantics, spelled out independently of
    /// `Pfa::make_choice_reference` so this module is self-checking.
    fn reference(probabilities: &[f64], roll: f64) -> usize {
        let mut acc = 0.0;
        for (k, &p) in probabilities.iter().enumerate() {
            acc += p;
            if roll < acc {
                return k;
            }
        }
        probabilities.len() - 1
    }

    /// Dense dyadic grid plus the exact boundary values and their
    /// neighbours — the rolls where alias/reference disagreement would
    /// hide.
    fn assert_identical_on_grid(probabilities: &[f64]) {
        let table = AliasTable::build(probabilities);
        assert!(table.is_compiled());
        let grid = 1 << 14;
        for j in 0..grid {
            let roll = j as f64 / grid as f64;
            assert_eq!(
                table.sample(roll),
                reference(probabilities, roll),
                "roll {roll} over {probabilities:?}"
            );
        }
        let mut acc = 0.0;
        for &p in probabilities {
            acc += p;
            for roll in [acc.next_down(), acc, acc.next_up()] {
                if (0.0..1.0).contains(&roll) {
                    assert_eq!(
                        table.sample(roll),
                        reference(probabilities, roll),
                        "boundary roll {roll} over {probabilities:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_and_one_out_states_have_no_table() {
        assert!(!AliasTable::build(&[]).is_compiled());
        assert!(!AliasTable::build(&[1.0]).is_compiled());
    }

    #[test]
    fn uniform_distributions_match_reference() {
        for n in 2..=9 {
            let probabilities = vec![1.0 / n as f64; n];
            assert_identical_on_grid(&probabilities);
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
    fn near_zero_weights_degrade_to_guided_scan_and_stay_identical() {
        // Several boundaries crowd into single buckets: the degenerate
        // case the guide fallback exists for.
        let tiny = 1e-12;
        let head = 1.0 - 6.0 * tiny;
        let probabilities = [head, tiny, tiny, tiny, tiny, tiny, tiny];
        let table = AliasTable::build(&probabilities);
        assert!(
            table.scan_buckets() > 0,
            "crowded boundaries must produce scan buckets"
        );
        assert_identical_on_grid(&probabilities);
    }

    #[test]
    fn bucket_count_is_a_power_of_two_at_least_twice_the_out_degree() {
        for n in 2..=17 {
            let table = AliasTable::build(&vec![1.0 / n as f64; n]);
            let m = table.bucket_count();
            assert!(m.is_power_of_two());
            assert!(m >= 2 * n);
        }
    }

    #[test]
    fn unnormalized_sums_keep_the_last_transition_fallback() {
        // Floating-point slack can leave cum[n-1] slightly below 1; rolls
        // beyond it must take the last transition, like the reference.
        let probabilities = [0.1, 0.2, 0.7 - 1e-12];
        assert_identical_on_grid(&probabilities);
    }

    #[test]
    fn all_minimum_probability_states_match_reference() {
        // Every transition at the same tiny mass: the whole cumulative
        // range collapses near 0 and almost every roll exercises the
        // `None => n - 1` clamp. Both the literally-degenerate
        // unnormalized form and its floored/renormalized cousins must
        // track the reference exactly.
        for n in 2..=12 {
            assert_identical_on_grid(&vec![1e-9; n]);
            assert_identical_on_grid(&vec![1e-300; n]);
            assert_identical_on_grid(&vec![1.0 / n as f64; n]);
        }
    }

    #[test]
    fn single_outcome_states_sample_totally() {
        // Out-degree 0/1 states never consume randomness, but the table
        // must still be total: a hypothetical lookup resolves to the only
        // transition instead of underflowing the bucket index.
        for table in [AliasTable::build(&[]), AliasTable::build(&[1.0])] {
            assert!(!table.is_compiled());
            for roll in [0.0, 0.25, 0.999] {
                assert_eq!(table.sample(roll), 0);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `Pfa::make_choice_reference`'s scan, restated over a cumulative
    /// array (it folds `acc += p; roll < acc` in transition order and
    /// falls back to the last transition).
    fn reference(probabilities: &[f64], roll: f64) -> usize {
        let mut acc = 0.0;
        for (k, &p) in probabilities.iter().enumerate() {
            acc += p;
            if roll < acc {
                return k;
            }
        }
        probabilities.len() - 1
    }

    /// Distributions biased toward the degenerate corners the clamp has
    /// to survive: every mass an arbitrary power of ten down to
    /// subnormal territory, including all-equal-minimum vectors and
    /// single-outcome states.
    fn arb_degenerate() -> impl Strategy<Value = Vec<f64>> {
        prop_oneof![
            // All transitions at one shared minimum mass.
            (1usize..12, 1i32..320).prop_map(|(n, e)| vec![f64::powi(10.0, -e); n]),
            // One dominant mass with a minimum-probability tail.
            (2usize..12, 1i32..320).prop_map(|(n, e)| {
                let tiny = f64::powi(10.0, -e);
                let mut v = vec![tiny; n];
                v[0] = 1.0 - tiny * (n as f64 - 1.0);
                v
            }),
            // Arbitrary positive masses (normalized and not).
            proptest::collection::vec(1u32..1_000, 1..12)
                .prop_map(|ws| ws.into_iter().map(f64::from).collect()),
        ]
    }

    proptest! {
        /// The satellite pin: for degenerate tails — all-minimum-
        /// probability and single-outcome states — every dyadic roll
        /// resolves through the alias table to exactly the outcome
        /// `make_choice_reference`'s scan yields.
        #[test]
        fn alias_table_matches_the_reference_scan_on_degenerate_tails(
            probabilities in arb_degenerate(),
            grid_seed in 0u64..1_000,
        ) {
            let table = AliasTable::build(&probabilities);
            // Deterministic pseudo-grid of dyadic rolls derived from the
            // seed, plus every cumulative boundary's neighbourhood.
            let mut x = grid_seed;
            for _ in 0..256 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let roll = (x >> 11) as f64 / (1u64 << 53) as f64;
                prop_assert_eq!(
                    table.sample(roll),
                    reference(&probabilities, roll),
                    "roll {} over {:?}", roll, &probabilities
                );
            }
            let mut acc = 0.0;
            for &p in &probabilities {
                acc += p;
                for roll in [acc.next_down(), acc, acc.next_up()] {
                    if (0.0..1.0).contains(&roll) {
                        prop_assert_eq!(
                            table.sample(roll),
                            reference(&probabilities, roll),
                            "boundary {} over {:?}", roll, &probabilities
                        );
                    }
                }
            }
        }
    }
}
