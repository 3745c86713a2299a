//! Seed-derivation streams shared by every exploration axis.
//!
//! Each trial of the adaptive tester is addressed by a seed *quadruple*
//! `(pattern, schedule, memory, irq)`; recording the quadruple replays
//! the trial bit-for-bit. The streams that derive the quadruple from a
//! single pattern seed (or, in campaigns, from a master seed and a
//! `(round, trial)` index) were historically scattered across
//! `ptest-master`, `ptest-core` and `ptest-campaign`, each crate
//! re-declaring the same splitmix64 finalizer. This module is the single
//! home of all of them: the upper layers re-export these functions under
//! their historical paths, and the unit tests below pin every stream
//! byte-identical to the values those scattered copies produced.
//!
//! All derivations are built on splitmix64 (Vigna's fixed-increment
//! SplitMix finalizer): statistically decorrelated output even for
//! adjacent inputs, collision-free over the index ranges campaigns use
//! in practice, dependency-free, and identical on every platform.

/// One round of the splitmix64 output function over an arbitrary seed.
///
/// Used wherever a single decorrelated value is needed from a
/// structured input (seed XOR stream-constant, mixed indices, …).
#[must_use]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advances a splitmix64 generator state and returns the next output.
///
/// This is the sequential form used by seeded generators (priority
/// draws, change-point draws, interrupt plans): the state advances by
/// the golden-gamma increment and each output is the finalizer of the
/// new state.
#[must_use]
pub fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the default *schedule* seed of a trial from its pattern seed.
///
/// Used when a configuration carries no explicit schedule seed: the
/// schedule stream is decorrelated from the pattern stream so related
/// pattern seeds still explore unrelated schedules.
#[must_use]
pub fn derived_schedule_seed(seed: u64) -> u64 {
    const SCHEDULE_STREAM: u64 = 0xC2B2_AE3D_27D4_EB4F;
    splitmix64(seed ^ SCHEDULE_STREAM)
}

/// Derives the default *memory* seed of a trial from its pattern seed,
/// on a third stream decorrelated from both the pattern and the
/// schedule streams.
#[must_use]
pub fn derived_memory_seed(seed: u64) -> u64 {
    const MEMORY_STREAM: u64 = 0xD6E8_FEB8_6659_FD93;
    splitmix64(seed ^ MEMORY_STREAM)
}

/// Derives the default *interrupt/preemption* seed of a trial from its
/// pattern seed — the fourth stream of the replay quadruple, feeding
/// interrupt plans and clock-skew rates. Decorrelated from the pattern,
/// schedule and memory streams.
#[must_use]
pub fn derived_irq_seed(seed: u64) -> u64 {
    const IRQ_STREAM: u64 = 0xA076_1D64_78BD_642F;
    splitmix64(seed ^ IRQ_STREAM)
}

/// Derives the pattern seed of `trial` in `round` of a campaign from
/// the campaign's master seed (splitmix64 over the indices —
/// decorrelated, collision-free in practice, and stable across
/// platforms).
#[must_use]
pub fn campaign_trial_seed(master_seed: u64, round: usize, trial: usize) -> u64 {
    const ROUND_STRIDE: u64 = 0xA24B_AED4_963E_E407;
    let mixed = splitmix64(master_seed ^ (round as u64).wrapping_mul(ROUND_STRIDE));
    splitmix64(mixed ^ trial as u64)
}

/// Derives the *schedule* seed of `trial` in `round` from the master
/// seed — a stream independent of [`campaign_trial_seed`], so the
/// campaign explores (pattern × schedule) space rather than a diagonal
/// of it.
#[must_use]
pub fn campaign_schedule_seed(master_seed: u64, round: usize, trial: usize) -> u64 {
    const SCHEDULE_STRIDE: u64 = 0x9FB2_1C65_1E98_DF25;
    let mixed = splitmix64(master_seed ^ SCHEDULE_STRIDE ^ (round as u64).rotate_left(17));
    splitmix64(mixed ^ (trial as u64).wrapping_mul(SCHEDULE_STRIDE))
}

/// Derives the *memory* seed of `trial` in `round` from the master seed
/// — a third campaign stream, independent of both
/// [`campaign_trial_seed`] and [`campaign_schedule_seed`].
#[must_use]
pub fn campaign_memory_seed(master_seed: u64, round: usize, trial: usize) -> u64 {
    const MEMORY_STRIDE: u64 = 0x2545_F491_4F6C_DD1D;
    let mixed = splitmix64(master_seed ^ MEMORY_STRIDE ^ (round as u64).rotate_left(29));
    splitmix64(mixed ^ (trial as u64).wrapping_mul(MEMORY_STRIDE))
}

/// Derives the *interrupt/preemption* seed of `trial` in `round` from
/// the master seed — the fourth campaign stream, independent of the
/// pattern, schedule and memory streams, so campaigns explore
/// (pattern × schedule × memory × preemption) space and any recorded
/// quadruple replays its trial byte-for-byte.
#[must_use]
pub fn campaign_irq_seed(master_seed: u64, round: usize, trial: usize) -> u64 {
    const IRQ_STRIDE: u64 = 0xE703_7ED1_A0B4_28DB;
    let mixed = splitmix64(master_seed ^ IRQ_STRIDE ^ (round as u64).rotate_left(43));
    splitmix64(mixed ^ (trial as u64).wrapping_mul(IRQ_STRIDE))
}

/// Whether an event mask keeps seeded event `i`: bit `i` is set, and
/// every event past bit 63 is always kept. The schedule axis masks its
/// change points and the interrupt axis its injections by this rule, so
/// the minimizer clears bits of a plan without re-seeding it.
#[must_use]
pub fn mask_keeps(mask: u64, i: usize) -> bool {
    i >= 64 || mask & (1 << i) != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pins below are the values the pre-consolidation copies of
    // these streams produced (splitmix64 in ptest-master::sched, the
    // derived_* helpers in ptest-core::trial, the campaign streams in
    // ptest-campaign::engine). They must never change: recorded seed
    // quadruples in archived reports and checkpoints replay through
    // them.

    #[test]
    fn splitmix64_matches_reference_vector() {
        // Reference values for the SplitMix64 output function.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn splitmix64_next_is_the_sequential_form() {
        let mut state = 42u64;
        let a = splitmix64_next(&mut state);
        assert_eq!(state, 42u64.wrapping_add(0x9E37_79B9_7F4A_7C15));
        assert_eq!(a, splitmix64(42));
        let b = splitmix64_next(&mut state);
        assert_ne!(a, b);
        assert_eq!(b, splitmix64(42u64.wrapping_add(0x9E37_79B9_7F4A_7C15)));
    }

    #[test]
    fn derived_streams_are_pinned() {
        assert_eq!(
            derived_schedule_seed(2009),
            splitmix64(2009 ^ 0xC2B2_AE3D_27D4_EB4F)
        );
        assert_eq!(
            derived_memory_seed(2009),
            splitmix64(2009 ^ 0xD6E8_FEB8_6659_FD93)
        );
        assert_eq!(
            derived_irq_seed(2009),
            splitmix64(2009 ^ 0xA076_1D64_78BD_642F)
        );
        // Concrete values so the formulas themselves are pinned, not
        // just their shape.
        assert_eq!(derived_schedule_seed(0), 0xDF30_F36F_6B91_D29C);
        assert_eq!(derived_memory_seed(0), 0xA7B7_7319_D39F_7883);
        assert_eq!(derived_irq_seed(0), 0x4396_D60D_BD85_37AF);
    }

    #[test]
    fn campaign_streams_are_pinned() {
        assert_eq!(campaign_trial_seed(7, 3, 5), {
            let mixed = splitmix64(7 ^ 3u64.wrapping_mul(0xA24B_AED4_963E_E407));
            splitmix64(mixed ^ 5)
        });
        assert_eq!(campaign_schedule_seed(7, 3, 5), {
            let mixed = splitmix64(7 ^ 0x9FB2_1C65_1E98_DF25 ^ 3u64.rotate_left(17));
            splitmix64(mixed ^ 5u64.wrapping_mul(0x9FB2_1C65_1E98_DF25))
        });
        assert_eq!(campaign_memory_seed(7, 3, 5), {
            let mixed = splitmix64(7 ^ 0x2545_F491_4F6C_DD1D ^ 3u64.rotate_left(29));
            splitmix64(mixed ^ 5u64.wrapping_mul(0x2545_F491_4F6C_DD1D))
        });
        assert_eq!(campaign_irq_seed(7, 3, 5), {
            let mixed = splitmix64(7 ^ 0xE703_7ED1_A0B4_28DB ^ 3u64.rotate_left(43));
            splitmix64(mixed ^ 5u64.wrapping_mul(0xE703_7ED1_A0B4_28DB))
        });
    }

    #[test]
    fn masks_keep_their_set_bits_and_everything_past_bit_63() {
        assert!(mask_keeps(0b101, 0));
        assert!(!mask_keeps(0b101, 1));
        assert!(mask_keeps(0b101, 2));
        assert!(mask_keeps(1 << 63, 63));
        assert!(!mask_keeps(0, 63));
        assert!(mask_keeps(0, 64));
        assert!(mask_keeps(0, 1_000));
    }

    #[test]
    fn four_streams_are_mutually_decorrelated() {
        for round in 0..4 {
            for trial in 0..16 {
                let seeds = [
                    campaign_trial_seed(7, round, trial),
                    campaign_schedule_seed(7, round, trial),
                    campaign_memory_seed(7, round, trial),
                    campaign_irq_seed(7, round, trial),
                ];
                for i in 0..seeds.len() {
                    for j in (i + 1)..seeds.len() {
                        assert_ne!(seeds[i], seeds[j], "streams {i} and {j} collide");
                    }
                }
            }
        }
        let derived = [
            derived_schedule_seed(7),
            derived_memory_seed(7),
            derived_irq_seed(7),
        ];
        assert_ne!(derived[0], derived[1]);
        assert_ne!(derived[0], derived[2]);
        assert_ne!(derived[1], derived[2]);
    }
}
