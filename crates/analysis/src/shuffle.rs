//! The zero-leakage shuffle test (§5.1, after Chothia & Guha (2011)).
//!
//! Sampling noise makes the MI estimate non-zero even for a channel with no
//! leakage, so the raw estimate `M` cannot be read directly. The test
//! simulates the noise of a guaranteed-zero channel by randomly re-pairing
//! outputs with inputs: the re-pairing preserves the marginal output
//! distribution but destroys any input/output relation. Repeating 100 times
//! yields an empirical null distribution whose 95% bound is `M0`; the
//! observations are inconsistent with zero leakage — i.e. there *is* a leak
//! — iff `M > M0` (the strict inequality matters: for very uniform data
//! with no leakage `M` may equal `M0`).
//!
//! The 101 MI estimates share one [`MiContext`] (support, grid and bin
//! indices are pairing-invariant). The 100 shuffles fan out only from top
//! level (inside a campaign cell they run inline on its worker): each
//! shuffle's permutation RNG is derived from the master seed with a
//! SplitMix64 step over the shuffle index, so the null distribution is
//! bit-identical for every thread count (Invariant 1).

use crate::dataset::Dataset;
use crate::mi::{MiContext, MiEstimate};
use crate::stats;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Number of shuffles forming the null distribution.
pub const SHUFFLES: usize = 100;

/// Derive the seed of shuffle `i` from the master seed: one SplitMix64
/// step over a golden-ratio stride. Each shuffle owns an independent RNG,
/// so the work can be scheduled across any number of threads without
/// changing a single bit of the result.
#[must_use]
pub fn shuffle_seed(master: u64, i: u64) -> u64 {
    let mut z = master.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Verdict of the leakage test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageVerdict {
    /// The MI estimate `M` of the original dataset.
    pub m: MiEstimate,
    /// The 95% zero-leakage bound `M0`.
    pub m0_bits: f64,
    /// Mean of the null distribution.
    pub null_mean_bits: f64,
    /// Standard deviation of the null distribution.
    pub null_sd_bits: f64,
    /// `true` iff the data contains evidence of a leak (`M > M0`).
    pub leaks: bool,
}

impl LeakageVerdict {
    /// `M0` in millibits.
    #[must_use]
    pub fn m0_millibits(&self) -> f64 {
        self.m0_bits * 1000.0
    }
}

/// Run the full §5.1 test: estimate `M`, build the shuffled null
/// distribution, compute `M0` as its 95th percentile, and compare.
///
/// Deterministic for a given `seed`, independent of the thread count.
#[must_use]
pub fn leakage_test(data: &Dataset, seed: u64) -> LeakageVerdict {
    let ctx = MiContext::new(data);
    let m = ctx.mi();
    let n = data.len();
    let null: Vec<f64> = rayon::par_map_indexed(SHUFFLES, |i| {
        let mut rng = StdRng::seed_from_u64(shuffle_seed(seed, i as u64));
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut rng);
        ctx.mi_shuffled(&perm)
    });
    let m0 = stats::percentile(&null, 95.0);
    LeakageVerdict {
        m,
        m0_bits: m0,
        null_mean_bits: stats::mean(&null),
        null_sd_bits: stats::stddev(&null),
        leaks: m.bits > m0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn gaussian(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen();
        mu + sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[test]
    fn detects_a_real_channel() {
        let mut d = Dataset::new(2);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..800 {
            let s = rng.gen_range(0..2usize);
            d.push(s, gaussian(&mut rng, 10.0 * s as f64, 1.0));
        }
        let v = leakage_test(&d, 99);
        assert!(v.leaks, "M={} M0={}", v.m.bits, v.m0_bits);
        assert!(v.m.bits > 0.9);
    }

    #[test]
    fn accepts_a_null_channel() {
        let mut d = Dataset::new(4);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..800 {
            let s = rng.gen_range(0..4usize);
            d.push(s, gaussian(&mut rng, 42.0, 3.0));
        }
        let v = leakage_test(&d, 100);
        assert!(!v.leaks, "false positive: M={} M0={}", v.m.bits, v.m0_bits);
    }

    #[test]
    fn shuffled_channel_mi_is_small() {
        // The null distribution itself should sit well below a real
        // channel's MI.
        let mut d = Dataset::new(2);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..600 {
            let s = rng.gen_range(0..2usize);
            d.push(s, gaussian(&mut rng, 100.0 * s as f64, 1.0));
        }
        let v = leakage_test(&d, 101);
        assert!(v.null_mean_bits < 0.1 * v.m.bits);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut d = Dataset::new(2);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..300 {
            let s = rng.gen_range(0..2usize);
            d.push(s, gaussian(&mut rng, s as f64, 2.0));
        }
        let a = leakage_test(&d, 7);
        let b = leakage_test(&d, 7);
        assert_eq!(a.m0_bits, b.m0_bits);
        assert_eq!(a.m.bits, b.m.bits);
    }

    /// The verdict (and every statistic in it) is bit-identical whether
    /// the shuffles run sequentially or on 8 workers — the guarantee the
    /// derived per-shuffle seeds exist to provide.
    #[test]
    fn verdict_identical_across_thread_counts() {
        let mut d = Dataset::new(4);
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..400 {
            let s = rng.gen_range(0..4usize);
            d.push(s, gaussian(&mut rng, 3.0 * s as f64, 2.5));
        }
        rayon::set_num_threads(1);
        let seq = leakage_test(&d, 77);
        rayon::set_num_threads(8);
        let par = leakage_test(&d, 77);
        rayon::set_num_threads(0);
        assert_eq!(seq.m.bits, par.m.bits);
        assert_eq!(seq.m0_bits, par.m0_bits);
        assert_eq!(seq.null_mean_bits, par.null_mean_bits);
        assert_eq!(seq.null_sd_bits, par.null_sd_bits);
        assert_eq!(seq.leaks, par.leaks);
    }

    /// Derived shuffle seeds are distinct (no two shuffles share an RNG
    /// stream).
    #[test]
    fn shuffle_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..SHUFFLES as u64 {
            assert!(seen.insert(shuffle_seed(0x5EED, i)));
        }
    }
}
