//! Seeded input generation: key schedules, value streams, op patterns.
//!
//! Everything here is a deterministic function of `--seed`; the system
//! under test receives only what these generators emit.

use qc_workloads::streams::{Distribution, StreamGen};

/// Derive an independent sub-seed for one purpose (`lane`) from the run
/// seed (SplitMix64 finalizer — adjacent seeds and lanes decorrelate).
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key `index` of a workload's key space.
pub fn key_name(prefix: &str, index: usize) -> String {
    format!("{prefix}-{index:04}")
}

/// A Zipf-skewed schedule of key indices in `0..keys`.
///
/// `Distribution::Zipf` is an inverse-CDF Pareto capped at `max`, which
/// would pile the whole tail (43 % of draws at s = 1.1, max = 4096) onto
/// the cap; drawing uncapped and rejecting ranks past `keys` keeps the
/// power-law shape instead: `P(rank r) ∝ r^-0.1 − (r+1)^-0.1 ≈ r^-1.1`.
pub struct ZipfKeys {
    gen: StreamGen,
    keys: usize,
}

/// The skew every Zipf schedule in the benchmark uses.
pub const ZIPF_S: f64 = 1.1;

impl ZipfKeys {
    /// A schedule over `keys` keys.
    pub fn new(keys: usize, seed: u64) -> Self {
        let dist = Distribution::Zipf { s: ZIPF_S, max: u64::MAX >> 12 };
        ZipfKeys { gen: StreamGen::new(dist, seed), keys: keys.max(1) }
    }

    /// Next key index (rank − 1: index 0 is the hottest key).
    pub fn next_key(&mut self) -> usize {
        loop {
            let rank = self.gen.next_f64();
            if rank <= self.keys as f64 {
                return rank as usize - 1;
            }
        }
    }
}

/// Values for key `index`: uniform over `[index, index + 1)`.
///
/// Giving every key its own unit interval makes a wrong-key answer fail
/// the oracle check outright, and keeps each key's values independent
/// draws from one distribution — so the oracle over everything a key was
/// sent also describes any prefix of it, up to sampling error far below
/// the gate.
pub struct Values {
    gen: StreamGen,
}

impl Values {
    /// A value stream.
    pub fn new(seed: u64) -> Self {
        Values { gen: StreamGen::new(Distribution::Uniform, seed) }
    }

    /// Fill `out` with values for key `index`, shifted by `drift`.
    pub fn fill(&mut self, index: usize, drift: f64, out: &mut [f64]) {
        for v in out.iter_mut() {
            *v = index as f64 + drift + self.gen.next_f64();
        }
    }

    /// `n` values for key `index`.
    pub fn take(&mut self, index: usize, n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        self.fill(index, 0.0, &mut out);
        out
    }
}

/// The quantiles queries cycle through.
pub const PHIS: [f64; 3] = [0.5, 0.99, 0.999];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_schedule_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut z = ZipfKeys::new(4096, seed);
            (0..2000).map(|_| z.next_key()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn key_schedule_is_skewed_bounded_and_not_capped() {
        let mut z = ZipfKeys::new(4096, 1);
        let n = 200_000;
        let mut hits = vec![0u32; 4096];
        for _ in 0..n {
            hits[z.next_key()] += 1;
        }
        let share = |i: usize| hits[i] as f64 / n as f64;
        // P(rank 1) = (1 − 2^-0.1) / (1 − 4097^-0.1) ≈ 0.118.
        assert!((share(0) - 0.118).abs() < 0.01, "head share {}", share(0));
        // P(rank 1) / P(rank 2) = 1.81 for s = 1.1.
        assert!(share(0) > 1.6 * share(1));
        // The last key is an ordinary tail key, not a pile-up at the cap.
        assert!(share(4095) < 1e-3, "tail share {}", share(4095));
        assert!(hits.iter().filter(|&&h| h > 0).count() > 3000);
    }

    #[test]
    fn values_stay_in_their_keys_interval_and_repeat_per_seed() {
        let a = Values::new(3).take(17, 1000);
        assert!(a.iter().all(|&v| (17.0..18.0).contains(&v)));
        assert_eq!(a, Values::new(3).take(17, 1000));
        assert_ne!(a, Values::new(4).take(17, 1000));
    }

    #[test]
    fn sub_seeds_differ_by_lane_and_seed() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(9, 4), sub_seed(9, 4));
    }
}
