//! Synthetic stream generators.
//!
//! The paper draws streams "from a uniform distribution, unless stated
//! otherwise" (§5.1) and evaluates accuracy on uniform and normal streams
//! (Figures 2, 9). The generators here cover those plus the skewed and
//! ordered streams any serious quantiles evaluation should include
//! (sorted input is the classic adversary for sampling-based sketches).
//!
//! All generators are deterministic functions of their seed, so every
//! experiment is reproducible and multi-threaded runs can give each thread
//! an independent substream (`seed + thread_id`).

use qc_common::bits::OrderedBits;
use qc_common::rng::Xoshiro256;

/// Stream distribution families used across the benchmark suite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Distribution {
    /// Uniform over `[0, 1)` (the paper's default).
    Uniform,
    /// Normal via Box–Muller.
    Normal {
        /// Mean of the distribution.
        mean: f64,
        /// Standard deviation (must be positive).
        std_dev: f64,
    },
    /// Zipf-like skew: `floor(u^(-1/(s-1)))` capped at `max` — a heavy
    ///-tailed integer distribution (an inverse-CDF Pareto approximation of
    /// the Zipf family; exact for the tail shape the sketch cares about).
    Zipf {
        /// Skew exponent `s > 1`; larger = more skewed.
        s: f64,
        /// Largest emitted value.
        max: u64,
    },
    /// `0, 1, 2, …` — sorted ascending (adversarial for samplers).
    Ascending,
    /// `n−1, n−2, …` given the expected length (adversarial, reversed).
    Descending {
        /// Stream length the countdown starts from.
        n: u64,
    },
    /// A repeating sawtooth `0..period` — heavy duplication.
    Sawtooth {
        /// Period of the ramp.
        period: u64,
    },
    /// A single constant value.
    Constant(f64),
}

/// A seeded generator of stream elements in `f64` and ordered-bit forms.
#[derive(Clone, Debug)]
pub struct StreamGen {
    dist: Distribution,
    rng: Xoshiro256,
    counter: u64,
    /// Spare normal deviate from Box–Muller.
    spare: Option<f64>,
}

impl StreamGen {
    /// Create a generator for `dist` with the given seed.
    pub fn new(dist: Distribution, seed: u64) -> Self {
        if let Distribution::Normal { std_dev, .. } = dist {
            assert!(std_dev > 0.0, "std_dev must be positive");
        }
        if let Distribution::Zipf { s, max } = dist {
            assert!(s > 1.0, "zipf exponent must exceed 1");
            assert!(max >= 1, "zipf max must be at least 1");
        }
        Self { dist, rng: Xoshiro256::seed_from_u64(seed), counter: 0, spare: None }
    }

    /// Next element as `f64`.
    pub fn next_f64(&mut self) -> f64 {
        let value = match self.dist {
            Distribution::Uniform => self.rng.next_f64(),
            Distribution::Normal { mean, std_dev } => {
                let z = self.next_standard_normal();
                mean + std_dev * z
            }
            Distribution::Zipf { s, max } => {
                let u = self.rng.next_f64().max(f64::MIN_POSITIVE);
                let x = u.powf(-1.0 / (s - 1.0)).floor();
                x.min(max as f64)
            }
            Distribution::Ascending => self.counter as f64,
            Distribution::Descending { n } => (n.saturating_sub(self.counter + 1)) as f64,
            Distribution::Sawtooth { period } => (self.counter % period) as f64,
            Distribution::Constant(c) => c,
        };
        self.counter += 1;
        value
    }

    /// Next element embedded in ordered-bit space (what the sketches
    /// ingest internally).
    #[inline]
    pub fn next_bits(&mut self) -> u64 {
        self.next_f64().to_ordered_bits()
    }

    /// Materialize the next `n` elements as `f64`.
    pub fn take_f64(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_f64()).collect()
    }

    /// Marsaglia-free Box–Muller (two uniforms → two normals, one cached).
    fn next_standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let u1 = self.rng.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// The generator's distribution.
    pub fn distribution(&self) -> Distribution {
        self.dist
    }
}

impl Iterator for StreamGen {
    type Item = f64;
    fn next(&mut self) -> Option<f64> {
        Some(self.next_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_in_unit_interval_with_half_mean() {
        let mut g = StreamGen::new(Distribution::Uniform, 1);
        let xs = g.take_f64(50_000);
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_matches_moments() {
        let mut g = StreamGen::new(Distribution::Normal { mean: 10.0, std_dev: 2.0 }, 2);
        let xs = g.take_f64(100_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn zipf_is_skewed_and_bounded() {
        let mut g = StreamGen::new(Distribution::Zipf { s: 1.5, max: 1000 }, 3);
        let xs = g.take_f64(50_000);
        assert!(xs.iter().all(|&x| (1.0..=1000.0).contains(&x)));
        let ones = xs.iter().filter(|&&x| x == 1.0).count() as f64 / xs.len() as f64;
        assert!(ones > 0.25, "zipf(1.5) should emit many 1s: {ones}");
    }

    #[test]
    fn ascending_and_descending_are_ordered() {
        let mut up = StreamGen::new(Distribution::Ascending, 0);
        assert_eq!(up.take_f64(4), vec![0.0, 1.0, 2.0, 3.0]);
        let mut down = StreamGen::new(Distribution::Descending { n: 4 }, 0);
        assert_eq!(down.take_f64(4), vec![3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn sawtooth_wraps() {
        let mut g = StreamGen::new(Distribution::Sawtooth { period: 3 }, 0);
        assert_eq!(g.take_f64(7), vec![0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn constant_is_constant() {
        let mut g = StreamGen::new(Distribution::Constant(2.5), 9);
        assert!(g.take_f64(10).iter().all(|&x| x == 2.5));
    }

    #[test]
    fn same_seed_same_stream() {
        let a = StreamGen::new(Distribution::Uniform, 42).take_f64(100);
        let b = StreamGen::new(Distribution::Uniform, 42).take_f64(100);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = StreamGen::new(Distribution::Uniform, 1).take_f64(100);
        let b = StreamGen::new(Distribution::Uniform, 2).take_f64(100);
        assert_ne!(a, b);
    }

    #[test]
    fn bits_preserve_order_of_values() {
        let mut g = StreamGen::new(Distribution::Normal { mean: 0.0, std_dev: 1.0 }, 5);
        for _ in 0..1000 {
            let x = g.next_f64();
            let y = g.next_f64();
            assert_eq!(x < y, x.to_ordered_bits() < y.to_ordered_bits());
        }
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn zipf_s_of_one_rejected() {
        let _ = StreamGen::new(Distribution::Zipf { s: 1.0, max: 10 }, 0);
    }
}
