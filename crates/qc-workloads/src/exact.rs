//! Brute-force exact quantiles — the ground truth every accuracy figure
//! compares against ("Exact CDF" in Figures 2 and 9).

use qc_common::bits::OrderedBits;
use qc_common::summary::Summary;

/// An exact oracle over a finite stream: stores a sorted copy and answers
/// rank/quantile queries precisely.
#[derive(Clone, Debug)]
pub struct ExactOracle {
    sorted: Vec<u64>,
}

impl ExactOracle {
    /// Build from raw ordered-bit keys.
    pub fn from_bits(mut bits: Vec<u64>) -> Self {
        bits.sort_unstable();
        Self { sorted: bits }
    }

    /// Build from typed values.
    pub fn from_values<T: OrderedBits>(values: &[T]) -> Self {
        Self::from_bits(values.iter().map(|x| x.to_ordered_bits()).collect())
    }

    /// Stream length.
    pub fn n(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// Exact rank: number of elements strictly smaller than `x`.
    pub fn rank_bits(&self, x: u64) -> u64 {
        self.sorted.partition_point(|&v| v < x) as u64
    }

    /// Rank interval of `x`: `[#elements < x, #elements ≤ x]`. With
    /// duplicates, any rank in this interval is a correct answer for `x`.
    pub fn rank_interval_bits(&self, x: u64) -> (u64, u64) {
        let lo = self.sorted.partition_point(|&v| v < x) as u64;
        let hi = self.sorted.partition_point(|&v| v <= x) as u64;
        (lo, hi)
    }

    /// Exact φ-quantile: the element of rank ⌊φn⌋.
    pub fn quantile_bits(&self, phi: f64) -> Option<u64> {
        if self.sorted.is_empty() {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        let idx = ((phi * self.sorted.len() as f64).floor() as usize).min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// Exact typed quantile.
    pub fn quantile<T: OrderedBits>(&self, phi: f64) -> Option<T> {
        self.quantile_bits(phi).map(T::from_ordered_bits)
    }

    /// Normalized rank error of an estimate for the φ-quantile: the
    /// distance from ⌊φn⌋ to the estimate's rank *interval*, over n.
    ///
    /// Using the interval `[#< x, #≤ x]` (rather than the strict rank)
    /// makes the metric correct on duplicate-heavy streams: an element
    /// whose duplicates span the target rank is a perfect answer.
    pub fn rank_error(&self, phi: f64, estimate_bits: u64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.len() as f64;
        let target = (phi.clamp(0.0, 1.0) * n).floor();
        let (lo, hi) = self.rank_interval_bits(estimate_bits);
        let below = lo as f64 - target;
        let above = target - hi as f64;
        below.max(above).max(0.0) / n
    }
}

/// Accuracy report of a summary against the oracle over a φ grid.
#[derive(Clone, Debug, Default)]
pub struct AccuracyReport {
    /// Per-φ normalized rank errors.
    pub errors: Vec<(f64, f64)>,
}

impl AccuracyReport {
    /// Evaluate `summary` at `grid` quantiles against `oracle`.
    pub fn evaluate<S: Summary>(summary: &S, oracle: &ExactOracle, grid: &[f64]) -> Self {
        let errors = grid
            .iter()
            .map(|&phi| {
                let err = summary.quantile_bits(phi).map_or(1.0, |est| oracle.rank_error(phi, est));
                (phi, err)
            })
            .collect();
        Self { errors }
    }

    /// Largest normalized rank error on the grid.
    pub fn max_error(&self) -> f64 {
        self.errors.iter().map(|&(_, e)| e).fold(0.0, f64::max)
    }

    /// Root-mean-square normalized rank error — the "standard error of
    /// estimation" metric of Figure 8.
    pub fn rms_error(&self) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        let sq = self.errors.iter().map(|&(_, e)| e * e).sum::<f64>();
        (sq / self.errors.len() as f64).sqrt()
    }
}

/// A uniform φ grid of `points` quantiles in `(0, 1)`.
pub fn phi_grid(points: usize) -> Vec<f64> {
    (1..=points).map(|i| i as f64 / (points + 1) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_common::summary::{WeightedItem, WeightedSummary};

    #[test]
    fn oracle_ranks_and_quantiles() {
        let oracle = ExactOracle::from_bits(vec![10, 20, 30, 40, 50]);
        assert_eq!(oracle.n(), 5);
        assert_eq!(oracle.rank_bits(10), 0);
        assert_eq!(oracle.rank_bits(35), 3);
        assert_eq!(oracle.quantile_bits(0.0), Some(10));
        assert_eq!(oracle.quantile_bits(0.5), Some(30));
        assert_eq!(oracle.quantile_bits(1.0), Some(50));
    }

    #[test]
    fn typed_oracle_roundtrip() {
        let oracle = ExactOracle::from_values(&[-1.0f64, 0.0, 1.0]);
        assert_eq!(oracle.quantile::<f64>(0.5), Some(0.0));
    }

    #[test]
    fn empty_oracle() {
        let oracle = ExactOracle::from_bits(vec![]);
        assert_eq!(oracle.quantile_bits(0.5), None);
        assert_eq!(oracle.rank_error(0.5, 7), 0.0);
    }

    #[test]
    fn rank_error_of_exact_estimate_is_zero() {
        let oracle = ExactOracle::from_bits((0..1000).collect());
        for phi in [0.1, 0.5, 0.9] {
            let exact = oracle.quantile_bits(phi).unwrap();
            assert_eq!(oracle.rank_error(phi, exact), 0.0);
        }
    }

    #[test]
    fn rank_error_measures_displacement() {
        let oracle = ExactOracle::from_bits((0..1000).collect());
        // Estimating the 60th percentile with the true median: 10% off.
        let median = oracle.quantile_bits(0.5).unwrap();
        let err = oracle.rank_error(0.6, median);
        assert!((err - 0.1).abs() < 0.01, "err {err}");
    }

    #[test]
    fn accuracy_report_on_perfect_summary() {
        let bits: Vec<u64> = (0..500).collect();
        let summary = WeightedSummary::from_items(
            bits.iter().map(|&b| WeightedItem { value_bits: b, weight: 1 }).collect(),
        );
        let oracle = ExactOracle::from_bits(bits);
        let report = AccuracyReport::evaluate(&summary, &oracle, &phi_grid(9));
        assert_eq!(report.max_error(), 0.0);
        assert_eq!(report.rms_error(), 0.0);
    }

    #[test]
    fn phi_grid_is_interior_and_even() {
        let g = phi_grid(9);
        assert_eq!(g.len(), 9);
        assert!((g[4] - 0.5).abs() < 1e-12);
        assert!(g[0] > 0.0 && g[8] < 1.0);
    }
}
