//! Typed front-end over the bit-space sketch, and the engine-trait
//! implementations that make [`Sketch`] a drop-in backend for everything
//! programmed against [`qc_common::engine`].

use qc_common::bits::OrderedBits;
use qc_common::engine::{MergeableSketch, QuantileEstimator, StreamIngest};
use qc_common::summary::{Summary, WeightedSummary};

use crate::sketch::QuantilesSketch;

/// A sequential Quantiles sketch over any [`OrderedBits`] element type.
///
/// # Example
///
/// ```
/// use qc_sequential::Sketch;
///
/// let mut sketch = Sketch::<f64>::new(128);
/// for i in 0..100_000 {
///     sketch.update(i as f64 / 100_000.0);
/// }
/// let median = sketch.quantile(0.5).unwrap();
/// assert!((median - 0.5).abs() < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct Sketch<T: OrderedBits> {
    inner: QuantilesSketch,
    _marker: std::marker::PhantomData<T>,
}

impl<T: OrderedBits> Sketch<T> {
    /// Create a sketch with level size `k`.
    pub fn new(k: usize) -> Self {
        Self { inner: QuantilesSketch::new(k), _marker: std::marker::PhantomData }
    }

    /// Create a sketch with an explicit seed (reproducible sampling).
    pub fn with_seed(k: usize, seed: u64) -> Self {
        Self { inner: QuantilesSketch::with_seed(k, seed), _marker: std::marker::PhantomData }
    }

    /// Process one stream element.
    #[inline]
    pub fn update(&mut self, x: T) {
        self.inner.update(x.to_ordered_bits());
    }

    /// Estimate the φ-quantile of the stream so far.
    pub fn quantile(&self, phi: f64) -> Option<T> {
        self.inner.quantile_bits(phi).map(T::from_ordered_bits)
    }

    /// Estimated CDF at the given split points.
    pub fn cdf(&self, split_points: &[T]) -> Vec<f64> {
        let bits: Vec<u64> = split_points.iter().map(|x| x.to_ordered_bits()).collect();
        self.inner.summary().cdf_bits(&bits)
    }

    /// Estimated histogram over ascending `splits` (see
    /// [`qc_common::Summary::histogram_bits`]).
    pub fn histogram(&self, splits: &[T]) -> Vec<u64> {
        let bits: Vec<u64> = splits.iter().map(|x| x.to_ordered_bits()).collect();
        self.inner.summary().histogram_bits(&bits)
    }

    /// Build a reusable weighted summary (for batch queries).
    pub fn summary(&self) -> WeightedSummary {
        self.inner.summary()
    }

    /// Merge another sketch of the same `k` into this one.
    pub fn merge_from(&mut self, other: &Sketch<T>) {
        self.inner.merge_from(&other.inner);
    }

    /// Stream length so far.
    pub fn n(&self) -> u64 {
        self.inner.n()
    }

    /// Level size parameter.
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// Retained elements (space usage).
    pub fn num_retained(&self) -> usize {
        self.inner.num_retained()
    }

    /// Rank error bound ε(k).
    pub fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    /// Smallest element retained (exact: the minimum always survives
    /// sampling into *some* level or the base buffer with probability
    /// depending on compaction; this is the smallest *retained* element).
    pub fn min_retained(&self) -> Option<T> {
        self.inner.summary().min_bits().map(T::from_ordered_bits)
    }

    /// Largest retained element.
    pub fn max_retained(&self) -> Option<T> {
        self.inner.summary().max_bits().map(T::from_ordered_bits)
    }

    /// Confidence bracket for the φ-quantile: the estimates at
    /// `φ − ε(k)` and `φ + ε(k)`. With probability ≥ 1 − δ the true
    /// φ-quantile's value lies within this bracket (the PAC guarantee of
    /// §2.1 read off the summary itself).
    pub fn quantile_bounds(&self, phi: f64) -> Option<(T, T)> {
        let eps = self.epsilon();
        let summary = self.inner.summary();
        let lo = summary.quantile_bits((phi - eps).max(0.0))?;
        let hi = summary.quantile_bits((phi + eps).min(1.0))?;
        Some((T::from_ordered_bits(lo), T::from_ordered_bits(hi)))
    }

    /// Access the untyped core (for harness code operating in bit space).
    pub fn as_bits(&self) -> &QuantilesSketch {
        &self.inner
    }

    /// Mutable access to the untyped core.
    pub fn as_bits_mut(&mut self) -> &mut QuantilesSketch {
        &mut self.inner
    }
}

impl<T: OrderedBits> QuantileEstimator<T> for Sketch<T> {
    fn stream_len(&self) -> u64 {
        self.inner.n()
    }

    fn query(&self, phi: f64) -> Option<T> {
        self.inner.quantile_bits(phi).map(T::from_ordered_bits)
    }

    fn rank_weight(&self, x: T) -> u64 {
        self.inner.rank_bits(x.to_ordered_bits())
    }

    /// Overridden to build one summary for all split points.
    fn cdf(&self, split_points: &[T]) -> Vec<f64> {
        let bits: Vec<u64> = split_points.iter().map(|x| x.to_ordered_bits()).collect();
        self.inner.summary().cdf_bits(&bits)
    }

    /// Overridden to build one summary for all φ values.
    fn quantiles(&self, phis: &[f64]) -> Vec<Option<T>> {
        let summary = self.inner.summary();
        phis.iter().map(|&phi| summary.quantile_bits(phi).map(T::from_ordered_bits)).collect()
    }

    fn error_bound(&self) -> f64 {
        self.inner.epsilon()
    }
}

impl<T: OrderedBits> StreamIngest<T> for Sketch<T> {
    fn update(&mut self, x: T) {
        self.inner.update(x.to_ordered_bits());
    }

    // `update_many` keeps the trait default; `flush` is the default
    // no-op: every update is immediately visible.
}

impl<T: OrderedBits> MergeableSketch<T> for Sketch<T> {
    fn to_summary(&self) -> WeightedSummary {
        self.inner.summary()
    }

    fn absorb_summary(&mut self, summary: &WeightedSummary) {
        self.inner.absorb_summary(summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_median_of_symmetric_stream() {
        let mut s = Sketch::<f64>::with_seed(128, 4);
        for i in -50_000..50_000 {
            s.update(i as f64);
        }
        let m = s.quantile(0.5).unwrap();
        assert!(m.abs() < 2_000.0, "median {m} too far from 0");
    }

    #[test]
    fn i64_negative_ranks() {
        let mut s = Sketch::<i64>::new(64);
        for x in [-10i64, -5, 0, 5, 10] {
            s.update(x);
        }
        assert_eq!(s.rank_weight(-10), 0);
        assert_eq!(s.rank_weight(0), 2);
        assert_eq!(s.rank_weight(11), 5);
        assert_eq!(s.quantile(0.0), Some(-10));
        assert_eq!(s.quantile(1.0), Some(10));
    }

    #[test]
    fn u32_roundtrips() {
        let mut s = Sketch::<u32>::new(16);
        for x in 0..1000u32 {
            s.update(x);
        }
        let q = s.quantile(0.5).unwrap();
        assert!((400..=600).contains(&q), "median {q}");
    }

    #[test]
    fn cdf_is_monotone() {
        let mut s = Sketch::<f64>::with_seed(64, 6);
        for i in 0..10_000 {
            s.update((i % 100) as f64);
        }
        let cdf = s.cdf(&[0.0, 25.0, 50.0, 75.0, 100.0]);
        for w in cdf.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(cdf[0] < 0.05);
        assert!((cdf[4] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_retained_bracket_stream() {
        let mut s = Sketch::<i64>::with_seed(32, 5);
        for x in -1000..1000i64 {
            s.update(x);
        }
        let lo = s.min_retained().unwrap();
        let hi = s.max_retained().unwrap();
        assert!((-1000..0).contains(&lo));
        assert!((0..1000).contains(&hi));
        assert!(lo < hi);
    }

    #[test]
    fn quantile_bounds_bracket_the_estimate() {
        let mut s = Sketch::<f64>::with_seed(128, 7);
        for i in 0..100_000 {
            s.update(i as f64);
        }
        let (lo, hi) = s.quantile_bounds(0.5).unwrap();
        let mid = s.quantile(0.5).unwrap();
        assert!(lo <= mid && mid <= hi, "{lo} ≤ {mid} ≤ {hi}");
        // The bracket width tracks ε·n.
        assert!(hi - lo <= 6.0 * s.epsilon() * 100_000.0, "bracket too wide: {}", hi - lo);
    }

    #[test]
    fn bounds_on_empty_sketch_are_none() {
        let s = Sketch::<f64>::new(16);
        assert!(s.quantile_bounds(0.5).is_none());
        assert!(s.min_retained().is_none());
        assert!(s.max_retained().is_none());
    }

    /// The typed sketch is a complete engine through the engine traits
    /// alone (the conformance suite at the workspace root goes further;
    /// this pins the basics close to the impl).
    #[test]
    fn engine_traits_cover_the_sketch() {
        let mut engine = Sketch::<f64>::with_seed(64, 3);
        engine.update_many(&(0..1000).map(f64::from).collect::<Vec<_>>());
        engine.flush();
        assert_eq!(engine.stream_len(), 1000);
        assert_eq!(engine.rank_weight(0.0), 0);
        assert!((engine.rank_fraction(500.0) - 0.5).abs() < 0.05);
        let cdf = QuantileEstimator::cdf(&engine, &[250.0, 750.0]);
        assert!(cdf[0] < cdf[1]);

        let mut other = Sketch::<f64>::with_seed(64, 4);
        other.absorb_summary(&engine.to_summary());
        assert_eq!(other.stream_len(), 1000);
        assert!(other.query(0.5).is_some());
        assert!(other.error_bound() > 0.0);
    }

    #[test]
    fn typed_merge() {
        let mut a = Sketch::<f64>::with_seed(32, 1);
        let mut b = Sketch::<f64>::with_seed(32, 2);
        for i in 0..1000 {
            a.update(i as f64);
            b.update((i + 1000) as f64);
        }
        a.merge_from(&b);
        assert_eq!(a.n(), 2000);
        let m = a.quantile(0.5).unwrap();
        assert!((800.0..1200.0).contains(&m), "median {m}");
    }
}
