//! The sketch-engine trait API.
//!
//! Every quantiles backend in this workspace — the sequential Agarwal et
//! al. sketch, the concurrent Quancurrent sketch, and the FCDS baseline —
//! answers the same abstract contract: ingest a stream, expose a weighted
//! summary, and estimate quantiles/ranks within the ε(k) error model. This
//! module holds the four traits that contract has callers for:
//!
//! | Trait | Capability | Typical implementors |
//! |-------|------------|----------------------|
//! | [`QuantileEstimator`] | read-side queries (quantile, rank, CDF) | all backends |
//! | [`StreamIngest`] | single-writer ingestion | sequential sketch, writer handles, engines |
//! | [`MergeableSketch`] | summary export / absorption | sequential sketch, FCDS, the store's engines |
//! | [`ConcurrentIngest`] | handle-based multi-writer ingestion | Quancurrent, FCDS |
//!
//! The harness pair ([`StreamIngest`], [`ConcurrentIngest`]) is the seam
//! the paper's evaluation races Quancurrent and FCDS through; the
//! interchange pair ([`QuantileEstimator`], [`MergeableSketch`]) is what
//! lets a summary exported by any backend be absorbed by any other.
//!
//! # Rank semantics
//!
//! An ambiguous `rank` could mean an **absolute weight** or a
//! **fraction** — earlier revisions carried both meanings under one name.
//! The engine API names both explicitly — [`QuantileEstimator::rank_weight`]
//! (absolute weight of elements `< x`) and
//! [`QuantileEstimator::rank_fraction`] (that weight normalized by the
//! stream length) — and no bare `rank` exists on the summary or estimator
//! APIs.

use crate::bits::OrderedBits;
use crate::summary::WeightedSummary;

/// Read-side capability: estimate quantiles, ranks and CDFs of the stream
/// a sketch has ingested.
///
/// All methods take `&self`; concurrent backends answer from an atomic
/// snapshot. `stream_len` reports the weight visible to those queries —
/// for relaxed concurrent sketches this may trail the ingested count by at
/// most the backend's relaxation bound.
pub trait QuantileEstimator<T: OrderedBits> {
    /// Size of the stream visible to queries.
    fn stream_len(&self) -> u64;

    /// Estimate the φ-quantile. `None` iff the visible stream is empty.
    fn query(&self, phi: f64) -> Option<T>;

    /// Estimated **absolute** rank of `x`: the total weight of stream
    /// elements strictly smaller than `x`.
    fn rank_weight(&self, x: T) -> u64;

    /// Estimated **normalized** rank of `x` in `[0, 1]`: the fraction of
    /// the stream strictly below `x`. Returns `0.0` on an empty stream.
    fn rank_fraction(&self, x: T) -> f64 {
        let n = self.stream_len();
        if n == 0 {
            0.0
        } else {
            self.rank_weight(x) as f64 / n as f64
        }
    }

    /// Estimated CDF at each split point: `rank_fraction(p)` for every `p`.
    ///
    /// Implementors answering from a rebuilt snapshot should override this
    /// to evaluate all points against one snapshot.
    fn cdf(&self, split_points: &[T]) -> Vec<f64> {
        split_points.iter().map(|&p| self.rank_fraction(p)).collect()
    }

    /// Batch φ-quantile estimation.
    ///
    /// Like [`QuantileEstimator::cdf`], snapshot-based implementors should
    /// override this to answer from a single consistent snapshot.
    fn quantiles(&self, phis: &[f64]) -> Vec<Option<T>> {
        phis.iter().map(|&phi| self.query(phi)).collect()
    }

    /// The backend's normalized rank-error bound ε(k) (see
    /// [`crate::error`]): with high probability every quantile estimate is
    /// within `ε · stream_len` ranks of exact.
    fn error_bound(&self) -> f64;
}

/// Write-side capability: single-writer stream ingestion.
///
/// Implemented by owned sketches (`&mut self` is the writer) and by the
/// per-thread writer handles of concurrent backends (see
/// [`ConcurrentIngest`]).
pub trait StreamIngest<T: OrderedBits> {
    /// Process one stream element.
    fn update(&mut self, x: T);

    /// Process a batch of stream elements.
    fn update_many(&mut self, xs: &[T]) {
        for &x in xs {
            self.update(x);
        }
    }

    /// Push buffered elements toward query visibility where the backend
    /// supports it. Default: no-op.
    ///
    /// After `flush` returns, backends that can flush completely (the
    /// sequential sketch trivially, FCDS via publish + drain) account every
    /// update in [`QuantileEstimator::stream_len`]. Backends whose residual
    /// buffering is intrinsic (Quancurrent's sub-`b` thread-local tail)
    /// document what remains invisible and expose it out of band.
    fn flush(&mut self) {}
}

/// Merge capability: export the sketch's state as a [`WeightedSummary`]
/// and absorb summaries produced elsewhere.
///
/// Both directions conserve total weight **exactly**: for any engine `e`,
/// `e.to_summary().stream_len()` equals the weight `e` accounts for, and
/// absorbing a summary of weight `w` grows `e`'s accounted weight by
/// exactly `w`. This is the mergeable-summaries property (Agarwal et al.,
/// PODS'12) that makes cross-process aggregation and tier migration
/// possible.
pub trait MergeableSketch<T: OrderedBits> {
    /// Export the sketch's current state as a weighted summary.
    fn to_summary(&self) -> WeightedSummary;

    /// Fold a summary (from any backend, local or remote) into this
    /// sketch, conserving its total weight exactly.
    fn absorb_summary(&mut self, summary: &WeightedSummary);
}

/// Multi-writer capability: hand out per-thread writer handles that ingest
/// concurrently into one shared sketch.
///
/// The returned writer borrows nothing mutable from the sketch — any
/// number of writers may be live at once, each owned by one thread (the
/// handles are `Send` but intentionally not `Sync`).
pub trait ConcurrentIngest<T: OrderedBits>: Sync {
    /// Register a writer handle for the calling thread.
    fn writer(&self) -> Box<dyn StreamIngest<T> + Send + '_>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{Summary, WeightedItem};

    /// A trivially exact reference engine over the trait API: retains the
    /// whole stream. Used to pin the default-method semantics.
    #[derive(Default)]
    struct Exact {
        xs: Vec<u64>,
        absorbed: Vec<(u64, u64)>,
    }

    impl QuantileEstimator<u64> for Exact {
        fn stream_len(&self) -> u64 {
            self.xs.len() as u64 + self.absorbed.iter().map(|&(_, w)| w).sum::<u64>()
        }
        fn query(&self, phi: f64) -> Option<u64> {
            self.to_summary().quantile_bits(phi)
        }
        fn rank_weight(&self, x: u64) -> u64 {
            self.to_summary().rank_bits(x)
        }
        fn error_bound(&self) -> f64 {
            0.0
        }
    }

    impl StreamIngest<u64> for Exact {
        fn update(&mut self, x: u64) {
            self.xs.push(x);
        }
    }

    impl MergeableSketch<u64> for Exact {
        fn to_summary(&self) -> WeightedSummary {
            let mut items: Vec<WeightedItem> =
                self.xs.iter().map(|&v| WeightedItem { value_bits: v, weight: 1 }).collect();
            items.extend(
                self.absorbed.iter().map(|&(v, w)| WeightedItem { value_bits: v, weight: w }),
            );
            WeightedSummary::from_items(items)
        }
        fn absorb_summary(&mut self, summary: &WeightedSummary) {
            self.absorbed.extend(summary.items().iter().map(|it| (it.value_bits, it.weight)));
        }
    }

    #[test]
    fn engine_round_trips() {
        let mut a = Exact::default();
        a.update_many(&[10, 20, 30, 40]);
        a.flush();
        assert_eq!(a.stream_len(), 4);
        assert_eq!(a.rank_weight(25), 2);
        assert!((a.rank_fraction(25) - 0.5).abs() < 1e-12);

        let mut b = Exact::default();
        b.absorb_summary(&a.to_summary());
        assert_eq!(b.stream_len(), 4);
        assert_eq!(b.query(0.0), Some(10));
    }

    #[test]
    fn default_rank_fraction_handles_empty() {
        let e = Exact::default();
        assert_eq!(e.rank_fraction(7), 0.0);
        assert_eq!(e.cdf(&[1, 2, 3]), vec![0.0, 0.0, 0.0]);
        assert_eq!(e.quantiles(&[0.5]), vec![None]);
    }

    #[test]
    fn default_cdf_is_rank_fraction_per_point() {
        let mut e = Exact::default();
        e.update_many(&[0, 1, 2, 3]);
        assert_eq!(e.cdf(&[0, 2, 10]), vec![0.0, 0.5, 1.0]);
        let qs = e.quantiles(&[0.0, 0.99]);
        assert_eq!(qs, vec![Some(0), Some(3)]);
    }
}
