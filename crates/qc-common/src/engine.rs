//! The unified sketch-engine trait API.
//!
//! Every quantiles backend in this workspace — the sequential Agarwal et
//! al. sketch, the concurrent Quancurrent sketch, and the FCDS baseline —
//! answers the same abstract contract: ingest a stream, expose a weighted
//! summary, and estimate quantiles/ranks within the ε(k) error model. This
//! module captures that contract as small **capability traits**, so stores,
//! servers, benches, and workloads can be written once and run against any
//! backend (including tiered compositions that move a stream between
//! backends at runtime):
//!
//! | Trait | Capability | Typical implementors |
//! |-------|------------|----------------------|
//! | [`QuantileEstimator`] | read-side queries (quantile, rank, CDF) | all backends |
//! | [`StreamIngest`] | single-writer ingestion | sequential sketch, writer handles, engines |
//! | [`MergeableSketch`] | summary export / absorption | all backends |
//! | [`VersionedSketch`] | monotone state-version counter (read caching) | all backends |
//! | [`ConcurrentIngest`] | handle-based multi-writer ingestion | Quancurrent, FCDS |
//! | [`SharedIngest`] | leased writer handles through `&self` (shared-lock writes) | concurrent backends |
//! | [`InstrumentedSketch`] | backend-internal operation counters for telemetry | Quancurrent, engines wrapping it |
//! | [`SketchEngine`] | the single-object traits combined | the store's tiered engine and both its tiers, `FcdsEngine` |
//!
//! The traits are object-safe: `Box<dyn SketchEngine<f64>>` is a fully
//! functional engine, which is what the engine-conformance suite exercises
//! and what lets the keyed store's tiered engine serve a key from either
//! backend behind one interface.
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

/// Version capability: a monotone counter identifying the sketch's current
/// observable state, the contract behind summary caching (a materialized
/// [`WeightedSummary`] tagged with the version that produced it stays valid
/// for exactly as long as `version()` returns the same value).
///
/// The counter must advance across **every** transition that can change
/// what [`MergeableSketch::to_summary`] or any [`QuantileEstimator`] read
/// would return — updates, absorbs, internal compactions, tier migrations,
/// asynchronous propagation — and must never advance spuriously fast
/// enough to wrap. It carries no other meaning: values are not comparable
/// across sketches and not dense.
///
/// Sketches mutated only through `&mut self` implement this exactly.
/// Concurrent backends whose shared state moves under plain `&self` (e.g.
/// a background propagator) must still advance the version for every
/// visible transition, but may do so with relaxed atomics: under external
/// synchronization (a store's stripe lock, quiescence) the reading is
/// exact, while fully unsynchronized readers get a conservative hint.
pub trait VersionedSketch {
    /// The current state version (monotone, non-decreasing).
    fn version(&self) -> u64;
}

/// Shared-access write capability: lease an **owned** per-thread writer
/// handle through `&self`, so many threads can ingest into one engine
/// while holding only a shared (read) lock on whatever registry owns it.
///
/// This is the engine-API form of the paper's core discipline — each
/// writer thread fills a private buffer and synchronizes with the shared
/// sketch only at its internal propagation points (Gather&Sort / DCAS for
/// Quancurrent, buffer publication for FCDS) — threaded through to layers
/// that hold engines behind locks. An exclusive-lock writer serializes
/// every batch; leased handles synchronize only inside the engine.
///
/// # Contract
///
/// * The returned handle is self-contained (`'static`): it may be stored,
///   pooled, and used from any one thread at a time (`Send`, not `Sync`),
///   concurrently with other handles and with the engine's `&self` reads.
/// * A leased handle's [`StreamIngest::flush`] must account written
///   weight at least as completely as the backend's own flush contract
///   does (see [`StreamIngest::flush`]). For backends whose flush is
///   **complete** — every [`SketchEngine`], and anything a summary cache
///   sits on — that means: after the handle's `flush` returns, every
///   element written through it is visible to
///   [`MergeableSketch::to_summary`] and
///   [`QuantileEstimator::stream_len`], and [`VersionedSketch::version`]
///   has advanced past every reading taken before the flush (relaxed
///   atomics are fine — see [`VersionedSketch`]). Backends whose residual
///   buffering is intrinsic (bare Quancurrent's sub-`b` thread-local
///   tail, part of its r-relaxation bound) keep that relaxation in their
///   leased handles too and must document it. Between flushes, writes may
///   always stay buffered in the handle.
/// * `try_writer` returns `None` when the backend only supports exclusive
///   `&mut self` ingestion (the default); callers must keep an
///   exclusive-lock fallback path.
///
/// Unlike [`ConcurrentIngest::writer`], whose handles borrow the sketch,
/// leased handles share ownership of the engine's internals — which is
/// what lets a keyed store pool them inside the entry that owns the
/// engine. A handle outliving its engine's useful life (e.g. past a tier
/// migration) must simply go unused; dropping it is always safe.
pub trait SharedIngest<T: OrderedBits> {
    /// Lease an owned writer handle, or `None` if this backend only
    /// ingests through `&mut self`.
    fn try_writer(&self) -> Option<Box<dyn StreamIngest<T> + Send>> {
        None
    }
}

/// Telemetry capability: expose backend-internal operation counters as
/// stable `(name, cumulative value)` pairs.
///
/// This is the bridge that lets a metrics registry surface what a
/// concurrent backend is doing internally — DCAS retries, snapshot
/// cache miss rates, batch propagations — next to store- and
/// server-level instruments, without the telemetry layer knowing any
/// backend's concrete stats type.
///
/// # Contract
///
/// * Names are stable snake_case identifiers, unique within one call's
///   result, consistent across calls on the same engine.
/// * Values are cumulative since engine creation and read with relaxed
///   atomics: exact once the engine is quiescent (the same contract as
///   the counters they mirror). They may **reset to zero** when an
///   engine's internal state is rebuilt (e.g. a tier migration replacing
///   the hot sketch), so consumers aggregating across engines should
///   treat them as point-in-time samples, not monotone series.
/// * The default — no counters — is correct for backends with no
///   internal concurrency machinery worth reporting.
pub trait InstrumentedSketch {
    /// Backend-internal counters as `(name, value)` pairs; empty by
    /// default.
    fn internal_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// A full single-object sketch engine: queryable, single-writer ingestible,
/// mergeable, versioned, shared-ingest aware (most often via the
/// [`SharedIngest`] default `None`), and instrumentable (most often via the
/// [`InstrumentedSketch`] default of no counters). Blanket-implemented for
/// everything providing the capabilities — this is the bound stores and
/// harnesses program against, and it is object-safe
/// (`Box<dyn SketchEngine<T>>`).
pub trait SketchEngine<T: OrderedBits>:
    QuantileEstimator<T>
    + StreamIngest<T>
    + MergeableSketch<T>
    + VersionedSketch
    + SharedIngest<T>
    + InstrumentedSketch
{
}

impl<T: OrderedBits, E> SketchEngine<T> for E where
    E: QuantileEstimator<T>
        + StreamIngest<T>
        + MergeableSketch<T>
        + VersionedSketch
        + SharedIngest<T>
        + InstrumentedSketch
{
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

    impl VersionedSketch for Exact {
        fn version(&self) -> u64 {
            // Every mutation grows one of the two vectors, so their
            // combined length is an exact version.
            (self.xs.len() + self.absorbed.len()) as u64
        }
    }

    // Exclusive-only backend: the default `try_writer` (`None`) applies.
    impl SharedIngest<u64> for Exact {}

    // No internal machinery: the default (no counters) applies.
    impl InstrumentedSketch for Exact {}

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

    fn boxed() -> Box<dyn SketchEngine<u64>> {
        Box::new(Exact::default())
    }

    #[test]
    fn trait_object_engine_round_trips() {
        let mut a = boxed();
        a.update_many(&[10, 20, 30, 40]);
        a.flush();
        assert_eq!(a.stream_len(), 4);
        assert_eq!(a.rank_weight(25), 2);
        assert!((a.rank_fraction(25) - 0.5).abs() < 1e-12);

        let mut b = boxed();
        b.absorb_summary(&a.to_summary());
        assert_eq!(b.stream_len(), 4);
        assert_eq!(b.query(0.0), Some(10));
    }

    #[test]
    fn default_rank_fraction_handles_empty() {
        let e = boxed();
        assert_eq!(e.rank_fraction(7), 0.0);
        assert_eq!(e.cdf(&[1, 2, 3]), vec![0.0, 0.0, 0.0]);
        assert_eq!(e.quantiles(&[0.5]), vec![None]);
    }

    #[test]
    fn version_advances_across_mutations_only() {
        let mut e = boxed();
        let v0 = e.version();
        e.update_many(&[1, 2, 3]);
        let v1 = e.version();
        assert!(v1 > v0, "updates must advance the version");
        // Pure reads leave the version alone.
        let _ = e.query(0.5);
        let _ = e.cdf(&[2]);
        assert_eq!(e.version(), v1);
        let snapshot = e.to_summary();
        assert_eq!(e.version(), v1);
        e.absorb_summary(&snapshot);
        assert!(e.version() > v1, "absorbs must advance the version");
    }

    #[test]
    fn exclusive_only_engines_decline_shared_writers() {
        let e = boxed();
        assert!(e.try_writer().is_none(), "default SharedIngest must report None");
    }

    #[test]
    fn default_cdf_is_rank_fraction_per_point() {
        let mut e = boxed();
        e.update_many(&[0, 1, 2, 3]);
        assert_eq!(e.cdf(&[0, 2, 10]), vec![0.0, 0.5, 1.0]);
        let qs = e.quantiles(&[0.0, 0.99]);
        assert_eq!(qs, vec![Some(0), Some(3)]);
    }
}
