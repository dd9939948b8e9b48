//! The shared sketch state and the public `Quancurrent` handle.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use qc_common::bits::OrderedBits;
use qc_common::engine::{
    ConcurrentIngest, InstrumentedSketch, QuantileEstimator, SharedIngest, StreamIngest,
    VersionedSketch,
};
use qc_common::summary::{Summary, WeightedSummary};
use qc_mwcas::{Arena, MwcasWord};
use qc_reclaim::{Domain, DomainConfig, Shared};

use crate::config::{Builder, Config, MAX_LEVEL};
use crate::gather_sort::GatherSort;
use crate::query::QueryHandle;
use crate::snapshot::build_snapshot;
use crate::stats::{Counters, SketchStats};
use crate::tritmap::Tritmap;
use crate::updater::Updater;

/// Everything update and query handles share (paper Figure 1: the global
/// levels + tritmap, and the per-node Gather&Sort units).
pub(crate) struct SketchShared {
    pub(crate) cfg: Config,
    /// The packed level-state integer (Algorithm 1, line 7).
    pub(crate) tritmap: MwcasWord,
    /// `levels[i]` holds ⊥ (0) or the address of an immutable sorted
    /// array block; swung by DCAS together with the tritmap.
    pub(crate) levels: Box<[MwcasWord]>,
    /// One Gather&Sort unit per (simulated) NUMA node.
    pub(crate) gs: Box<[GatherSort]>,
    /// DCAS descriptor storage (see `qc_mwcas::Arena` for the lifetime
    /// story).
    pub(crate) arena: Arena,
    /// IBR domain that owns every level array block.
    pub(crate) domain: Domain,
    pub(crate) counters: Counters,
    /// Source of distinct per-handle RNG seeds.
    pub(crate) seed_ctr: AtomicU64,
}

impl SketchShared {
    /// Current tritmap (resolving any in-flight DCAS).
    pub(crate) fn tritmap_now(&self) -> Tritmap {
        Tritmap(qc_mwcas::read_plain(&self.tritmap))
    }
}

impl Drop for SketchShared {
    fn drop(&mut self) {
        // Unlink every level array so the domain reclaims it. No handles
        // exist any more (they hold the Arc), so plain reads are exact.
        let handle = self.domain.register();
        for word in self.levels.iter() {
            let raw = qc_mwcas::read_plain(word);
            if raw != 0 {
                word.store_plain(0);
                // SAFETY: unlinked above, never retired before (levels are
                // retired only when replaced or cleared, which repoints the
                // word first).
                unsafe { handle.retire(Shared::<Vec<u64>>::from_raw(raw)) };
            }
        }
        drop(handle);
        self.domain.reclaim_orphans();
    }
}

/// Quancurrent: a concurrent Quantiles sketch (SPAA'23).
///
/// The sketch estimates the quantile distribution of a data stream ingested
/// concurrently by many update threads, while serving queries at any time:
///
/// * each update thread owns an [`Updater`] (thread-local buffer of `b`
///   elements, Algorithm 2);
/// * full local buffers move into a per-node Gather&Sort unit whose owner
///   batches `2k` elements into the shared multi-level sketch (Algorithms
///   3–4), with propagation of different batches running **concurrently**
///   on different levels;
/// * each query thread owns a [`QueryHandle`] that answers from an atomic
///   snapshot (Algorithm 5), cached under the freshness bound ρ.
///
/// The sketch is an r-relaxed PAC quantiles estimator with
/// r = 4kS + (N−S)·b ([`Quancurrent::relaxation_bound`]).
///
/// # Example
///
/// ```
/// use quancurrent::Quancurrent;
///
/// let sketch = Quancurrent::<u64>::builder().k(128).b(4).seed(1).build();
/// let mut updater = sketch.updater();
/// for x in 0..100_000u64 {
///     updater.update(x);
/// }
/// let mut queries = sketch.query_handle();
/// let median = queries.query(0.5).unwrap();
/// assert!((40_000..60_000).contains(&median));
/// ```
pub struct Quancurrent<T: OrderedBits> {
    shared: Arc<SketchShared>,
    next_updater: AtomicUsize,
    _marker: std::marker::PhantomData<fn(T) -> T>,
}

impl<T: OrderedBits> Quancurrent<T> {
    /// Start configuring a sketch.
    pub fn builder() -> Builder<T> {
        Builder::new()
    }

    /// Build with an explicit configuration.
    pub fn with_config(cfg: Config) -> Self {
        let cfg = cfg.validated();
        let domain = Domain::with_config(DomainConfig::default());
        let shared = SketchShared {
            tritmap: MwcasWord::new(0),
            levels: (0..MAX_LEVEL).map(|_| MwcasWord::new(0)).collect(),
            gs: (0..cfg.numa_nodes).map(|_| GatherSort::new(cfg.k, cfg.b)).collect(),
            arena: Arena::new(),
            domain,
            counters: Counters::default(),
            seed_ctr: AtomicU64::new(cfg.seed),
            cfg,
        };
        Self {
            shared: Arc::new(shared),
            next_updater: AtomicUsize::new(0),
            _marker: std::marker::PhantomData,
        }
    }

    /// The sketch's configuration.
    pub fn config(&self) -> &Config {
        &self.shared.cfg
    }

    /// Register an update thread. Placement is fill-first across nodes
    /// (§5.1): the first `threads_per_node` updaters share node 0, the
    /// next batch node 1, and so on.
    pub fn updater(&self) -> Updater<T> {
        let idx = self.next_updater.fetch_add(1, SeqCst);
        self.updater_on(self.shared.cfg.node_of(idx))
    }

    /// Register an update thread pinned to an explicit Gather&Sort unit.
    pub fn updater_on(&self, node: usize) -> Updater<T> {
        assert!(node < self.shared.cfg.numa_nodes, "node {node} out of range");
        Updater::new(self.shared.clone(), node)
    }

    /// Register a query thread (owns a cached snapshot; freshness governed
    /// by the configured ρ).
    pub fn query_handle(&self) -> QueryHandle<T> {
        QueryHandle::new(self.shared.clone())
    }

    /// Size of the stream currently represented by the shared levels.
    ///
    /// Buffered elements (Gather&Sort and thread-local buffers) are not yet
    /// visible — that is exactly the r-relaxation.
    pub fn stream_len(&self) -> u64 {
        self.shared.tritmap_now().stream_size(self.shared.cfg.k)
    }

    /// Elements currently sitting in Gather&Sort buffers (not yet batched).
    pub fn buffered_len(&self) -> usize {
        self.shared.gs.iter().map(GatherSort::pending_len).sum()
    }

    /// The relaxation bound r = 4kS + (N−S)·b for `n_threads` update
    /// threads (§3.1): a query may miss at most `r` recent updates.
    pub fn relaxation_bound(&self, n_threads: usize) -> u64 {
        self.shared.cfg.relaxation(n_threads)
    }

    /// Build a fresh snapshot and return its summary (no caching). For
    /// repeated queries prefer a [`QueryHandle`].
    pub fn snapshot(&self) -> WeightedSummary {
        let handle = self.shared.domain.register();
        build_snapshot(&self.shared, &handle).into_summary()
    }

    /// Elements currently retained in the shared levels: a trit-1 level
    /// holds `k`, a trit-2 level `2k`. Memory is proportional to this plus
    /// the fixed Gather&Sort buffers (`S · 2 · 2k` slot/stamp pairs).
    pub fn levels_retained(&self) -> usize {
        let tm = self.shared.tritmap_now();
        (0..MAX_LEVEL).map(|i| tm.trit(i) as usize * self.shared.cfg.k).sum()
    }

    /// **Quiescent** summary: the levels *plus* all Gather&Sort-buffered
    /// elements at weight 1. This is an extension over the paper (which
    /// never flushes); it gives exact end-of-stream accounting up to
    /// thread-local buffers (query [`Updater::pending`] for those).
    ///
    /// # Contract
    /// The contract of [`Quancurrent::quiescent_parts`], which this
    /// flattens into one sorted list.
    pub fn quiescent_summary(&self) -> WeightedSummary {
        let (levels, mut pending) = self.quiescent_parts();
        pending.sort_unstable();
        let tail = (!pending.is_empty()).then_some((&pending[..], 1));
        WeightedSummary::from_parts(levels.iter().map(|(v, w)| (&v[..], *w)).chain(tail))
    }

    /// The state [`Quancurrent::quiescent_summary`] flattens, as parts: the
    /// snapshot's sorted level arrays with their weights `2^i`, highest
    /// level first, and the Gather&Sort-buffered values (weight 1,
    /// unsorted). A reader can answer over the parts as they are, with no
    /// flatten and no sort of the levels.
    ///
    /// # Contract
    /// Safe to call while updaters run (the keyed store does, on every
    /// hot-key read that misses its cache). The levels are read first as
    /// one atomic snapshot, then the buffers, and a buffer whose batch is
    /// mid-install is skipped — so no element is ever counted twice and
    /// the parts never hold more weight than was placed. They may
    /// transiently miss elements in flight from a buffer into the levels.
    /// With no concurrent updates they are exact up to the thread-local
    /// buffers.
    pub fn quiescent_parts(&self) -> (Vec<(Vec<u64>, u64)>, Vec<u64>) {
        let handle = self.shared.domain.register();
        let levels = build_snapshot(&self.shared, &handle).parts;
        let pending = self.shared.gs.iter().flat_map(GatherSort::pending).collect();
        (levels, pending)
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> SketchStats {
        self.shared.counters.snapshot()
    }

    /// Memory diagnostics: reclamation domain counters and DCAS descriptor
    /// footprint in bytes.
    pub fn memory_stats(&self) -> (qc_reclaim::DomainStats, usize) {
        (self.shared.domain.stats(), self.shared.arena.footprint_bytes())
    }

    /// Cumulative holes per Gather&Sort region j ∈ [0, 2k/b), summed over
    /// all units — the empirical counterpart of §4.1's per-region H_j
    /// analysis (region j is written by the thread whose reservation
    /// covered slots [j·b, (j+1)·b)). Divide by [`SketchStats::batches`]
    /// for per-batch expectations.
    pub fn hole_region_histogram(&self) -> Vec<u64> {
        let regions = 2 * self.shared.cfg.k / self.shared.cfg.b;
        let mut histogram = vec![0u64; regions];
        for gs in self.shared.gs.iter() {
            for (j, h) in gs.region_holes().into_iter().enumerate() {
                histogram[j] += h;
            }
        }
        histogram
    }

    /// Internal shared state (used by in-crate tests).
    #[cfg(test)]
    pub(crate) fn shared(&self) -> &Arc<SketchShared> {
        &self.shared
    }
}

impl<T: OrderedBits> Builder<T> {
    /// Build the configured sketch.
    pub fn build(&self) -> Quancurrent<T> {
        Quancurrent::with_config(self.config())
    }
}

/// Read-side engine capability: every call answers from a **fresh atomic
/// snapshot** (Algorithm 5). For repeated queries prefer a cached
/// [`QueryHandle`]; for batch queries use the overridden `cdf`/`quantiles`,
/// which collect one snapshot for all probes.
///
/// `stream_len` reports the weight visible in the shared levels — buffered
/// elements are invisible by design (the r-relaxation,
/// [`Quancurrent::relaxation_bound`]).
impl<T: OrderedBits> QuantileEstimator<T> for Quancurrent<T> {
    fn stream_len(&self) -> u64 {
        self.shared.tritmap_now().stream_size(self.shared.cfg.k)
    }

    fn query(&self, phi: f64) -> Option<T> {
        self.snapshot().quantile_bits(phi).map(T::from_ordered_bits)
    }

    fn rank_weight(&self, x: T) -> u64 {
        self.snapshot().rank_bits(x.to_ordered_bits())
    }

    fn cdf(&self, split_points: &[T]) -> Vec<f64> {
        let bits: Vec<u64> = split_points.iter().map(|x| x.to_ordered_bits()).collect();
        self.snapshot().cdf_bits(&bits)
    }

    fn quantiles(&self, phis: &[f64]) -> Vec<Option<T>> {
        let snapshot = self.snapshot();
        phis.iter().map(|&phi| snapshot.quantile_bits(phi).map(T::from_ordered_bits)).collect()
    }

    /// The base ε(k) of the underlying Quantiles sketch. Relaxation adds
    /// a staleness term on top (see [`qc_common::error::relaxed_epsilon`]
    /// and [`Quancurrent::relaxation_bound`]).
    fn error_bound(&self) -> f64 {
        qc_common::error::sequential_epsilon(self.shared.cfg.k)
    }
}

/// Version capability: every transition of the shared levels is either a
/// batch installation or a propagation step, and both bump a counter at
/// their DCAS linearization point — their sum is a state version.
///
/// The counters are `Relaxed`, so a fully unsynchronized reader may see a
/// version slightly behind the levels it can already observe; under
/// external synchronization (a store's stripe lock) or at quiescence the
/// reading is exact, which is what the keyed store's summary cache needs.
/// Elements still inside Gather&Sort buffers or updater-local tails are
/// invisible to queries (the r-relaxation), so they correctly do not
/// advance the version.
impl<T: OrderedBits> VersionedSketch for Quancurrent<T> {
    fn version(&self) -> u64 {
        use std::sync::atomic::Ordering::Relaxed;
        self.shared.counters.batches.load(Relaxed) + self.shared.counters.propagations.load(Relaxed)
    }
}

/// Multi-writer engine capability: each writer is an owned [`Updater`]
/// feeding the paper's three-level ingestion path.
impl<T: OrderedBits> ConcurrentIngest<T> for Quancurrent<T> {
    fn writer(&self) -> Box<dyn StreamIngest<T> + Send + '_> {
        Box::new(self.updater())
    }
}

/// Shared-access leases: an [`Updater`] shares ownership of the sketch
/// internals (it holds the `Arc`), so it is exactly the self-contained
/// handle [`SharedIngest`] asks for and every lease is granted.
///
/// The handle keeps the paper's relaxed semantics verbatim: its
/// [`StreamIngest::flush`] is a no-op, so a sub-`b` thread-local tail
/// stays invisible to queries (part of the r-relaxation bound). Layers
/// that need exact post-flush accounting wrap the updater — see the keyed
/// store's concurrent engine, which re-homes taken tails via
/// [`Updater::take_pending`].
impl<T: OrderedBits> SharedIngest<T> for Quancurrent<T> {
    fn try_writer(&self) -> Option<Box<dyn StreamIngest<T> + Send>> {
        Some(Box::new(self.updater()))
    }
}

/// Telemetry bridge: the paper's operation counters ([`SketchStats`])
/// exposed under stable names, so DCAS retries and snapshot miss rates
/// surface in a metrics registry next to store- and server-level
/// instruments.
impl<T: OrderedBits> InstrumentedSketch for Quancurrent<T> {
    fn internal_counters(&self) -> Vec<(&'static str, u64)> {
        let stats = self.stats();
        vec![
            ("batches", stats.batches),
            ("propagations", stats.propagations),
            ("merges", stats.merges),
            ("dcas_retries", stats.dcas_retries),
            ("level_waits", stats.level_waits),
            ("snapshots_built", stats.snapshots_built),
            ("snapshot_retries", stats.snapshot_retries),
            ("snapshot_cache_hits", stats.cache_hits),
            ("snapshot_cache_misses", stats.cache_misses),
            ("holes", stats.holes),
            ("gs_full_spins", stats.gs_full_spins),
        ]
    }
}

impl<T: OrderedBits> std::fmt::Debug for Quancurrent<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Quancurrent")
            .field("k", &self.shared.cfg.k)
            .field("b", &self.shared.cfg.b)
            .field("nodes", &self.shared.cfg.numa_nodes)
            .field("tritmap", &self.shared.tritmap_now())
            .field("stream_len", &self.stream_len())
            .finish()
    }
}
