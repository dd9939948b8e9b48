//! The per-key engine of [`crate::SketchStore`]: [`TieredEngine`].
//!
//! Every key of the store is a [`TieredEngine`], which moves between two
//! memory tiers:
//!
//! * **cold** — the Agarwal et al. sequential sketch
//!   ([`qc_sequential::Sketch`]). Cheapest per key (`O(k log(n/k))`
//!   retained elements, nothing preallocated), exact accounting on every
//!   update, but single-writer by nature;
//! * **hot** — a [`ConcurrentEngine`]: a [`Quancurrent`] sketch bundled
//!   with a resident [`Updater`] and an *absorbed* side summary for remote
//!   state. Highest hot-key throughput; pays a fixed Gather&Sort
//!   footprint (`~8k` words) the moment the key promotes.
//!
//! A key starts cold and **promotes in place** once its cumulative update
//! pressure crosses [`crate::StoreConfig::promotion_threshold`]; idle hot
//! keys demote back on cool-down sweeps ([`crate::SketchStore::cool_down`]).
//! The threshold also expresses the pure populations: `u64::MAX` pins every
//! key cold, `0` makes a key hot on its first write. Both engines implement
//! the read, write and merge traits of [`qc_common::engine`]; shared-lock
//! writers, versions and internal counters are inherent methods the store
//! calls on the concrete types, and [`TieredEngine`] dispatches by
//! matching on its tier.
//!
//! Tier migration in both directions is a summary round-trip
//! ([`MergeableSketch::to_summary`] → [`MergeableSketch::absorb_summary`])
//! and conserves total stream weight **exactly** — the store's
//! conservation invariants hold across any number of promotions and
//! demotions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use qc_common::bits::OrderedBits;
use qc_common::engine::{MergeableSketch, QuantileEstimator, StreamIngest};
use qc_common::rng::SplitMix64;
use qc_common::summary::{Summary, UnionView, WeightedSummary};
use qc_sequential::SketchParts;
use quancurrent::{Quancurrent, Updater};

use crate::merge::{by_level, merge_runs_flat, merge_summaries};
use crate::store::StoreConfig;

/// The hot tier of [`TieredEngine`]: a [`Quancurrent`] sketch, one
/// resident [`Updater`] for `&mut self` writes (the store makes those under
/// the key's exclusive stripe lock, so one handle is exactly the
/// single-writer discipline the local buffer expects), the idle handles
/// behind its shared-lock [`Writer`]s ([`ConcurrentEngine::writer`]), and
/// an *absorbed* summary holding everything merged in from other sketches.
///
/// Reads gather the engine's state as [`EngineParts`] — the sketch's
/// level arrays, one sorted tail (Gather&Sort pending, the updater's
/// unflushed tail, the shared writers' spill) and the absorbed summaries —
/// and answer over their union without merging them, so queries see
/// **every** element ever handed to the engine whose write has completed
/// — exactly the keyed-store read semantics. Only
/// [`MergeableSketch::to_summary`] merges the parts, once.
pub struct ConcurrentEngine<T: OrderedBits = f64> {
    sketch: Quancurrent<T>,
    /// The resident writer. The mutex exists purely so the engine is
    /// `Sync` without unsafe code: mutations go through `get_mut` (no
    /// locking — the store's stripe write lock is the real exclusion),
    /// and concurrent readers take the uncontended lock just long enough
    /// to copy the sub-`b` pending tail.
    writer: Mutex<Updater<T>>,
    /// The shared writers' idle handles and how many were minted; the
    /// mutex guards only the pop and the push around each write.
    handles: Mutex<Handles<T>>,
    /// Compacted bulk of absorbed remote weight. `Arc`ed, like the buffer
    /// below, so gathering [`EngineParts`] clones handles, not summaries.
    absorbed: Arc<WeightedSummary>,
    /// Recently absorbed summaries, buffered **uncompacted**: folding each
    /// small ingest straight into `absorbed` would re-run randomized
    /// compaction on every call, compounding its rank perturbation across
    /// N ingests. Folded into `absorbed` in one pass per
    /// [`ABSORB_COMPACT_FACTOR`]`·k` retained elements instead.
    absorb_buffer: Vec<Arc<WeightedSummary>>,
    k: usize,
    merge_seed: u64,
    /// Advancing seed source for absorb-buffer compactions — each epoch
    /// flips fresh coins (reusing one sequence would correlate repeated
    /// halvings of the same level).
    compact_rng: SplitMix64,
    version: u64,
    /// Sub-`b` tails re-homed by shared writes (a Gather&Sort placement
    /// is exactly `b` slots, so a partial tail cannot enter the sketch
    /// directly). Always shorter than `b`: a write drains every full
    /// multiple of `b` back through its handle. Composed into every read,
    /// so a shared write's weight is exactly visible when it returns.
    spill: Mutex<Vec<u64>>,
    /// Shared-write progress — the shared half of
    /// [`ConcurrentEngine::version`] (the `&mut self` half is `version`).
    /// A shared write bumps it with `Release` **after** its weight is
    /// observable, and also **before** draining previously-visible spill
    /// weight into its local buffer (see [`Writer::write`]) — so for any
    /// version a reader `Acquire`-loads before materializing, the final
    /// state of that version contains everything it accounts for, and any
    /// materialization that raced an in-flight write carries a tag the
    /// write's completion bump supersedes.
    shared_ops: AtomicU64,
}

/// A [`ConcurrentEngine`]'s shared-write handles at rest.
struct Handles<T: OrderedBits> {
    /// Handles returned by dropped [`Writer`]s — each holds no weight.
    idle: Vec<Updater<T>>,
    /// Handles minted (idle + in a live [`Writer`]), capped per call of
    /// [`ConcurrentEngine::writer`].
    minted: usize,
}

/// A key's state as the parts a read answers over, gathered without
/// merging, on either tier: sorted runs with their weights, one sorted
/// tail of unit-weight values, and the absorbed summaries.
///
/// * **Hot** ([`ConcurrentEngine::parts`]): the snapshot's level arrays,
///   the tail (Gather&Sort pending, the resident writer's unflushed tail,
///   the shared writers' spill) and the absorbed summaries.
/// * **Cold** ([`qc_sequential::Sketch::parts`]): the sketch's full levels,
///   shared with it (`Arc` clones, no copy), and its base buffer sorted
///   once as the tail.
///
/// [`EngineParts::view`] answers over their union — rank is additive
/// across the parts — exactly as a flat summary of every part's items
/// would. The store's read cache builds the key's flat summary from them
/// once, on the first read that needs one, and keeps it beside them.
#[derive(Debug)]
pub struct EngineParts {
    /// The runs, and the unit-weight tail as their `base`.
    runs: SketchParts,
    /// The absorbed bulk, then the buffered absorbs (hot only).
    absorbed: Vec<Arc<WeightedSummary>>,
    /// How `summary` flattens the parts: `Some((k, merge_seed))` merges a
    /// hot engine's parts into its bounded summary; `None` is a cold
    /// sketch's own flat composition ([`SketchParts::summary`]).
    merge: Option<(usize, u64)>,
    /// The flat summary, built on first demand.
    summary: OnceLock<Arc<WeightedSummary>>,
}

impl EngineParts {
    /// A cold key's parts: its sequential sketch's runs.
    fn cold(runs: SketchParts) -> Self {
        EngineParts { runs, absorbed: Vec::new(), merge: None, summary: OnceLock::new() }
    }

    /// The union of the parts, answering without a merge.
    pub fn view(&self) -> UnionView<'_> {
        let mut view = UnionView::new();
        self.push_into(&mut view);
        view
    }

    /// Add every part to `view`.
    pub(crate) fn push_into<'a>(&'a self, view: &mut UnionView<'a>) {
        self.runs.push_into(view);
        for summary in &self.absorbed {
            view.push_weighted(summary);
        }
    }

    /// The key's flat summary, built on the first call and shared by every
    /// later one.
    pub(crate) fn summary(&self) -> Arc<WeightedSummary> {
        Arc::clone(self.summary.get_or_init(|| Arc::new(self.flatten())))
    }

    /// The key's flat summary, built afresh. A cold key's is its sketch's
    /// own flat composition, bit for bit. A hot key's is one merge of the
    /// parts: the level arrays go into the merge kernel as the level runs
    /// they are and the tail as one level-0 run, so every level receives
    /// the multiset the flat composition
    /// `merge_summaries([quiescent, tail, absorbed, ..])` gave it, and the
    /// compaction coins and the output bits are the same.
    fn flatten(&self) -> WeightedSummary {
        let Some((k, merge_seed)) = self.merge else { return self.runs.summary() };
        let absorbed: Vec<Vec<Vec<u64>>> =
            self.absorbed.iter().map(|summary| summary.level_runs()).collect();
        let levels =
            self.runs.levels.iter().map(|(run, w)| (w.trailing_zeros() as usize, &run[..]));
        let tail = std::iter::once((0, &self.runs.base[..]));
        merge_runs_flat(
            levels.chain(tail).chain(by_level(absorbed.iter().map(Vec::as_slice))),
            k,
            merge_seed,
        )
    }
}

/// Buffered absorbed summaries fold into the compacted bulk once their
/// combined retained size exceeds this multiple of `k` (a bounded read-side
/// merge cost bought with an `N·s / (factor·k)` reduction in compaction
/// passes for N ingests of size `s`).
pub const ABSORB_COMPACT_FACTOR: usize = 4;

impl<T: OrderedBits> ConcurrentEngine<T> {
    /// Build an engine with level size `k`, local buffer size `b`, and a
    /// deterministic seed.
    pub fn new(k: usize, b: usize, seed: u64) -> Self {
        let sketch = Quancurrent::<T>::builder().k(k).b(b).seed(seed).build();
        let writer = Mutex::new(sketch.updater());
        let handles = Mutex::new(Handles { idle: Vec::new(), minted: 0 });
        // Decorrelate merge coins from the sketch's sampling coins with a
        // full mixer step (`seed | 1` made key seeds differing only in
        // bit 0 share their compaction randomness).
        let mut compact_rng = SplitMix64::new(seed);
        let merge_seed = compact_rng.next_u64();
        Self {
            sketch,
            writer,
            handles,
            absorbed: Arc::new(WeightedSummary::empty()),
            absorb_buffer: Vec::new(),
            k,
            merge_seed,
            compact_rng,
            version: 0,
            spill: Mutex::new(Vec::new()),
            shared_ops: AtomicU64::new(0),
        }
    }

    /// The engine's state as parts: shared levels, one sorted tail
    /// (Gather&Sort buffers + unflushed writer tail + shared-write spill)
    /// and the absorbed remote weight. The levels are read before the
    /// buffers (see [`Quancurrent::quiescent_parts`]), so nothing is
    /// counted twice. Exact and deterministic when no shared write is in
    /// flight, so a cached copy is indistinguishable from a fresh gather.
    /// A shared write racing the gather may be partly visible or
    /// transiently missed; it bumps [`ConcurrentEngine::version`] before
    /// and after moving weight, so such parts are never tagged with a
    /// settled version.
    pub fn parts(&self) -> EngineParts {
        let (snapshot, mut tail) = self.sketch.quiescent_parts();
        // The snapshot lists its levels highest first.
        let levels = snapshot.into_iter().rev().map(|(run, weight)| (Arc::new(run), weight));
        tail.extend(self.writer.lock().unwrap().pending().iter().map(|v| v.to_ordered_bits()));
        tail.extend(self.spill.lock().unwrap().iter().copied());
        tail.sort_unstable();
        EngineParts {
            runs: SketchParts { base: tail, levels: levels.collect() },
            absorbed: std::iter::once(&self.absorbed).chain(&self.absorb_buffer).cloned().collect(),
            merge: Some((self.k, self.merge_seed)),
            summary: OnceLock::new(),
        }
    }

    /// Total absorbed remote weight (compacted bulk + uncompacted buffer).
    fn absorbed_weight(&self) -> u64 {
        self.absorbed.stream_len() + self.absorb_buffer.iter().map(|s| s.stream_len()).sum::<u64>()
    }

    /// Fold the buffered absorbed parts into the bulk summary: one
    /// randomized compaction pass for the whole epoch, with fresh coins.
    fn compact_absorbed(&mut self) {
        let seed = self.compact_rng.next_u64();
        let parts = std::iter::once(&self.absorbed).chain(&self.absorb_buffer).map(|s| &**s);
        self.absorbed = Arc::new(merge_summaries(parts, self.k, seed));
        self.absorb_buffer.clear();
    }

    /// The underlying concurrent sketch (diagnostics).
    pub fn sketch(&self) -> &Quancurrent<T> {
        &self.sketch
    }

    /// Retained 64-bit words — the fixed Gather&Sort allocation (2 buffers
    /// × 2k slot/stamp pairs) plus live level arrays and side state.
    pub fn footprint(&self) -> usize {
        8 * self.k
            + self.sketch.levels_retained()
            + self.writer.lock().unwrap().pending_len()
            + self.spill.lock().unwrap().len()
            + self.absorbed.num_retained()
            + self.absorb_buffer.iter().map(|s| s.num_retained()).sum::<usize>()
    }

    /// Completed shared writes (the shared half of the version counter).
    /// Exact under external synchronization — which is how
    /// [`TieredEngine`] folds it into its own version and epoch
    /// accounting.
    pub(crate) fn shared_writes(&self) -> u64 {
        self.shared_ops.load(Ordering::Acquire)
    }

    /// A monotone counter identifying the engine's observable state: parts
    /// or a summary tagged with the version that produced them stay valid
    /// for exactly as long as `version` returns the same value.
    ///
    /// Accounted in two halves: `&mut self` mutations (resident writes,
    /// absorbs, compactions — exclusive under the store's stripe write
    /// lock) bump the plain counter, and every shared write that moved
    /// weight bumps the shared-ops cell. Both halves only grow, so the sum
    /// is monotone; reading the shared half with `Acquire` *before*
    /// materializing a summary guarantees the materialization sees at
    /// least everything the version accounts for (in-flight shared writes
    /// may additionally be visible early — they invalidate the tag when
    /// they land).
    pub fn version(&self) -> u64 {
        self.version + self.shared_writes()
    }

    /// A writer for shared-lock writes through `&self`, so many threads
    /// can ingest while their owner holds only a shared lock: an idle
    /// handle, or a fresh one while fewer than `cap` were minted. `None`
    /// when `cap` handles are all in use, and at once for `cap == 0` (the
    /// store's exclusive-path baseline then takes no handle lock). The
    /// writer borrows the engine, so no handle outlives it or a
    /// `&mut self` call; dropping the writer gives its handle back.
    pub fn writer(&self, cap: usize) -> Option<Writer<'_, T>> {
        if cap == 0 {
            return None;
        }
        let mut handles = self.handles.lock().unwrap();
        let updater = match handles.idle.pop() {
            Some(updater) => updater,
            None if handles.minted < cap => {
                handles.minted += 1;
                self.sketch.updater()
            }
            None => return None,
        };
        Some(Writer { engine: self, updater: Some(updater) })
    }

    /// Drop the idle shared-write handles and restart the mint count.
    /// Under `&mut self` no [`Writer`] is live, so the idle handles are
    /// all there are.
    fn drop_idle_writers(&mut self) {
        let handles = self.handles.get_mut().unwrap();
        handles.idle.clear();
        handles.minted = 0;
    }

    /// The wrapped Quancurrent's operation counters (DCAS retries,
    /// snapshot miss rates, …), unchanged.
    pub(crate) fn internal_counters(&self) -> Vec<(&'static str, u64)> {
        self.sketch.internal_counters()
    }
}

/// A shared-lock writer borrowed from a [`ConcurrentEngine`]: one of its
/// per-thread [`Updater`]s (thread-local buffer → Gather&Sort → DCAS, the
/// paper's lock-free ingestion path), used from one thread at a time,
/// concurrently with other writers and with the engine's `&self` reads.
///
/// Each [`Writer::write`] leaves its batch exactly visible: full
/// `b`-multiples go through Gather&Sort placement, the sub-`b` remainder
/// is re-homed into the engine's spill (composed into every read), and
/// the shared-ops counter advances so cached summaries of the pre-write
/// state invalidate. The handle therefore holds no weight between
/// writes, and dropping the writer returns it to the engine's idle set.
pub struct Writer<'a, T: OrderedBits> {
    engine: &'a ConcurrentEngine<T>,
    /// `Some` until the drop gives it back.
    updater: Option<Updater<T>>,
}

impl<T: OrderedBits> Writer<'_, T> {
    /// Write `xs` and make them exactly visible. An empty batch moves
    /// nothing and keeps the version (idle writes stay cache-neutral).
    pub fn write(&mut self, xs: &[T]) {
        if xs.is_empty() {
            return;
        }
        let engine = self.engine;
        let updater = self.updater.as_mut().expect("a writer holds its handle until dropped");
        for &x in xs {
            updater.update(x);
        }
        let tail = updater.take_pending();
        let b = engine.sketch.config().b;
        // Park the tail in the spill, and take back out every full
        // multiple of `b` to push through the Gather&Sort path. The lock
        // scope covers only the vector surgery: placements (which can make
        // this thread a batch owner doing real merge work) run outside it.
        let refill: Vec<u64> = {
            let mut spill = engine.spill.lock().unwrap();
            spill.extend(tail.iter().map(|v| v.to_ordered_bits()));
            let take = spill.len() - spill.len() % b;
            if take > 0 {
                // Draining moves weight that earlier versions already
                // account for (spill elements are read-visible) into this
                // writer's local buffer, where it is invisible until the
                // placements below land. Bump the version *before* the
                // removal so any summary materialized during that window
                // carries a tag the completion bump (below) supersedes —
                // a reader can transiently miss in-flight weight, but
                // never cache that miss against a final version.
                engine.shared_ops.fetch_add(1, Ordering::Release);
            }
            spill.drain(..take).collect()
        };
        for bits in refill {
            updater.update(T::from_ordered_bits(bits));
        }
        debug_assert_eq!(updater.pending_len(), 0, "refill must be a multiple of b");
        engine.shared_ops.fetch_add(1, Ordering::Release);
    }
}

impl<T: OrderedBits> Drop for Writer<'_, T> {
    fn drop(&mut self) {
        if let Some(updater) = self.updater.take() {
            self.engine.handles.lock().unwrap().idle.push(updater);
        }
    }
}

impl<T: OrderedBits> QuantileEstimator<T> for ConcurrentEngine<T> {
    fn stream_len(&self) -> u64 {
        // Cheap exact form of `parts().view().stream_len()`: the parts'
        // weights summed without gathering them.
        self.sketch.stream_len()
            + self.sketch.buffered_len() as u64
            + self.writer.lock().unwrap().pending_len() as u64
            + self.spill.lock().unwrap().len() as u64
            + self.absorbed_weight()
    }

    fn query(&self, phi: f64) -> Option<T> {
        self.parts().view().quantile(phi)
    }

    fn rank_weight(&self, x: T) -> u64 {
        self.parts().view().rank_bits(x.to_ordered_bits())
    }

    fn cdf(&self, split_points: &[T]) -> Vec<f64> {
        let bits: Vec<u64> = split_points.iter().map(|x| x.to_ordered_bits()).collect();
        self.parts().view().cdf_bits(&bits)
    }

    fn quantiles(&self, phis: &[f64]) -> Vec<Option<T>> {
        let parts = self.parts();
        let view = parts.view();
        phis.iter().map(|&phi| view.quantile(phi)).collect()
    }

    fn error_bound(&self) -> f64 {
        qc_common::error::sequential_epsilon(self.k)
    }
}

impl<T: OrderedBits> StreamIngest<T> for ConcurrentEngine<T> {
    fn update(&mut self, x: T) {
        self.writer.get_mut().unwrap().update(x);
        self.version += 1;
    }

    /// Overridden to advance the version once per batch (and to hoist the
    /// writer borrow out of the per-element loop).
    fn update_many(&mut self, xs: &[T]) {
        if xs.is_empty() {
            return;
        }
        let writer = self.writer.get_mut().unwrap();
        for &x in xs {
            writer.update(x);
        }
        self.version += 1;
    }

    // `flush` is the default no-op: the unflushed tail is part of every
    // read's `parts`, so nothing is ever invisible.
}

impl<T: OrderedBits> MergeableSketch<T> for ConcurrentEngine<T> {
    fn to_summary(&self) -> WeightedSummary {
        self.parts().flatten()
    }

    fn absorb_summary(&mut self, summary: &WeightedSummary) {
        if summary.stream_len() == 0 && summary.num_retained() == 0 {
            // Nothing observable changes; keep the version (and cached
            // summaries) stable.
            return;
        }
        self.absorb_buffer.push(Arc::new(summary.clone()));
        self.version += 1;
        let buffered: usize = self.absorb_buffer.iter().map(|s| s.num_retained()).sum();
        if buffered > ABSORB_COMPACT_FACTOR * self.k {
            self.compact_absorbed();
        }
    }
}

impl<T: OrderedBits> std::fmt::Debug for ConcurrentEngine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentEngine")
            .field("k", &self.k)
            .field("stream_len", &QuantileEstimator::stream_len(self))
            .field("absorbed", &self.absorbed_weight())
            .field("version", &self.version)
            .finish()
    }
}

/// The hot variant is boxed so the common case — thousands of cold keys —
/// pays the sequential sketch's size, not the concurrent engine's.
enum TierState<T: OrderedBits> {
    Cold(qc_sequential::Sketch<T>),
    Hot(Box<ConcurrentEngine<T>>),
}

/// The store's per-key engine: starts every key as a compact sequential
/// sketch and moves it between tiers as update pressure changes. See the
/// [module docs](self) for the full tiering story.
///
/// * **Promotion** (cold → hot) happens inline in `update`/`update_many`
///   once cumulative updates reach the configured threshold: the cold
///   sketch's summary is absorbed into a fresh [`ConcurrentEngine`], so
///   not a single unit of weight is lost.
/// * **Demotion** (hot → cold) happens on a cool-down sweep when
///   an entire epoch passed without updates: the hot engine's resident
///   summary round-trips into a fresh sequential sketch, releasing the
///   Gather&Sort buffers.
pub struct TieredEngine<T: OrderedBits = f64> {
    state: TierState<T>,
    k: usize,
    b: usize,
    seed: u64,
    promotion_threshold: u64,
    /// Updates since creation or last demotion (promotion pressure).
    pressure: u64,
    /// Exclusive-path updates in the current cool-down epoch.
    epoch_updates: u64,
    /// The hot engine's shared-write count at the last `maintain` sweep —
    /// shared writes bypass `&mut self`, so idle detection compares this
    /// watermark instead of counting.
    epoch_shared_watermark: u64,
    version: u64,
}

impl<T: OrderedBits> TieredEngine<T> {
    /// Build a cold engine. `promotion_threshold` is the cumulative
    /// update count **past which** the key promotes — the first update
    /// beyond it fires the promotion (`0` promotes on the first update,
    /// `u64::MAX` pins the key cold).
    pub fn new(k: usize, b: usize, seed: u64, promotion_threshold: u64) -> Self {
        Self {
            state: TierState::Cold(qc_sequential::Sketch::with_seed(k, seed)),
            k,
            b,
            seed,
            promotion_threshold,
            pressure: 0,
            epoch_updates: 0,
            epoch_shared_watermark: 0,
            version: 0,
        }
    }

    /// A cold engine for one key of a store configured by `cfg`; `seed` is
    /// the key's deterministic sampling seed.
    pub(crate) fn build(cfg: &StoreConfig, seed: u64) -> Self {
        Self::new(cfg.k, cfg.b, seed, cfg.promotion_threshold)
    }

    /// Retained 64-bit words: a cold key's retained values, a hot key's
    /// values plus its fixed Gather&Sort buffers — what
    /// [`crate::StoreStats::retained`] sums. Words held, not capacity.
    pub(crate) fn footprint(&self) -> usize {
        match &self.state {
            TierState::Cold(cold) => cold.num_retained(),
            TierState::Hot(hot) => hot.footprint(),
        }
    }

    /// End a cool-down epoch, called under the key's exclusive stripe lock
    /// by [`crate::SketchStore::cool_down`]: demotes the key iff the
    /// entire epoch since the previous call saw no updates — on **either**
    /// write path: exclusive-lock updates count in `epoch_updates`, shared
    /// writes move the hot engine's shared-write counter past the epoch
    /// watermark. Returns whether the key demoted. A hot key that stays
    /// hot drops its idle writer handles; they re-mint on demand.
    pub(crate) fn maintain(&mut self) -> bool {
        let shared_now = self.shared_writes();
        let idle = self.epoch_updates == 0 && shared_now == self.epoch_shared_watermark;
        self.epoch_updates = 0;
        self.epoch_shared_watermark = shared_now;
        if idle && self.is_hot() {
            self.demote_now();
            return true;
        }
        if let TierState::Hot(hot) = &mut self.state {
            hot.drop_idle_writers();
        }
        false
    }

    /// The hot engine's completed shared writes (0 while cold).
    fn shared_writes(&self) -> u64 {
        match &self.state {
            TierState::Cold(_) => 0,
            TierState::Hot(hot) => hot.shared_writes(),
        }
    }

    /// Is the key currently on the concurrent tier?
    pub fn is_hot(&self) -> bool {
        matches!(self.state, TierState::Hot(_))
    }

    /// The key's [`EngineParts`] on either tier.
    pub(crate) fn parts(&self) -> EngineParts {
        match &self.state {
            TierState::Cold(cold) => EngineParts::cold(cold.parts()),
            TierState::Hot(hot) => hot.parts(),
        }
    }

    /// A well-mixed seed for a freshly built tier engine. Mixing the
    /// version in makes repeated promote/demote cycles draw fresh
    /// sampling randomness instead of replaying one coin sequence.
    fn migration_seed(&self, salt: u64) -> u64 {
        let mut mixer = SplitMix64::new(self.seed ^ salt ^ self.version);
        mixer.next_u64()
    }

    /// Force promotion to the concurrent tier (no-op if already hot).
    fn promote_now(&mut self) {
        if let TierState::Cold(cold) = &self.state {
            let summary = MergeableSketch::to_summary(cold);
            let mut hot = ConcurrentEngine::new(self.k, self.b, self.migration_seed(0x9E37_79B9));
            hot.absorb_summary(&summary);
            self.state = TierState::Hot(Box::new(hot));
            self.epoch_shared_watermark = 0;
            self.version += 1;
        }
    }

    /// Force demotion to the sequential tier via an exact summary
    /// round-trip (no-op if already cold). Resets promotion pressure; the
    /// hot engine's writer handles go with it.
    pub fn demote_now(&mut self) {
        if let TierState::Hot(hot) = &self.state {
            let summary = hot.to_summary();
            // Fold the hot engine's shared-write half into the plain
            // counter (+1 for the migration itself) so the version never
            // regresses when the shared cell is dropped with the engine.
            self.version = self.version + hot.shared_writes() + 1;
            let mut cold = qc_sequential::Sketch::with_seed(
                self.k,
                self.migration_seed(0x6A09_E667_F3BC_C908),
            );
            MergeableSketch::absorb_summary(&mut cold, &summary);
            self.state = TierState::Cold(cold);
            self.pressure = 0;
            self.epoch_shared_watermark = 0;
        }
    }

    fn after_updates(&mut self, n: u64) {
        self.pressure = self.pressure.saturating_add(n);
        self.epoch_updates = self.epoch_updates.saturating_add(n);
        if !self.is_hot() && self.pressure > self.promotion_threshold {
            self.promote_now();
        }
    }

    /// The state version (see [`ConcurrentEngine::version`]): the
    /// wrapper's own counter covers `&mut self` mutations and tier
    /// migrations in either direction (the inner engines' versions reset
    /// across migrations, so they cannot be forwarded directly), plus the
    /// hot engine's shared-write half. Demotion folds
    /// the shared half into the plain counter before dropping the hot
    /// engine, so the sum never regresses.
    pub fn version(&self) -> u64 {
        self.version + self.shared_writes()
    }

    /// A shared-lock writer, tier-aware: a hot key's is the concurrent
    /// engine's ([`ConcurrentEngine::writer`]); a cold key declines
    /// (`None`), keeping callers on the exclusive path that drives
    /// promotion pressure.
    pub fn writer(&self, cap: usize) -> Option<Writer<'_, T>> {
        match &self.state {
            TierState::Cold(_) => None,
            TierState::Hot(hot) => hot.writer(cap),
        }
    }

    /// The hot tier's operation counters; a cold (sequential) tier has
    /// none. Values reset on demotion, so consumers aggregating across
    /// keys treat them as point-in-time samples, not monotone series.
    pub(crate) fn internal_counters(&self) -> Vec<(&'static str, u64)> {
        match &self.state {
            TierState::Cold(_) => Vec::new(),
            TierState::Hot(hot) => hot.internal_counters(),
        }
    }
}

impl<T: OrderedBits> QuantileEstimator<T> for TieredEngine<T> {
    fn stream_len(&self) -> u64 {
        match &self.state {
            TierState::Cold(cold) => cold.stream_len(),
            TierState::Hot(hot) => hot.stream_len(),
        }
    }

    fn query(&self, phi: f64) -> Option<T> {
        self.parts().view().quantile(phi)
    }

    fn rank_weight(&self, x: T) -> u64 {
        self.parts().view().rank_bits(x.to_ordered_bits())
    }

    fn cdf(&self, split_points: &[T]) -> Vec<f64> {
        let bits: Vec<u64> = split_points.iter().map(|x| x.to_ordered_bits()).collect();
        self.parts().view().cdf_bits(&bits)
    }

    fn quantiles(&self, phis: &[f64]) -> Vec<Option<T>> {
        let parts = self.parts();
        let view = parts.view();
        phis.iter().map(|&phi| view.quantile(phi)).collect()
    }

    fn error_bound(&self) -> f64 {
        qc_common::error::sequential_epsilon(self.k)
    }
}

impl<T: OrderedBits> StreamIngest<T> for TieredEngine<T> {
    fn update(&mut self, x: T) {
        match &mut self.state {
            TierState::Cold(cold) => cold.update(x),
            TierState::Hot(hot) => hot.update(x),
        }
        self.version += 1;
        self.after_updates(1);
    }

    /// Overridden so promotion pressure — and the version — is accounted
    /// once per batch.
    fn update_many(&mut self, xs: &[T]) {
        if xs.is_empty() {
            return;
        }
        match &mut self.state {
            TierState::Cold(cold) => cold.update_many(xs),
            TierState::Hot(hot) => hot.update_many(xs),
        }
        self.version += 1;
        self.after_updates(xs.len() as u64);
    }
}

impl<T: OrderedBits> MergeableSketch<T> for TieredEngine<T> {
    fn to_summary(&self) -> WeightedSummary {
        match &self.state {
            TierState::Cold(cold) => cold.to_summary(),
            TierState::Hot(hot) => hot.to_summary(),
        }
    }

    fn absorb_summary(&mut self, summary: &WeightedSummary) {
        if summary.stream_len() == 0 && summary.num_retained() == 0 {
            // Neither tier changes; keep the version (and cached reads).
            return;
        }
        match &mut self.state {
            TierState::Cold(cold) => cold.absorb_summary(summary),
            TierState::Hot(hot) => hot.absorb_summary(summary),
        }
        self.version += 1;
    }
}

impl<T: OrderedBits> std::fmt::Debug for TieredEngine<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredEngine")
            .field("hot", &self.is_hot())
            .field("pressure", &self.pressure)
            .field("stream_len", &QuantileEstimator::stream_len(self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_common::summary::WeightedItem;

    fn cfg() -> StoreConfig {
        StoreConfig::default().k(64).b(4).promotion_threshold(256)
    }

    impl<T: OrderedBits> TieredEngine<T> {
        /// `(idle, minted)` writer handles of a hot key; `(0, 0)` while
        /// cold.
        pub(crate) fn writer_handles(&self) -> (usize, usize) {
            match &self.state {
                TierState::Cold(_) => (0, 0),
                TierState::Hot(hot) => {
                    let handles = hot.handles.lock().unwrap();
                    (handles.idle.len(), handles.minted)
                }
            }
        }
    }

    #[test]
    fn tiered_starts_cold_and_promotes_under_pressure() {
        let mut e = TieredEngine::<f64>::build(&cfg(), 7);
        assert!(!e.is_hot());
        for i in 0..256 {
            e.update(i as f64);
        }
        assert!(!e.is_hot(), "at the threshold the key is still cold");
        e.update(256.0);
        assert!(e.is_hot(), "crossing the threshold promotes");
        assert_eq!(QuantileEstimator::stream_len(&e), 257, "promotion conserves weight exactly");
        assert_eq!(e.to_summary().stream_len(), 257);
    }

    #[test]
    fn tiered_update_many_promotes_once_per_batch() {
        let mut e = TieredEngine::<f64>::build(&cfg(), 8);
        let batch: Vec<f64> = (0..1000).map(f64::from).collect();
        e.update_many(&batch);
        assert!(e.is_hot());
        assert_eq!(QuantileEstimator::stream_len(&e), 1000);
        let median = QuantileEstimator::query(&e, 0.5).unwrap();
        assert!((300.0..700.0).contains(&median), "median {median}");
    }

    #[test]
    fn idle_hot_key_demotes_on_second_sweep() {
        let mut e = TieredEngine::<f64>::build(&cfg(), 9);
        e.update_many(&(0..500).map(f64::from).collect::<Vec<_>>());
        assert!(e.is_hot());
        // First sweep: the busy epoch just ended — no demotion.
        assert!(!e.maintain());
        assert!(e.is_hot());
        // Second sweep with zero updates in between: demote.
        assert!(e.maintain());
        assert!(!e.is_hot());
        assert_eq!(QuantileEstimator::stream_len(&e), 500, "demotion conserves weight exactly");
    }

    #[test]
    fn demoted_key_can_repromote() {
        let mut e = TieredEngine::<f64>::build(&cfg(), 10);
        e.update_many(&(0..500).map(f64::from).collect::<Vec<_>>());
        e.maintain();
        e.maintain();
        assert!(!e.is_hot());
        e.update_many(&(0..300).map(f64::from).collect::<Vec<_>>());
        assert!(e.is_hot(), "fresh pressure after demotion re-promotes");
        assert_eq!(QuantileEstimator::stream_len(&e), 800);
    }

    #[test]
    fn cold_footprint_is_an_order_of_magnitude_below_hot() {
        let cfg = StoreConfig::default().k(256).b(4).promotion_threshold(u64::MAX);
        let mut cold = TieredEngine::<f64>::build(&cfg, 1);
        let mut hot = ConcurrentEngine::<f64>::new(256, 4, 1);
        for i in 0..64 {
            cold.update(i as f64);
            hot.update(i as f64);
        }
        let (c, h) = (cold.footprint(), hot.footprint());
        assert!(c * 10 <= h, "cold {c} words vs hot {h} words");
    }

    #[test]
    fn concurrent_engine_composes_absorbed_and_pending() {
        let mut e = ConcurrentEngine::<f64>::new(64, 4, 3);
        e.update_many(&(0..1001).map(f64::from).collect::<Vec<_>>());
        assert_eq!(QuantileEstimator::stream_len(&e), 1001);
        let snapshot = e.to_summary();
        assert_eq!(snapshot.stream_len(), 1001);

        let mut other = ConcurrentEngine::<f64>::new(64, 4, 4);
        other.absorb_summary(&snapshot);
        assert_eq!(QuantileEstimator::stream_len(&other), 1001);
        assert!(other.query(0.5).is_some());
    }

    #[test]
    fn versions_advance_on_mutations_and_hold_on_reads() {
        let mut e = ConcurrentEngine::<f64>::new(64, 4, 5);
        let v0 = e.version();
        e.update_many(&(0..100).map(f64::from).collect::<Vec<_>>());
        let v1 = e.version();
        assert!(v1 > v0);
        let snapshot = e.to_summary();
        let _ = e.query(0.5);
        let _ = QuantileEstimator::stream_len(&e);
        assert_eq!(e.version(), v1, "reads leave the version alone");
        e.absorb_summary(&WeightedSummary::empty());
        assert_eq!(e.version(), v1, "empty absorbs change nothing");
        e.absorb_summary(&snapshot);
        assert!(e.version() > v1);

        let mut t = TieredEngine::<f64>::build(&cfg(), 6);
        let v0 = t.version();
        t.update(1.0);
        let v1 = t.version();
        assert!(v1 > v0);
        t.absorb_summary(&WeightedSummary::empty());
        assert_eq!(t.version(), v1, "empty absorbs change nothing while cold");
        t.promote_now();
        let v2 = t.version();
        assert!(v2 > v1, "promotion is an observable state change");
        t.absorb_summary(&WeightedSummary::empty());
        assert_eq!(t.version(), v2, "empty absorbs change nothing while hot");
        assert!(!t.maintain());
        assert!(t.maintain(), "idle hot key demotes");
        assert!(t.version() > v2, "demotion bumps the version");
    }

    #[test]
    fn small_absorbs_buffer_losslessly_until_threshold() {
        // 8 absorbs of 16 unit-weight elements: 128 total, below the
        // compaction threshold (4k = 256 for k = 64) — every element must
        // come through verbatim, proving no per-ingest re-compaction.
        let mut e = ConcurrentEngine::<f64>::new(64, 4, 7);
        for i in 0..8u64 {
            let bits: Vec<u64> = (0..16).map(|j| (i * 16 + j) * 3).collect();
            e.absorb_summary(&WeightedSummary::from_parts([(&bits[..], 1u64)]));
        }
        let s = e.to_summary();
        assert_eq!(s.stream_len(), 128);
        assert_eq!(s.num_retained(), 128, "sub-threshold absorbs must stay uncompacted");
    }

    #[test]
    fn absorb_buffer_compacts_past_threshold_conserving_weight() {
        let mut e = ConcurrentEngine::<f64>::new(64, 4, 9);
        for i in 0..40u64 {
            let bits: Vec<u64> = (0..8).map(|j| i * 8 + j).collect();
            e.absorb_summary(&WeightedSummary::from_parts([(&bits[..], 1u64)]));
        }
        assert_eq!(QuantileEstimator::stream_len(&e), 320);
        let s = e.to_summary();
        assert_eq!(s.stream_len(), 320, "compaction conserves weight exactly");
        assert!(s.num_retained() < 320, "crossing the threshold must compact");
    }

    #[test]
    fn shared_write_weight_is_exact_when_it_returns() {
        let e = ConcurrentEngine::<f64>::new(64, 4, 21);
        let v0 = e.version();
        let mut w = e.writer(1).expect("concurrent engine always has a writer");
        // 10 = 2 full Gather&Sort placements + a sub-b tail of 2.
        w.write(&(0..10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(QuantileEstimator::stream_len(&e), 10, "shared-write weight must be exact");
        assert_eq!(e.to_summary().stream_len(), 10);
        assert!(e.version() > v0, "a weight-moving write must bump the version");
        assert!(e.spill.lock().unwrap().len() < 4, "spill must stay below b");
        // An empty write is version-neutral (cached summaries stay warm).
        let v1 = e.version();
        w.write(&[]);
        assert_eq!(e.version(), v1);
    }

    #[test]
    fn concurrent_writers_drain_each_others_spill() {
        let e = ConcurrentEngine::<f64>::new(64, 4, 22);
        // 4 writers × 3 elements: each write parks a sub-b tail; later
        // writes pick up full multiples of b. Total must stay exact and
        // the spill bounded regardless of interleaving.
        let mut writers: Vec<_> = (0..4).map(|_| e.writer(4).unwrap()).collect();
        for (i, w) in writers.iter_mut().enumerate() {
            w.write(&[(i * 3) as f64, (i * 3 + 1) as f64, (i * 3 + 2) as f64]);
        }
        assert_eq!(QuantileEstimator::stream_len(&e), 12);
        assert_eq!(e.to_summary().stream_len(), 12);
        assert!(e.spill.lock().unwrap().len() < 4);
    }

    #[test]
    fn draining_write_brackets_the_spill_move_with_two_bumps() {
        let e = ConcurrentEngine::<f64>::new(64, 4, 25);
        let mut w = e.writer(1).unwrap();
        w.write(&[1.0, 2.0, 3.0]); // tail of 3 parks in the spill: no drain, one bump
        let v1 = e.version();
        w.write(&[4.0, 5.0, 6.0]); // spill reaches 6, drains 4 back through Gather&Sort
        let v2 = e.version();
        // The drain moves weight that v1 already accounted for out of the
        // spill; the extra bump before the removal is what keeps a reader
        // materializing inside that window from caching the miss against
        // a settled version.
        assert_eq!(v2 - v1, 2, "a draining write must bump before the drain and after the land");
        assert_eq!(QuantileEstimator::stream_len(&e), 6);
        assert_eq!(e.to_summary().stream_len(), 6);
    }

    #[test]
    fn shared_and_resident_writes_compose() {
        let mut e = ConcurrentEngine::<f64>::new(64, 4, 23);
        e.update_many(&(0..100).map(f64::from).collect::<Vec<_>>());
        let mut w = e.writer(1).unwrap();
        w.write(&(100..200).map(f64::from).collect::<Vec<_>>());
        drop(w);
        e.update_many(&(200..300).map(f64::from).collect::<Vec<_>>());
        assert_eq!(QuantileEstimator::stream_len(&e), 300);
        assert_eq!(e.to_summary().stream_len(), 300);
    }

    #[test]
    fn tiered_shares_writes_only_when_hot_and_shared_writes_defer_demotion() {
        let mut t = TieredEngine::<f64>::build(&cfg(), 24);
        assert!(t.writer(1).is_none(), "cold keys must keep the exclusive path");
        t.update_many(&(0..500).map(f64::from).collect::<Vec<_>>());
        assert!(t.is_hot());
        // Close the busy epoch, then write through a shared writer only:
        // the next sweep must see the shared write and not demote.
        assert!(!t.maintain());
        t.writer(1).expect("hot keys have a writer").write(&[1.0, 2.0, 3.0]);
        assert!(!t.maintain(), "shared writes must count as activity");
        assert!(t.is_hot());
        // Two genuinely idle sweeps demote; the version stays monotone
        // across the fold and the weight stays exact.
        let v_before = t.version();
        assert!(t.maintain());
        assert!(!t.is_hot());
        assert!(t.version() > v_before, "demotion fold must not regress");
        assert_eq!(QuantileEstimator::stream_len(&t), 503, "demotion conserves shared weight");
    }

    #[test]
    fn merge_seeds_differ_for_adjacent_key_seeds() {
        // `seed | 1` collapsed seeds differing only in bit 0; the mixed
        // derivation must not.
        let a = ConcurrentEngine::<f64>::new(64, 4, 42);
        let b = ConcurrentEngine::<f64>::new(64, 4, 43);
        assert_ne!(a.merge_seed, b.merge_seed);
    }

    /// A settled engine holding every part kind: level arrays, Gather&Sort
    /// pending, the resident writer's tail, a shared writer's spill, an
    /// absorbed bulk and buffered absorbs. Values repeat across the kinds,
    /// so every part ties with the others.
    fn engine_with_every_part_kind(seed: u64, n: u64) -> ConcurrentEngine<f64> {
        let mut e = ConcurrentEngine::<f64>::new(16, 4, seed);
        // Five 16-value absorbs pass 4k = 64 buffered values and fold into
        // the bulk; the sixth stays buffered.
        for i in 0..6u64 {
            let mut bits: Vec<u64> =
                (0..16).map(|j| (((i * 7 + j * 13) % 97) as f64).to_ordered_bits()).collect();
            bits.sort_unstable();
            e.absorb_summary(&WeightedSummary::from_parts([(&bits[..], 1u64 << (i % 3))]));
        }
        // n ≡ 2 (mod 4) leaves a two-value resident tail, and a count of
        // placements short of a 2k batch in Gather&Sort.
        e.update_many(&(0..n).map(|i| ((i * 31) % 101) as f64).collect::<Vec<_>>());
        e.writer(1).unwrap().write(&[5.0, 50.0, 96.0]);
        assert!(e.sketch.levels_retained() > 0, "levels");
        assert!(e.sketch.buffered_len() > 0, "Gather&Sort pending");
        assert!(e.writer.lock().unwrap().pending_len() > 0, "resident tail");
        assert!(!e.spill.lock().unwrap().is_empty(), "spill");
        assert!(e.absorbed.num_retained() > 0, "absorbed bulk");
        assert!(!e.absorb_buffer.is_empty(), "buffered absorbs");
        e
    }

    /// The unit-weight values outside the sketch: the resident tail and
    /// the spill, sorted.
    fn writer_tail_and_spill(e: &ConcurrentEngine<f64>) -> Vec<u64> {
        let mut bits: Vec<u64> =
            e.writer.lock().unwrap().pending().iter().map(|v| v.to_ordered_bits()).collect();
        bits.extend(e.spill.lock().unwrap().iter().copied());
        bits.sort_unstable();
        bits
    }

    #[test]
    fn to_summary_is_the_flat_composition_bit_for_bit() {
        for seed in 0..12 {
            let e = engine_with_every_part_kind(seed, 702 + 40 * seed);
            // The composition reads used to merge: the quiescent summary,
            // the writer tail and spill, and the absorbed summaries.
            let quiescent = e.sketch.quiescent_summary();
            let bits = writer_tail_and_spill(&e);
            let pending = WeightedSummary::from_parts([(&bits[..], 1u64)]);
            let inputs: Vec<&WeightedSummary> = [&quiescent, &pending]
                .into_iter()
                .chain(std::iter::once(&e.absorbed).chain(&e.absorb_buffer).map(|s| &**s))
                .collect();
            let old = merge_summaries(inputs.iter().copied(), e.k, e.merge_seed);
            let new = e.to_summary();
            let retained: usize = inputs.iter().map(|s| s.num_retained()).sum();
            assert!(new.num_retained() < retained, "the merge must compact");
            assert_eq!(new.items(), old.items(), "seed {seed}");
            assert_eq!(new, old);
        }
    }

    #[test]
    fn hot_answers_are_exact_over_the_parts() {
        for seed in 0..12 {
            let e = engine_with_every_part_kind(seed, 502 + 64 * seed);
            let mut items = e.sketch.quiescent_summary().items().to_vec();
            items.extend(
                writer_tail_and_spill(&e)
                    .into_iter()
                    .map(|value_bits| WeightedItem { value_bits, weight: 1 }),
            );
            for summary in std::iter::once(&e.absorbed).chain(&e.absorb_buffer) {
                items.extend_from_slice(summary.items());
            }
            let flat = WeightedSummary::from_items(items);
            assert_eq!(QuantileEstimator::stream_len(&e), flat.stream_len());

            let phis: Vec<f64> =
                [0.0, 1.0].into_iter().chain((0..=40).map(|i| i as f64 / 40.0)).collect();
            for &phi in &phis {
                assert_eq!(e.query(phi), flat.quantile::<f64>(phi), "seed {seed}, phi {phi}");
            }
            let expected: Vec<Option<f64>> = phis.iter().map(|&phi| flat.quantile(phi)).collect();
            assert_eq!(e.quantiles(&phis), expected);

            let probes: Vec<f64> =
                [-1.0, 0.0, 5.0, 50.0, 50.5, 96.0, 100.0, 1e9, f64::INFINITY].to_vec();
            for &x in &probes {
                assert_eq!(e.rank_weight(x), flat.rank_weight(x), "seed {seed}, rank of {x}");
            }
            assert_eq!(e.rank_weight(f64::INFINITY), flat.stream_len());
            assert_eq!(QuantileEstimator::cdf(&e, &probes), flat.cdf(&probes));
        }
    }

    #[test]
    fn tier_migration_preserves_quantile_accuracy() {
        let mut e = TieredEngine::<f64>::build(&cfg(), 11);
        e.update_many(&(0..10_000).map(f64::from).collect::<Vec<_>>());
        assert!(e.is_hot());
        let before = QuantileEstimator::query(&e, 0.5).unwrap();
        e.demote_now();
        let after = QuantileEstimator::query(&e, 0.5).unwrap();
        let eps = QuantileEstimator::error_bound(&e);
        assert!(
            (before - after).abs() / 10_000.0 < 8.0 * eps,
            "median moved {before} -> {after} across demotion"
        );
    }
}
