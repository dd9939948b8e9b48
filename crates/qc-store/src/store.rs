//! A sharded, keyed registry of live sketch engines.
//!
//! High-cardinality keyed aggregation is the dominant quantile-serving
//! workload (Gan et al., *Moment-Based Quantile Sketches for Efficient
//! High-Cardinality Aggregation Queries*): millions of named streams
//! ("latency by endpoint", "payload size by tenant") each need their own
//! sketch, plus cross-key and cross-process aggregation. [`SketchStore`]
//! is that layer:
//!
//! * keys are hashed onto a fixed array of stripes (power-of-two count),
//!   each stripe an **RwLock** around its own key map — writers on
//!   different stripes never contend, readers on the *same* stripe never
//!   contend with each other, and no lock is ever held across stripes;
//! * each key owns a live [`TieredEngine`], which starts the key as a
//!   compact sequential sketch and promotes it to full Quancurrent
//!   machinery under update pressure (see [`crate::engine`]);
//! * the store drives that engine through the
//!   [`qc_common::engine`] traits: updates go through
//!   [`qc_common::engine::StreamIngest`], summaries through
//!   [`qc_common::engine::MergeableSketch::to_summary`], and remote state
//!   through [`qc_common::engine::MergeableSketch::absorb_summary`] — so
//!   `query`/`merged_query` see every element ever handed to the store,
//!   local or ingested, with exact stream-length accounting.
//!
//! # Read path: one pipeline
//!
//! Every read — `query`, `rank`, `cdf`, `summary_of`, `snapshot_bytes`,
//! `query_range`, `merged_query`, `merged_query_range`,
//! `merged_range_summary` and `window_snapshot` — is one call of the
//! private `SketchStore::read`, the read-side twin of `apply` below:
//!
//! ```text
//!  read(keys, span?)                                        key by key
//!    │
//!    ├─ SHARED stripe lock
//!    │    the sealed windows the span covers                (Arc clones)
//!    │    the key's one form, if the span covers its live engine:
//!    │      cached at the engine's version?  hit → Arc clone
//!    │      else miss → gather it (version read first) and publish it:
//!    │        EngineParts = level runs + one sorted unit-weight tail
//!    │        hot key:  snapshot level arrays; Gather&Sort, writer tail
//!    │                  and spill as the tail; absorbed summaries
//!    │        cold key: the sketch's levels (shared Arcs, not copied);
//!    │                  its base buffer, sorted once, as the tail
//!    │
//!    └─ NO lock: ReadView
//!         ├─ view()         → UnionView: quantile, rank, cdf; ranks add
//!         │                   across parts, nothing is merged
//!         └─ into_summary() → one bounded summary: a lone live key's flat
//!                             summary as is, else one exact-weight merge
//!                             of every part's level runs
//!
//!  any write that moves a key's version → its form is dropped
//! ```
//!
//! * **One form per key.** Every key answers over its parts, on either
//!   tier and whichever read asks, so `query(k)`, `merged_query(&[k])`
//!   and an unwindowed `query_range(k, ..)` agree bit for bit. A cold
//!   key's form costs its sorted base and a handful of `Arc`s; its level
//!   runs are the sketch's own. A key's flat summary is built from its
//!   cached parts by the first summary read at that version, and kept
//!   with them: a hot key's as one bounded merge, a cold key's as its
//!   sketch's exact flat composition (the bits
//!   [`MergeableSketch::to_summary`] gives).
//! * **Versioned cache.** The form is tagged with the engine
//!   [`version`](TieredEngine::version) read **before** gathering, so
//!   nothing is tagged newer than its contents, and published
//!   unconditionally. No form outlives its version: every write that
//!   moves a key's version — either write path, `ingest_bytes`, a window
//!   roll, a demotion — takes the form out of the key's slot in the same
//!   lock hold and frees it after the lock is released. Empty batches and
//!   empty frames move nothing and drop nothing. The one form a write
//!   cannot drop is a racing reader's (see `KeyEntry::cache`); the
//!   cool-down sweep drops that one. Shared-path writers (the write path below) mutate
//!   the engine under the shared lock but bump the version around every
//!   weight movement, so a form gathered while a shared write was in
//!   flight carries a tag the write's completion bump supersedes: no read
//!   serves a state whose version matches the engine's *settled* state
//!   while missing weight that state accounts for. Exclusive writers
//!   (`ingest_bytes`, `cool_down`, `remove`, the fallback write path) take
//!   the exclusive lock.
//! * **Spans.** Without a span, or on an unwindowed store, a read covers
//!   each key's live engine only. With one, it covers every sealed window
//!   overlapping `[t0, t1)` — a downsampled window whole whenever the span
//!   touches any part of it, the coarse-granularity contract downsampling
//!   trades for memory — plus the active window when the span covers its
//!   id.
//!
//! # Write path: one pipeline
//!
//! The paper's writers never serialize — each thread fills a local buffer
//! and synchronizes only at Gather&Sort/DCAS points. The store mirrors
//! that through the hot engine's writers ([`TieredEngine::writer`]): a
//! hot key's engine keeps a few per-thread handles, and every batch —
//! `update`, `update_many`, `update_at`, `update_many_leased`, and each
//! record of a recovery replay — goes through one private routine
//! (`SketchStore::apply`) with one fast path and one slow path:
//!
//! ```text
//!  apply(key, Active | Window(id), values, lease generation?)
//!    │
//!    ├─ SHARED stripe lock ───────────────────────────── fast path
//!    │    lease: generation matches?        else → StaleLease, nothing moved
//!    │    target is the key's active window? else ↓
//!    │    writer = engine.writer(cap)                    none → ↓
//!    │    count → write → append log record (LSN = ticket)
//!    │    drop the writer: its handle goes back to the engine
//!    │
//!    ├─ EXCLUSIVE stripe lock ────────────────────────── slow path
//!    │    lease: generation matches?        else → StaleLease, nothing moved
//!    │    create the key on first use
//!    │    Window(id) ahead of active:   seal engine, open a fresh one,
//!    │                                  retire the writer generation
//!    │    Window(id) behind active:     within lateness → merge into its
//!    │                                  sealed window; beyond → drop, count
//!    │    otherwise: engine write (a cold→hot flip here is a promotion)
//!    │    count → append log record (LSN = ticket)
//!    │
//!    └─ NO lock: redeem the ticket — wait on the group-commit watermark
//! ```
//!
//! * **Fast path** — an existing key whose engine lends writers
//!   (hot/concurrent tier) is written through one under only the shared
//!   lock: N writers on one hot key synchronize inside the engine (the
//!   paper's propagation points), not on the stripe. A writer borrows the
//!   engine, so it lives inside that one lock hold, and its write leaves
//!   the batch exactly visible: idle handles hold **zero weight** and
//!   reads stay exact at quiescence.
//! * **Slow path** — key creation, cold/sequential keys (whose exclusive
//!   writes are what drives tier promotion), all `writer_pool` handles in
//!   use, and every window transition. [`StoreStats::shared_writes`] /
//!   [`StoreStats::fallback_writes`] count the split; a batch is exactly
//!   one of those or one [`StoreStats::window_late_drops`].
//! * **Ordering** — on both paths the batch is counted into `updates`
//!   and its log record appended *under the same stripe-lock hold as the
//!   engine write*: a `stats()` sweep never sees `stream_len > updates`,
//!   a checkpoint (exclusive) never captures weight whose record is not
//!   yet sequenced, and per-key log order equals apply order. The durable
//!   wait — the only slow step — happens after the lock is released, so
//!   `ack ⇒ durable` costs no stripe any throughput.
//! * **Windows** — the unwindowed store is not a second path but the
//!   degenerate case: one window, id 0, always active, so every batch
//!   targets the active window and no transition ever fires.
//!   [`SketchStore::update_at`] resolves its timestamp to a window id and
//!   replay passes the logged id; both are `Window(id)`.
//!
//! A hot key's writer handles belong to its engine and go with it: a
//! writer borrows the engine, so none is live while the exclusive lock is
//! held, and `remove`, demotion (`cool_down`) and a window roll drop the
//! idle handles together with the engine. Conservation is exact by
//! construction: a handle buffers weight only inside one write, and every
//! write ends with its weight visible.
//!
//! A [`WriterLease`] ([`SketchStore::lease_writer`] /
//! [`SketchStore::update_many_leased`]) is only a **generation** token.
//! `remove`, demotion, a window roll, and re-creation each assign the key
//! a fresh generation from a store-wide counter, and a leased write
//! checks it under the same lock hold as the write — on the slow path
//! before the key could be created — so a stale lease can **never** write
//! into a successor engine.

use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use qc_common::bits::OrderedBits;
use qc_common::engine::{MergeableSketch, QuantileEstimator, StreamIngest};
use qc_common::summary::{LeveledSummary, Summary, UnionView, WeightedSummary};
use qc_telemetry::{Counter, EventKind, Gauge, LatencyRecorder, MetricsSnapshot, Registry};

use crate::engine::{EngineParts, TieredEngine};
use crate::merge::{by_level, merge_runs, merge_runs_flat};
use crate::persist::{
    self, CheckpointEntry, CheckpointStats, CommitSequencer, FsyncPolicy, GroupOutcome,
    PersistError, RecordOp, RecoveryReport, WaitError, Wal, WalOpRef,
};
use crate::window::{self, SealedWindow, WindowConfig, WindowPlan, WindowSnapshot, WindowState};
use crate::wire::{decode_summary, encode_summary, WireError};

/// Store construction parameters.
///
/// Built fluently from [`StoreConfig::default`]:
///
/// ```
/// use qc_store::StoreConfig;
///
/// let cfg = StoreConfig::default().stripes(8).k(128).b(4).promotion_threshold(1024);
/// assert_eq!(cfg.k, 128);
/// ```
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Number of lock stripes; rounded up to a power of two, minimum 1.
    pub stripes: usize,
    /// Per-sketch level size `k` (accuracy knob; see `qc_common::error`).
    pub k: usize,
    /// Per-sketch thread-local buffer size `b`. Small values keep per-key
    /// relaxation low — a keyed store amortizes over many keys, not many
    /// threads per key.
    pub b: usize,
    /// Base seed; each key derives its own deterministic seed from it.
    pub seed: u64,
    /// Cumulative per-key update count **past which** a key promotes to
    /// the concurrent engine — promotion fires on the first update beyond
    /// the threshold. `u64::MAX` pins every key cold (a pure sequential
    /// population); `0` makes a key hot on its first write (a pure
    /// concurrent one, until `cool_down` demotes it while idle).
    pub promotion_threshold: u64,
    /// Per-key writer-handle capacity: at most this many writer handles
    /// exist per hot key (idle + in a write), so at most this many
    /// writes run on one hot key's shared path at once; the rest take
    /// the exclusive fallback. `0` disables the shared-lock write path
    /// entirely — every write takes the exclusive fallback (the baseline
    /// the write benchmarks compare against).
    pub writer_pool: usize,
    /// Metrics registry the store records into. `None` (the default) makes
    /// the store create its own live [`Registry`]; pass a shared one to
    /// aggregate several subsystems (the server threads its store's
    /// registry through every layer), or `Arc::new(Registry::disabled())`
    /// to turn instrumentation into no-ops — in that mode the counter
    /// fields of [`StoreStats`] read zero (the sweep fields stay exact).
    pub telemetry: Option<Arc<Registry>>,
    /// Durable-log directory. `None` (the default) keeps the store purely
    /// in memory. A directory takes effect only through
    /// [`SketchStore::recover`], which replays whatever the directory
    /// holds and then logs every mutation into it; the plain constructor
    /// [`SketchStore::new`] ignores it, so it stays infallible.
    pub data_dir: Option<PathBuf>,
    /// When appended log frames reach disk (see [`FsyncPolicy`]).
    /// Irrelevant without [`StoreConfig::data_dir`].
    pub fsync: FsyncPolicy,
    /// How long a group-commit sync leader holds its election open
    /// before fsyncing, to let more concurrent writers ride the same
    /// sync. `Duration::ZERO` (the default) syncs immediately — groups
    /// then form only from writers that were already appending during
    /// the previous sync's disk wait, which is the latency-optimal
    /// setting. A small non-zero delay trades ack latency for fewer,
    /// larger groups (throughput under heavy concurrency).
    pub group_commit_delay: Duration,
    /// Time-windowed operation (see [`crate::window`]). `None` (the
    /// default) keeps every key a single unbounded stream — exactly the
    /// previous behavior. With a [`WindowConfig`], each key partitions
    /// its stream into window-aligned sub-sketches: timestamped writes
    /// ([`SketchStore::update_at`]) land in their event-time window,
    /// plain writes land in the key's current active window, and
    /// time-range reads ([`SketchStore::query_range`],
    /// [`SketchStore::merged_query_range`]) read only the windows a
    /// range overlaps.
    pub window: Option<WindowConfig>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            stripes: 16,
            k: 256,
            b: 4,
            seed: 0x5eed_5704e,
            promotion_threshold: DEFAULT_PROMOTION_THRESHOLD,
            writer_pool: DEFAULT_WRITER_POOL,
            telemetry: None,
            data_dir: None,
            fsync: FsyncPolicy::PerFrame,
            group_commit_delay: Duration::ZERO,
            window: None,
        }
    }
}

/// Default per-key writer-handle capacity — sized to the serving
/// layer's default worker count, so every connection of a default server
/// can write one hot key on the shared path at the same time.
pub const DEFAULT_WRITER_POOL: usize = 8;

/// Default per-key promotion threshold: roughly where the concurrent
/// engine's fixed Gather&Sort footprint amortizes against the sequential
/// sketch's per-update cost.
pub const DEFAULT_PROMOTION_THRESHOLD: u64 = 4096;

impl StoreConfig {
    /// Set the number of lock stripes.
    pub fn stripes(mut self, stripes: usize) -> Self {
        self.stripes = stripes;
        self
    }

    /// Set the per-sketch level size `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Set the per-sketch thread-local buffer size `b`.
    pub fn b(mut self, b: usize) -> Self {
        self.b = b;
        self
    }

    /// Set the base seed keys derive their deterministic seeds from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the tiering promotion threshold (cumulative updates per key).
    pub fn promotion_threshold(mut self, threshold: u64) -> Self {
        self.promotion_threshold = threshold;
        self
    }

    /// Set the per-key writer-handle capacity (`0` disables the
    /// shared-lock write path).
    pub fn writer_pool(mut self, handles: usize) -> Self {
        self.writer_pool = handles;
        self
    }

    /// Record into a shared metrics registry (see [`StoreConfig::telemetry`]).
    pub fn telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Log mutations durably under `dir` (consumed by
    /// [`SketchStore::recover`]; see [`StoreConfig::data_dir`]).
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Set the durable-log fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Set the group-commit leader hold-off (see
    /// [`StoreConfig::group_commit_delay`]).
    pub fn group_commit_delay(mut self, delay: Duration) -> Self {
        self.group_commit_delay = delay;
        self
    }

    /// Partition every key's stream into time windows (see
    /// [`StoreConfig::window`] and [`crate::window`]).
    pub fn window(mut self, window: WindowConfig) -> Self {
        self.window = Some(window);
        self
    }
}

/// Store-wide statistics: a mix of **counter** fields (monotone, read
/// lock-free from telemetry counters) and **sweep** fields (recomputed by
/// walking the stripes under shared locks). See
/// [`StoreStats::consistency`] for the exact consistency model and the
/// invariants that hold for any single sample.
///
/// The tier fields (`cold_keys`, `hot_keys`, `retained`) and the fields
/// marked local-only describe the local process only and do **not** cross
/// the wire protocol — remote [`StoreStats`] decoded by `qc-server`
/// report them as zero, keeping the wire format byte-identical to
/// previous releases.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of resident keys. **Sweep**: one shared lock per stripe;
    /// exact per stripe, stripes sampled at slightly different times.
    pub keys: usize,
    /// Number of stripes. **Constant** (fixed at construction).
    pub stripes: usize,
    /// Total elements ingested via `update`/`update_many`. **Counter**,
    /// bumped under the same stripe-lock hold as the engine write, so a
    /// concurrent sweep can never observe `stream_len > updates` (weight
    /// in an engine but not in the counter).
    pub updates: u64,
    /// Total successfully ingested remote snapshots. **Counter**, bumped
    /// under the stripe write lock like `updates`.
    pub ingests: u64,
    /// Ingest attempts rejected with a [`WireError`]. **Counter**, bumped
    /// before the store is touched (a rejected frame changes nothing).
    pub ingest_errors: u64,
    /// Total stream length across all keys (local + absorbed). **Sweep**
    /// (same discipline as `keys`).
    pub stream_len: u64,
    /// Bytes produced by `snapshot_bytes`. **Counter**, lock-free.
    pub bytes_out: u64,
    /// Bytes accepted by `ingest_bytes`. **Counter**, under the write lock.
    pub bytes_in: u64,
    /// Keys currently on the sequential (cold) tier. **Sweep**.
    /// Local-only.
    pub cold_keys: usize,
    /// Keys currently on the concurrent (hot) tier. **Sweep**. Local-only.
    pub hot_keys: usize,
    /// Retained 64-bit words across all engines: each cold key's retained
    /// values, each hot key's values plus its fixed Gather&Sort buffers.
    /// It counts words held, not allocated capacity, and not the keys'
    /// cached read forms or the store's own bookkeeping. **Sweep**.
    /// Local-only.
    pub retained: u64,
    /// Key reads whose form — the key's parts, on either tier — was
    /// cached at the engine's version (shared lock + `Arc` clone).
    /// **Counter**, bumped before the read's `reads` bump. Local-only.
    pub cache_hits: u64,
    /// Key reads that had to gather the key's parts. **Counter**, bumped
    /// before the read's `reads` bump. Local-only.
    pub cache_misses: u64,
    /// Key forms read: one per present key per read that covers the key's
    /// live engine. **Counter**, bumped after the read's hit-or-miss
    /// classification — so `cache_hits + cache_misses >= reads` holds for
    /// every sample (see [`StoreStats::consistency`]). Local-only.
    pub reads: u64,
    /// Write batches that rode the shared-lock fast path (a hot engine's
    /// writer). **Counter**, bumped after `updates`
    /// within the same lock hold. Local-only.
    pub shared_writes: u64,
    /// Write batches that took the exclusive-lock fallback (key creation,
    /// cold-tier keys, every writer handle in use, or `writer_pool == 0`).
    /// **Counter**, bumped after `updates` within the same lock hold.
    /// Local-only.
    pub fallback_writes: u64,
    /// Cold→hot tier promotions observed on the write path. **Counter**.
    /// Local-only.
    pub promotions: u64,
    /// Hot→cold demotions performed by `cool_down` sweeps. **Counter**.
    /// Local-only.
    pub demotions: u64,
    /// Keys removed via `remove`. **Counter**. Local-only.
    pub removals: u64,
    /// Active windows sealed into immutable summaries by timestamped
    /// writes rolling a key forward. **Counter**. Local-only. Zero
    /// without [`StoreConfig::window`].
    pub window_seals: u64,
    /// Sealed windows promoted into a coarser level by `cool_down`
    /// downsampling. **Counter**. Local-only.
    pub window_downsamples: u64,
    /// Sealed windows evicted past the retention horizon by `cool_down`
    /// — the one transition where weight leaves the store (after it,
    /// `stream_len` may read below `updates`). **Counter**. Local-only.
    pub window_evictions: u64,
    /// Timestamped batches dropped for arriving beyond the lateness
    /// bound. Dropped batches bump neither `updates` nor the batch
    /// counters and are never logged. **Counter**. Local-only.
    pub window_late_drops: u64,
    /// Resident windows (one active per windowed key, plus its sealed
    /// windows). **Sweep**. Local-only. Zero without
    /// [`StoreConfig::window`].
    pub windows: usize,
}

impl StoreStats {
    /// Check (and `debug_assert!`) the invariants that hold for **any
    /// single sample**, even one taken mid-flight under full contention.
    ///
    /// # Consistency model
    ///
    /// `stats()` mixes three kinds of fields:
    ///
    /// * **Constant** — `stripes`: fixed at construction.
    /// * **Counter** — sharded relaxed atomics read lock-free. Each is
    ///   exact at quiescence; mid-flight samples never *under*-report a
    ///   completed operation. Counters bumped under a stripe-lock hold
    ///   (`updates`, `ingests`, `bytes_in`) are additionally ordered
    ///   against that stripe's engine state.
    /// * **Sweep** — `keys`, `stream_len`, `cold_keys`, `hot_keys`,
    ///   `retained`: recomputed by walking the stripes under shared locks,
    ///   one stripe at a time. Exact per stripe; concurrent writers on
    ///   *other* stripes may land between stripe visits, so a sweep field
    ///   is a consistent cut per stripe, not across the store.
    ///
    /// The cross-field invariants this method asserts:
    ///
    /// * `cache_hits + cache_misses >= reads` — every served read
    ///   classifies as a hit or miss *before* it counts as a read, and
    ///   `stats()` samples `reads` first, so the inequality can never
    ///   invert (it is an equality at quiescence).
    /// * `updates >= shared_writes + fallback_writes` — every counted
    ///   batch is non-empty and its element count lands in `updates`
    ///   before the batch counter moves.
    /// * `cold_keys + hot_keys == keys` — both sides come from the same
    ///   per-stripe lock holds of one sweep.
    ///
    /// Returns whether all invariants hold (also `debug_assert!`ed, which
    /// is how the contention suite keeps them honest).
    pub fn consistency(&self) -> bool {
        let reads_classified = self.cache_hits + self.cache_misses >= self.reads;
        debug_assert!(
            reads_classified,
            "cache_hits ({}) + cache_misses ({}) < reads ({})",
            self.cache_hits, self.cache_misses, self.reads
        );
        let batches_counted = self.updates >= self.shared_writes + self.fallback_writes;
        debug_assert!(
            batches_counted,
            "updates ({}) < shared_writes ({}) + fallback_writes ({})",
            self.updates, self.shared_writes, self.fallback_writes
        );
        let tiers_partition = self.cold_keys + self.hot_keys == self.keys;
        debug_assert!(
            tiers_partition,
            "cold_keys ({}) + hot_keys ({}) != keys ({})",
            self.cold_keys, self.hot_keys, self.keys
        );
        reads_classified && batches_counted && tiers_partition
    }
}

/// A writer lease from [`SketchStore::lease_writer`]: the key generation
/// it was issued under, and nothing else.
///
/// [`SketchStore::update_many_leased`] checks the generation under the
/// stripe lock on every call, then writes like any other batch (a hot
/// engine's writer, or the exclusive fallback) — so holding a lease across
/// requests is safe against concurrent `remove`, demotion, a window roll
/// and re-creation of the key. A lease holds no handle and no weight;
/// dropping one, stale or not, releases nothing.
pub struct WriterLease<T: OrderedBits> {
    generation: u64,
    element: PhantomData<T>,
}

impl<T: OrderedBits> WriterLease<T> {
    /// The key generation this lease was issued under (diagnostics).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl<T: OrderedBits> std::fmt::Debug for WriterLease<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriterLease").field("generation", &self.generation).finish()
    }
}

/// A leased write was rejected because the lease no longer matches the
/// key's live engine (the key was removed, demoted, rolled or re-created
/// since the lease was issued). **No weight was written.** Drop the lease
/// and fall back to [`SketchStore::update_many`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaleLease;

impl std::fmt::Display for StaleLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("writer lease does not match the key's current generation")
    }
}

impl std::error::Error for StaleLease {}

/// One key's slot in a stripe map: the live engine and its read cache
/// (the key's one form).
struct KeyEntry<T: OrderedBits> {
    engine: TieredEngine<T>,
    /// Lease generation: every leased write validates its tag against
    /// this under the stripe lock. Assigned from the store-wide counter
    /// at creation and re-assigned (under the write lock) by any
    /// invalidation — tier demotion or a window roll; removal retires the
    /// entry and with it the generation, so a re-created key never reuses
    /// one.
    generation: u64,
    /// The last gathered form, tagged with the engine version that
    /// produced it. Every write that moves the version takes the form out
    /// in its own lock hold, so a key that is written and not read holds
    /// none. One race leaves a stale form behind: a missing reader reads
    /// the version, gathers and publishes, all under the shared lock; a
    /// shared-path write that lands after the reader read the version
    /// takes the slot before the reader publishes, and the reader then
    /// puts in a form tagged with a version the engine has already left.
    /// No read serves it (the tags differ); the next miss replaces it, and
    /// the cool-down sweep drops it if no read comes. The inner mutex guards only the
    /// tag-compare / `Arc`-clone / take critical section (a handful of
    /// instructions), so readers sharing the stripe lock barely serialize
    /// on it.
    cache: Mutex<Option<CacheSlot>>,
    /// Highest log LSN applied to this key, advanced (`fetch_max`) under
    /// the same stripe-lock hold as the engine write it tags. A
    /// checkpoint reads it under the exclusive lock — no write in flight —
    /// so `(summary, last_lsn)` is a consistent pair: replay applies a
    /// record to this key iff its LSN is above the checkpointed value.
    /// Zero while the store has no durable log.
    last_lsn: AtomicU64,
    /// Window bookkeeping, present iff [`StoreConfig::window`] is set.
    /// The inner mutex guards only id comparisons and `Arc` clones on
    /// the shared paths (the same discipline as `cache`); every
    /// *transition* — seal, late merge, downsample, evict, restore —
    /// runs under the exclusive stripe lock, so shared-lock holders can
    /// rely on `active_id` not moving while they hold the stripe.
    windows: Option<Box<Mutex<WindowState>>>,
}

/// One key's read cache: its form — the key's [`EngineParts`], on
/// either tier — at one engine version.
struct CacheSlot {
    version: u64,
    form: Arc<EngineParts>,
}

impl<T: OrderedBits> KeyEntry<T> {
    /// A fresh entry; `active_wid` is the first active window of a
    /// windowed key (`None` on an unwindowed store).
    fn new(engine: TieredEngine<T>, generation: u64, active_wid: Option<u64>) -> Self {
        let windows = active_wid.map(|id| {
            let state = WindowState { active_id: id, watermark: id, ..WindowState::default() };
            Box::new(Mutex::new(state))
        });
        KeyEntry {
            engine,
            generation,
            cache: Mutex::new(None),
            last_lsn: AtomicU64::new(0),
            windows,
        }
    }

    /// The key's `(active window id, watermark)` — `(0, 0)` when
    /// unwindowed. Callers hold the stripe lock; the brief mutex hold
    /// only orders against other shared-path peeks.
    fn window_ids(&self) -> (u64, u64) {
        self.windows.as_ref().map_or((0, 0), |w| {
            let state = w.lock().unwrap();
            (state.active_id, state.watermark)
        })
    }

    /// The window bookkeeping of a windowed key, for a transition under
    /// the exclusive stripe lock.
    fn window_state(&mut self) -> &mut WindowState {
        self.windows.as_mut().expect("windowed keys carry window state").get_mut().unwrap()
    }

    /// Take the key's cached form out of its slot: the write the caller
    /// just made moved the engine past it. The caller holds the stripe
    /// lock (shared or exclusive) and drops the form after releasing it,
    /// so freeing a form never lengthens a lock hold.
    fn take_form(&self) -> Option<CacheSlot> {
        self.cache.lock().unwrap().take()
    }
}

/// Which of a key's windows a write lands in. The unwindowed store is
/// the degenerate case: one window, id 0, always active.
#[derive(Clone, Copy)]
enum Target {
    /// The key's current active window: plain and leased writes.
    Active,
    /// The level-0 window with this id: timestamped writes, and recovery
    /// replay of a windowed log.
    Window(u64),
}

impl Target {
    /// The window id this target names for a key whose active window is
    /// `active`.
    fn wid(self, active: u64) -> u64 {
        match self {
            Target::Active => active,
            Target::Window(wid) => wid,
        }
    }
}

/// What one read covers, gathered under the keys' stripe locks (`Arc`
/// clones) and evaluated only after every lock is released.
#[derive(Default)]
struct ReadView {
    /// Sealed windows as `(start id, window)`, key by key in time order.
    sealed: Vec<(u64, SealedWindow)>,
    /// Each present key's form, when the read covers its live engine.
    live: Vec<Arc<EngineParts>>,
    /// `(active id, watermark)` of the last windowed key read with a span.
    ids: Option<(u64, u64)>,
}

impl ReadView {
    /// The union of the parts, answering without a merge.
    fn view(&self) -> UnionView<'_> {
        let mut view = UnionView::new();
        for (_, window) in &self.sealed {
            view.push_leveled(&window.summary);
        }
        for form in &self.live {
            form.push_into(&mut view);
        }
        view
    }

    /// One bounded summary of the parts: a lone live key's flat summary as
    /// is, else a single exact-weight merge of every part's level runs.
    fn into_summary(self, k: usize, seed: u64) -> Arc<WeightedSummary> {
        if let ([], [form]) = (&self.sealed[..], &self.live[..]) {
            return form.summary();
        }
        let sealed = self.sealed.iter().map(|(_, window)| window.summary.level_runs());
        let live = self.live.iter().map(|form| form.summary().level_runs());
        let runs: Vec<Vec<Vec<u64>>> = sealed.chain(live).collect();
        Arc::new(merge_runs_flat(by_level(runs.iter().map(Vec::as_slice)), k, seed))
    }
}

/// Why an unleased [`SketchStore::apply`] cannot fail.
const UNLEASED: &str = "only a leased write can be stale";

/// Whether a leased write expecting generation `lease` must be rejected
/// for `entry`, the key's entry as of the caller's lock hold.
fn is_stale<T: OrderedBits>(lease: Option<u64>, entry: Option<&KeyEntry<T>>) -> bool {
    lease.is_some_and(|generation| entry.map(|e| e.generation) != Some(generation))
}

/// One stripe: a reader-writer lock around the stripe's key map.
type Stripe<T> = RwLock<HashMap<String, KeyEntry<T>>>;

/// The store's instrument handles, registered once at construction (the
/// registry's get-or-register takes a mutex; hot paths must not pay it).
/// These **are** the store's statistics: [`SketchStore::stats`] reads the
/// same counters the telemetry snapshot exports, so the two can never
/// drift apart.
struct StoreInstruments {
    updates: Counter,
    ingests: Counter,
    ingest_errors: Counter,
    bytes_out: Counter,
    bytes_in: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    reads: Counter,
    shared_writes: Counter,
    fallback_writes: Counter,
    promotions: Counter,
    demotions: Counter,
    removals: Counter,
    /// Active windows sealed by rolling timestamped writes.
    window_seals: Counter,
    /// Sealed windows promoted a level by `cool_down` downsampling.
    window_downsamples: Counter,
    /// Sealed windows evicted past the retention horizon.
    window_evictions: Counter,
    /// Timestamped batches dropped beyond the lateness bound.
    window_late_drops: Counter,
    /// Resident windows (active + sealed), refreshed by each `cool_down`
    /// sweep.
    windows_resident: Gauge,
    /// Records appended to the durable log (zero without persistence).
    wal_appends: Counter,
    /// Frame bytes appended to the durable log (envelope included).
    wal_bytes: Counter,
    /// **Physical** fsyncs issued for the log — group-commit syncs,
    /// housekeeping/shutdown force syncs, and rotation seal syncs. With
    /// group commit, `wal_fsyncs ≤ wal_appends`, with equality only at
    /// concurrency 1.
    wal_fsyncs: Counter,
    /// Group commits: physical syncs that made at least one append newly
    /// durable (a sync whose LSNs a racing rotation already sealed moves
    /// `wal_fsyncs` but not this).
    wal_group_commits: Counter,
    /// Group-size distribution (appends newly covered per group commit),
    /// self-sketched: its stream length is `wal_group_commits` and its
    /// total weight is the durable watermark's movement, so
    /// `wal_group_commits × mean ≈ wal_durable_lsn`.
    wal_group_size: LatencyRecorder,
    /// The `durable_lsn` watermark: every append at or below it is on
    /// disk. At quiescence under [`FsyncPolicy::PerFrame`] this equals
    /// `wal_appends`.
    wal_durable_lsn: Gauge,
    /// Failed log appends/syncs/checkpoints — durability degraded, the
    /// store kept serving from memory.
    wal_errors: Counter,
    /// Checkpoints written (each seals, compacts, and prunes the log).
    wal_checkpoints: Counter,
    /// Wall-clock seconds per checkpoint pass, self-sketched.
    checkpoint_seconds: LatencyRecorder,
    /// Resident keys per stripe, maintained exactly under the stripe
    /// write lock (insert/remove are exclusive-path operations).
    stripe_keys: Vec<Gauge>,
}

impl StoreInstruments {
    fn register(registry: &Registry, stripes: usize) -> Self {
        StoreInstruments {
            updates: registry.counter("store_updates"),
            ingests: registry.counter("store_ingests"),
            ingest_errors: registry.counter("store_ingest_errors"),
            bytes_out: registry.counter("store_bytes_out"),
            bytes_in: registry.counter("store_bytes_in"),
            cache_hits: registry.counter("store_cache_hits"),
            cache_misses: registry.counter("store_cache_misses"),
            reads: registry.counter("store_reads"),
            shared_writes: registry.counter("store_shared_writes"),
            fallback_writes: registry.counter("store_fallback_writes"),
            promotions: registry.counter("store_promotions"),
            demotions: registry.counter("store_demotions"),
            removals: registry.counter("store_removals"),
            window_seals: registry.counter("store_window_seals"),
            window_downsamples: registry.counter("store_window_downsamples"),
            window_evictions: registry.counter("store_window_evictions"),
            window_late_drops: registry.counter("store_window_late_drops"),
            windows_resident: registry.gauge("store_windows_resident"),
            wal_appends: registry.counter("wal_appends"),
            wal_bytes: registry.counter("wal_bytes"),
            wal_fsyncs: registry.counter("wal_fsyncs"),
            wal_group_commits: registry.counter("wal_group_commits"),
            wal_group_size: registry.latency("wal_group_size"),
            wal_durable_lsn: registry.gauge("wal_durable_lsn"),
            wal_errors: registry.counter("wal_errors"),
            wal_checkpoints: registry.counter("wal_checkpoints"),
            checkpoint_seconds: registry.latency("checkpoint_seconds"),
            stripe_keys: (0..stripes)
                .map(|i| registry.gauge(&format!("store_stripe_keys_{i:02}")))
                .collect(),
        }
    }
}

/// Sharded keyed sketch store over [`TieredEngine`] keys, generic over the
/// element type (`f64` by default); see the [module docs](self).
pub struct SketchStore<T: OrderedBits = f64> {
    stripes: Box<[Stripe<T>]>,
    mask: usize,
    cfg: StoreConfig,
    /// Normalized window arithmetic, derived once from
    /// [`StoreConfig::window`] (`None` keeps every key unwindowed).
    window_plan: Option<WindowPlan>,
    /// The metrics registry: either the one [`StoreConfig::telemetry`]
    /// shares across subsystems, or a private live one.
    registry: Arc<Registry>,
    /// Registered instrument handles — these back [`SketchStore::stats`].
    instruments: StoreInstruments,
    /// Store-wide lease-generation source: strictly increasing, never
    /// reused, so a stale lease can never collide with a successor
    /// engine's tag.
    lease_generation: AtomicU64,
    /// The durable log, when this store was built by
    /// [`SketchStore::recover`] with a data directory. `None` everywhere
    /// else, which makes every logging hook a no-op — including during
    /// recovery replay itself, which runs before this is attached.
    persistence: Option<Persistence>,
}

/// Live durability state: the open log behind its append mutex, plus the
/// group-commit sequencer that grants durability after the append.
///
/// **Lock order** (outermost first): stripe lock → `wal` mutex →
/// `commit`'s internal state mutex (leaf). Every appender takes the log
/// mutex while already holding a stripe lock (shared or exclusive) — so
/// nothing may acquire a stripe lock while holding the log mutex, and
/// nothing may acquire the log mutex while holding the commit state
/// (the sync leader re-takes the log mutex only *after* dropping it; see
/// [`CommitSequencer`]). The **fsync itself runs with no lock held at
/// all** — not the stripe lock, not the append mutex: appends and reads
/// proceed at full speed while a group's disk wait is in flight, which
/// is the entire point of the split. [`SketchStore::checkpoint`] rotates
/// under a brief `wal` hold and seal-fsyncs outside every lock, with
/// `ckpt` serializing whole passes.
struct Persistence {
    wal: Mutex<Wal>,
    /// Grants durability: the `durable_lsn` watermark + leader election.
    commit: CommitSequencer,
    /// One checkpoint pass at a time (rotation creates the successor
    /// segment outside the append mutex, so two racing passes could
    /// otherwise interleave their two-step swaps).
    ckpt: Mutex<()>,
    dir: PathBuf,
}

impl<T: OrderedBits> Default for SketchStore<T> {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl<T: OrderedBits> SketchStore<T> {
    /// Build an in-memory store.
    pub fn new(cfg: StoreConfig) -> Self {
        let stripes = cfg.stripes.max(1).next_power_of_two();
        let table = (0..stripes).map(|_| RwLock::new(HashMap::new())).collect();
        let registry = cfg.telemetry.clone().unwrap_or_else(|| Arc::new(Registry::new()));
        let instruments = StoreInstruments::register(&registry, stripes);
        let window_plan = cfg.window.as_ref().map(WindowPlan::new);
        SketchStore {
            stripes: table,
            mask: stripes - 1,
            cfg,
            window_plan,
            registry,
            instruments,
            lease_generation: AtomicU64::new(0),
            persistence: None,
        }
    }

    /// Recover a store from `cfg.data_dir`, then keep logging into it.
    ///
    /// Replays the newest valid checkpoint (each entry ingested through
    /// the ordinary summary-merge path) and the log tail behind it
    /// (through the same write pipeline, `ingest_bytes` and `remove`
    /// live traffic uses), stopping cleanly at the first torn or corrupt frame: the
    /// damage is reported as a typed [`RecoveryReport::corruption`] —
    /// never a panic — the torn tail is physically truncated away, and a
    /// fresh active segment is opened for new appends. With
    /// [`FsyncPolicy::PerFrame`] the recovered store conserves every
    /// key's weight exactly up to the last fsync'd frame.
    ///
    /// A recovered key is ε-equal, not bit-equal, to the live key it
    /// replaces: its checkpointed state is absorbed through the
    /// randomized merge, so its retained values can differ within the
    /// ε(k) rank error. Two recoveries of one directory are
    /// byte-identical.
    ///
    /// Without [`StoreConfig::data_dir`] this is [`SketchStore::new`] plus
    /// an empty report: a purely in-memory store.
    ///
    /// Replay drives the ordinary write paths, so store counters
    /// (`updates`, `ingests`, …) include the replayed operations.
    pub fn recover(cfg: StoreConfig) -> Result<(Self, RecoveryReport), PersistError> {
        let Some(dir) = cfg.data_dir.clone() else {
            return Ok((Self::new(cfg), RecoveryReport::default()));
        };
        let recovered = persist::recover_dir(&dir)?;
        // Build with persistence unattached: replay below runs through the
        // public write paths without re-logging itself.
        let mut store = Self::new(cfg);
        let mut report = recovered.report;
        // Per-key replay floor: a record applies iff its LSN is above the
        // checkpoint's floor for that key (records at or below it are
        // already inside the checkpointed summary).
        let mut floors: HashMap<String, u64> = HashMap::new();
        if let Some((_seq, entries)) = &recovered.checkpoint {
            for entry in entries {
                // The checkpoint decoder validated every embedded summary,
                // so this ingest cannot fail on a well-typed path.
                if store.ingest_bytes(&entry.key, &entry.summary).is_ok() {
                    store.restore_window_state(entry);
                    store.note_applied_lsn(&entry.key, entry.lsn);
                    floors.insert(entry.key.clone(), entry.lsn);
                }
            }
        }
        for record in &recovered.records {
            if record.lsn <= floors.get(record.op.key()).copied().unwrap_or(0) {
                report.records_skipped += 1;
                continue;
            }
            match &record.op {
                RecordOp::UpdateMany { key, value_bits, window } => {
                    let values: Vec<T> =
                        value_bits.iter().map(|&bits| T::from_ordered_bits(bits)).collect();
                    // Replay by logged window id, not by timestamp: the
                    // record lands in the exact window it was applied to.
                    // A windowed log replayed into an unwindowed store
                    // collapses into the flat stream, conserving weight.
                    let target =
                        store.window_plan.map_or(Target::Active, |_| Target::Window(*window));
                    store.apply(key, target, &values, None).expect(UNLEASED);
                    store.note_applied_lsn(key, record.lsn);
                }
                RecordOp::Ingest { key, frame } => {
                    // Validated at scan time; a failure here would mean the
                    // scan and the store disagree on the wire format.
                    if store.ingest_bytes(key, frame).is_ok() {
                        store.note_applied_lsn(key, record.lsn);
                    }
                }
                RecordOp::Remove { key } => {
                    store.remove(key);
                }
            }
            report.records_applied += 1;
        }
        let wal = Wal::create(&dir, recovered.next_seq, recovered.next_lsn)?;
        // Everything replayed from disk is durable by definition, so the
        // watermark starts at the last recovered LSN.
        let commit = CommitSequencer::new(wal.last_lsn());
        store.persistence =
            Some(Persistence { wal: Mutex::new(wal), commit, ckpt: Mutex::new(()), dir });
        store.registry.event(
            EventKind::Recovery,
            format!(
                "checkpoint={} keys={} segments={} applied={} skipped={} corrupt={}",
                report.checkpoint_seq.map_or_else(|| "none".into(), |s| s.to_string()),
                report.checkpoint_keys,
                report.segments_scanned,
                report.records_applied,
                report.records_skipped,
                report.corruption.is_some(),
            ),
        );
        Ok((store, report))
    }

    /// The metrics registry this store records into — the one passed via
    /// [`StoreConfig::telemetry`] or the store's own. The serving layer
    /// registers its instruments here so one snapshot covers both.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The durable data directory, when this store was built by
    /// [`SketchStore::recover`] with one configured.
    pub fn data_dir(&self) -> Option<&Path> {
        self.persistence.as_ref().map(|p| p.dir.as_path())
    }

    /// Reinstall a checkpoint entry's window bookkeeping (recovery only;
    /// the entry's active summary was just ingested). On an unwindowed
    /// store the sealed frames collapse into the flat stream instead, so
    /// a windowed checkpoint replayed without a window config still
    /// conserves every key's weight.
    fn restore_window_state(&self, entry: &CheckpointEntry) {
        if self.window_plan.is_none() {
            for (_, _, frame) in &entry.sealed {
                // Validated by the checkpoint decoder, like the active
                // summary above.
                let _ = self.ingest_bytes(&entry.key, frame);
            }
            return;
        }
        let mut map = self.stripe_of(&entry.key).write().unwrap();
        let Some(slot) = map.get_mut(&entry.key) else { return };
        let state = slot.window_state();
        state.active_id = entry.active_wid;
        state.watermark = entry.watermark.max(entry.active_wid);
        state.sealed.clear();
        for (start, level, frame) in &entry.sealed {
            if let Ok(summary) = decode_summary(frame) {
                let summary = Arc::new(LeveledSummary::from_weighted(&summary));
                state.sealed.insert(*start, SealedWindow { level: *level, summary });
            }
        }
    }

    /// Advance a key's applied-LSN watermark (recovery replay only; live
    /// appends advance it inside [`SketchStore::log_op`]).
    fn note_applied_lsn(&self, key: &str, lsn: u64) {
        let map = self.stripe_of(key).read().unwrap();
        if let Some(entry) = map.get(key) {
            entry.last_lsn.fetch_max(lsn, Relaxed);
        }
    }

    /// Append an update batch to the durable log, tagged with the window
    /// it was applied to (always 0 on unwindowed stores). No-op without
    /// persistence; otherwise the caller MUST hold the key's stripe lock
    /// (shared or exclusive) across this call so per-key log order
    /// matches per-key apply order.
    ///
    /// Returns the append's durability ticket — the assigned LSN — to be
    /// redeemed through [`SketchStore::finish_log`] **after** the stripe
    /// lock is released (no fsync ever runs under a stripe lock).
    /// `None` means nothing to wait for: no persistence, or an append
    /// failure (already counted).
    #[must_use]
    fn log_update(
        &self,
        key: &str,
        window: u64,
        values: &[T],
        last_lsn: &AtomicU64,
    ) -> Option<u64> {
        self.persistence.as_ref()?;
        let bits: Vec<u64> = values.iter().map(|v| v.to_ordered_bits()).collect();
        self.log_op(Some(last_lsn), WalOpRef::UpdateMany { key, value_bits: &bits, window })
    }

    /// Append one record to the durable log (no-op without persistence),
    /// returning its durability ticket (see [`SketchStore::log_update`]
    /// for the contract). An I/O failure degrades durability, not
    /// service: it is counted, evented, and the log is poisoned so later
    /// checkpoints do not compact away segments that no longer cover the
    /// store — and so every parked durable waiter wakes with the error
    /// instead of hanging.
    #[must_use]
    fn log_op(&self, last_lsn: Option<&AtomicU64>, op: WalOpRef<'_>) -> Option<u64> {
        let Some(p) = &self.persistence else { return None };
        let mut wal = p.wal.lock().unwrap();
        match wal.append(&op) {
            Ok(outcome) => {
                self.instruments.wal_appends.incr();
                self.instruments.wal_bytes.add(outcome.bytes);
                if let Some(last_lsn) = last_lsn {
                    last_lsn.fetch_max(outcome.lsn, Relaxed);
                }
                Some(outcome.lsn)
            }
            Err(e) => {
                wal.poisoned = true;
                drop(wal);
                p.commit.poison();
                self.instruments.wal_errors.incr();
                self.registry.event(EventKind::WalError, e.to_string());
                None
            }
        }
    }

    /// Redeem a durability ticket from [`SketchStore::log_update`] /
    /// [`SketchStore::log_op`]: block until the append is durable under
    /// the store's fsync policy. **Must be called with no stripe lock
    /// held** — this is where the disk wait happens, amortized across
    /// every concurrent writer by the [`CommitSequencer`].
    fn finish_log(&self, ticket: Option<u64>) {
        let Some(lsn) = ticket else { return };
        let Some(p) = &self.persistence else { return };
        let delay = match self.cfg.fsync {
            FsyncPolicy::PerFrame => self.cfg.group_commit_delay,
            // The interval check lives here, on the sync path: the
            // append mutex never pays it, and appenders racing past a
            // due interval coalesce into one sync.
            FsyncPolicy::Interval(every) if p.commit.interval_due(every, lsn) => Duration::ZERO,
            FsyncPolicy::Interval(_) | FsyncPolicy::Off => return,
        };
        self.observe_group(p.commit.wait_durable(lsn, &p.wal, delay));
    }

    /// Record the outcome of a group-commit wait. `Ok(Some)` means this
    /// caller led a physical sync and owns its telemetry; followers
    /// (`Ok(None)`) and victims of someone else's failure (`Poisoned`,
    /// counted by the poisoner) record nothing.
    fn observe_group(&self, result: Result<Option<GroupOutcome>, WaitError>) {
        match result {
            Ok(Some(outcome)) => {
                self.instruments.wal_fsyncs.incr();
                if outcome.group > 0 {
                    self.instruments.wal_durable_lsn.set(outcome.covered as i64);
                    self.instruments.wal_group_commits.incr();
                    self.instruments.wal_group_size.record(outcome.group as f64);
                }
            }
            Ok(None) => {}
            Err(WaitError::Io(e)) => {
                self.instruments.wal_errors.incr();
                self.registry.event(EventKind::WalError, e.to_string());
            }
            Err(WaitError::Poisoned) => {}
        }
    }

    /// Flush the durable log's buffered tail to disk: one coalesced
    /// group commit covering everything appended so far, under **any**
    /// fsync policy. Returns whether a physical sync ran (`false` when
    /// the log was already clean, the store has no persistence, or the
    /// log is poisoned).
    ///
    /// Clean shutdown calls this — directly, via the serving layer's
    /// stop path, or through the store's own `Drop` — so `Interval` and
    /// `Off` stores lose nothing that was acked before a *graceful*
    /// exit. Housekeeping sweeps ride the same path.
    pub fn sync(&self) -> bool {
        let Some(p) = &self.persistence else { return false };
        let result = p.commit.force_sync(&p.wal);
        let synced = matches!(result, Ok(Some(_)));
        self.observe_group(result);
        synced
    }

    /// The next never-before-used lease generation.
    fn next_generation(&self) -> u64 {
        self.lease_generation.fetch_add(1, Relaxed)
    }

    /// The store's configuration (stripe count already normalized).
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Number of stripes (power of two).
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    fn stripe_index(&self, key: &str) -> usize {
        // FNV-1a over the key bytes; stripe count is a power of two.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Fold the high bits in so the low-bit mask sees the whole hash.
        ((h ^ (h >> 32)) as usize) & self.mask
    }

    fn stripe_of(&self, key: &str) -> &Stripe<T> {
        &self.stripes[self.stripe_index(key)]
    }

    fn key_seed(&self, key: &str) -> u64 {
        // Distinct deterministic seeds per key, derived FNV-style.
        let mut h = self.cfg.seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in key.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Feed one value into `key`'s engine, creating the key on first use.
    pub fn update(&self, key: &str, value: T) {
        self.update_many(key, &[value]);
    }

    /// Feed a batch of values into `key` under a single lock acquisition —
    /// the **shared** stripe lock when the key already exists and its
    /// engine lends writers (see the
    /// [write path](self#write-path-one-pipeline)), the exclusive lock
    /// otherwise. On a windowed store the batch lands in the key's
    /// current active window.
    ///
    /// Nothing happens for an empty batch: no key is created and no
    /// counter moves.
    pub fn update_many(&self, key: &str, values: &[T]) {
        self.apply(key, Target::Active, values, None).expect(UNLEASED);
    }

    /// Feed a timestamped batch into the window holding `ts_ms` (an
    /// event-time timestamp in milliseconds — the store keeps no wall
    /// clock of its own; see [`crate::window`]).
    ///
    /// * A timestamp in the key's **active window** rides the same
    ///   shared-lock leased write path as [`SketchStore::update_many`].
    /// * A timestamp **ahead** of the active window rolls the key
    ///   forward: the live engine seals into an immutable summary for the
    ///   old window and a fresh engine opens for the new one (outstanding
    ///   writer leases are retired, exactly like tier demotion).
    /// * A timestamp **behind** the active window is late: within
    ///   [`WindowConfig::lateness`] of the key's watermark it merges into
    ///   the sealed window covering it; beyond that bound the batch is
    ///   dropped and counted ([`StoreStats::window_late_drops`]), never
    ///   written and never logged.
    ///
    /// Without [`StoreConfig::window`] this is exactly
    /// [`SketchStore::update_many`] — the timestamp is ignored.
    pub fn update_at(&self, key: &str, ts_ms: u64, values: &[T]) {
        let target =
            self.window_plan.map_or(Target::Active, |plan| Target::Window(plan.window_id(ts_ms)));
        self.apply(key, target, values, None).expect(UNLEASED);
    }

    /// The one write pipeline (see the
    /// [module docs](self#write-path-one-pipeline)): every batch — plain,
    /// timestamped, leased, replayed — lands through here. `lease` is the
    /// key generation a leased call expects; only a leased call can fail,
    /// and [`StaleLease`] means nothing was written or counted.
    fn apply(
        &self,
        key: &str,
        target: Target,
        values: &[T],
        lease: Option<u64>,
    ) -> Result<(), StaleLease> {
        // Shared fast path: an existing hot key, written through a
        // per-thread handle. Hot-key writers synchronize only inside the
        // engine (the paper's Gather&Sort/DCAS points), never on the
        // stripe.
        let stripe_ix = self.stripe_index(key);
        let fast = {
            let map = self.stripes[stripe_ix].read().unwrap();
            let entry = map.get(key);
            // A lease is validated under the same lock hold as its write,
            // so a stale one — the key was removed, demoted, rolled, or
            // re-created — is rejected before any element moves.
            if is_stale(lease, entry) {
                return Err(StaleLease);
            }
            if values.is_empty() {
                return Ok(());
            }
            entry.and_then(|entry| {
                // The active id cannot move while we hold the stripe
                // shared (every window transition runs under the
                // exclusive lock), so this brief peek stays valid across
                // the whole write and the log tag below is exact.
                let (wid, _) = entry.window_ids();
                if target.wid(wid) != wid {
                    return None;
                }
                let mut writer = entry.engine.writer(self.cfg.writer_pool)?;
                // Count before writing (the write is infallible from
                // here): a concurrent `stats()` sweep sharing the stripe
                // lock must never observe engine weight not yet in
                // `updates`.
                self.instruments.updates.add(values.len() as u64);
                self.instruments.shared_writes.incr();
                // The write leaves the batch exactly visible, so the
                // handle the writer gives back holds zero weight.
                writer.write(values);
                // Log under this same shared-lock hold: a checkpoint
                // (exclusive) can then never capture weight whose record
                // is not yet sequenced, and per-key log order matches
                // apply order. The durable *wait* happens below, lock
                // free.
                let ticket = self.log_update(key, wid, values, &entry.last_lsn);
                drop(writer);
                // The flush moved the version, so no read serves the
                // cached form again: it goes now, and a key that is written
                // and not read holds no read form.
                Some((ticket, entry.take_form()))
            })
        };
        if let Some((ticket, stale)) = fast {
            drop(stale);
            self.finish_log(ticket);
            return Ok(());
        }
        // Exclusive slow path: key creation, cold-tier keys (whose
        // `&mut` updates drive promotion pressure), every writer handle in
        // use, and
        // every window transition (roll forward, late merge).
        let mut map = self.stripes[stripe_ix].write().unwrap();
        // The generation may have moved between the two lock holds: check
        // the lease again before anything could create a successor key.
        if is_stale(lease, map.get(key)) {
            return Err(StaleLease);
        }
        let entry = self.entry_or_create(&mut map, stripe_ix, key, target.wid(0));
        let (active_id, watermark) = entry.window_ids();
        let wid = target.wid(active_id);
        if wid > active_id {
            // Roll forward: seal the live engine's contents for the old
            // active window, then open a fresh engine for the new one.
            // The old engine's writer handles die with it, and its
            // generation retires as on tier demotion, so a stale lease can
            // never write into the new window; its cached form goes with
            // the write below.
            let seed = self.key_seed(key);
            if entry.engine.stream_len() > 0 {
                let sealed = entry.engine.to_summary();
                Self::seal_into(entry.window_state(), active_id, sealed, self.cfg.k, seed);
                self.instruments.window_seals.incr();
            }
            entry.engine = TieredEngine::build(&self.cfg, seed);
            entry.generation = self.next_generation();
            let state = entry.window_state();
            state.active_id = wid;
            state.watermark = state.watermark.max(wid);
        }
        let mut stale = None;
        let promoted = if wid >= active_id {
            // Active-window write (possibly just rolled to). Promotion
            // fires inside the engine on update pressure; observe it as a
            // tier flip around the write (exclusive path only — leased
            // writes require an already-hot engine).
            let was_hot = entry.engine.is_hot();
            entry.engine.update_many(values);
            // The write moved the version (or replaced the engine): the
            // cached form goes, dropped below once the lock is released.
            stale = entry.take_form();
            !was_hot && entry.engine.is_hot()
        } else if self.window_plan.is_some_and(|plan| plan.admissible(watermark, wid)) {
            // Late but admissible: summarize the batch through a
            // throwaway sequential sketch (what a cold engine holds; a
            // hot one is never built for a batch summarized once) and
            // merge it, exact-weight, into the sealed window covering
            // `wid` (or open a new level-0 one).
            let seed = self.key_seed(key);
            let mut tmp = qc_sequential::Sketch::<T>::with_seed(self.cfg.k, seed);
            tmp.update_many(values);
            Self::seal_into(entry.window_state(), wid, tmp.to_summary(), self.cfg.k, seed);
            false
        } else {
            // Beyond the lateness bound: dropped and counted — never
            // written, never logged, so recovery replay (which sees only
            // logged records) drives the same watermark trajectory and
            // admits exactly the same set.
            self.instruments.window_late_drops.incr();
            return Ok(());
        };
        // Count while still holding the stripe lock: bumping after the
        // drop let `stats()` observe engine weight not yet in `updates`
        // (`stream_len > updates` mid-flight, under-reported counters at
        // shutdown barriers).
        self.instruments.updates.add(values.len() as u64);
        self.instruments.fallback_writes.incr();
        let ticket = self.log_update(key, wid, values, &entry.last_lsn);
        if promoted {
            self.instruments.promotions.incr();
            self.registry.event(EventKind::Promotion, format!("key={key}"));
        }
        // Durable wait after the stripe lock is gone: concurrent writers
        // on this stripe proceed while our group's fsync is in flight.
        drop(map);
        drop(stale);
        self.finish_log(ticket);
        Ok(())
    }

    /// `key`'s entry in its exclusively held stripe map, created on first
    /// use with `first_wid` as its active window.
    fn entry_or_create<'m>(
        &self,
        map: &'m mut HashMap<String, KeyEntry<T>>,
        stripe_ix: usize,
        key: &str,
        first_wid: u64,
    ) -> &'m mut KeyEntry<T> {
        // Probe before inserting: the steady state must not allocate a
        // `String` per call just to use the entry API.
        if !map.contains_key(key) {
            let entry = KeyEntry::new(
                TieredEngine::build(&self.cfg, self.key_seed(key)),
                self.next_generation(),
                self.window_plan.map(|_| first_wid),
            );
            map.insert(key.to_string(), entry);
            self.instruments.stripe_keys[stripe_ix].inc();
        }
        map.get_mut(key).expect("entry just ensured")
    }

    /// Merge a summary into `state`'s sealed set at level-0 slot `start`:
    /// into the (possibly coarse) window already covering the slot via
    /// exact-weight [`merge_runs`] over both sets of level runs, or as a
    /// fresh level-0 window.
    fn seal_into(
        state: &mut WindowState,
        start: u64,
        summary: WeightedSummary,
        k: usize,
        seed: u64,
    ) {
        let runs = summary.level_runs();
        match state.covering(start) {
            Some(slot) => {
                let win = state.sealed.get_mut(&slot).expect("covering slot present");
                let merged = merge_runs([&win.summary.level_runs()[..], &runs[..]], k, seed);
                win.summary = Arc::new(merged);
            }
            None => {
                let summary = Arc::new(LeveledSummary::from_runs(&runs));
                state.sealed.insert(start, SealedWindow { level: 0, summary });
            }
        }
    }

    /// A lease on `key`'s current generation, for callers that write one
    /// hot key many times and want to learn when it was removed, demoted
    /// or rolled. `Some` iff the key exists, its engine lends writers
    /// (the hot tier), and [`StoreConfig::writer_pool`] is non-zero. A
    /// lease reserves nothing: any number may be held at once.
    pub fn lease_writer(&self, key: &str) -> Option<WriterLease<T>> {
        if self.cfg.writer_pool == 0 {
            return None;
        }
        let map = self.stripe_of(key).read().unwrap();
        let entry = map.get(key).filter(|entry| entry.engine.is_hot())?;
        Some(WriterLease { generation: entry.generation, element: PhantomData })
    }

    /// Feed a batch into `key` if the key still has the lease's
    /// generation, the same way [`SketchStore::update_many`] would.
    ///
    /// The generation is checked under the same lock hold as the write,
    /// so a stale lease — the key was removed, demoted, rolled, or
    /// re-created — is rejected **before** any element moves:
    /// [`StaleLease`] means no weight was written and no counter was
    /// bumped; drop the lease and retry through
    /// [`SketchStore::update_many`]. The batch is fully engine-visible
    /// when the call returns.
    pub fn update_many_leased(
        &self,
        key: &str,
        lease: &mut WriterLease<T>,
        values: &[T],
    ) -> Result<(), StaleLease> {
        self.apply(key, Target::Active, values, Some(lease.generation))
    }

    /// φ-quantile estimate over everything `key` has seen (local updates
    /// and ingested snapshots). `None` if the key is absent or empty.
    pub fn query(&self, key: &str, phi: f64) -> Option<T> {
        self.read(&[key], None).view().quantile(phi)
    }

    /// Normalized rank of `value` within `key`'s stream (0.0 ≤ rank ≤
    /// 1.0). `None` if the key is absent or empty.
    pub fn rank(&self, key: &str, value: T) -> Option<f64> {
        let read = self.read(&[key], None);
        let view = read.view();
        let n = view.stream_len();
        (n > 0).then(|| view.rank_bits(value.to_ordered_bits()) as f64 / n as f64)
    }

    /// Estimated CDF of `key`'s stream at each split point. `None` if the
    /// key is absent or empty (the same contract as [`SketchStore::rank`]).
    pub fn cdf(&self, key: &str, split_points: &[T]) -> Option<Vec<f64>> {
        let bits: Vec<u64> = split_points.iter().map(|p| p.to_ordered_bits()).collect();
        let read = self.read(&[key], None);
        let view = read.view();
        (view.stream_len() > 0).then(|| view.cdf_bits(&bits))
    }

    /// The key's full resident summary behind an `Arc`, or `None` if the
    /// key is absent — for callers that keep, ship or merge it. Exact
    /// whenever the engine is settled (no leased write in flight).
    pub fn summary_of(&self, key: &str) -> Option<Arc<WeightedSummary>> {
        let read = self.read(&[key], None);
        (!read.live.is_empty()).then(|| read.into_summary(self.cfg.k, self.cfg.seed))
    }

    /// Gather what a read of `keys` over the event-time `span` (half-open,
    /// in ms) answers over, one shared stripe lock at a time; absent keys
    /// contribute nothing. See the module docs' read path.
    fn read<K: AsRef<str>>(&self, keys: &[K], span: Option<(u64, u64)>) -> ReadView {
        let mut read = ReadView::default();
        for key in keys {
            let key = key.as_ref();
            let map = self.stripe_of(key).read().unwrap();
            let Some(entry) = map.get(key) else { continue };
            let mut live = true;
            if let (Some((t0_ms, t1_ms)), Some(plan), Some(cell)) =
                (span, self.window_plan, &entry.windows)
            {
                let (w0, w1) = plan.range_windows(t0_ms, t1_ms);
                let state = cell.lock().unwrap();
                let sealed = state.overlapping(w0, w1);
                read.sealed.extend(sealed.map(|(start, window)| (start, window.clone())));
                read.ids = Some((state.active_id, state.watermark));
                live = (w0..w1).contains(&state.active_id);
            }
            if live {
                read.live.push(self.form(entry));
            }
        }
        read
    }

    /// `entry`'s form at its engine's current version: the cached one on
    /// a hit; on a miss, gathered from the engine under the caller's
    /// stripe lock and published. Rebuilding happens outside the cache
    /// mutex, so a slow gather never blocks warm readers of the previous
    /// version; two racing misses may publish different forms, but only
    /// under a tag no settled state carries (see the module docs).
    fn form(&self, entry: &KeyEntry<T>) -> Arc<EngineParts> {
        let version = entry.engine.version();
        let cache = entry.cache.lock().unwrap();
        let cached =
            cache.as_ref().filter(|slot| slot.version == version).map(|s| Arc::clone(&s.form));
        drop(cache);
        // Classify (hit or miss) before counting the read: `stats()`
        // samples in the opposite order, so `cache_hits + cache_misses >=
        // reads` never inverts.
        let form = match cached {
            Some(form) => {
                self.instruments.cache_hits.incr();
                form
            }
            None => {
                self.instruments.cache_misses.incr();
                let form = Arc::new(entry.engine.parts());
                *entry.cache.lock().unwrap() = Some(CacheSlot { version, form: Arc::clone(&form) });
                form
            }
        };
        self.instruments.reads.incr();
        form
    }

    /// φ-quantile over the event-time range `[t0_ms, t1_ms)` of `key`'s
    /// stream. `None` if the key is absent or no window in range holds
    /// any weight. Exact over the stored windows: nothing is merged.
    ///
    /// Without [`StoreConfig::window`] the store has no time axis: the
    /// range is ignored and the whole stream is the answer.
    pub fn query_range(&self, key: &str, t0_ms: u64, t1_ms: u64, phi: f64) -> Option<T> {
        self.read(&[key], Some((t0_ms, t1_ms))).view().quantile(phi)
    }

    /// One bounded summary over the union of the given keys' streams
    /// restricted to the event-time range `[t0_ms, t1_ms)` (absent keys
    /// contribute nothing), for callers that keep or ship it: every
    /// covered window merged once.
    pub fn merged_range_summary<K: AsRef<str>>(
        &self,
        keys: &[K],
        t0_ms: u64,
        t1_ms: u64,
    ) -> WeightedSummary {
        let read = self.read(keys, Some((t0_ms, t1_ms)));
        Arc::unwrap_or_clone(read.into_summary(self.cfg.k, self.cfg.seed))
    }

    /// φ-quantile over the union of the given keys' streams restricted to
    /// the event-time range `[t0_ms, t1_ms)`. `None` if nothing in range
    /// held any weight.
    pub fn merged_query_range<K: AsRef<str>>(
        &self,
        keys: &[K],
        t0_ms: u64,
        t1_ms: u64,
        phi: f64,
    ) -> Option<T> {
        self.read(keys, Some((t0_ms, t1_ms))).view().quantile(phi)
    }

    /// The key's full windowed state — active id, watermark, active
    /// summary, and every sealed window, flattened — for diagnostics and
    /// the exact-oracle tests. `None` if the key is absent or the store is
    /// unwindowed.
    pub fn window_snapshot(&self, key: &str) -> Option<WindowSnapshot> {
        let read = self.read(&[key], Some((0, u64::MAX)));
        let (active_id, watermark) = read.ids?;
        let sealed = read
            .sealed
            .iter()
            .map(|(start, window)| (*start, window.level, Arc::new(window.summary.to_weighted())));
        Some(WindowSnapshot {
            active_id,
            watermark,
            sealed: sealed.collect(),
            active: read.live.first().map_or_else(Default::default, |form| form.summary()),
        })
    }

    /// The key's resident summary materialized directly from the engine,
    /// bypassing (and not populating) the cache. `None` if the key is
    /// absent.
    ///
    /// For verification and diagnostics — the cache-coherence suite holds
    /// [`SketchStore::summary_of`] against this on every interleaving —
    /// and as the reference cost in read-path benchmarks.
    pub fn summary_of_uncached(&self, key: &str) -> Option<WeightedSummary> {
        let map = self.stripe_of(key).read().unwrap();
        map.get(key).map(|entry| entry.engine.to_summary())
    }

    /// Serialize `key`'s resident summary with [`crate::wire`]. `None` if
    /// the key is absent. The frame is self-contained: another process (or
    /// another key) can [`SketchStore::ingest_bytes`] it.
    pub fn snapshot_bytes(&self, key: &str) -> Option<Vec<u8>> {
        let summary = self.summary_of(key)?;
        let bytes = encode_summary(&summary);
        self.instruments.bytes_out.add(bytes.len() as u64);
        Some(bytes)
    }

    /// Decode a serialized summary and merge it into `key`'s engine,
    /// creating the key if needed. Returns the ingested stream length.
    /// Malformed frames return a typed [`WireError`] and leave the store
    /// untouched.
    pub fn ingest_bytes(&self, key: &str, buf: &[u8]) -> Result<u64, WireError> {
        let remote = match decode_summary(buf) {
            Ok(summary) => summary,
            Err(e) => {
                self.instruments.ingest_errors.incr();
                return Err(e);
            }
        };
        let ingested = remote.stream_len();
        let stripe_ix = self.stripe_index(key);
        let mut map = self.stripes[stripe_ix].write().unwrap();
        let entry = self.entry_or_create(&mut map, stripe_ix, key, 0);
        let version = entry.engine.version();
        entry.engine.absorb_summary(&remote);
        // An empty frame leaves the engine (and so its cached form) as is.
        let stale = if entry.engine.version() != version { entry.take_form() } else { None };
        // Counted under the stripe lock, like `updates`: `stats()` must
        // never see absorbed weight that is not yet in `ingests`.
        self.instruments.ingests.incr();
        self.instruments.bytes_in.add(buf.len() as u64);
        // The frame is logged verbatim (it already carries its own CRC
        // and decoded cleanly above); replay re-ingests it.
        let ticket = self.log_op(Some(&entry.last_lsn), WalOpRef::Ingest { key, frame: buf });
        drop(map);
        drop(stale);
        self.finish_log(ticket);
        Ok(ingested)
    }

    /// φ-quantile over the union of the given keys' streams. `None` if no
    /// key contributed any element.
    pub fn merged_query<K: AsRef<str>>(&self, keys: &[K], phi: f64) -> Option<T> {
        self.read(keys, None).view().quantile(phi)
    }

    /// Remove a key and return whether it was present.
    pub fn remove(&self, key: &str) -> bool {
        let stripe_ix = self.stripe_index(key);
        let mut map = self.stripes[stripe_ix].write().unwrap();
        if map.remove(key).is_none() {
            return false;
        }
        // Logged under the same exclusive hold as the removal: a racing
        // re-creation of the key cannot sequence its first batch before
        // the remove.
        let ticket = self.log_op(None, WalOpRef::Remove { key });
        drop(map);
        self.instruments.stripe_keys[stripe_ix].dec();
        self.instruments.removals.incr();
        self.registry.event(EventKind::Eviction, format!("key={key}"));
        self.finish_log(ticket);
        true
    }

    /// All resident keys (unordered).
    pub fn keys(&self) -> Vec<String> {
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            out.extend(stripe.read().unwrap().keys().cloned());
        }
        out
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.read().unwrap().is_empty())
    }

    /// Run one cool-down sweep: every key's engine ends its epoch under the
    /// key's stripe lock, so hot keys that saw **no** updates for one full
    /// sweep interval demote to the sequential tier, releasing their
    /// concurrent buffers. Returns the number of keys that changed tier.
    ///
    /// Call it periodically (e.g. from the serving layer's housekeeping
    /// loop); the sweep interval defines the cool-down window.
    pub fn cool_down(&self) -> usize {
        let mut changed = 0usize;
        let mut windows_resident = 0i64;
        for stripe in self.stripes.iter() {
            // Snapshot the key list under the shared lock, then maintain
            // one key per write-lock acquisition: a demotion is a full
            // summary round-trip, and holding the stripe exclusively for a
            // whole multi-key sweep would stall the warm read path every
            // interval. Keys created after the snapshot simply wait one
            // sweep; removed keys are skipped.
            let keys: Vec<String> = stripe.read().unwrap().keys().cloned().collect();
            for key in keys {
                let mut map = stripe.write().unwrap();
                let mut stale = None;
                if let Some(entry) = map.get_mut(&key) {
                    // A demotion drops the hot engine with its writer
                    // handles and retires the key's generation, so
                    // outstanding leases are rejected at their next use.
                    if entry.engine.maintain() {
                        changed += 1;
                        self.instruments.demotions.incr();
                        self.registry.event(EventKind::Demotion, format!("key={key}"));
                        entry.generation = self.next_generation();
                    }
                    // A demotion moved the version, so its form goes here,
                    // in the same hold. Otherwise this is the backstop for
                    // the one form a write cannot drop: a reader's publish
                    // that raced a shared-path write (see
                    // `KeyEntry::cache`).
                    let version = entry.engine.version();
                    stale = entry.cache.get_mut().unwrap().take_if(|c| c.version != version);
                    // Windowed housekeeping rides the same exclusive
                    // hold: downsample aged sealed windows into coarser
                    // ones (exact-weight merges), then evict windows
                    // wholly past the retention horizon. Both are driven
                    // by the key's watermark — event time, never the wall
                    // clock — so sweeps are deterministic from the update
                    // stream alone.
                    if let (Some(plan), Some(cell)) = (self.window_plan, entry.windows.as_mut()) {
                        let seed = self.key_seed(&key);
                        let k = self.cfg.k;
                        let state = cell.get_mut().unwrap();
                        let promoted = window::downsample_sweep(state, &plan, |a, b| {
                            merge_runs([&a.level_runs()[..], &b.level_runs()[..]], k, seed)
                        });
                        if promoted > 0 {
                            self.instruments.window_downsamples.add(promoted);
                        }
                        let evicted = window::evict_sweep(state, &plan);
                        if evicted > 0 {
                            self.instruments.window_evictions.add(evicted);
                            self.registry
                                .event(EventKind::Eviction, format!("key={key} windows={evicted}"));
                        }
                        windows_resident += 1 + state.sealed.len() as i64;
                    }
                }
                drop(map);
                drop(stale);
            }
        }
        if self.window_plan.is_some() {
            self.instruments.windows_resident.set(windows_resident);
        }
        // Durability housekeeping rides the same sweep: flush whatever
        // the lazier fsync policies left pending — one coalesced group
        // commit on the sync path, never under the append mutex — then
        // compact the log.
        if self.persistence.is_some() {
            self.sync();
            if let Err(e) = self.checkpoint() {
                self.instruments.wal_errors.incr();
                self.registry.event(EventKind::WalError, e.to_string());
            }
        }
        changed
    }

    /// Write a checkpoint: seal the active log segment, capture every
    /// key's summary together with its last applied LSN, write the
    /// checkpoint durably (temp file + fsync + rename), and prune the
    /// sealed segments and older checkpoints behind it. Old files are
    /// deleted only after the new checkpoint is durable, so a crash at
    /// any point leaves a recoverable directory.
    ///
    /// Returns `Ok(None)` when there is nothing to do: no persistence
    /// configured, no appends since the last checkpoint, or a poisoned
    /// log (compacting away segments the log no longer extends would
    /// lose weight). [`SketchStore::cool_down`] calls this every sweep;
    /// it is public so tests and operators can force a compaction point.
    pub fn checkpoint(&self) -> Result<Option<CheckpointStats>, PersistError> {
        let Some(p) = &self.persistence else { return Ok(None) };
        let start = Instant::now();
        // One pass at a time: rotation swaps the active segment in two
        // steps (create the successor outside the append mutex, install
        // it under a brief hold), and two racing passes interleaving
        // those steps would install segments out of order.
        let _pass = p.ckpt.lock().unwrap();
        let next_seq = {
            let wal = p.wal.lock().unwrap();
            if wal.dirty_records == 0 || wal.poisoned {
                return Ok(None);
            }
            wal.seq() + 1
        };
        // Create the successor segment with NO lock held (it is I/O:
        // create + header write + fsync), then install it under a brief
        // append-mutex hold and RELEASE the mutex before touching any
        // stripe: appenders take this mutex while holding a stripe lock,
        // so gathering under it would invert the lock order (see
        // [`Persistence`]).
        let fresh = persist::create_segment(&p.dir, next_seq)?;
        let (sealed_file, covered, sealed_path) = {
            let mut wal = p.wal.lock().unwrap();
            if wal.poisoned {
                // An appender poisoned the log between the check and the
                // install; the pre-created segment stays on disk as an
                // empty tail (harmless to recovery) and the pass aborts.
                return Ok(None);
            }
            // A dup failure leaves the log untouched: appends continue
            // on the old segment, the pre-created successor stays on
            // disk as an empty orphan (harmless to recovery), and this
            // pass reports the error without poisoning.
            wal.install_segment(fresh)?
        };
        let sealed = next_seq - 1;
        // Seal fsync outside every lock — appenders keep appending to
        // the fresh segment while the sealed one flushes. Until this
        // lands, the Wal's `pending_seal` keeps a dup of the sealed
        // handle, so any group-commit leader capturing a sync point in
        // this window fsyncs the sealed file too — its `covered` is a
        // global LSN that includes the sealed records, and the watermark
        // must not advance past them on the strength of an fdatasync of
        // the (nearly empty) fresh segment alone.
        if let Err(e) = sealed_file.sync_data() {
            p.wal.lock().unwrap().poisoned = true;
            p.commit.poison();
            return Err(PersistError { op: "fsync", path: sealed_path, source: e });
        }
        p.wal.lock().unwrap().seal_complete();
        self.instruments.wal_fsyncs.incr();
        // Everything in the sealed segment is now durable: give parked
        // group-commit waiters it covers a free commit.
        let newly = p.commit.advance(covered);
        if newly > 0 {
            self.instruments.wal_durable_lsn.set(covered as i64);
            self.instruments.wal_group_commits.incr();
            self.instruments.wal_group_size.record(newly as f64);
        }
        let mut entries = Vec::new();
        for stripe in self.stripes.iter() {
            let keys: Vec<String> = stripe.read().unwrap().keys().cloned().collect();
            for key in keys {
                // The exclusive lock is load-bearing despite no mutation:
                // it waits out in-flight shared-path writers, so the
                // summary and the LSN watermark are a consistent pair.
                // Records above the watermark live in the new segment and
                // replay on top of this summary; records at or below it
                // are inside it.
                #[allow(clippy::readonly_write_lock)]
                let map = stripe.write().unwrap();
                let Some(entry) = map.get(&key) else { continue };
                let summary = entry.engine.to_summary();
                // Window bookkeeping is captured under the same exclusive
                // hold, so `(active summary, sealed windows, LSN)` is one
                // consistent cut.
                let (active_wid, watermark, sealed) = match &entry.windows {
                    Some(cell) => {
                        let state = cell.lock().unwrap();
                        let sealed = state
                            .sealed
                            .iter()
                            .map(|(&start, win)| {
                                (start, win.level, encode_summary(&win.summary.to_weighted()))
                            })
                            .collect();
                        (state.active_id, state.watermark, sealed)
                    }
                    None => (0, 0, Vec::new()),
                };
                entries.push(CheckpointEntry {
                    key,
                    lsn: entry.last_lsn.load(Relaxed),
                    active_wid,
                    watermark,
                    sealed,
                    summary: encode_summary(&summary),
                });
            }
        }
        let bytes = persist::write_checkpoint(&p.dir, sealed, &entries)?;
        let (segments_pruned, checkpoints_pruned) = persist::prune_obsolete(&p.dir, sealed);
        self.instruments.wal_checkpoints.incr();
        self.instruments.checkpoint_seconds.record(start.elapsed().as_secs_f64());
        self.registry.event(
            EventKind::Checkpoint,
            format!("seq={sealed} keys={} bytes={bytes}", entries.len()),
        );
        Ok(Some(CheckpointStats {
            seq: sealed,
            keys: entries.len(),
            bytes,
            segments_pruned,
            checkpoints_pruned,
        }))
    }

    /// Store-wide statistics. Sweeps the stripes for `keys`, `stream_len`,
    /// the per-tier key counts and `retained` under **shared** stripe
    /// locks (the sweep never blocks other readers); counter fields are
    /// exact, lock-free reads.
    pub fn stats(&self) -> StoreStats {
        // Sampling order upholds the `consistency()` invariants under
        // concurrency: `reads` before the hit/miss counters (each read
        // classifies before it counts), the batch counters before
        // `updates` (each write bumps `updates` before its batch counter).
        let reads = self.instruments.reads.get();
        let shared_writes = self.instruments.shared_writes.get();
        let fallback_writes = self.instruments.fallback_writes.get();
        let mut keys = 0usize;
        let mut stream_len = 0u64;
        let mut hot_keys = 0usize;
        let mut retained = 0u64;
        let mut windows = 0usize;
        for stripe in self.stripes.iter() {
            let map = stripe.read().unwrap();
            keys += map.len();
            for entry in map.values() {
                stream_len += entry.engine.stream_len();
                retained += entry.engine.footprint() as u64;
                if let Some(cell) = &entry.windows {
                    // Sealed-window weight is part of the key's stream —
                    // the live engine only holds the active window.
                    let state = cell.lock().unwrap();
                    stream_len += state.sealed_weight();
                    windows += 1 + state.sealed.len();
                }
                hot_keys += usize::from(entry.engine.is_hot());
            }
        }
        StoreStats {
            keys,
            stripes: self.stripes.len(),
            updates: self.instruments.updates.get(),
            ingests: self.instruments.ingests.get(),
            ingest_errors: self.instruments.ingest_errors.get(),
            stream_len,
            bytes_out: self.instruments.bytes_out.get(),
            bytes_in: self.instruments.bytes_in.get(),
            cold_keys: keys - hot_keys,
            hot_keys,
            retained,
            cache_hits: self.instruments.cache_hits.get(),
            cache_misses: self.instruments.cache_misses.get(),
            reads,
            shared_writes,
            fallback_writes,
            promotions: self.instruments.promotions.get(),
            demotions: self.instruments.demotions.get(),
            removals: self.instruments.removals.get(),
            window_seals: self.instruments.window_seals.get(),
            window_downsamples: self.instruments.window_downsamples.get(),
            window_evictions: self.instruments.window_evictions.get(),
            window_late_drops: self.instruments.window_late_drops.get(),
            windows,
        }
    }

    /// A telemetry snapshot of the store's registry, extended with the
    /// engine-internal counters summed across all resident keys —
    /// Quancurrent's DCAS retries, snapshot miss rates and friends,
    /// sampled under shared stripe locks and exported as `sketch_*` gauges
    /// (gauges, not counters: a key's internal counts reset when demotion
    /// rebuilds its engine, and removal forgets them).
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot();
        if !self.registry.is_enabled() {
            return snap;
        }
        let mut engine_totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for stripe in self.stripes.iter() {
            let map = stripe.read().unwrap();
            for entry in map.values() {
                for (name, value) in entry.engine.internal_counters() {
                    *engine_totals.entry(name).or_insert(0) += value;
                }
            }
        }
        for (name, value) in engine_totals {
            snap.gauges.push((format!("sketch_{name}"), value.min(i64::MAX as u64) as i64));
        }
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

impl<T: OrderedBits> Drop for SketchStore<T> {
    /// Clean shutdown syncs the log's buffered tail ([`SketchStore::sync`])
    /// so `Interval`/`Off` stores lose nothing acked before a graceful
    /// exit. Skipped mid-panic: an fsync on a poisoned-invariant store
    /// could double-panic into an abort, and a panicking process is not
    /// a clean shutdown anyway.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        self.sync();
    }
}

impl<T: OrderedBits> std::fmt::Debug for SketchStore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SketchStore")
            .field("stripes", &stats.stripes)
            .field("keys", &stats.keys)
            .field("stream_len", &stats.stream_len)
            .field("cold_keys", &stats.cold_keys)
            .field("hot_keys", &stats.hot_keys)
            .field("k", &self.cfg.k)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::CodecError;

    fn small_store(stripes: usize) -> SketchStore {
        SketchStore::new(StoreConfig::default().stripes(stripes).k(64).b(4).seed(1))
    }

    #[test]
    fn empty_store_answers_nothing() {
        let store = small_store(4);
        assert!(store.is_empty());
        assert_eq!(store.query("nope", 0.5), None);
        assert_eq!(store.snapshot_bytes("nope"), None);
        assert_eq!(store.merged_query(&["a", "b"], 0.5), None);
        assert_eq!(store.stats().keys, 0);
    }

    #[test]
    fn update_then_query_sees_every_element() {
        let store = small_store(4);
        for i in 0..1000 {
            store.update("lat", i as f64);
        }
        // Exact accounting across whatever tier the key occupies.
        let summary = store.summary_of("lat").unwrap();
        assert_eq!(summary.stream_len(), 1000);
        let med = store.query("lat", 0.5).unwrap();
        assert!((300.0..700.0).contains(&med), "median {med}");
    }

    #[test]
    fn stripe_count_normalizes_to_power_of_two() {
        assert_eq!(small_store(1).num_stripes(), 1);
        assert_eq!(small_store(5).num_stripes(), 8);
        assert_eq!(small_store(0).num_stripes(), 1);
    }

    #[test]
    fn keys_are_isolated() {
        let store = small_store(8);
        store.update_many("low", &(0..500).map(f64::from).collect::<Vec<_>>());
        store.update_many("high", &(1000..1500).map(f64::from).collect::<Vec<_>>());
        let low = store.query("low", 0.5).unwrap();
        let high = store.query("high", 0.5).unwrap();
        assert!(low < 600.0, "low median {low}");
        assert!(high >= 1000.0, "high median {high}");
    }

    #[test]
    fn snapshot_ingest_roundtrip_between_keys() {
        let store = small_store(4);
        store.update_many("a", &(0..2000).map(f64::from).collect::<Vec<_>>());
        let frame = store.snapshot_bytes("a").unwrap();
        let ingested = store.ingest_bytes("b", &frame).unwrap();
        assert_eq!(ingested, 2000);
        assert_eq!(store.summary_of("b").unwrap().stream_len(), 2000);
        let stats = store.stats();
        assert_eq!(stats.ingests, 1);
        assert_eq!(stats.bytes_in, frame.len() as u64);
    }

    #[test]
    fn bad_frame_is_rejected_and_counted() {
        let store = small_store(4);
        let err = store.ingest_bytes("x", b"garbage").unwrap_err();
        assert!(matches!(
            err,
            WireError::Codec(CodecError::Truncated { .. } | CodecError::BadMagic { .. })
        ));
        assert!(store.is_empty(), "failed ingest must not create the key");
        assert_eq!(store.stats().ingest_errors, 1);
    }

    #[test]
    fn merged_query_spans_keys() {
        let store = small_store(4);
        store.update_many("lo", &(0..5000).map(f64::from).collect::<Vec<_>>());
        store.update_many("hi", &(5000..10000).map(f64::from).collect::<Vec<_>>());
        let med = store.merged_query(&["lo", "hi"], 0.5).unwrap();
        assert!(
            (3500.0..6500.0).contains(&med),
            "union median {med} should sit near the key boundary"
        );
        assert_eq!(store.merged_range_summary(&["lo", "hi"], 0, u64::MAX).stream_len(), 10_000);
    }

    #[test]
    fn rank_is_normalized() {
        let store = small_store(2);
        store.update_many("k", &(0..1000).map(f64::from).collect::<Vec<_>>());
        let r = store.rank("k", 500.0).unwrap();
        assert!((r - 0.5).abs() < 0.1, "rank {r}");
        assert_eq!(store.rank("absent", 1.0), None);
    }

    #[test]
    fn remove_and_len_track_keys() {
        let store = small_store(4);
        store.update("a", 1.0);
        store.update("b", 2.0);
        assert_eq!(store.len(), 2);
        assert!(store.remove("a"));
        assert!(!store.remove("a"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.keys(), vec!["b".to_string()]);
    }

    #[test]
    fn concurrent_updates_across_keys_and_stripes() {
        let store = std::sync::Arc::new(small_store(8));
        std::thread::scope(|s| {
            for t in 0..8usize {
                let store = store.clone();
                s.spawn(move || {
                    let key = format!("key{}", t % 4);
                    for i in 0..2000 {
                        store.update(&key, (t * 2000 + i) as f64);
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.updates, 16_000);
        assert_eq!(stats.stream_len, 16_000);
        assert_eq!(stats.keys, 4);
        assert_eq!(stats.cold_keys + stats.hot_keys, 4);
        let all: Vec<String> = store.keys();
        let med = store.merged_query(&all, 0.5).unwrap();
        assert!((2000.0..14_000.0).contains(&med), "median {med}");
    }

    #[test]
    fn stats_bytes_out_accumulates() {
        let store = small_store(2);
        store.update("a", 1.0);
        let n = store.snapshot_bytes("a").unwrap().len() as u64;
        store.snapshot_bytes("a").unwrap();
        assert_eq!(store.stats().bytes_out, 2 * n);
    }

    /// The same store logic serves a population pinned cold and one that
    /// goes hot on its first write.
    #[test]
    fn pinned_cold_and_hot_on_first_write_stores_behave_identically() {
        let cfg = |threshold| {
            StoreConfig::default().stripes(4).k(64).b(4).seed(9).promotion_threshold(threshold)
        };
        let seq = SketchStore::<f64>::new(cfg(u64::MAX));
        let conc = SketchStore::<f64>::new(cfg(0));
        let values: Vec<f64> = (0..3000).map(f64::from).collect();
        seq.update_many("x", &values);
        conc.update_many("x", &values);
        assert_eq!(seq.stats().stream_len, 3000);
        assert_eq!(conc.stats().stream_len, 3000);
        assert_eq!(seq.stats().cold_keys, 1);
        assert_eq!(conc.stats().hot_keys, 1);
        let (a, b) = (seq.query("x", 0.5).unwrap(), conc.query("x", 0.5).unwrap());
        assert!((a - b).abs() < 600.0, "medians {a} vs {b}");
        // Cross-engine interchange through the wire format.
        let frame = seq.snapshot_bytes("x").unwrap();
        assert_eq!(conc.ingest_bytes("from-seq", &frame).unwrap(), 3000);
        assert_eq!(conc.summary_of("from-seq").unwrap().stream_len(), 3000);
    }

    #[test]
    fn warm_reads_hit_the_cache_and_writes_invalidate_it() {
        let store = small_store(4);
        store.update_many("k", &(0..2000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(store.stats().cache_hits, 0);
        // First read materializes, the next ones ride the cache.
        let first = store.summary_of("k").unwrap();
        let misses = store.stats().cache_misses;
        assert!(misses >= 1);
        let again = store.summary_of("k").unwrap();
        assert!(Arc::ptr_eq(&first, &again), "warm read must clone the Arc, not rebuild");
        let _ = store.query("k", 0.5);
        let _ = store.rank("k", 100.0);
        let _ = store.cdf("k", &[10.0, 100.0]);
        let stats = store.stats();
        assert!(stats.cache_hits >= 4, "hits {}", stats.cache_hits);
        assert_eq!(stats.cache_misses, misses, "no rebuild while the key is unwritten");
        // A write bumps the engine version: the next read rebuilds.
        store.update("k", 9999.0);
        let fresh = store.summary_of("k").unwrap();
        assert!(!Arc::ptr_eq(&first, &fresh));
        assert_eq!(fresh.stream_len(), 2001);
        assert_eq!(store.stats().cache_misses, misses + 1);
    }

    #[test]
    fn cached_summary_equals_uncached_materialization() {
        let store = small_store(4);
        store.update_many("k", &(0..5000).map(f64::from).collect::<Vec<_>>());
        let cached = store.summary_of("k").unwrap();
        let direct = store.summary_of_uncached("k").unwrap();
        assert_eq!(*cached, direct, "materialization is deterministic for a fixed state");
        store.ingest_bytes("k", &store.snapshot_bytes("k").unwrap()).unwrap();
        let cached = store.summary_of("k").unwrap();
        let direct = store.summary_of_uncached("k").unwrap();
        assert_eq!(*cached, direct, "still coherent after an absorb");
        assert_eq!(cached.stream_len(), 10_000);
    }

    #[test]
    fn concurrent_readers_share_a_stripe_with_writers() {
        // Readers and writers hammer keys that all live on ONE stripe;
        // the store must stay coherent and every read must be answerable.
        let store = std::sync::Arc::new(small_store(1));
        store.update_many("seed", &(0..100).map(f64::from).collect::<Vec<_>>());
        std::thread::scope(|s| {
            for w in 0..2usize {
                let store = store.clone();
                s.spawn(move || {
                    for i in 0..2000 {
                        store.update("seed", (w * 2000 + i) as f64);
                    }
                });
            }
            for _ in 0..4usize {
                let store = store.clone();
                s.spawn(move || {
                    for _ in 0..2000 {
                        let summary = store.summary_of("seed").unwrap();
                        assert!(summary.stream_len() >= 100);
                        let q = store.query("seed", 0.5);
                        assert!(q.is_some());
                    }
                });
            }
        });
        assert_eq!(store.summary_of("seed").unwrap().stream_len(), 4100);
        let stats = store.stats();
        assert!(stats.cache_hits + stats.cache_misses >= 8000);
    }

    #[test]
    fn hot_key_writes_ride_the_shared_path_and_stay_exact() {
        let store = SketchStore::new(
            StoreConfig::default().stripes(2).k(64).b(4).seed(5).promotion_threshold(100),
        );
        // Cold phase: every batch is an exclusive fallback.
        store.update_many("k", &(0..100).map(f64::from).collect::<Vec<_>>());
        let stats = store.stats();
        assert_eq!(stats.shared_writes, 0);
        assert!(stats.fallback_writes >= 1);
        // Push past the promotion threshold (still fallback — that write
        // fires the promotion), then write hot: shared path.
        store.update_many("k", &(100..200).map(f64::from).collect::<Vec<_>>());
        let fallbacks = store.stats().fallback_writes;
        store.update_many("k", &(200..300).map(f64::from).collect::<Vec<_>>());
        store.update_many("k", &(300..400).map(f64::from).collect::<Vec<_>>());
        let stats = store.stats();
        assert_eq!(stats.shared_writes, 2, "hot-key batches must take the shared path");
        assert_eq!(stats.fallback_writes, fallbacks, "no fallback once hot");
        assert_eq!(stats.updates, 400);
        assert_eq!(stats.stream_len, 400, "leased writes stay exact at quiescence");
        assert_eq!(store.summary_of("k").unwrap().stream_len(), 400);
    }

    #[test]
    fn writer_pool_zero_disables_the_shared_path() {
        let store = SketchStore::new(
            StoreConfig::default()
                .stripes(2)
                .k(64)
                .b(4)
                .seed(6)
                .promotion_threshold(0)
                .writer_pool(0),
        );
        store.update_many("k", &(0..500).map(f64::from).collect::<Vec<_>>());
        store.update_many("k", &(0..500).map(f64::from).collect::<Vec<_>>());
        let stats = store.stats();
        assert_eq!(stats.shared_writes, 0);
        assert_eq!(stats.fallback_writes, 2);
        assert_eq!(stats.stream_len, 1000);
    }

    #[test]
    fn empty_batches_touch_nothing_on_either_path() {
        let store = small_store(2);
        store.update_many("ephemeral", &[]);
        assert!(store.is_empty(), "an empty batch must not create the key");
        let stats = store.stats();
        assert_eq!((stats.updates, stats.shared_writes, stats.fallback_writes), (0, 0, 0));
        // Same through a held lease on an existing hot key.
        let store = SketchStore::new(
            StoreConfig::default().stripes(2).k(64).b(4).seed(7).promotion_threshold(0),
        );
        store.update_many("k", &[1.0]);
        store.update_many("k", &[2.0]);
        let mut lease = store.lease_writer("k").expect("hot key leases");
        let before = store.stats();
        store.update_many_leased("k", &mut lease, &[]).unwrap();
        let after = store.stats();
        assert_eq!(after.updates, before.updates);
        assert_eq!(after.shared_writes, before.shared_writes);
    }

    #[test]
    fn lease_survives_reuse_and_goes_stale_on_remove() {
        let store = SketchStore::new(
            StoreConfig::default().stripes(2).k(64).b(4).seed(8).promotion_threshold(0),
        );
        store.update_many("k", &[0.0, 1.0]);
        let mut lease = store.lease_writer("k").expect("hot key leases");
        for i in 0..10u64 {
            let batch: Vec<f64> = (0..7).map(|j| (i * 7 + j) as f64).collect();
            store.update_many_leased("k", &mut lease, &batch).unwrap();
        }
        assert_eq!(store.summary_of("k").unwrap().stream_len(), 72);
        // Remove retires the generation: the held lease must be rejected,
        // and a re-created key must never see its writes.
        assert!(store.remove("k"));
        assert_eq!(store.update_many_leased("k", &mut lease, &[9.0]), Err(StaleLease));
        store.update_many("k", &[5.0]);
        assert_eq!(store.update_many_leased("k", &mut lease, &[9.0]), Err(StaleLease));
        assert_eq!(
            store.summary_of("k").unwrap().stream_len(),
            1,
            "no stale write may land in the successor generation"
        );
        assert_eq!(store.stats().stream_len, 1);
    }

    #[test]
    fn demotion_invalidates_leases_without_losing_weight() {
        let store = SketchStore::new(
            StoreConfig::default().stripes(2).k(64).b(4).seed(9).promotion_threshold(0),
        );
        store.update_many("k", &(0..100).map(f64::from).collect::<Vec<_>>());
        store.update_many("k", &(100..200).map(f64::from).collect::<Vec<_>>());
        let mut lease = store.lease_writer("k").expect("hot key leases");
        store.update_many_leased("k", &mut lease, &[200.0, 201.0, 202.0]).unwrap();
        // Leased writes count as epoch activity: the sweep that closes
        // their epoch must not demote; the next (idle) one does.
        assert_eq!(store.cool_down(), 0, "epoch with the leased write just closed");
        assert_eq!(store.cool_down(), 1, "idle epoch demotes");
        assert_eq!(store.stats().hot_keys, 0);
        assert_eq!(
            store.summary_of("k").unwrap().stream_len(),
            203,
            "demotion must conserve leased weight exactly"
        );
        assert_eq!(store.update_many_leased("k", &mut lease, &[9.0]), Err(StaleLease));
        assert_eq!(store.summary_of("k").unwrap().stream_len(), 203);
        // The normal path keeps working (and re-promotes under pressure).
        store.update_many("k", &[300.0]);
        assert_eq!(store.summary_of("k").unwrap().stream_len(), 204);
    }

    #[test]
    fn pool_caps_handles_and_sweep_reclaims_idle_ones() {
        let store = SketchStore::new(
            StoreConfig::default()
                .stripes(2)
                .k(64)
                .b(4)
                .seed(10)
                .promotion_threshold(0)
                .writer_pool(2),
        );
        // `(idle, minted)` of the key's writer handles.
        let pool = |store: &SketchStore| {
            let map = store.stripe_of("k").read().unwrap();
            map["k"].engine.writer_handles()
        };
        store.update_many("k", &[0.0]);
        store.update_many("k", &[1.0]);
        assert_eq!(pool(&store), (1, 1), "one shared write mints one handle");
        // The cap bounds the handles checked out at once.
        {
            let map = store.stripe_of("k").read().unwrap();
            let engine = &map["k"].engine;
            let a = engine.writer(2).expect("idle handle");
            let b = engine.writer(2).expect("second handle minted");
            assert!(engine.writer(2).is_none(), "pool cap must bound minted handles");
            drop((a, b));
        }
        assert_eq!(pool(&store), (2, 2));
        // A lease reserves no handle: any number may be held, and each
        // leased write checks an idle handle out like any other write.
        let mut leases: Vec<_> = (0..3).map(|_| store.lease_writer("k").expect("lease")).collect();
        for (lease, v) in leases.iter_mut().zip(2..) {
            store.update_many_leased("k", lease, &[f64::from(v)]).unwrap();
        }
        assert_eq!(pool(&store), (2, 2), "leased writes reuse idle handles");
        // The sweep drops idle handles and frees their mint slots, so
        // the pool mints fresh ones afterwards.
        store.cool_down();
        assert_eq!(pool(&store), (0, 0), "sweep must free idle mint slots");
        store.update_many("k", &[5.0]); // keep the key hot across the sweep
        assert_eq!(pool(&store), (1, 1));
        let stats = store.stats();
        assert_eq!((stats.shared_writes, stats.fallback_writes), (5, 1));
        assert_eq!(stats.stream_len, 6);
    }

    #[test]
    fn tier_counts_and_cool_down_sweep() {
        let store = SketchStore::new(
            StoreConfig::default().stripes(2).k(64).b(4).seed(3).promotion_threshold(100),
        );
        store.update_many("hot", &(0..500).map(f64::from).collect::<Vec<_>>());
        store.update("cold", 1.0);
        let stats = store.stats();
        assert_eq!((stats.hot_keys, stats.cold_keys), (1, 1));
        // Two idle sweeps demote the hot key; weight stays exact.
        assert_eq!(store.cool_down(), 0, "first sweep only closes the busy epoch");
        assert_eq!(store.cool_down(), 1, "second idle sweep demotes");
        let stats = store.stats();
        assert_eq!((stats.hot_keys, stats.cold_keys), (0, 2));
        assert_eq!(stats.stream_len, 501);
        assert_eq!(store.summary_of("hot").unwrap().stream_len(), 500);
    }
}
