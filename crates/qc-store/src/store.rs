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
//! # Read path: versioned caching of parts and summaries
//!
//! A hot key's state is a set of parts ([`EngineParts`]): the sketch's
//! sorted level arrays, one sorted tail (Gather&Sort pending, unflushed
//! writer tail, leased-writer spill) and the absorbed summaries. Its
//! `query`, `rank` and `cdf` answer over their union as a [`UnionView`] —
//! rank is additive across parts — with no flatten and no merge, exact
//! over the parts. Only a **summary** — what `summary_of`,
//! `snapshot_bytes`, the `merged_*` and `*_summary` reads, checkpoints and
//! demotion take — is materialized by merging the parts once (a cold
//! key's summary is its sequential sketch's). The store caches both per
//! key, tagged with the engine
//! [`version`](TieredEngine::version) they were built at:
//!
//! * **warm reads** (`query`, `rank`, `cdf`, `snapshot_bytes`,
//!   `merged_query`) take only the **shared** stripe lock, compare the
//!   engine version against the cache tag, and clone nothing but an
//!   `Arc` — they never block each other and never rebuild. A warm hot
//!   read then runs only the selection over the parts;
//! * **misses** gather the parts, or materialize the summary, under the
//!   same shared lock and publish the result for the next reader; the
//!   version is read
//!   **before** gathering, so nothing is ever tagged newer than its
//!   contents. A hot key's answers come from its parts even when a flat
//!   summary is cached at the same version, so an answer is the same
//!   whether its read hit or missed;
//! * **exclusive writers** (`ingest_bytes`, `cool_down`, `remove`, the
//!   fallback write path) take the exclusive lock; **leased writers**
//!   (the shared write path below) mutate the engine under the shared
//!   lock but bump the engine version around every weight movement — so
//!   parts or a summary built while a leased write was in flight carry a
//!   tag the write's completion bump supersedes, and no read ever serves
//!   a state whose version matches the engine's *settled* state while
//!   missing weight that state accounts for;
//! * **multi-part reads** (`query_range`, `merged_query_range`,
//!   `merged_query`) clone the `Arc`s of every part they cover — sealed
//!   windows, cached live summaries — under the shared lock(s), then
//!   answer over the parts' union as one [`UnionView`] with every lock
//!   released: ranks add across parts, so nothing is merged. Only the
//!   summary-returning reads (`range_summary`, `merged_range_summary`,
//!   `merged_summary`) merge, once, after the locks are gone.
//!
//! # Write path: one pipeline
//!
//! The paper's writers never serialize — each thread fills a local buffer
//! and synchronizes only at Gather&Sort/DCAS points. The store mirrors
//! that through leased writers ([`TieredEngine::try_writer`]): each key
//! carries a small pool of writer handles tagged with a **generation**,
//! and every batch — `update`, `update_many`, `update_at`,
//! `update_many_leased`, and each record of a recovery replay — goes
//! through one private routine (`SketchStore::apply`) with one fast path
//! and one slow path:
//!
//! ```text
//!  apply(key, Active | Window(id), values, held lease?)
//!    │
//!    ├─ SHARED stripe lock ───────────────────────────── fast path
//!    │    held lease: generation matches?   else → StaleLease, nothing moved
//!    │    target is the key's active window? else ↓
//!    │    handle = the held lease | pool checkout (mint ≤ cap)   none → ↓
//!    │    count → write → flush → append log record (LSN = ticket)
//!    │
//!    ├─ EXCLUSIVE stripe lock ────────────────────────── slow path
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
//! * **Fast path** — an existing key whose engine leases writers
//!   (hot/concurrent tier) is written through a per-thread handle under
//!   only the shared lock: N writers on one hot key synchronize inside
//!   the engine (the paper's propagation points), not on the stripe.
//!   Every call flushes its handle before letting go of it, so handles
//!   hold **zero weight while idle** and reads stay exact at quiescence.
//! * **Slow path** — key creation, cold/sequential keys (whose exclusive
//!   writes are what drives tier promotion), pool exhaustion, and every
//!   window transition. [`StoreStats::shared_writes`] /
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
//! Callers that keep a handle across calls (the serving layer's
//! [`crate::LeaseCache`]) use [`SketchStore::lease_writer`] /
//! [`SketchStore::update_many_leased`], and drop the lease when done.
//! `remove`, demotion (`cool_down`), a window roll, and re-creation each
//! assign the key a fresh generation from a store-wide counter, so a
//! stale lease can **never** write into a successor engine: every leased
//! write validates the generation under the same shared-lock hold as the
//! write itself. Conservation is exact by construction — a handle buffers
//! weight only inside a single (locked) write call, every such call ends
//! in a flush, and invalidation happens under the exclusive lock, which
//! no write can overlap.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use qc_common::bits::OrderedBits;
use qc_common::engine::{MergeableSketch, QuantileEstimator, StreamIngest};
use qc_common::summary::{LeveledSummary, Summary, UnionView, WeightedSummary};
use qc_telemetry::{Counter, EventKind, Gauge, LatencyRecorder, MetricsSnapshot, Registry};

use crate::engine::{EngineParts, LeasedWriter, TieredEngine};
use crate::merge::{merge_runs, merge_runs_flat};
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
    /// Per-key writer-handle pool capacity: at most this many leased
    /// writer handles exist per key (pooled + checked out). `0` disables
    /// the shared-lock write path entirely — every write takes the
    /// exclusive fallback, which is the pre-lease behavior (and the
    /// baseline the write benchmarks compare against).
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

/// Default per-key writer-handle pool capacity — sized to the serving
/// layer's default worker count, so every connection of a default server
/// can hold a lease on one hot key.
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

    /// Set the per-key writer-handle pool capacity (`0` disables the
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
    /// Retained 64-bit words across all engines (memory proxy). **Sweep**.
    /// Local-only.
    pub retained: u64,
    /// Reads answered from a cached summary or a hot key's cached parts
    /// (shared lock + `Arc` clone). **Counter**, bumped before the read's
    /// `reads` bump. Local-only.
    pub cache_hits: u64,
    /// Reads that had to materialize a summary or gather a hot key's
    /// parts. **Counter**, bumped before the read's `reads` bump.
    /// Local-only.
    pub cache_misses: u64,
    /// Cached reads served (`summary_of` and everything built on it —
    /// `snapshot_bytes`, `merged_query` per key — plus `query`, `rank` and
    /// `cdf`, over a hot key's parts or a cold key's summary).
    /// **Counter**, bumped after the read's hit-or-miss classification —
    /// so `cache_hits + cache_misses >= reads` holds for every sample
    /// (see [`StoreStats::consistency`]). Local-only.
    pub reads: u64,
    /// Write batches that rode the shared-lock fast path (a leased
    /// per-thread writer handle). **Counter**, bumped after `updates`
    /// within the same lock hold. Local-only.
    pub shared_writes: u64,
    /// Write batches that took the exclusive-lock fallback (key creation,
    /// cold-tier keys, exhausted pools, or `writer_pool == 0`).
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

/// A writer lease checked out of a key's pool with
/// [`SketchStore::lease_writer`]: an owned per-thread handle plus the
/// generation tag it was minted under.
///
/// The lease is only usable through the store
/// ([`SketchStore::update_many_leased`]), which re-validates the
/// generation under the shared stripe lock on every call — so holding a
/// lease across requests is safe against concurrent `remove`, demotion,
/// and re-creation of the key. A lease holds **no buffered weight**
/// between calls (every leased write ends in a flush); dropping one, even
/// a stale one, never loses stream weight. Dropping also returns the
/// handle to the key's pool when the generation still matches (a weak
/// back-reference, checked atomically with the pool's own generation), so
/// a lease abandoned on a panic or forgotten by a caller cannot pin one
/// of the key's [`StoreConfig::writer_pool`] mint slots forever.
pub struct WriterLease<T: OrderedBits> {
    generation: u64,
    handle: Option<LeasedWriter<T>>,
    pool: std::sync::Weak<Mutex<WriterPool<T>>>,
}

impl<T: OrderedBits> WriterLease<T> {
    /// The key generation this lease was minted under (diagnostics).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl<T: OrderedBits> Drop for WriterLease<T> {
    fn drop(&mut self) {
        let (Some(handle), Some(pool)) = (self.handle.take(), self.pool.upgrade()) else {
            // Key removed (pool deallocated) or handle already returned:
            // nothing to give back — the handle holds no weight.
            return;
        };
        let mut pool = pool.lock().unwrap();
        if pool.generation == self.generation {
            // Flushed by the lease invariant; reusable as-is.
            pool.idle.push(handle);
        }
        // Stale: the generation reset already reclaimed our mint slot.
    }
}

impl<T: OrderedBits> std::fmt::Debug for WriterLease<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriterLease").field("generation", &self.generation).finish()
    }
}

/// A leased write was rejected because the lease no longer matches the
/// key's live engine (the key was removed, demoted, or re-created since
/// the lease was minted). **No weight was written.** Drop the lease and
/// fall back to [`SketchStore::update_many`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaleLease;

impl std::fmt::Display for StaleLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("writer lease does not match the key's current generation")
    }
}

impl std::error::Error for StaleLease {}

/// One key's slot in a stripe map: the live engine, its read cache (a hot
/// key's gathered parts, the materialized summary), and the leased-writer
/// pool.
struct KeyEntry<T: OrderedBits> {
    engine: TieredEngine<T>,
    /// Lease generation: every leased write validates its tag against
    /// this under the shared stripe lock. Assigned from the store-wide
    /// counter at creation and re-assigned (under the write lock) by any
    /// invalidation — tier demotion or a window roll; removal retires the
    /// entry and with it the generation, so a re-created key never reuses
    /// one.
    /// Mirrored into [`WriterPool::generation`] (kept in sync under the
    /// same write-lock sections) for lease-drop-time validation.
    generation: u64,
    /// The last gathered parts and materialized summary, tagged with the
    /// engine version that produced them. The inner mutex guards only the
    /// tag-compare / `Arc`-clone critical section (a handful of
    /// instructions), so readers sharing the stripe lock barely serialize
    /// on it.
    cache: Mutex<Option<CacheSlot>>,
    /// Idle leased writer handles plus the mint count; the mutex guards
    /// only push/pop (writes run **outside** it, so checkouts never
    /// serialize the data path). `Arc`ed so outstanding [`WriterLease`]s
    /// can return their handles on drop through a weak back-reference.
    pool: Arc<Mutex<WriterPool<T>>>,
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

/// One key's read cache at one engine version.
struct CacheSlot {
    version: u64,
    /// A hot key's gathered parts, which every `query`, `rank` and `cdf`
    /// of the key answers over.
    parts: Option<Arc<EngineParts>>,
    /// The flat summary, built on first demand: by the summary-returning
    /// reads, and by every read of a cold key.
    summary: Option<Arc<WeightedSummary>>,
}

impl CacheSlot {
    /// The slot tagged `version`: the cached one if it carries that tag,
    /// else an empty one put in its place.
    fn at(cache: &mut Option<CacheSlot>, version: u64) -> &mut CacheSlot {
        if !matches!(cache, Some(slot) if slot.version == version) {
            *cache = Some(CacheSlot { version, parts: None, summary: None });
        }
        cache.as_mut().expect("just filled")
    }
}

/// What a single-key read answers over, taken from the cache under the
/// shared stripe lock and evaluated after releasing it.
enum Cached {
    /// A hot key's parts.
    Parts(Arc<EngineParts>),
    /// A cold key's flat summary.
    Flat(Arc<WeightedSummary>),
}

struct WriterPool<T: OrderedBits> {
    /// Mirror of [`KeyEntry::generation`], so a dropping lease can
    /// validate atomically against concurrent invalidation without the
    /// stripe lock.
    generation: u64,
    /// Handles returned after a flush — they hold no weight while idle.
    idle: Vec<LeasedWriter<T>>,
    /// Handles minted this generation (idle + checked out), capped by
    /// [`StoreConfig::writer_pool`].
    minted: usize,
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
            pool: Arc::new(Mutex::new(WriterPool { generation, idle: Vec::new(), minted: 0 })),
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

    /// Check a leased writer handle out of the pool (minting one from the
    /// engine if under the cap). `None` sends the caller to the
    /// exclusive-lock fallback. Runs under the shared stripe lock.
    fn checkout(&self, cap: usize) -> Option<LeasedWriter<T>> {
        if cap == 0 {
            return None;
        }
        let mut pool = self.pool.lock().unwrap();
        if let Some(handle) = pool.idle.pop() {
            return Some(handle);
        }
        if pool.minted >= cap {
            return None;
        }
        let handle = self.engine.try_writer()?;
        pool.minted += 1;
        Some(handle)
    }

    /// Return a (flushed) handle to the pool. The caller holds the shared
    /// stripe lock, so the generation cannot have moved since checkout.
    fn give_back(&self, handle: LeasedWriter<T>) {
        self.pool.lock().unwrap().idle.push(handle);
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

/// The stored summaries a read combines, gathered under the stripe locks
/// (`Arc` clones) and combined only after every lock is released.
#[derive(Default)]
struct Parts {
    /// Sealed windows, kept as level runs.
    sealed: Vec<Arc<LeveledSummary>>,
    /// Live engines' summaries, through the read cache.
    live: Vec<Arc<WeightedSummary>>,
}

impl Parts {
    /// Answer over the union of the parts without merging them.
    fn view(&self) -> UnionView<'_> {
        let mut view = UnionView::new();
        for summary in &self.sealed {
            view.push_leveled(summary);
        }
        for summary in &self.live {
            view.push_weighted(summary);
        }
        view
    }

    /// One bounded summary of the parts: a single exact-weight merge of
    /// every part's level runs.
    fn merge(&self, k: usize, seed: u64) -> WeightedSummary {
        let sealed = self.sealed.iter().map(|s| s.level_runs());
        let live = self.live.iter().map(|s| s.level_runs());
        let runs: Vec<Vec<Vec<u64>>> = sealed.chain(live).collect();
        merge_runs_flat(runs.iter().map(Vec::as_slice), k, seed)
    }
}

/// Why an unleased [`SketchStore::apply`] cannot fail.
const UNLEASED: &str = "only a leased write can be stale";

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
    /// engine leases writer handles (see the
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
    /// timestamped, leased, replayed — lands through here. `lease` is a
    /// caller-held writer handle to use instead of a pooled one; only a
    /// leased call can fail, and [`StaleLease`] means nothing was
    /// written or counted.
    fn apply(
        &self,
        key: &str,
        target: Target,
        values: &[T],
        lease: Option<&mut WriterLease<T>>,
    ) -> Result<(), StaleLease> {
        // Shared fast path: an existing hot key, written through a
        // per-thread handle. Hot-key writers synchronize only inside the
        // engine (the paper's Gather&Sort/DCAS points), never on the
        // stripe.
        let stripe_ix = self.stripe_index(key);
        let fast = {
            let map = self.stripes[stripe_ix].read().unwrap();
            let entry = map.get(key);
            // A held lease is validated under the same lock hold as its
            // write, so a stale one — the key was removed, demoted,
            // rolled, or re-created — is rejected before any element
            // moves.
            if let Some(lease) = &lease {
                if entry.map(|e| e.generation) != Some(lease.generation) {
                    return Err(StaleLease);
                }
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
                let mut pooled = None;
                let handle = match lease {
                    Some(lease) => lease.handle.as_mut().expect("lease handle present until drop"),
                    None => pooled.insert(entry.checkout(self.cfg.writer_pool)?),
                };
                // Count before writing (the write is infallible from
                // here): a concurrent `stats()` sweep sharing the stripe
                // lock must never observe engine weight not yet in
                // `updates`.
                self.instruments.updates.add(values.len() as u64);
                self.instruments.shared_writes.incr();
                handle.update_many(values);
                // Flush before the handle goes idle: idle handles hold
                // zero weight, so reads are exact at quiescence and
                // invalidation can never strand buffered weight.
                handle.flush();
                // Log under this same shared-lock hold: a checkpoint
                // (exclusive) can then never capture weight whose record
                // is not yet sequenced, and per-key log order matches
                // apply order. The durable *wait* happens below, lock
                // free.
                let ticket = self.log_update(key, wid, values, &entry.last_lsn);
                if let Some(handle) = pooled {
                    entry.give_back(handle);
                }
                Some(ticket)
            })
        };
        if let Some(ticket) = fast {
            self.finish_log(ticket);
            return Ok(());
        }
        // Exclusive slow path: key creation, cold-tier keys (whose
        // `&mut` updates drive promotion pressure), exhausted pools, and
        // every window transition (roll forward, late merge).
        let mut map = self.stripes[stripe_ix].write().unwrap();
        let entry = self.entry_or_create(&mut map, stripe_ix, key, target.wid(0));
        let (active_id, watermark) = entry.window_ids();
        let wid = target.wid(active_id);
        if wid > active_id {
            // Roll forward: seal the live engine's contents for the old
            // active window, then open a fresh engine for the new one.
            // The old engine's leases and cached summary die with it —
            // the same retirement as tier demotion, so a stale lease can
            // never write into the new window.
            let seed = self.key_seed(key);
            if entry.engine.stream_len() > 0 {
                let sealed = entry.engine.to_summary();
                Self::seal_into(entry.window_state(), active_id, sealed, self.cfg.k, seed);
                self.instruments.window_seals.incr();
            }
            entry.engine = TieredEngine::build(&self.cfg, seed);
            *entry.cache.get_mut().unwrap() = None;
            self.retire_engine(entry);
            let state = entry.window_state();
            state.active_id = wid;
            state.watermark = state.watermark.max(wid);
        }
        let promoted = if wid >= active_id {
            // Active-window write (possibly just rolled to). Promotion
            // fires inside the engine on update pressure; observe it as a
            // tier flip around the write (exclusive path only — leased
            // writes require an already-hot engine).
            let was_hot = entry.engine.is_hot();
            entry.engine.update_many(values);
            !was_hot && entry.engine.is_hot()
        } else if self.window_plan.is_some_and(|plan| plan.admissible(watermark, wid)) {
            // Late but admissible: summarize the batch through a
            // throwaway engine and merge it, exact-weight, into the
            // sealed window covering `wid` (or open a new level-0 one).
            let seed = self.key_seed(key);
            let mut tmp = TieredEngine::build(&self.cfg, seed);
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

    /// Orphan every writer handle minted for `entry`'s previous engine
    /// (window roll-forward, tier demotion): retire the generation so
    /// outstanding leases are rejected at their next use (and discarded
    /// on drop), and drop the idle pool with it. The caller holds the
    /// exclusive stripe lock.
    fn retire_engine(&self, entry: &mut KeyEntry<T>) {
        entry.generation = self.next_generation();
        let mut pool = entry.pool.lock().unwrap();
        pool.generation = entry.generation;
        pool.idle.clear();
        pool.minted = 0;
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

    /// Check a writer lease out of `key`'s pool, for callers that reuse a
    /// per-thread handle across many calls (the serving layer caches one
    /// per connection per hot key). `None` if the key is absent, its
    /// engine declines shared writers (cold/sequential tiers), or the
    /// pool is at capacity — fall back to [`SketchStore::update_many`].
    pub fn lease_writer(&self, key: &str) -> Option<WriterLease<T>> {
        let map = self.stripe_of(key).read().unwrap();
        let entry = map.get(key)?;
        let handle = entry.checkout(self.cfg.writer_pool)?;
        Some(WriterLease {
            generation: entry.generation,
            handle: Some(handle),
            pool: Arc::downgrade(&entry.pool),
        })
    }

    /// Feed a batch through a held lease under the shared stripe lock.
    ///
    /// Validates the lease generation under the same lock hold as the
    /// write, so a stale lease — the key was removed, demoted, or
    /// re-created — is rejected **before** any element moves:
    /// [`StaleLease`] means no weight was written and no counter was
    /// bumped; drop the lease and retry through
    /// [`SketchStore::update_many`]. The handle is flushed before the
    /// call returns, so the write is fully engine-visible.
    pub fn update_many_leased(
        &self,
        key: &str,
        lease: &mut WriterLease<T>,
        values: &[T],
    ) -> Result<(), StaleLease> {
        self.apply(key, Target::Active, values, Some(lease))
    }

    /// φ-quantile estimate over everything `key` has seen (local updates
    /// and ingested snapshots). `None` if the key is absent or empty.
    ///
    /// A hot key answers over its cached [`EngineParts`] — the sketch's
    /// level arrays, one sorted tail and the absorbed summaries — with no
    /// merge: exact over the parts, and the same on the read that gathers
    /// them and on every hit. A cold key answers over its cached flat
    /// summary.
    pub fn query(&self, key: &str, phi: f64) -> Option<T> {
        self.answer(key, |s| s.quantile_bits(phi))?.map(T::from_ordered_bits)
    }

    /// Normalized rank of `value` within `key`'s stream (0.0 ≤ rank ≤
    /// 1.0). `None` if the key is absent or empty. Answered over the same
    /// cached state as [`SketchStore::query`].
    pub fn rank(&self, key: &str, value: T) -> Option<f64> {
        let x = value.to_ordered_bits();
        self.answer(key, |s| {
            let n = s.stream_len();
            (n > 0).then(|| s.rank_bits(x) as f64 / n as f64)
        })?
    }

    /// Estimated CDF of `key`'s stream at each split point. `None` if the
    /// key is absent or empty (the same contract as [`SketchStore::rank`]).
    /// One cached state — a hot key's parts, a cold key's summary —
    /// answers all points.
    pub fn cdf(&self, key: &str, split_points: &[T]) -> Option<Vec<f64>> {
        let bits: Vec<u64> = split_points.iter().map(|p| p.to_ordered_bits()).collect();
        self.answer(key, |s| (s.stream_len() > 0).then(|| s.cdf_bits(&bits)))?
    }

    /// Ask `question` of `key`'s cached state, or `None` if the key is
    /// absent: a hot key's parts (through [`SketchStore::cached_parts`]),
    /// a cold key's flat summary. The state is taken under the shared
    /// stripe lock and questioned after releasing it.
    fn answer<R>(&self, key: &str, question: impl FnOnce(&dyn Summary) -> R) -> Option<R> {
        let cached = {
            let map = self.stripe_of(key).read().unwrap();
            let entry = map.get(key)?;
            if entry.engine.is_hot() {
                Cached::Parts(self.cached_parts(entry))
            } else {
                Cached::Flat(self.cached_summary(entry))
            }
        };
        Some(match &cached {
            Cached::Parts(parts) => question(&parts.view()),
            Cached::Flat(summary) => question(&**summary),
        })
    }

    /// The key's full resident summary behind an `Arc`, or `None` if the
    /// key is absent — for callers that keep, ship or merge it.
    ///
    /// This is the cached read path: a warm call takes the shared stripe
    /// lock, compares the engine's [`version`](TieredEngine::version)
    /// against the cache tag, and clones only the `Arc`. A miss
    /// materializes the summary ([`MergeableSketch::to_summary`]) under the
    /// same shared lock and publishes it for subsequent readers — exact
    /// whenever the engine is settled (no leased write in flight); a
    /// concurrent leased write can make the materialization a transiently
    /// relaxed view, whose tag the write's own version bump invalidates
    /// when its flush completes.
    /// `query`, `rank` and `cdf` of a hot key never read this summary.
    pub fn summary_of(&self, key: &str) -> Option<Arc<WeightedSummary>> {
        let map = self.stripe_of(key).read().unwrap();
        let entry = map.get(key)?;
        Some(self.cached_summary(entry))
    }

    /// The cached-read-path core of [`SketchStore::summary_of`], shared
    /// with the range-read methods (which include the active window
    /// through it). The caller holds the stripe lock (shared or
    /// exclusive) for `entry`.
    fn cached_summary(&self, entry: &KeyEntry<T>) -> Arc<WeightedSummary> {
        let version = entry.engine.version();
        {
            let cache = entry.cache.lock().unwrap();
            let slot = cache.as_ref().filter(|slot| slot.version == version);
            if let Some(summary) = slot.and_then(|slot| slot.summary.as_ref()) {
                // Classify (hit) before counting the read: `stats()`
                // samples in the opposite order, so
                // `cache_hits + cache_misses >= reads` never inverts.
                self.instruments.cache_hits.incr();
                self.instruments.reads.incr();
                return Arc::clone(summary);
            }
        }
        // Rebuild outside the cache mutex so a slow materialization never
        // blocks warm readers of the previous version. Leased writers may
        // move the engine under this same shared lock, so two concurrent
        // misses can materialize *different* summaries — but never under
        // a settled tag: `version` was read before materializing (a
        // summary is never tagged newer than its contents), and every
        // leased flush bumps the version both before draining previously
        // visible weight and after landing it, so whatever stale value a
        // racing miss publishes is invalidated by the flush's completion
        // bump. Publishing unconditionally is therefore safe: a wrong
        // entry can only sit under a tag no settled state carries.
        self.instruments.cache_misses.incr();
        let summary = Arc::new(entry.engine.to_summary());
        CacheSlot::at(&mut entry.cache.lock().unwrap(), version).summary =
            Some(Arc::clone(&summary));
        self.instruments.reads.incr();
        summary
    }

    /// [`SketchStore::cached_summary`]'s twin for a hot key's parts: a hit
    /// clones the `Arc`, a miss gathers the parts from the engine under
    /// the caller's stripe lock, with the same tag discipline (version
    /// read before gathering, published unconditionally). A repeat read
    /// of an idle hot key then runs only the selection over the parts.
    fn cached_parts(&self, entry: &KeyEntry<T>) -> Arc<EngineParts> {
        let version = entry.engine.version();
        let cached = entry
            .cache
            .lock()
            .unwrap()
            .as_ref()
            .filter(|slot| slot.version == version)
            .and_then(|slot| slot.parts.clone());
        if let Some(parts) = cached {
            self.instruments.cache_hits.incr();
            self.instruments.reads.incr();
            return parts;
        }
        self.instruments.cache_misses.incr();
        let parts = Arc::new(entry.engine.parts().expect("a hot key has parts"));
        CacheSlot::at(&mut entry.cache.lock().unwrap(), version).parts = Some(Arc::clone(&parts));
        self.instruments.reads.incr();
        parts
    }

    /// Gather into `parts` what a read of `key` over the event-time
    /// `span` needs, under the shared stripe lock: the **sealed** windows
    /// overlapping the span — a downsampled window whole whenever the span
    /// touches any part of it, the coarse-granularity contract
    /// downsampling trades for memory — plus the **active** window
    /// (through the summary cache) when the span covers its id. Without a
    /// span, or on an unwindowed store, the part is the live engine's
    /// summary. Every part is an `Arc` clone; the lock is released on
    /// return, before anything is evaluated or merged. Returns whether the
    /// key exists.
    fn gather(&self, key: &str, span: Option<(u64, u64)>, parts: &mut Parts) -> bool {
        let map = self.stripe_of(key).read().unwrap();
        let Some(entry) = map.get(key) else { return false };
        let active = match (span, self.window_plan, &entry.windows) {
            (Some((t0_ms, t1_ms)), Some(plan), Some(cell)) => {
                let (w0, w1) = plan.range_windows(t0_ms, t1_ms);
                let state = cell.lock().unwrap();
                parts.sealed.extend(state.overlapping(w0, w1).cloned());
                (w0..w1).contains(&state.active_id)
            }
            _ => true,
        };
        if active {
            parts.live.push(self.cached_summary(entry));
        }
        true
    }

    /// [`SketchStore::gather`] over every key (absent keys contribute
    /// nothing), one stripe lock at a time.
    fn gather_keys<K: AsRef<str>>(&self, keys: &[K], span: Option<(u64, u64)>) -> Parts {
        let mut parts = Parts::default();
        for key in keys {
            self.gather(key.as_ref(), span, &mut parts);
        }
        parts
    }

    /// One bounded summary over the half-open event-time range
    /// `[t0_ms, t1_ms)` of `key`'s stream, or `None` if the key is absent.
    ///
    /// Covers the windows [`SketchStore::query_range`] answers over and
    /// merges them once, exact-weight, with
    /// [`merge_summaries`](crate::merge::merge_summaries)'s kernel — for
    /// callers that need a summary to keep or ship rather than an answer.
    ///
    /// Without [`StoreConfig::window`] the store has no time axis: the
    /// range is ignored and the whole stream is the answer.
    pub fn range_summary(&self, key: &str, t0_ms: u64, t1_ms: u64) -> Option<WeightedSummary> {
        if self.window_plan.is_none() {
            return self.summary_of(key).map(|s| (*s).clone());
        }
        let mut parts = Parts::default();
        self.gather(key, Some((t0_ms, t1_ms)), &mut parts)
            .then(|| parts.merge(self.cfg.k, self.cfg.seed))
    }

    /// φ-quantile over the event-time range `[t0_ms, t1_ms)` of `key`'s
    /// stream. `None` if the key is absent or no window in range holds
    /// any weight.
    ///
    /// Every **sealed** window overlapping the range counts — a
    /// downsampled window whole whenever the range touches any part of its
    /// span — plus the **active** window when the range covers its id. The
    /// windows are gathered as `Arc` clones under the shared stripe lock
    /// and answered over after it is released, as one [`UnionView`]: ranks
    /// add across windows, so nothing is merged and the answer is exact
    /// over the stored windows.
    pub fn query_range(&self, key: &str, t0_ms: u64, t1_ms: u64, phi: f64) -> Option<T> {
        self.gather_keys(&[key], Some((t0_ms, t1_ms))).view().quantile::<T>(phi)
    }

    /// One bounded summary over the union of the given keys' streams
    /// restricted to the event-time range `[t0_ms, t1_ms)` (absent keys
    /// contribute nothing): every key's windows from
    /// [`SketchStore::range_summary`], merged once.
    pub fn merged_range_summary<K: AsRef<str>>(
        &self,
        keys: &[K],
        t0_ms: u64,
        t1_ms: u64,
    ) -> WeightedSummary {
        self.gather_keys(keys, Some((t0_ms, t1_ms))).merge(self.cfg.k, self.cfg.seed)
    }

    /// φ-quantile over the union of the given keys' streams restricted to
    /// the event-time range `[t0_ms, t1_ms)`. `None` if nothing in range
    /// held any weight. Answered over every key's windows at once, with
    /// no merge, like [`SketchStore::query_range`].
    pub fn merged_query_range<K: AsRef<str>>(
        &self,
        keys: &[K],
        t0_ms: u64,
        t1_ms: u64,
        phi: f64,
    ) -> Option<T> {
        self.gather_keys(keys, Some((t0_ms, t1_ms))).view().quantile::<T>(phi)
    }

    /// The key's full windowed state — active id, watermark, active
    /// summary, and every sealed window, flattened — for diagnostics and
    /// the exact-oracle tests. `None` if the key is absent or the store is
    /// unwindowed.
    pub fn window_snapshot(&self, key: &str) -> Option<WindowSnapshot> {
        let map = self.stripe_of(key).read().unwrap();
        let entry = map.get(key)?;
        let cell = entry.windows.as_ref()?;
        let (active_id, watermark, sealed) = {
            let state = cell.lock().unwrap();
            let sealed = state
                .sealed
                .iter()
                .map(|(&start, win)| (start, win.level, Arc::new(win.summary.to_weighted())))
                .collect();
            (state.active_id, state.watermark, sealed)
        };
        Some(WindowSnapshot { active_id, watermark, active: self.cached_summary(entry), sealed })
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
        entry.engine.absorb_summary(&remote);
        // Counted under the stripe lock, like `updates`: `stats()` must
        // never see absorbed weight that is not yet in `ingests`.
        self.instruments.ingests.incr();
        self.instruments.bytes_in.add(buf.len() as u64);
        // The frame is logged verbatim (it already carries its own CRC
        // and decoded cleanly above); replay re-ingests it.
        let ticket = self.log_op(Some(&entry.last_lsn), WalOpRef::Ingest { key, frame: buf });
        drop(map);
        self.finish_log(ticket);
        Ok(ingested)
    }

    /// One bounded summary over the union of the given keys' streams
    /// (absent keys contribute nothing), for callers that keep or ship it.
    /// Locks one stripe at a time and reuses each key's cached summary,
    /// so a warm call materializes nothing per key and clones only `Arc`
    /// handles before the one cross-key merge.
    pub fn merged_summary<K: AsRef<str>>(&self, keys: &[K]) -> WeightedSummary {
        self.gather_keys(keys, None).merge(self.cfg.k, self.cfg.seed)
    }

    /// φ-quantile over the union of the given keys' streams. `None` if no
    /// key contributed any element. Gathers the same cached summaries as
    /// [`SketchStore::merged_summary`] but answers over them as one
    /// [`UnionView`] instead of merging them: exact over the cached
    /// summaries, with no compaction.
    pub fn merged_query<K: AsRef<str>>(&self, keys: &[K], phi: f64) -> Option<T> {
        self.gather_keys(keys, None).view().quantile::<T>(phi)
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
                if let Some(entry) = map.get_mut(&key) {
                    // Flush-on-invalidate, **before** any tier decision:
                    // pooled handles hold no weight by the lease invariant,
                    // but flushing them here makes conservation across
                    // demotion structural rather than an invariant of
                    // every other code path (a no-op flush is free).
                    {
                        let mut pool = entry.pool.lock().unwrap();
                        for handle in pool.idle.iter_mut() {
                            handle.flush();
                        }
                    }
                    if entry.engine.maintain() {
                        changed += 1;
                        self.instruments.demotions.incr();
                        self.registry.event(EventKind::Demotion, format!("key={key}"));
                        self.retire_engine(entry);
                    } else {
                        // Housekeeping sweep drops idle leases: handles
                        // parked for a whole interval re-mint on demand;
                        // checked-out leases keep their mint slot.
                        let mut pool = entry.pool.lock().unwrap();
                        let idle = pool.idle.len();
                        pool.minted -= idle;
                        pool.idle.clear();
                    }
                    // Housekeeping for the read cache too: drop parts and
                    // summaries the engine has since moved past, so
                    // written-then-idle keys do not pin a stale gather or
                    // materialization indefinitely.
                    let cache = entry.cache.get_mut().unwrap();
                    if cache.as_ref().is_some_and(|c| c.version != entry.engine.version()) {
                        *cache = None;
                    }
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
        assert_eq!(store.merged_summary(&["lo", "hi"]).stream_len(), 10_000);
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
        drop(lease);
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
        // Dropping the stale lease is a harmless no-op.
        drop(lease);
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
    fn pool_caps_leases_and_sweep_reclaims_idle_handles() {
        let store = SketchStore::new(
            StoreConfig::default()
                .stripes(2)
                .k(64)
                .b(4)
                .seed(10)
                .promotion_threshold(0)
                .writer_pool(2),
        );
        store.update_many("k", &[0.0]);
        store.update_many("k", &[1.0]);
        let lease_a = store.lease_writer("k").expect("first lease");
        let lease_b = store.lease_writer("k").expect("second lease");
        assert!(store.lease_writer("k").is_none(), "pool cap must bound minted leases");
        // update_many still works: the exhausted pool sends it down the
        // exclusive fallback.
        store.update_many("k", &[2.0]);
        assert!(store.stats().fallback_writes >= 1);
        drop(lease_a);
        let lease_c = store.lease_writer("k").expect("returned handles are reusable");
        // Park both handles and sweep: idle leases are dropped and their
        // mint slots freed, so the pool can mint fresh ones afterwards.
        drop(lease_b);
        drop(lease_c);
        store.cool_down();
        store.update_many("k", &[3.0]); // keep the key hot across the sweep
        let fresh_a = store.lease_writer("k").expect("sweep must free idle mint slots");
        let fresh_b = store.lease_writer("k").expect("both slots mint again");
        assert!(store.lease_writer("k").is_none(), "cap still enforced");
        drop(fresh_a);
        drop(fresh_b);
        assert_eq!(store.stats().stream_len, 4);
    }

    #[test]
    fn dropped_leases_release_their_mint_slots_immediately() {
        // A lease dropped anywhere (a finished writer, a worker panic
        // unwinding a connection's cache) must not pin its mint slot: the
        // drop returns the handle through the weak pool back-reference, no
        // housekeeping sweep required.
        let store = SketchStore::new(
            StoreConfig::default()
                .stripes(2)
                .k(64)
                .b(4)
                .seed(11)
                .promotion_threshold(0)
                .writer_pool(1),
        );
        store.update_many("k", &[0.0]);
        store.update_many("k", &[1.0]);
        let lease = store.lease_writer("k").expect("hot key leases");
        assert!(store.lease_writer("k").is_none(), "single slot checked out");
        drop(lease);
        let again = store.lease_writer("k").expect("dropped lease must free its slot");
        drop(again);
        // And a stale drop (after removal) is a harmless no-op.
        let lease = store.lease_writer("k").expect("slot free again");
        store.remove("k");
        drop(lease);
        assert!(store.is_empty());
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
