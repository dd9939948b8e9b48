//! **qc-store** — a sharded, keyed sketch store with a versioned wire
//! format and summary merging.
//!
//! The paper contributes a single blazing-fast in-process sketch; a serving
//! system needs many named streams, aggregation across processes, and
//! durable interchange of sketch state. This crate is that layer, in three
//! pieces:
//!
//! * [`wire`] — a compact, versioned, endian-stable binary encoding of
//!   [`qc_common::WeightedSummary`] (magic + version header, varint
//!   weights, delta-coded sorted value bits, CRC-32 trailer, typed
//!   [`wire::WireError`] decode failures — never a panic);
//! * [`merge`] — [`merge::merge_summaries`]: weight-aware merging of any
//!   number of summaries with randomized odd-or-even compaction back to a
//!   `k`-bounded summary, conserving total weight exactly, over a kernel
//!   that merges level runs without flattening them;
//! * [`engine`] — the store's per-key engine, [`engine::TieredEngine`]:
//!   a compact sequential sketch while the key is cold, promoted in place
//!   to an [`engine::ConcurrentEngine`] (full Quancurrent machinery)
//!   under update pressure and demoted again on cool-down; both implement
//!   the read, write and merge traits of [`qc_common::engine`];
//! * [`store`] — [`store::SketchStore`]: a fixed-stripe, lock-per-stripe
//!   registry mapping string keys to live engines, with keyed
//!   update/query, snapshot/ingest through the wire format, and cross-key
//!   merged queries. Generic over the element type; `SketchStore` with
//!   the default parameter is the `f64` store;
//! * [`persist`] — the restart-safety layer: an append-only segment log
//!   of every mutation plus checkpoint compaction, replayed by
//!   [`store::SketchStore::recover`] with typed, clean-prefix handling
//!   of torn and corrupt files;
//! * [`window`] — the time-windowed layer: window-aligned sub-sketches
//!   per key (active window = live engine, sealed windows = immutable
//!   level runs), downsampling into coarser windows, retention eviction,
//!   and the event-time arithmetic behind
//!   [`store::SketchStore::update_at`] /
//!   [`store::SketchStore::query_range`].
//!
//! ```
//! use qc_store::{SketchStore, StoreConfig};
//!
//! let store = SketchStore::new(StoreConfig::default().stripes(8).k(128).b(4).seed(7));
//! for i in 0..10_000 {
//!     store.update("checkout", i as f64);
//!     store.update("search", (i * 2) as f64);
//! }
//!
//! // Per-key and cross-key quantiles.
//! let p99 = store.query("checkout", 0.99).unwrap();
//! assert!(p99 > 9_000.0);
//! let union_median = store.merged_query(&["checkout", "search"], 0.5).unwrap();
//! assert!(union_median > 4_000.0);
//!
//! // Snapshot one key, ship the bytes anywhere, fold them into another
//! // store (or key) later.
//! let frame = store.snapshot_bytes("search").unwrap();
//! let other: SketchStore = SketchStore::default();
//! other.ingest_bytes("search-replica", &frame).unwrap();
//! assert_eq!(other.stats().stream_len, 10_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod merge;
pub mod persist;
pub mod store;
pub mod window;
pub mod wire;

pub use engine::{ConcurrentEngine, TieredEngine};
pub use merge::merge_summaries;
pub use persist::{
    CheckpointError, CheckpointStats, FsyncPolicy, PersistError, RecordError, RecoveryReport,
};
pub use store::{
    SketchStore, StaleLease, StoreConfig, StoreStats, WriterLease, DEFAULT_PROMOTION_THRESHOLD,
    DEFAULT_WRITER_POOL,
};
pub use window::{WindowConfig, WindowSnapshot};
pub use wire::{decode_summary, encode_summary, WireError};
