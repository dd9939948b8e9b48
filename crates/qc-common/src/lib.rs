//! Shared kernels for the Quancurrent reproduction.
//!
//! Every sketch in this workspace — the sequential Agarwal et al. sketch
//! (`qc-sequential`), the concurrent Quancurrent sketch (`quancurrent`),
//! and the FCDS baseline (`qc-fcds`) — operates internally on sorted arrays
//! of **64-bit ordered keys** and answers queries from **weighted sample
//! summaries**. This crate holds those shared pieces:
//!
//! * [`bits::OrderedBits`] — order-preserving embeddings of primitive types
//!   into `u64`, so the concurrent core can use plain `AtomicU64` slots for
//!   the racy Gather&Sort buffers without `unsafe` type punning.
//! * [`rng`] — small deterministic PRNGs (SplitMix64 / xoshiro256\*\*) used
//!   for the random odd/even sampling coin flips. Sketches must be seedable
//!   for reproducible tests, and the concurrent core must not depend on a
//!   global RNG.
//! * [`summary::WeightedSummary`] — the `samples` list of §2.2 of the paper:
//!   sorted `(value, weight)` tuples with the paper's quantile-selection rule
//!   (return `x_j` such that `W(x_j) <= ⌊φn⌋ < W(x_{j+1})`), plus rank and
//!   CDF estimation.
//! * [`merge`] / [`sample`] — the sorted-merge and odd-or-even subsampling
//!   kernels used by every propagation step.
//! * [`codec`] — the one bounds-checked [`codec::Reader`] /
//!   [`codec::Writer`] cursor pair, [`codec::CodecError`] and
//!   [`codec::crc32`] that every byte format in the workspace (summary
//!   frames, WAL, TCP protocol, UDP datagrams) is written on.
//! * [`engine`] — the unified sketch-engine capability traits
//!   ([`QuantileEstimator`], [`StreamIngest`], [`MergeableSketch`],
//!   [`ConcurrentIngest`], [`SharedIngest`]) every backend in the
//!   workspace implements.
//! * [`error`] — the ε(k) error model of the classic Quantiles sketch and the
//!   relaxation/staleness error composition of §4.2 of the paper.
//!
//! The crate is intentionally dependency-free: the correctness of the
//! concurrent data structures upstream rests on this code, and keeping it
//! auditable (and deterministic) is worth more than convenience.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bits;
pub mod codec;
pub mod engine;
pub mod error;
pub mod merge;
pub mod rng;
pub mod sample;
pub mod summary;

pub use bits::OrderedBits;
pub use engine::{
    ConcurrentIngest, InstrumentedSketch, MergeableSketch, QuantileEstimator, SharedIngest,
    SketchEngine, StreamIngest, VersionedSketch,
};
pub use rng::{SplitMix64, Xoshiro256};
pub use summary::{Summary, WeightedItem, WeightedSummary};
