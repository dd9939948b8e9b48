//! The sequential Quantiles sketch of Agarwal et al. (*Mergeable
//! Summaries*, PODS'12) — the algorithm Quancurrent parallelizes and the
//! single-threaded baseline of every comparison in the paper's evaluation.
//!
//! A sketch with parameter `k` summarizes a stream of `n` elements in
//! `O(k log(n/k))` space and answers φ-quantile queries with normalized
//! rank error ≈ `1.76 / k^0.93` (the DataSketches classic-sketch fit; see
//! [`qc_common::error`]).
//!
//! * [`QuantilesSketch`] — the core, operating on 64-bit ordered keys.
//!   Its memory follows the stream: the base buffer grows on demand, and
//!   full levels are immutable shared runs.
//! * [`SketchParts`] — a sketch's state as sorted runs (shared levels +
//!   the base sorted once): what queries answer over, with no flat
//!   summary built.
//! * [`Sketch`] — typed wrapper over any [`qc_common::OrderedBits`] type.
//!
//! ```
//! use qc_sequential::Sketch;
//!
//! let mut sketch = Sketch::<u64>::new(256);
//! for x in 0..1_000_000u64 {
//!     sketch.update(x);
//! }
//! let p99 = sketch.quantile(0.99).unwrap();
//! assert!((980_000..=1_000_000).contains(&p99));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![forbid(unsafe_code)]

mod sketch;
mod typed;

pub use sketch::{QuantilesSketch, SketchParts};
pub use typed::Sketch;
