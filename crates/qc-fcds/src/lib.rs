//! FCDS — the *Fast Concurrent Data Sketches* framework of Rinberg et al.
//! (PPoPP'20), instantiated for the Quantiles sketch.
//!
//! This is the baseline the Quancurrent paper compares against in §5.5:
//! the only previously published concurrent sketch framework supporting
//! quantiles. Its design point is the opposite of Quancurrent's:
//!
//! * every worker buffers `B` elements **twice** (double buffering), and
//! * one **dedicated propagator thread** performs all merge-sorts into a
//!   single shared sequential sketch.
//!
//! Queries read the shared sketch under a reader lock (the original uses a
//! seqlock-style snapshot; a reader-writer lock preserves the property the
//! comparison depends on — queries never block the propagator for long and
//! updates never touch the shared sketch — while staying within safe Rust:
//! a seqlock reader copies memory a writer may be changing and discards
//! the copy afterwards, a data race safe Rust cannot express).
//!
//! Workers ingest only through per-thread handles ([`Fcds::updater`], or
//! [`ConcurrentIngest::writer`](qc_common::engine::ConcurrentIngest::writer)
//! for harness code); a dropped or flushed handle publishes its partial
//! buffer, and [`Fcds::drain`] returns once the propagator has merged
//! every published buffer.
//!
//! The framework satisfies relaxed consistency with relaxation up to
//! `2·N·B`, so matching Quancurrent's freshness requires small `B` — and
//! with small `B` the single propagator saturates. Figure 10 of the paper
//! (and `qc-bench`'s `fig10` binary) quantifies exactly this trade-off.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod sketch;
mod slots;

pub use sketch::{Fcds, FcdsStats, FcdsUpdater};
