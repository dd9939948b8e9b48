//! **qc-ingest** — the high-rate UDP ingest front-end for the keyed
//! sketch store.
//!
//! The TCP serving layer ([`qc-server`](https://docs.rs)) costs one round
//! trip per frame and two fds per connection; the write-heavy half of the
//! paper's workload — millions of fire-and-forget measurements — wants
//! neither. This crate is the datagram path:
//!
//! * [`datagram`] — a versioned, CRC-checked packet format (one datagram
//!   = many `(key, values…)` records) built on the same
//!   [`qc_common::codec`] cursors as every other format in the
//!   workspace. Panic-free total decode, allocation bounds validated
//!   before any reserve.
//! * [`queue`] — the bounded MPMC hand-off between the socket and the
//!   processors; `try_push` never blocks.
//! * [`breaker`] — a deterministic, clock-injected circuit breaker that
//!   sheds sustained overload with exponential backoff.
//! * [`daemon`] — the assembled [`daemon::IngestDaemon`]: one socket
//!   thread that never blocks, N processors draining batches into
//!   [`qc_store::SketchStore::update_many`] (a hot key's write rides the
//!   shared-lock path through the hot engine's writer), exact drop
//!   accounting (queue-full, decode-error, oversized —
//!   each its own counter), and `qc-telemetry` instruments in the store's
//!   registry, so drops and queue depth travel over the existing
//!   `Metrics` frame.
//!
//! Delivery is **at-most-once**: every received datagram is applied
//! whole or dropped whole, and every drop is counted. The conservation
//! identity (see [`daemon`]) is asserted under storm load by the e2e
//! soak suite.
//!
//! Everything is `std`-only, like the rest of the workspace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod breaker;
pub mod daemon;
pub mod datagram;
pub mod queue;

pub use breaker::{BreakerConfig, CircuitBreaker};
pub use daemon::{IngestConfig, IngestDaemon, IngestHandle};
pub use datagram::{
    decode_datagram, encode_datagram, DatagramBuilder, DatagramError, Record, MAX_DATAGRAM_LEN,
};
