//! **qc-server** — a concurrent TCP serving layer over the keyed sketch
//! store.
//!
//! The ROADMAP's north star is a production system serving quantile
//! streams from millions of users; this crate is the socket in front of
//! [`qc_store::SketchStore`]:
//!
//! * [`proto`] — a length-prefixed binary protocol with typed
//!   [`proto::ProtoError`]s and panic-free total decoding. Snapshot and
//!   ingest payloads travel as `qc-store` wire frames, so the bytes a
//!   server emits are exactly the bytes any store (local or remote)
//!   ingests;
//! * [`server`] — a thread-pooled blocking server
//!   ([`server::Server::bind`]) with per-connection buffering, an
//!   application-level accept backlog, and graceful shutdown
//!   ([`server::ServerHandle::shutdown`]);
//! * [`pool`] — the bounded-queue worker pool behind it;
//! * [`client`] — a blocking [`client::Client`] used by the examples and
//!   the soak tests.
//!
//! Everything is `std`-only: no registry dependencies, no async runtime —
//! concurrency comes from worker threads, exactly like the paper's
//! N-updaters/unbounded-queriers model.
//!
//! The server observes itself through `qc-telemetry` instruments in the
//! store's registry: per-opcode request counts/bytes/latencies (the
//! latency histograms *are* quantile sketches), pool queue depth and
//! saturation, connection outcomes, and housekeeping sweep durations. One
//! `Metrics` frame ([`client::Client::metrics`]) ships the whole snapshot
//! — latency summaries travel in the store's CRC-checked wire format and
//! merge across servers with [`qc_store::merge_summaries`].
//!
//! ```no_run
//! use qc_server::{Client, Server, ServerConfig};
//!
//! let handle = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(handle.local_addr())?;
//! client.update_many("checkout-latency", &[3.1, 4.1, 5.9])?;
//! let p50 = client.query("checkout-latency", 0.5)?;
//! assert!(p50.is_some());
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod pool;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use pool::ThreadPool;
pub use proto::{ErrorCode, ProtoError, RecvError, Request, Response, METRICS_VERSION};
pub use qc_ingest::{IngestConfig, IngestDaemon, IngestHandle};
pub use qc_telemetry::MetricsSnapshot;
pub use server::{Server, ServerConfig, ServerHandle};
