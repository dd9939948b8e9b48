//! Umbrella crate for the Quancurrent reproduction.
//!
//! Re-exports the public surface of every workspace crate so examples and
//! downstream users can depend on a single crate:
//!
//! * [`quancurrent`] — the concurrent Quantiles sketch (the paper's
//!   contribution).
//! * [`sequential`] — the Agarwal et al. sequential sketch it builds on.
//! * [`fcds`] — the FCDS concurrent baseline it is compared against.
//! * [`common`] — shared kernels (key embeddings, summaries, error math)
//!   and the sketch-engine traits ([`common::engine`]): every backend
//!   above implements the applicable ones of [`QuantileEstimator`],
//!   [`StreamIngest`], [`MergeableSketch`] and [`ConcurrentIngest`], so
//!   the throughput harness races Quancurrent and FCDS through one seam
//!   and any backend's summary is absorbable by any other.
//! * [`store`] — the sharded keyed sketch store: versioned wire format,
//!   weight-aware summary merging, and the lock-striped key registry.
//!   Every key is a [`TieredEngine`]: it starts on the compact sequential
//!   tier and promotes to Quancurrent (a [`ConcurrentEngine`]) under
//!   update pressure.
//! * [`server`] — the TCP serving layer over the store: binary protocol,
//!   thread-pooled connection handling, and the blocking client.
//! * [`ingest`] — the high-rate UDP front door: CRC-checked batched
//!   datagrams, a never-blocking socket thread feeding lease-reusing
//!   processors, exact drop accounting, and an overload circuit breaker.
//! * [`mwcas`] — the software DCAS / multi-word CAS substrate.
//! * [`reclaim`] — interval-based memory reclamation (IBR).
//! * [`workloads`] — stream generators, the exact oracle, and the
//!   throughput harness used by the benchmark suite.
//!
//! The guided tour below is `README.md`, whose `rust` examples compile and
//! run as this crate's doctests; `examples/` holds runnable programs.
//!
#![doc = include_str!("../README.md")]

pub mod convert;

pub use qc_common as common;
pub use qc_fcds as fcds;
pub use qc_ingest as ingest;
pub use qc_mwcas as mwcas;
pub use qc_reclaim as reclaim;
pub use qc_sequential as sequential;
pub use qc_server as server;
pub use qc_store as store;
pub use qc_telemetry as telemetry;
pub use qc_workloads as workloads;
pub use quancurrent;

pub use qc_common::{
    ConcurrentIngest, MergeableSketch, OrderedBits, QuantileEstimator, StreamIngest, Summary,
};
pub use qc_server::{Client, Server, ServerConfig};
pub use qc_store::{ConcurrentEngine, SketchStore, StoreConfig, TieredEngine, WireError};
