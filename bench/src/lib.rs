//! **qcb** — the repository's benchmark: an out-of-process load generator
//! against a real server process, four workloads, end-to-end metrics a
//! user of the server would see, per-layer probes, and a traced run.
//!
//! See `README.md` beside this crate for the metric glossary, the
//! layer → end-to-end table, and how to read a trace file.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conn;
pub mod gen;
pub mod layers;
pub mod manifest;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod run;
pub mod sched;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workload;
pub mod workloads;
