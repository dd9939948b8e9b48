//! The serving protocol: length-prefixed binary request/response frames.
//!
//! Every message on the socket is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     body length `L` (u32 LE; excludes these four bytes)
//! 4       L     body = opcode (u8) + payload
//! ```
//!
//! Payload primitives are the shared [`qc_common::codec`] ones — LEB128
//! varints, little-endian `f64` bit patterns, length-prefixed UTF-8
//! strings — and a snapshot frame travels as the *exact bytes*
//! [`qc_store::wire::encode_summary`] produces, checksummed and versioned
//! by that layer. The protocol layer itself stays checksum-free: TCP
//! already protects the transport, and the summary payloads (the only
//! bulk data) carry their own CRC.
//!
//! # Safety contract
//!
//! Decoding is **total**: any byte sequence maps to `Ok` or a typed
//! [`ProtoError`] — never a panic. No decode path allocates
//! attacker-controlled sizes: every declared length/count is validated
//! against the bytes actually present (a count of `u64::MAX` is rejected
//! before any `Vec::with_capacity`), and the frame reader refuses bodies
//! larger than the configured [`max frame length`](read_frame) before
//! allocating.
//!
//! # Request/response catalogue (version 1)
//!
//! | opcode | request            | payload                               | response   |
//! |--------|--------------------|---------------------------------------|------------|
//! | `0x01` | [`Request::Update`]      | key, value(f64)                 | `Ok`       |
//! | `0x02` | [`Request::UpdateMany`]  | key, n, n×value(f64)            | `Ok`       |
//! | `0x03` | [`Request::Query`]       | key, φ(f64)                     | `MaybeValue` |
//! | `0x04` | [`Request::Rank`]        | key, value(f64)                 | `MaybeValue` |
//! | `0x05` | [`Request::MergedQuery`] | n, n×key, φ(f64)                | `MaybeValue` |
//! | `0x06` | [`Request::Stats`]       | —                               | `Stats`    |
//! | `0x07` | [`Request::Remove`]      | key                             | `Flag`     |
//! | `0x08` | [`Request::Keys`]        | —                               | `Keys`     |
//! | `0x09` | [`Request::Snapshot`]    | key                             | `MaybeFrame` |
//! | `0x0a` | [`Request::Ingest`]      | key, len, summary wire frame    | `Count`    |
//! | `0x0b` | [`Request::Metrics`]     | —                               | `Metrics`  |
//! | `0x0c` | [`Request::UpdateAt`]    | key, ts, n, n×value(f64)        | `Ok`       |
//! | `0x0d` | [`Request::QueryRange`]  | key, t0, t1, φ(f64)             | `MaybeValue` |
//! | `0x0e` | [`Request::MergedQueryRange`] | n, n×key, t0, t1, φ(f64)   | `MaybeValue` |
//!
//! Responses use the high bit: `0x80` `Ok`, `0x81` `MaybeValue`, `0x82`
//! `Count`, `0x83` `Flag`, `0x84` `Stats`, `0x85` `Keys`, `0x86`
//! `MaybeFrame`, `0x87` `Metrics`, `0x8f` `Error`.
//!
//! The `Metrics` payload is versioned independently of the frame
//! catalogue (leading version byte, currently [`METRICS_VERSION`]): it is
//! the one response whose shape grows as instruments are added, and the
//! version byte lets old clients fail typed instead of misparsing.
//! Latency instruments travel as embedded
//! [`qc_store::wire::encode_summary`] frames — CRC-checked, and mergeable
//! with [`qc_store::merge_summaries`] across servers.

use std::io::{self, Read, Write};

use qc_common::codec::{Reader, Writer};
use qc_store::wire::{decode_summary, encode_summary, WireError};
use qc_store::StoreStats;
use qc_telemetry::MetricsSnapshot;

pub use qc_common::codec::CodecError;

/// Bytes of the frame length prefix.
pub const LEN_PREFIX: usize = 4;

/// Default cap on a frame body; [`read_frame`] rejects longer bodies
/// before allocating. Generous for snapshot frames (a `k = 4096` summary
/// with 60 levels is still well under 4 MiB).
pub const DEFAULT_MAX_FRAME_LEN: usize = 8 << 20;

/// Version byte leading a [`Response::Metrics`] payload. Bumped whenever
/// the metrics payload layout changes shape (instrument *names* may come
/// and go freely; only the byte layout is versioned).
pub const METRICS_VERSION: u8 = 1;

/// Error codes carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// An embedded summary frame failed `qc-store` wire validation.
    Wire = 1,
    /// The request body could not be decoded (the connection survives:
    /// frame boundaries are intact, only this body was malformed).
    Proto = 2,
    /// The server refused the request (e.g. shutting down).
    Unavailable = 3,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::Wire),
            2 => Some(ErrorCode::Proto),
            3 => Some(ErrorCode::Unavailable),
            _ => None,
        }
    }
}

/// Typed protocol decode failures. Decoding must never panic, whatever
/// the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// A failure kind every format shares: body truncated (or a declared
    /// count the bytes cannot back), malformed varint, non-UTF-8 string,
    /// trailing bytes.
    Codec(CodecError),
    /// Frame length prefix exceeds the configured maximum.
    FrameTooLarge {
        /// Declared body length.
        len: u64,
        /// Configured cap.
        max: usize,
    },
    /// Empty body, or an opcode this build does not know.
    UnknownOpcode {
        /// The opcode byte found (0 for an empty body).
        found: u8,
    },
    /// A presence flag byte was neither 0 nor 1.
    BadFlag {
        /// Byte offset of the flag.
        offset: usize,
        /// The byte found.
        found: u8,
    },
    /// An unknown [`ErrorCode`] in an error response.
    UnknownErrorCode {
        /// The code byte found.
        found: u8,
    },
    /// A declared count does not fit this platform's `usize`.
    IntOutOfRange {
        /// Byte offset of the offending varint.
        offset: usize,
    },
    /// A metrics payload declared a version this build does not speak.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// An embedded latency summary failed `qc-store` wire validation
    /// (truncated frame, bad magic, CRC mismatch, …).
    BadSummary {
        /// Byte offset of the embedded frame's first byte.
        offset: usize,
        /// The wire-layer rejection.
        error: WireError,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Codec(e) => e.fmt(f),
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds cap {max}")
            }
            ProtoError::UnknownOpcode { found } => write!(f, "unknown opcode {found:#04x}"),
            ProtoError::BadFlag { offset, found } => {
                write!(f, "bad presence flag {found:#04x} at byte {offset}")
            }
            ProtoError::UnknownErrorCode { found } => write!(f, "unknown error code {found}"),
            ProtoError::IntOutOfRange { offset } => {
                write!(f, "count at byte {offset} exceeds platform usize")
            }
            ProtoError::UnsupportedVersion { found } => {
                write!(f, "unsupported metrics payload version {found}")
            }
            ProtoError::BadSummary { offset, error } => {
                write!(f, "embedded summary at byte {offset} invalid: {error}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError::Codec(e)
    }
}

/// A frame could not be received: transport failure or protocol violation.
#[derive(Debug)]
pub enum RecvError {
    /// The socket failed (including mid-frame EOF).
    Io(io::Error),
    /// The peer sent bytes the protocol rejects.
    Proto(ProtoError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "transport error: {e}"),
            RecvError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for RecvError {}

impl From<io::Error> for RecvError {
    fn from(e: io::Error) -> Self {
        RecvError::Io(e)
    }
}

/// Requests a client can issue; one request yields exactly one response.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Feed one value into `key`'s sketch.
    Update {
        /// Target stream.
        key: String,
        /// The observation.
        value: f64,
    },
    /// Feed a batch of values into `key` (one lock acquisition server-side,
    /// one round-trip on the wire — the serving layer's throughput lever).
    UpdateMany {
        /// Target stream.
        key: String,
        /// The observations.
        values: Vec<f64>,
    },
    /// φ-quantile estimate for `key`.
    Query {
        /// Target stream.
        key: String,
        /// Quantile in `[0, 1]`.
        phi: f64,
    },
    /// Normalized rank of `value` within `key`'s stream.
    Rank {
        /// Target stream.
        key: String,
        /// The probe value.
        value: f64,
    },
    /// φ-quantile over the union of several keys' streams.
    MergedQuery {
        /// Streams to union; absent keys contribute nothing.
        keys: Vec<String>,
        /// Quantile in `[0, 1]`.
        phi: f64,
    },
    /// Store-wide statistics.
    Stats,
    /// Drop a key.
    Remove {
        /// Stream to drop.
        key: String,
    },
    /// List resident keys.
    Keys,
    /// Serialize `key`'s resident summary as a `qc-store` wire frame.
    Snapshot {
        /// Stream to snapshot.
        key: String,
    },
    /// Merge a `qc-store` wire frame into `key`'s absorbed aggregate.
    Ingest {
        /// Target stream (created if absent).
        key: String,
        /// A frame as produced by [`qc_store::wire::encode_summary`];
        /// opaque to this layer, validated by the store.
        frame: Vec<u8>,
    },
    /// The server's telemetry snapshot: counters, gauges, and latency
    /// summaries from the store's registry (the server observing itself
    /// with its own sketches).
    Metrics,
    /// Feed a timestamped batch into the window holding `ts` (event-time
    /// milliseconds; see `qc_store::window`). On an unwindowed server
    /// this degrades to [`Request::UpdateMany`].
    UpdateAt {
        /// Target stream.
        key: String,
        /// Event-time timestamp in milliseconds.
        ts: u64,
        /// The observations.
        values: Vec<f64>,
    },
    /// φ-quantile over the event-time range `[t0, t1)` of `key`'s stream
    /// — one round trip; the server merges the covered windows.
    QueryRange {
        /// Target stream.
        key: String,
        /// Range start (event-time ms, inclusive).
        t0: u64,
        /// Range end (event-time ms, exclusive).
        t1: u64,
        /// Quantile in `[0, 1]`.
        phi: f64,
    },
    /// φ-quantile over the union of several keys' streams restricted to
    /// the event-time range `[t0, t1)`.
    MergedQueryRange {
        /// Streams to union; absent keys contribute nothing.
        keys: Vec<String>,
        /// Range start (event-time ms, inclusive).
        t0: u64,
        /// Range end (event-time ms, exclusive).
        t1: u64,
        /// Quantile in `[0, 1]`.
        phi: f64,
    },
}

/// Stable per-opcode labels, indexed by [`Request::op_index`]. These name
/// the server's per-opcode instruments (`server_requests_{label}`, …), so
/// they are part of the observable surface: treat them as append-only.
pub const OP_LABELS: [&str; 14] = [
    "update",
    "update_many",
    "query",
    "rank",
    "merged_query",
    "stats",
    "remove",
    "keys",
    "snapshot",
    "ingest",
    "metrics",
    "update_at",
    "query_range",
    "merged_query_range",
];

/// Responses the server sends; see the module-level catalogue for which
/// request yields which.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Acknowledgement with no payload (`Update`, `UpdateMany`).
    Ok,
    /// An optional scalar (`Query`, `Rank`, `MergedQuery`; `None` = the
    /// key(s) hold no data).
    MaybeValue(Option<f64>),
    /// An unsigned counter (`Ingest`: the ingested stream length).
    Count(u64),
    /// A boolean (`Remove`: whether the key existed).
    Flag(bool),
    /// Store-wide statistics (`Stats`).
    Stats(StoreStats),
    /// Resident keys (`Keys`).
    Keys(Vec<String>),
    /// An optional summary wire frame (`Snapshot`; `None` = absent key).
    MaybeFrame(Option<Vec<u8>>),
    /// A telemetry snapshot (`Metrics`). Latency entries cross the wire
    /// as CRC-checked `qc-store` summary frames.
    Metrics(MetricsSnapshot),
    /// The request failed; the connection remains usable.
    Error {
        /// Failure category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// ZigZag map for signed gauge values: small-magnitude integers of either
/// sign take few varint bytes (`0 → 0, -1 → 1, 1 → 2, -2 → 3, …`).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A count followed by that many `f64`s (the batch payloads).
fn put_values(w: &mut Writer<'_>, values: &[f64]) {
    w.varint(values.len() as u64);
    w.reserve(values.len() * 8);
    for &v in values {
        w.f64_le(v);
    }
}

fn get_values(r: &mut Reader<'_>) -> Result<Vec<f64>, ProtoError> {
    let n = r.count(8)?;
    Ok(r.u64s_le(n)?.map(f64::from_bits).collect())
}

/// A count followed by that many strings (key lists).
fn put_strings(w: &mut Writer<'_>, strings: &[String]) {
    w.varint(strings.len() as u64);
    for s in strings {
        w.str(s);
    }
}

fn get_strings(r: &mut Reader<'_>) -> Result<Vec<String>, ProtoError> {
    // Each string costs at least one length byte.
    let n = r.count(1)?;
    let mut strings = Vec::with_capacity(n);
    for _ in 0..n {
        strings.push(r.str()?.to_owned());
    }
    Ok(strings)
}

/// A presence/boolean byte: 0 or 1, anything else is [`ProtoError::BadFlag`].
fn get_flag(r: &mut Reader<'_>) -> Result<bool, ProtoError> {
    let offset = r.offset();
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        found => Err(ProtoError::BadFlag { offset, found }),
    }
}

/// A varint that must fit this platform's `usize`.
fn get_usize(r: &mut Reader<'_>) -> Result<usize, ProtoError> {
    let offset = r.offset();
    usize::try_from(r.varint()?).map_err(|_| ProtoError::IntOutOfRange { offset })
}

/// Metrics entries `(name, value)`: a count, then a string and whatever
/// `value` reads per entry. Every entry is at least a 1-byte name length
/// plus one value byte; that floor only guards the `Vec::with_capacity`.
fn get_named<T>(
    r: &mut Reader<'_>,
    mut value: impl FnMut(&mut Reader<'_>) -> Result<T, ProtoError>,
) -> Result<Vec<(String, T)>, ProtoError> {
    let n = r.count(2)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?.to_owned();
        entries.push((name, value(r)?));
    }
    Ok(entries)
}

/// The opcode byte opening a body; an empty body reads as opcode 0.
fn get_opcode(r: &mut Reader<'_>) -> Result<u8, ProtoError> {
    r.u8().map_err(|_| ProtoError::UnknownOpcode { found: 0 })
}

impl Request {
    /// Dense index of this request's opcode (0-based, in catalogue
    /// order) — use it to index per-opcode instrument arrays.
    pub fn op_index(&self) -> usize {
        match self {
            Request::Update { .. } => 0,
            Request::UpdateMany { .. } => 1,
            Request::Query { .. } => 2,
            Request::Rank { .. } => 3,
            Request::MergedQuery { .. } => 4,
            Request::Stats => 5,
            Request::Remove { .. } => 6,
            Request::Keys => 7,
            Request::Snapshot { .. } => 8,
            Request::Ingest { .. } => 9,
            Request::Metrics => 10,
            Request::UpdateAt { .. } => 11,
            Request::QueryRange { .. } => 12,
            Request::MergedQueryRange { .. } => 13,
        }
    }

    /// Stable snake_case label of this request's opcode (see
    /// [`OP_LABELS`]).
    pub fn op_label(&self) -> &'static str {
        OP_LABELS[self.op_index()]
    }

    /// Encode into a frame body (opcode + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        let mut w = Writer::new(&mut out);
        match self {
            Request::Update { key, value } => {
                w.u8(0x01);
                w.str(key);
                w.f64_le(*value);
            }
            Request::UpdateMany { key, values } => put_update_many(&mut w, key, values),
            Request::Query { key, phi } => {
                w.u8(0x03);
                w.str(key);
                w.f64_le(*phi);
            }
            Request::Rank { key, value } => {
                w.u8(0x04);
                w.str(key);
                w.f64_le(*value);
            }
            Request::MergedQuery { keys, phi } => {
                w.u8(0x05);
                put_strings(&mut w, keys);
                w.f64_le(*phi);
            }
            Request::Stats => w.u8(0x06),
            Request::Remove { key } => {
                w.u8(0x07);
                w.str(key);
            }
            Request::Keys => w.u8(0x08),
            Request::Snapshot { key } => {
                w.u8(0x09);
                w.str(key);
            }
            Request::Ingest { key, frame } => {
                w.u8(0x0a);
                w.str(key);
                w.len_prefixed_bytes(frame);
            }
            Request::Metrics => w.u8(0x0b),
            Request::UpdateAt { key, ts, values } => {
                w.u8(0x0c);
                w.str(key);
                w.varint(*ts);
                put_values(&mut w, values);
            }
            Request::QueryRange { key, t0, t1, phi } => {
                w.u8(0x0d);
                w.str(key);
                w.varint(*t0);
                w.varint(*t1);
                w.f64_le(*phi);
            }
            Request::MergedQueryRange { keys, t0, t1, phi } => {
                w.u8(0x0e);
                put_strings(&mut w, keys);
                w.varint(*t0);
                w.varint(*t1);
                w.f64_le(*phi);
            }
        }
        out
    }

    /// Decode a frame body. Total: consumes exactly `body` or returns a
    /// typed error.
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        let mut r = Reader::new(body);
        let req = match get_opcode(&mut r)? {
            0x01 => Request::Update { key: r.str()?.to_owned(), value: r.f64_le()? },
            0x02 => Request::UpdateMany { key: r.str()?.to_owned(), values: get_values(&mut r)? },
            0x03 => Request::Query { key: r.str()?.to_owned(), phi: r.f64_le()? },
            0x04 => Request::Rank { key: r.str()?.to_owned(), value: r.f64_le()? },
            0x05 => Request::MergedQuery { keys: get_strings(&mut r)?, phi: r.f64_le()? },
            0x06 => Request::Stats,
            0x07 => Request::Remove { key: r.str()?.to_owned() },
            0x08 => Request::Keys,
            0x09 => Request::Snapshot { key: r.str()?.to_owned() },
            0x0a => Request::Ingest {
                key: r.str()?.to_owned(),
                frame: r.len_prefixed_bytes()?.to_vec(),
            },
            0x0b => Request::Metrics,
            0x0c => Request::UpdateAt {
                key: r.str()?.to_owned(),
                ts: r.varint()?,
                values: get_values(&mut r)?,
            },
            0x0d => Request::QueryRange {
                key: r.str()?.to_owned(),
                t0: r.varint()?,
                t1: r.varint()?,
                phi: r.f64_le()?,
            },
            0x0e => Request::MergedQueryRange {
                keys: get_strings(&mut r)?,
                t0: r.varint()?,
                t1: r.varint()?,
                phi: r.f64_le()?,
            },
            found => return Err(ProtoError::UnknownOpcode { found }),
        };
        r.finish()?;
        Ok(req)
    }
}

/// Encode an `UpdateMany` body straight from a borrowed slice —
/// byte-identical to `Request::UpdateMany { .. }.encode()` but without
/// materializing the intermediate `Vec<f64>`/`String`. This is the
/// client's hot ingest path.
pub fn encode_update_many(key: &str, values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + key.len() + 2 + 10 + values.len() * 8);
    put_update_many(&mut Writer::new(&mut out), key, values);
    out
}

fn put_update_many(w: &mut Writer<'_>, key: &str, values: &[f64]) {
    w.u8(0x02);
    w.str(key);
    put_values(w, values);
}

impl Response {
    /// Encode into a fresh frame body (opcode + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Append the frame body (opcode + payload) to `out` — the server's
    /// reply path reuses one buffer per connection.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::new(out);
        match self {
            Response::Ok => w.u8(0x80),
            Response::MaybeValue(v) => {
                w.u8(0x81);
                w.u8(v.is_some() as u8);
                if let Some(v) = v {
                    w.f64_le(*v);
                }
            }
            Response::Count(n) => {
                w.u8(0x82);
                w.varint(*n);
            }
            Response::Flag(b) => {
                w.u8(0x83);
                w.u8(*b as u8);
            }
            Response::Stats(s) => {
                w.u8(0x84);
                w.varint(s.keys as u64);
                w.varint(s.stripes as u64);
                w.varint(s.updates);
                w.varint(s.ingests);
                w.varint(s.ingest_errors);
                w.varint(s.stream_len);
                w.varint(s.bytes_out);
                w.varint(s.bytes_in);
            }
            Response::Keys(keys) => {
                w.u8(0x85);
                put_strings(&mut w, keys);
            }
            Response::MaybeFrame(frame) => {
                w.u8(0x86);
                w.u8(frame.is_some() as u8);
                if let Some(frame) = frame {
                    w.len_prefixed_bytes(frame);
                }
            }
            Response::Metrics(snap) => {
                w.u8(0x87);
                w.u8(METRICS_VERSION);
                w.varint(snap.counters.len() as u64);
                for (name, value) in &snap.counters {
                    w.str(name);
                    w.varint(*value);
                }
                w.varint(snap.gauges.len() as u64);
                for (name, value) in &snap.gauges {
                    w.str(name);
                    w.varint(zigzag(*value));
                }
                w.varint(snap.latencies.len() as u64);
                for (name, summary) in &snap.latencies {
                    w.str(name);
                    w.len_prefixed_bytes(&encode_summary(summary));
                }
            }
            Response::Error { code, message } => {
                w.u8(0x8f);
                w.u8(*code as u8);
                w.str(message);
            }
        }
    }

    /// Decode a frame body. Total: consumes exactly `body` or returns a
    /// typed error.
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let mut r = Reader::new(body);
        let resp = match get_opcode(&mut r)? {
            0x80 => Response::Ok,
            0x81 => Response::MaybeValue(match get_flag(&mut r)? {
                true => Some(r.f64_le()?),
                false => None,
            }),
            0x82 => Response::Count(r.varint()?),
            0x83 => Response::Flag(get_flag(&mut r)?),
            0x84 => Response::Stats(StoreStats {
                keys: get_usize(&mut r)?,
                stripes: get_usize(&mut r)?,
                updates: r.varint()?,
                ingests: r.varint()?,
                ingest_errors: r.varint()?,
                stream_len: r.varint()?,
                bytes_out: r.varint()?,
                bytes_in: r.varint()?,
                // Tier/memory fields are node-local diagnostics and do
                // not cross the wire (format unchanged since v1);
                // remote stats report them as zero.
                ..Default::default()
            }),
            0x85 => Response::Keys(get_strings(&mut r)?),
            0x86 => Response::MaybeFrame(match get_flag(&mut r)? {
                true => Some(r.len_prefixed_bytes()?.to_vec()),
                false => None,
            }),
            0x87 => {
                let version = r.u8()?;
                if version != METRICS_VERSION {
                    return Err(ProtoError::UnsupportedVersion { found: version });
                }
                Response::Metrics(MetricsSnapshot {
                    counters: get_named(&mut r, |r| Ok(r.varint()?))?,
                    gauges: get_named(&mut r, |r| Ok(unzigzag(r.varint()?)))?,
                    latencies: get_named(&mut r, |r| {
                        let frame = r.len_prefixed_bytes()?;
                        let offset = r.offset() - frame.len();
                        decode_summary(frame)
                            .map_err(|error| ProtoError::BadSummary { offset, error })
                    })?,
                })
            }
            0x8f => {
                let code_byte = r.u8()?;
                let code = ErrorCode::from_u8(code_byte)
                    .ok_or(ProtoError::UnknownErrorCode { found: code_byte })?;
                Response::Error { code, message: r.str()?.to_owned() }
            }
            found => return Err(ProtoError::UnknownOpcode { found }),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Write one frame (length prefix + body) to `w`. Callers flush.
///
/// # Panics
/// If `body` exceeds `u32::MAX` bytes — locally-built bodies are bounded
/// far below that by the store's summary sizes.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len()).expect("frame body exceeds u32::MAX");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)
}

/// Read one frame body from `r`, bounded by `max_len`.
///
/// * `Ok(None)` — the peer closed the connection cleanly between frames;
/// * `Err(Io)` — transport failure, including EOF mid-frame;
/// * `Err(Proto(FrameTooLarge))` — declared body length over `max_len`
///   (checked **before** any allocation).
pub fn read_frame<R: Read>(r: &mut R, max_len: usize) -> Result<Option<Vec<u8>>, RecvError> {
    let mut prefix = [0u8; LEN_PREFIX];
    // Distinguish clean EOF (no bytes of a next frame) from truncation.
    let mut filled = 0usize;
    while filled < LEN_PREFIX {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(RecvError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as u64;
    if len > max_len as u64 {
        return Err(RecvError::Proto(ProtoError::FrameTooLarge { len, max: max_len }));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_common::codec::put_varint;

    fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
        Writer::new(out).len_prefixed_bytes(bytes);
    }

    fn put_str(out: &mut Vec<u8>, s: &str) {
        put_bytes(out, s.as_bytes());
    }

    #[test]
    fn simple_request_roundtrip() {
        let reqs = [
            Request::Update { key: "k".into(), value: 1.5 },
            Request::UpdateMany { key: "k".into(), values: vec![1.0, 2.0, f64::NAN] },
            Request::Query { key: "k".into(), phi: 0.5 },
            Request::Rank { key: "k".into(), value: -0.0 },
            Request::MergedQuery { keys: vec!["a".into(), "b".into()], phi: 0.99 },
            Request::Stats,
            Request::Remove { key: "k".into() },
            Request::Keys,
            Request::Snapshot { key: "k".into() },
            Request::Ingest { key: "k".into(), frame: vec![1, 2, 3] },
            Request::Metrics,
            Request::UpdateAt { key: "k".into(), ts: u64::MAX, values: vec![1.0, f64::NAN] },
            Request::QueryRange { key: "k".into(), t0: 0, t1: u64::MAX, phi: 0.5 },
            Request::MergedQueryRange {
                keys: vec!["a".into(), "b".into()],
                t0: 60_000,
                t1: 120_000,
                phi: 0.99,
            },
        ];
        for req in reqs {
            let body = req.encode();
            let back = Request::decode(&body).unwrap();
            // NaN-tolerant comparison: compare re-encodings.
            assert_eq!(back.encode(), body, "{req:?}");
        }
    }

    #[test]
    fn simple_response_roundtrip() {
        let resps = [
            Response::Ok,
            Response::MaybeValue(None),
            Response::MaybeValue(Some(42.0)),
            Response::Count(u64::MAX),
            Response::Flag(true),
            Response::Stats(StoreStats { keys: 3, stripes: 16, updates: 7, ..Default::default() }),
            Response::Keys(vec!["a".into(), "ü".into()]),
            Response::MaybeFrame(None),
            Response::MaybeFrame(Some(vec![9; 100])),
            Response::Error { code: ErrorCode::Wire, message: "bad frame".into() },
        ];
        for resp in resps {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp);
        }
    }

    fn sample_metrics() -> MetricsSnapshot {
        let recorder = qc_telemetry::LatencyRecorder::new(64);
        for i in 0..1000 {
            recorder.record(i as f64 / 1000.0);
        }
        MetricsSnapshot {
            counters: vec![("a".into(), 0), ("requests".into(), u64::MAX)],
            gauges: vec![("balance".into(), -3), ("depth".into(), i64::MIN)],
            latencies: vec![("req_seconds".into(), recorder.summary())],
        }
    }

    #[test]
    fn metrics_response_roundtrip() {
        let resp = Response::Metrics(sample_metrics());
        let body = resp.encode();
        assert_eq!(Response::decode(&body).unwrap(), resp);
        // An empty snapshot also roundtrips (fresh registry).
        let empty = Response::Metrics(MetricsSnapshot::default());
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn metrics_version_drift_is_typed() {
        let mut body = Response::Metrics(MetricsSnapshot::default()).encode();
        body[1] = METRICS_VERSION + 1;
        assert_eq!(
            Response::decode(&body),
            Err(ProtoError::UnsupportedVersion { found: METRICS_VERSION + 1 })
        );
    }

    #[test]
    fn corrupted_embedded_summary_is_typed() {
        let body = Response::Metrics(sample_metrics()).encode();
        // Flip one bit inside the embedded summary frame (the last byte of
        // the body sits in the summary's CRC trailer).
        let mut corrupt = body.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        match Response::decode(&corrupt) {
            Err(ProtoError::BadSummary { offset, error: _ }) => {
                assert!(offset > 0 && offset < body.len());
            }
            other => panic!("expected BadSummary, got {other:?}"),
        }
        // Truncating the body mid-summary is caught before the CRC runs.
        let cut = &body[..body.len() - 4];
        assert!(matches!(
            Response::decode(cut),
            Err(ProtoError::Codec(CodecError::Truncated { .. }))
        ));
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn op_labels_are_dense_and_unique() {
        let reqs = [
            Request::Update { key: String::new(), value: 0.0 },
            Request::UpdateMany { key: String::new(), values: vec![] },
            Request::Query { key: String::new(), phi: 0.5 },
            Request::Rank { key: String::new(), value: 0.0 },
            Request::MergedQuery { keys: vec![], phi: 0.5 },
            Request::Stats,
            Request::Remove { key: String::new() },
            Request::Keys,
            Request::Snapshot { key: String::new() },
            Request::Ingest { key: String::new(), frame: vec![] },
            Request::Metrics,
            Request::UpdateAt { key: String::new(), ts: 0, values: vec![] },
            Request::QueryRange { key: String::new(), t0: 0, t1: 0, phi: 0.5 },
            Request::MergedQueryRange { keys: vec![], t0: 0, t1: 0, phi: 0.5 },
        ];
        assert_eq!(reqs.len(), OP_LABELS.len());
        for (i, req) in reqs.iter().enumerate() {
            assert_eq!(req.op_index(), i);
            assert_eq!(req.op_label(), OP_LABELS[i]);
        }
        let mut labels: Vec<_> = OP_LABELS.to_vec();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), OP_LABELS.len(), "duplicate op label");
    }

    #[test]
    fn encode_update_many_matches_request_encode() {
        for values in [&[][..], &[1.5][..], &[f64::NAN, -0.0, f64::MAX][..]] {
            let direct = encode_update_many("latency", values);
            let via_enum =
                Request::UpdateMany { key: "latency".into(), values: values.to_vec() }.encode();
            assert_eq!(direct, via_enum);
        }
    }

    #[test]
    fn empty_body_is_unknown_opcode() {
        assert_eq!(Request::decode(&[]), Err(ProtoError::UnknownOpcode { found: 0 }));
        assert_eq!(Response::decode(&[]), Err(ProtoError::UnknownOpcode { found: 0 }));
    }

    #[test]
    fn absurd_count_is_rejected_before_allocation() {
        // UpdateMany claiming u64::MAX values with a 0-length key.
        let mut body = vec![0x02];
        put_str(&mut body, "");
        put_varint(&mut body, u64::MAX);
        assert!(matches!(
            Request::decode(&body),
            Err(ProtoError::Codec(CodecError::Truncated { .. }))
        ));
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut body = vec![0x07];
        put_bytes(&mut body, &[0xff, 0xfe]);
        assert_eq!(
            Request::decode(&body),
            Err(ProtoError::Codec(CodecError::BadUtf8 { offset: 2 }))
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = Request::Stats.encode();
        body.push(0);
        assert_eq!(
            Request::decode(&body),
            Err(ProtoError::Codec(CodecError::TrailingBytes { extra: 1 }))
        );
    }

    #[test]
    fn frame_io_roundtrip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), Some(Vec::new()));
        assert!(read_frame(&mut cursor, 64).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_typed_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &buf[..];
        match read_frame(&mut cursor, 1024) {
            Err(RecvError::Proto(ProtoError::FrameTooLarge { len, max })) => {
                assert_eq!(len, u32::MAX as u64);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn mid_frame_eof_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6); // prefix + 2 of 5 body bytes
        let mut cursor = &buf[..];
        assert!(matches!(read_frame(&mut cursor, 64), Err(RecvError::Io(_))));
        // Truncated prefix too.
        let mut cursor = &buf[..2];
        assert!(matches!(read_frame(&mut cursor, 64), Err(RecvError::Io(_))));
    }
}
