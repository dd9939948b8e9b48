//! A small blocking client for the serving protocol.
//!
//! One [`Client`] wraps one TCP connection with buffered framing; it is
//! deliberately `!Sync` (methods take `&mut self`) — open one client per
//! thread, exactly like the sketch's own per-thread [`quancurrent::Updater`]
//! discipline. Used by the examples, the benchmarks, and the integration
//! tests.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};

use qc_common::summary::WeightedSummary;
use qc_store::wire::{decode_summary, WireError};
use qc_store::StoreStats;
use qc_telemetry::MetricsSnapshot;

use crate::proto::{
    read_frame, write_frame, ErrorCode, ProtoError, RecvError, Request, Response,
    DEFAULT_MAX_FRAME_LEN,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (including the server closing mid-exchange).
    Io(std::io::Error),
    /// The server sent bytes the protocol rejects.
    Proto(ProtoError),
    /// The server answered with [`Response::Error`].
    Remote {
        /// Failure category reported by the server.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with a well-formed response of the wrong kind
    /// for the request (protocol version drift or a server bug).
    UnexpectedResponse {
        /// What the issued request expects.
        expected: &'static str,
    },
    /// A snapshot frame failed summary decoding client-side.
    Wire(WireError),
    /// An earlier framing violation desynchronized this connection; it
    /// is closed and every further call fails with this error. Reconnect.
    Poisoned,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::UnexpectedResponse { expected } => {
                write!(f, "unexpected response kind (expected {expected})")
            }
            ClientError::Wire(e) => write!(f, "snapshot frame invalid: {e}"),
            ClientError::Poisoned => {
                write!(f, "connection desynchronized by an earlier framing error; reconnect")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Io(e) => ClientError::Io(e),
            RecvError::Proto(e) => ClientError::Proto(e),
        }
    }
}

/// A blocking connection to a `qc-server`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame_len: usize,
    /// Set when a framing-level error leaves the byte stream out of sync
    /// (e.g. an over-cap frame whose body was never consumed): responses
    /// after that point would be garbage, so the connection is condemned.
    poisoned: bool,
}

impl Client {
    /// Connect with the default frame cap.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        Self::connect_with_max_frame(addr, DEFAULT_MAX_FRAME_LEN)
    }

    /// Connect, capping response frames at `max_frame_len` bytes.
    fn connect_with_max_frame<A: ToSocketAddrs>(
        addr: A,
        max_frame_len: usize,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(Client { reader, writer, max_frame_len, poisoned: false })
    }

    /// Issue one request and read its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.exchange(&req.encode())
    }

    /// Send a pre-encoded body, then receive and decode the response.
    fn exchange(&mut self, body: &[u8]) -> Result<Response, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        write_frame(&mut self.writer, body)?;
        self.writer.flush()?;
        match read_frame(&mut self.reader, self.max_frame_len) {
            Ok(Some(body)) => Response::decode(&body).map_err(ClientError::Proto),
            Ok(None) => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Err(RecvError::Io(e)) => Err(ClientError::Io(e)),
            Err(RecvError::Proto(e)) => {
                // Framing violation: the unread body is still in the pipe,
                // so the stream can never resynchronize. Condemn it.
                self.poisoned = true;
                let _ = self.writer.get_ref().shutdown(Shutdown::Both);
                Err(ClientError::Proto(e))
            }
        }
    }

    fn expect_ok(&mut self, req: &Request) -> Result<(), ClientError> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            other => unexpected(other, "Ok"),
        }
    }

    /// Feed one value into `key`'s stream.
    pub fn update(&mut self, key: &str, value: f64) -> Result<(), ClientError> {
        self.expect_ok(&Request::Update { key: key.into(), value })
    }

    /// Feed a batch of values into `key`'s stream in one round-trip.
    /// Encodes straight from the slice — no intermediate copy on the
    /// ingest hot path.
    pub fn update_many(&mut self, key: &str, values: &[f64]) -> Result<(), ClientError> {
        match self.exchange(&crate::proto::encode_update_many(key, values))? {
            Response::Ok => Ok(()),
            other => unexpected(other, "Ok"),
        }
    }

    /// Feed a batch of values stamped at event time `ts_ms` into `key`'s
    /// stream. On a windowed server the batch lands in the window covering
    /// `ts_ms` (rolling the active window forward, or taking the late path
    /// within the lateness bound); an unwindowed server treats this as
    /// [`Client::update_many`].
    pub fn update_at(&mut self, key: &str, ts_ms: u64, values: &[f64]) -> Result<(), ClientError> {
        self.expect_ok(&Request::UpdateAt { key: key.into(), ts: ts_ms, values: values.to_vec() })
    }

    /// φ-quantile estimate for `key` (`None`: absent or empty key).
    pub fn query(&mut self, key: &str, phi: f64) -> Result<Option<f64>, ClientError> {
        match self.call(&Request::Query { key: key.into(), phi })? {
            Response::MaybeValue(v) => Ok(v),
            other => unexpected(other, "MaybeValue"),
        }
    }

    /// φ-quantile estimate for `key` over event-time range `[t0_ms, t1_ms)`
    /// (`None`: absent key or no weight in the range). Sealed windows
    /// overlapping the range contribute whole — window-width granularity,
    /// exactly like [`qc_store::SketchStore::query_range`].
    pub fn query_range(
        &mut self,
        key: &str,
        t0_ms: u64,
        t1_ms: u64,
        phi: f64,
    ) -> Result<Option<f64>, ClientError> {
        match self.call(&Request::QueryRange { key: key.into(), t0: t0_ms, t1: t1_ms, phi })? {
            Response::MaybeValue(v) => Ok(v),
            other => unexpected(other, "MaybeValue"),
        }
    }

    /// Normalized rank of `value` in `key`'s stream.
    pub fn rank(&mut self, key: &str, value: f64) -> Result<Option<f64>, ClientError> {
        match self.call(&Request::Rank { key: key.into(), value })? {
            Response::MaybeValue(v) => Ok(v),
            other => unexpected(other, "MaybeValue"),
        }
    }

    /// φ-quantile over the union of `keys`.
    pub fn merged_query<K: AsRef<str>>(
        &mut self,
        keys: &[K],
        phi: f64,
    ) -> Result<Option<f64>, ClientError> {
        let keys = keys.iter().map(|k| k.as_ref().to_owned()).collect();
        match self.call(&Request::MergedQuery { keys, phi })? {
            Response::MaybeValue(v) => Ok(v),
            other => unexpected(other, "MaybeValue"),
        }
    }

    /// φ-quantile over the union of `keys` restricted to event-time range
    /// `[t0_ms, t1_ms)` — same window-width granularity as
    /// [`Client::query_range`], merged across keys server-side.
    pub fn merged_query_range<K: AsRef<str>>(
        &mut self,
        keys: &[K],
        t0_ms: u64,
        t1_ms: u64,
        phi: f64,
    ) -> Result<Option<f64>, ClientError> {
        let keys = keys.iter().map(|k| k.as_ref().to_owned()).collect();
        match self.call(&Request::MergedQueryRange { keys, t0: t0_ms, t1: t1_ms, phi })? {
            Response::MaybeValue(v) => Ok(v),
            other => unexpected(other, "MaybeValue"),
        }
    }

    /// Store-wide statistics.
    pub fn stats(&mut self) -> Result<StoreStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => unexpected(other, "Stats"),
        }
    }

    /// The server's telemetry snapshot: counters, gauges, and latency
    /// summaries (each latency is a mergeable [`WeightedSummary`] built by
    /// the server's own sketch engine — see
    /// [`MetricsSnapshot::quantile`]). Snapshots from several servers
    /// federate with [`qc_store::merge_summaries`].
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(snap) => Ok(snap),
            other => unexpected(other, "Metrics"),
        }
    }

    /// Drop `key`; returns whether it existed.
    pub fn remove(&mut self, key: &str) -> Result<bool, ClientError> {
        match self.call(&Request::Remove { key: key.into() })? {
            Response::Flag(b) => Ok(b),
            other => unexpected(other, "Flag"),
        }
    }

    /// All resident keys (unordered).
    pub fn keys(&mut self) -> Result<Vec<String>, ClientError> {
        match self.call(&Request::Keys)? {
            Response::Keys(keys) => Ok(keys),
            other => unexpected(other, "Keys"),
        }
    }

    /// `key`'s resident summary as raw wire bytes (`None`: absent key).
    pub fn snapshot_bytes(&mut self, key: &str) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(&Request::Snapshot { key: key.into() })? {
            Response::MaybeFrame(f) => Ok(f),
            other => unexpected(other, "MaybeFrame"),
        }
    }

    /// `key`'s resident summary, decoded (`None`: absent key).
    pub fn snapshot_summary(&mut self, key: &str) -> Result<Option<WeightedSummary>, ClientError> {
        match self.snapshot_bytes(key)? {
            None => Ok(None),
            Some(frame) => decode_summary(&frame).map(Some).map_err(ClientError::Wire),
        }
    }

    /// Merge a summary wire frame into `key`; returns the ingested stream
    /// length. A frame the store rejects surfaces as
    /// [`ClientError::Remote`] with [`ErrorCode::Wire`].
    pub fn ingest_bytes(&mut self, key: &str, frame: &[u8]) -> Result<u64, ClientError> {
        match self.call(&Request::Ingest { key: key.into(), frame: frame.to_vec() })? {
            Response::Count(n) => Ok(n),
            other => unexpected(other, "Count"),
        }
    }

    /// Close the connection (also happens on drop).
    pub fn shutdown(self) {
        let _ = self.writer.get_ref().shutdown(Shutdown::Both);
    }
}

fn unexpected<T>(resp: Response, expected: &'static str) -> Result<T, ClientError> {
    match resp {
        Response::Error { code, message } => Err(ClientError::Remote { code, message }),
        _ => Err(ClientError::UnexpectedResponse { expected }),
    }
}
