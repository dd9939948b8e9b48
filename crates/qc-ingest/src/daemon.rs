//! The ingest daemon: one never-blocking socket thread, a bounded queue,
//! N processor threads draining into the store's write path.
//!
//! ```text
//!   UDP socket ──recv──▶ socket thread ──try_push──▶ BoundedQueue
//!                          │   ▲                        │ pop
//!                          │   └─ CircuitBreaker        ▼
//!                          ▼                      processor × N
//!                     shed / count                 decode → records
//!                                                      │
//!                                                      ▼
//!                                          SketchStore::update_many
//! ```
//!
//! The socket thread does nothing that can block: `recv` (with a short
//! timeout so shutdown is bounded even if the wake datagram is lost),
//! an oversize check, a breaker decision, and a `try_push` that returns
//! immediately when the queue is full. All sketch work — decode, the
//! shared-lock write, Gather&Sort — happens on the processor threads, which may
//! fall behind; when they do, datagrams are **dropped and counted**,
//! never buffered unboundedly (the queue is the only buffer, and it is
//! bounded). This is the small-update-time regime of streaming ingest:
//! per-packet cost on the receive path is O(1) and independent of the
//! sketch.
//!
//! # Delivery and accounting
//!
//! At-most-once: a datagram is applied whole or dropped whole. Every
//! received datagram is classified exactly once, so at quiescence
//!
//! ```text
//! ingest_datagrams == ingest_applied_datagrams
//!                   + ingest_dropped_queue      (full queue + circuit shed)
//!                   + ingest_dropped_decode     (failed the codec)
//!                   + ingest_dropped_oversized  (longer than the cap)
//! ```
//!
//! and `ingest_applied_values` equals the weight the store gained through
//! this daemon. The e2e soak suite asserts both identities under a storm.
//!
//! Sequenced (version-2) datagrams additionally drive per-peer gap
//! accounting on the socket thread: a jump in a peer's sequence number
//! adds the gap to `ingest_seq_gaps` (datagrams the sender shipped that
//! never reached `recv` — kernel-buffer or network drops), and a sequence
//! below the expected next one counts as `ingest_seq_reordered` (it was
//! already provisionally counted as a gap). `seq_gaps − seq_reordered`
//! is therefore the best lower bound on silent pre-socket loss.
//!
//! # Shutdown ordering
//!
//! [`IngestHandle::shutdown`] severs the **socket thread first** (flag +
//! wake datagram + recv timeout backstop) and joins it before closing the
//! queue. Only then does the drain begin: processors pop what was already
//! accepted, apply it, and exit on the closed-and-empty queue. No
//! datagram can be accepted after the drain begins, so "drained" is a
//! stable state — the regression suite alongside `tests/shutdown.rs`
//! pins this ordering.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qc_store::SketchStore;
use qc_telemetry::{Counter, EventKind, Gauge, LatencyRecorder, Registry};

use crate::breaker::{Admit, BreakerConfig, CircuitBreaker, Transition};
use crate::datagram::{decode_datagram, peek_seq, MAX_DATAGRAM_LEN};
use crate::queue::{BoundedQueue, PushError};

/// Ingest daemon construction parameters.
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// UDP bind address (port 0 picks an ephemeral port; read it back
    /// from [`IngestHandle::local_addr`]).
    pub bind: String,
    /// Processor threads draining the queue into the store.
    pub processors: usize,
    /// Queue capacity in datagrams — the only buffer between the socket
    /// and the sketches. Beyond it, datagrams drop (counted).
    pub queue_capacity: usize,
    /// Datagrams longer than this are dropped as oversized (counted).
    /// Capped at the UDP maximum of [`MAX_DATAGRAM_LEN`].
    pub max_datagram_len: usize,
    /// Circuit-breaker tuning for sustained overload.
    pub breaker: BreakerConfig,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            bind: "127.0.0.1:0".to_string(),
            processors: 2,
            queue_capacity: 1024,
            max_datagram_len: MAX_DATAGRAM_LEN,
            breaker: BreakerConfig::default(),
        }
    }
}

impl IngestConfig {
    /// Set the bind address.
    pub fn bind(mut self, addr: impl Into<String>) -> Self {
        self.bind = addr.into();
        self
    }

    /// Set the processor thread count (clamped to ≥ 1).
    pub fn processors(mut self, n: usize) -> Self {
        self.processors = n.max(1);
        self
    }

    /// Set the queue capacity in datagrams (clamped to ≥ 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Set the per-datagram size cap.
    pub fn max_datagram_len(mut self, n: usize) -> Self {
        self.max_datagram_len = n.clamp(1, MAX_DATAGRAM_LEN);
        self
    }

    /// Set the circuit-breaker tuning.
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }
}

/// Every ingest instrument, registered once at spawn into the store's
/// registry (one namespace with the store and serving instruments, one
/// `Metrics` frame).
struct IngestInstruments {
    registry: Arc<Registry>,
    /// `ingest_datagrams`: datagrams received (all later classifications
    /// partition this count).
    datagrams: Counter,
    /// `ingest_applied_datagrams`: datagrams fully applied to the store.
    applied_datagrams: Counter,
    /// `ingest_applied_records`: records inside applied datagrams.
    applied_records: Counter,
    /// `ingest_applied_values`: values (stream weight) applied.
    applied_values: Counter,
    /// `ingest_dropped_queue`: dropped because the queue was full or the
    /// circuit was open (the shed subset is counted again below).
    dropped_queue: Counter,
    /// `ingest_shed`: subset of `dropped_queue` shed on arrival while the
    /// circuit was open (never offered to the queue).
    shed: Counter,
    /// `ingest_dropped_decode`: failed [`decode_datagram`].
    dropped_decode: Counter,
    /// `ingest_dropped_oversized`: longer than the configured cap.
    dropped_oversized: Counter,
    /// `ingest_seq_gaps`: total sequence-number gap across peers —
    /// datagrams a sequenced sender shipped that never reached `recv`
    /// (plus reorderings, provisionally; see `seq_reordered`).
    seq_gaps: Counter,
    /// `ingest_seq_reordered`: sequenced datagrams that arrived with a
    /// sequence below the peer's expected next — each one retroactively
    /// converts one counted gap into a reordering.
    seq_reordered: Counter,
    /// `ingest_circuit_opens`: circuit-open transitions.
    circuit_opens: Counter,
    /// `ingest_queue_depth`: datagrams waiting for a processor.
    queue_depth: Gauge,
    /// `ingest_circuit_open`: 1 while the circuit is open.
    circuit_open: Gauge,
    /// `ingest_batch_seconds`: per-datagram processor latency (decode +
    /// apply), self-sketched into the store's own histogram engine.
    batch_seconds: LatencyRecorder,
}

impl IngestInstruments {
    fn register(registry: &Arc<Registry>) -> Arc<Self> {
        Arc::new(IngestInstruments {
            registry: Arc::clone(registry),
            datagrams: registry.counter("ingest_datagrams"),
            applied_datagrams: registry.counter("ingest_applied_datagrams"),
            applied_records: registry.counter("ingest_applied_records"),
            applied_values: registry.counter("ingest_applied_values"),
            dropped_queue: registry.counter("ingest_dropped_queue"),
            shed: registry.counter("ingest_shed"),
            dropped_decode: registry.counter("ingest_dropped_decode"),
            dropped_oversized: registry.counter("ingest_dropped_oversized"),
            seq_gaps: registry.counter("ingest_seq_gaps"),
            seq_reordered: registry.counter("ingest_seq_reordered"),
            circuit_opens: registry.counter("ingest_circuit_opens"),
            queue_depth: registry.gauge("ingest_queue_depth"),
            circuit_open: registry.gauge("ingest_circuit_open"),
            batch_seconds: registry.latency("ingest_batch_seconds"),
        })
    }
}

/// Entry point: binds the socket and spawns the ingest threads.
pub struct IngestDaemon;

impl IngestDaemon {
    /// Bind `cfg.bind` and start ingesting into `store`. The daemon
    /// registers its instruments in the store's telemetry registry and
    /// runs until [`IngestHandle::shutdown`] (or drop).
    pub fn spawn(store: Arc<SketchStore>, cfg: IngestConfig) -> std::io::Result<IngestHandle> {
        let socket = UdpSocket::bind(&*cfg.bind)?;
        let local_addr = socket.local_addr()?;
        // Bounded shutdown even if the wake datagram is lost: recv wakes
        // on this cadence and rechecks the flag.
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let max_len = cfg.max_datagram_len.clamp(1, MAX_DATAGRAM_LEN);
        let queue: Arc<BoundedQueue<Vec<u8>>> = Arc::new(BoundedQueue::new(cfg.queue_capacity));
        let shutdown = Arc::new(AtomicBool::new(false));
        let instruments = IngestInstruments::register(store.telemetry());
        let mut processors = Vec::with_capacity(cfg.processors.max(1));
        for i in 0..cfg.processors.max(1) {
            let queue = Arc::clone(&queue);
            let store = Arc::clone(&store);
            let instruments = Arc::clone(&instruments);
            let handle = std::thread::Builder::new()
                .name(format!("qc-ingest-proc-{i}"))
                .spawn(move || processor_loop(&queue, &store, &instruments))?;
            processors.push(handle);
        }
        let socket_thread = {
            let socket_queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            let instruments = Arc::clone(&instruments);
            let breaker = CircuitBreaker::new(cfg.breaker);
            let spawned =
                std::thread::Builder::new().name("qc-ingest-socket".into()).spawn(move || {
                    socket_loop(&socket, &socket_queue, &shutdown, &instruments, breaker, max_len)
                });
            match spawned {
                Ok(handle) => handle,
                Err(e) => {
                    // Tear down the processors we already started.
                    queue.close();
                    for p in processors {
                        let _ = p.join();
                    }
                    return Err(e);
                }
            }
        };
        Ok(IngestHandle {
            local_addr,
            shutdown,
            queue,
            socket_thread: Some(socket_thread),
            processors,
        })
    }
}

/// A running ingest daemon; dropping it (or calling
/// [`shutdown`](IngestHandle::shutdown)) stops it gracefully: intake is
/// severed first, then the already-accepted queue drains into the store.
pub struct IngestHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<BoundedQueue<Vec<u8>>>,
    socket_thread: Option<JoinHandle<()>>,
    processors: Vec<JoinHandle<()>>,
}

impl IngestHandle {
    /// The bound UDP address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown. Ordering contract (pinned by the regression
    /// suite): **(1)** the socket thread is severed and joined — from
    /// this point no datagram is accepted; **(2)** the queue closes and
    /// the processors drain every datagram accepted before the cut-off,
    /// applying or counting each one; **(3)** the processors are joined.
    /// After this returns, the accounting identity in the module docs
    /// holds exactly and no daemon thread remains.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // (1) Sever intake. The flag is set; wake the socket thread
        // promptly with a dummy datagram (the recv timeout is the
        // backstop if the kernel drops it).
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let wake_bind: &str = if wake_addr.is_ipv4() { "127.0.0.1:0" } else { "[::1]:0" };
        if let Ok(sock) = UdpSocket::bind(wake_bind) {
            let _ = sock.send_to(&[], wake_addr);
        }
        if let Some(handle) = self.socket_thread.take() {
            let _ = handle.join();
        }
        // (2) Intake is severed; begin the drain.
        self.queue.close();
        // (3) Processors apply the remainder and exit.
        for handle in self.processors.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for IngestHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn socket_loop(
    socket: &UdpSocket,
    queue: &BoundedQueue<Vec<u8>>,
    shutdown: &AtomicBool,
    instruments: &IngestInstruments,
    mut breaker: CircuitBreaker,
    max_len: usize,
) {
    // One byte past the cap: a recv that fills the whole buffer was
    // (possibly) kernel-truncated, and anything longer than `max_len` is
    // oversized either way.
    let mut buf = vec![0u8; (max_len + 1).min(MAX_DATAGRAM_LEN + 1)];
    // Tracks whether we are inside an overload episode, so the Overload
    // event fires once per episode instead of once per dropped datagram.
    let mut in_overload = false;
    // Per-peer expected next sequence number for version-2 senders.
    // Entries stay for the socket thread's lifetime — each is 8 bytes per
    // distinct sender address, and the map is touched O(1) per datagram.
    let mut expected_seq: HashMap<SocketAddr, u64> = HashMap::new();
    loop {
        let (len, peer) = match socket.recv_from(&mut buf) {
            Ok((len, peer)) => (len, peer),
            Err(_) => {
                // Timeout, EINTR, or a transient socket error: recheck the
                // flag and keep serving.
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::Relaxed) {
            // Covers the wake datagram from `stop` — not counted.
            return;
        }
        instruments.datagrams.incr();
        // Gap accounting runs on everything that reached recv — including
        // datagrams dropped below — because the sequence measures what was
        // *delivered to us*, not what we went on to accept.
        if let Some(seq) = peek_seq(&buf[..len]) {
            match expected_seq.entry(peer) {
                std::collections::hash_map::Entry::Occupied(mut slot) => {
                    let expected = *slot.get();
                    if seq >= expected {
                        instruments.seq_gaps.add(seq - expected);
                        slot.insert(seq.wrapping_add(1));
                    } else {
                        // Late arrival of something already counted as a
                        // gap; the expected cursor stays put.
                        instruments.seq_reordered.incr();
                    }
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    // First sighting of this peer establishes its baseline;
                    // whatever it sent before we were listening is not loss.
                    slot.insert(seq.wrapping_add(1));
                }
            }
        }
        if len > max_len {
            instruments.dropped_oversized.incr();
            continue;
        }
        let now = Instant::now();
        match breaker.admit(now) {
            Admit::Shed => {
                instruments.dropped_queue.incr();
                instruments.shed.incr();
            }
            Admit::Try => match queue.try_push(buf[..len].to_vec()) {
                Ok(()) => {
                    instruments.queue_depth.inc();
                    if let Some(Transition::Closed) = breaker.on_enqueued() {
                        instruments.circuit_open.set(0);
                        instruments.registry.event(EventKind::CircuitClose, "probe accepted");
                    }
                    in_overload = false;
                }
                Err(PushError::Full) => {
                    instruments.dropped_queue.incr();
                    if !in_overload {
                        in_overload = true;
                        instruments.registry.event(
                            EventKind::Overload,
                            format!("queue full at capacity {}", queue.capacity()),
                        );
                    }
                    if let Some(Transition::Opened(backoff)) = breaker.on_queue_full(now) {
                        instruments.circuit_opens.incr();
                        instruments.circuit_open.set(1);
                        instruments.registry.event(
                            EventKind::CircuitOpen,
                            format!("backoff_micros={}", backoff.as_micros()),
                        );
                    }
                }
                // The queue only closes after this thread is joined; if it
                // happens anyway (spawn-failure teardown), stop intake.
                Err(PushError::Closed) => return,
            },
        }
    }
}

fn processor_loop(
    queue: &BoundedQueue<Vec<u8>>,
    store: &SketchStore,
    instruments: &IngestInstruments,
) {
    // Each record is one store write, like a TCP frame: a hot key rides
    // the shared-lock path through the hot engine's writer. On a durable store
    // each write blocks (lock free) until its log record is
    // group-committed: all processors draining concurrently share fsyncs
    // through the store's commit sequencer, so durable ingest throughput
    // scales with group size rather than paying one disk flush per
    // drained batch.
    while let Some(datagram) = queue.pop() {
        instruments.queue_depth.dec();
        let start = Instant::now();
        match decode_datagram(&datagram) {
            Err(e) => {
                instruments.dropped_decode.incr();
                instruments.registry.event(EventKind::ProtoError, format!("ingest {e}"));
            }
            Ok(records) => {
                let mut values = 0u64;
                for rec in &records {
                    store.update_many(&rec.key, &rec.values);
                    values += rec.values.len() as u64;
                }
                // Applied counters move only after every record landed, so
                // a mid-flight sample never over-reports applied weight.
                instruments.applied_datagrams.incr();
                instruments.applied_records.add(records.len() as u64);
                instruments.applied_values.add(values);
            }
        }
        instruments.batch_seconds.record_duration(start.elapsed());
    }
}
