//! The TCP serving loop: accept, dispatch to the pool, answer frames.
//!
//! One [`ThreadPool`] worker owns each connection for its whole lifetime
//! (blocking request/response loop over buffered reads/writes), matching
//! the store's lock-striped design: concurrency comes from many
//! connections on many workers, and every request is one store call. The
//! paper's N-updaters/unbounded-queriers model maps onto writer
//! connections issuing `Update`/`UpdateMany` and reader connections
//! issuing `Query`/`MergedQuery` against the same [`SketchStore`].
//!
//! Writer connections are the paper's update threads end to end: every
//! `Update`/`UpdateMany` frame is one [`SketchStore::update_many`], which
//! writes a hot key through a writer borrowed from the key's engine
//! under only the **shared** stripe lock — N connections hammering one
//! hot key synchronize inside the sketch (Gather&Sort/DCAS), not on a
//! store mutex. The writer is given back, its batch visible, before the
//! call returns, so a connection holds no store state between frames.
//!
//! On a durable store, a mutating request is **acked only after its log
//! record is on disk** (under `FsyncPolicy::PerFrame`): the worker's
//! store call appends under the stripe lock, releases it, and then waits
//! on the store's group-commit watermark — so N writer connections share
//! one fsync per commit group instead of paying N sequential ones, and
//! readers on the same stripe never wait behind a disk flush. The group
//! knobs (`group_commit_delay`, the policy itself) ride
//! [`ServerConfig::store`].
//!
//! Shutdown is graceful and bounded: [`ServerHandle::shutdown`] stops the
//! accept loop, closes every live connection's socket (unblocking any
//! worker parked in a read), joins the pool, and finally syncs the
//! durable log's buffered tail — a clean stop loses no acked write under
//! *any* fsync policy.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qc_store::{SketchStore, StoreConfig};
use qc_telemetry::{Counter, EventKind, Gauge, LatencyRecorder, Registry};

use crate::pool::ThreadPool;
use crate::proto::{
    read_frame, write_frame, ErrorCode, RecvError, Request, Response, DEFAULT_MAX_FRAME_LEN,
    OP_LABELS,
};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connection-handling worker threads (each owns one live connection,
    /// so this is also the concurrent-connection cap).
    pub pool_threads: usize,
    /// Accepted connections that may queue for a free worker before the
    /// accept loop blocks (application-level accept backlog; beyond it,
    /// backpressure falls to the kernel listen queue).
    pub accept_backlog: usize,
    /// Per-frame body cap; larger frames are rejected before allocation.
    pub max_frame_len: usize,
    /// Configuration for the store [`Server::bind`] builds.
    pub store: StoreConfig,
    /// Interval between store cool-down sweeps
    /// ([`SketchStore::cool_down`]): each sweep demotes hot-tier keys that
    /// saw no updates for a full interval, reclaiming their concurrent
    /// buffers. With a durable store ([`ServerConfig::data_dir`]), each
    /// sweep also flushes pending log frames and writes a checkpoint,
    /// compacting the log behind it. `None` disables housekeeping.
    pub cool_down_interval: Option<Duration>,
    /// Requests whose server-side handling exceeds this duration emit a
    /// [`qc_telemetry::EventKind::SlowRequest`] event into the store's
    /// registry (the request still completes normally).
    pub slow_request_threshold: Duration,
    /// Durable data directory. `Some` makes [`Server::bind`] recover the
    /// store from disk **before** accepting connections (replaying the
    /// checkpoint and log tail) and log every mutation from then on; the
    /// housekeeping thread checkpoints on each sweep. Overrides
    /// `store.data_dir`. `None` (the default) leaves durability to
    /// whatever `store.data_dir` says — also `None` by default, a purely
    /// in-memory server.
    pub data_dir: Option<std::path::PathBuf>,
    /// UDP ingest front-end. `Some` makes [`Server::bind`] spawn a
    /// [`qc_ingest::IngestDaemon`] over the same store (its instruments
    /// land in the store's registry, so the `Metrics` frame covers it);
    /// read the bound datagram address back from
    /// [`ServerHandle::ingest_addr`]. `None` (the default) serves TCP
    /// only.
    pub ingest: Option<qc_ingest::IngestConfig>,
    /// Test hook: pretend every connection's registry registration fails
    /// (as a real `try_clone` failure under fd exhaustion would). An
    /// unregistered connection cannot be severed by `stop()`, so it must
    /// be closed on the spot — the shutdown regression suite pins that.
    #[doc(hidden)]
    pub fail_connection_registration: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            pool_threads: 8,
            accept_backlog: 64,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            store: StoreConfig::default(),
            cool_down_interval: Some(Duration::from_secs(30)),
            slow_request_threshold: Duration::from_millis(100),
            data_dir: None,
            ingest: None,
            fail_connection_registration: false,
        }
    }
}

/// Entry point: binds a listener and spawns the serving threads.
pub struct Server;

impl Server {
    /// Bind `addr` and serve a fresh store built from `cfg.store` — or,
    /// with [`ServerConfig::data_dir`] set, a store **recovered** from
    /// that directory before the listener accepts its first connection,
    /// so no request can ever observe (or write into) a half-replayed
    /// store. Recovery failures surface as the bind error.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let mut store_cfg = cfg.store.clone();
        if cfg.data_dir.is_some() {
            store_cfg.data_dir = cfg.data_dir.clone();
        }
        // Without a data directory `recover` is `SketchStore::new`.
        let (store, _report) = SketchStore::recover(store_cfg).map_err(std::io::Error::other)?;
        let store = Arc::new(store);
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Conns = Arc::new(Mutex::new(HashMap::new()));
        // All serving-layer instruments live in the *store's* registry, so
        // one `Metrics` frame (and one `render_text`) covers both layers.
        // A store built with `Registry::disabled()` therefore disables the
        // server's instruments too.
        let instruments =
            ServerInstruments::register(store.telemetry(), cfg.slow_request_threshold);
        let pool = Arc::new(ThreadPool::with_instruments(
            cfg.pool_threads,
            cfg.accept_backlog,
            "qc-conn",
            instruments.registry.gauge("server_pool_queue_depth"),
            instruments.registry.counter("server_pool_saturation"),
        ));
        // Housekeeping before the accept thread: once the accept loop runs
        // the server is externally reachable, and a spawn failure after
        // that point would return Err while leaking a live, unstoppable
        // server on the port. In this order each failure path can still
        // tear down everything it started.
        let housekeeping = match cfg.cool_down_interval {
            // On failure, plain `return Err` tears down cleanly: dropping
            // the last pool Arc joins the (idle) workers via Drop.
            Some(interval) => {
                Some(Housekeeping::spawn(Arc::clone(&store), interval, Arc::clone(&instruments))?)
            }
            None => None,
        };
        // The UDP front door opens before the TCP one for the same
        // reason housekeeping does: every failure path below can still
        // tear down what it started, and nothing is externally reachable
        // until the accept loop runs. (The daemon accepting datagrams a
        // moment before TCP accepts is harmless — both write into the
        // same fully-constructed store.)
        let ingest = match &cfg.ingest {
            Some(ingest_cfg) => {
                let spawned =
                    qc_ingest::IngestDaemon::spawn(Arc::clone(&store), ingest_cfg.clone());
                match spawned {
                    Ok(handle) => Some(handle),
                    Err(e) => {
                        if let Some(housekeeping) = housekeeping {
                            housekeeping.stop();
                        }
                        return Err(e);
                    }
                }
            }
            None => None,
        };
        let accept = {
            let store = Arc::clone(&store);
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let accept_pool = Arc::clone(&pool);
            let instruments = Arc::clone(&instruments);
            let opts = ConnOptions {
                max_frame_len: cfg.max_frame_len,
                fail_registration: cfg.fail_connection_registration,
            };
            let spawned = std::thread::Builder::new().name("qc-accept".into()).spawn(move || {
                accept_loop(&listener, &store, &shutdown, &conns, &accept_pool, &instruments, opts)
            });
            match spawned {
                Ok(handle) => handle,
                Err(e) => {
                    // Stop housekeeping explicitly; the pool tears itself
                    // down when its Arcs drop (the spawn closure holding
                    // the clone was dropped on failure).
                    if let Some(ingest) = ingest {
                        ingest.shutdown();
                    }
                    if let Some(housekeeping) = housekeeping {
                        housekeeping.stop();
                    }
                    return Err(e);
                }
            }
        };
        Ok(ServerHandle {
            local_addr,
            store,
            shutdown,
            conns,
            accept: Some(accept),
            pool: Some(pool),
            housekeeping,
            ingest,
        })
    }
}

/// Per-opcode instrument handles (one entry of
/// [`ServerInstruments::ops`], indexed by [`Request::op_index`]).
struct OpInstruments {
    /// `server_requests_{op}`: requests of this opcode served.
    requests: Counter,
    /// `server_request_bytes_{op}`: request body bytes of this opcode.
    bytes: Counter,
    /// `server_request_seconds_{op}`: handling latency, recorded into the
    /// store's own sketch engine (the self-sketching layer).
    latency: LatencyRecorder,
}

/// Every serving-layer instrument, registered once at bind time into the
/// store's [`Registry`] and shared (via `Arc`) by the accept loop, the
/// connection handlers, and the housekeeping thread. Handles are held,
/// never re-looked-up: the hot path touches only relaxed atomics and a
/// striped sketch.
struct ServerInstruments {
    registry: Arc<Registry>,
    /// Per-opcode triples, indexed by [`Request::op_index`].
    ops: Vec<OpInstruments>,
    /// `server_proto_errors`: malformed frames/bodies (each also emits a
    /// [`EventKind::ProtoError`] event with the peer address — satellite
    /// fix for the previously silent swallow in the connection loop).
    proto_errors: Counter,
    /// `server_io_errors`: connections dropped by transport failure.
    io_errors: Counter,
    /// `server_conns_accepted`: connections handed to the pool.
    conns_accepted: Counter,
    /// `server_conns_closed_eof`: clean client-side closes.
    conns_closed_eof: Counter,
    /// `server_conns_closed_error`: closes after an I/O or protocol error.
    conns_closed_error: Counter,
    /// `server_conns_closed_shutdown`: closes forced by server shutdown.
    conns_closed_shutdown: Counter,
    /// `server_active_connections`: currently served connections.
    active_connections: Gauge,
    /// `server_sweeps`: housekeeping cool-down sweeps completed.
    sweeps: Counter,
    /// `server_sweep_seconds`: sweep duration sketch.
    sweep_seconds: LatencyRecorder,
    /// Threshold above which a request emits a `SlowRequest` event.
    slow_threshold: Duration,
}

impl ServerInstruments {
    fn register(registry: &Arc<Registry>, slow_threshold: Duration) -> Arc<Self> {
        let ops = OP_LABELS
            .iter()
            .map(|label| OpInstruments {
                requests: registry.counter(&format!("server_requests_{label}")),
                bytes: registry.counter(&format!("server_request_bytes_{label}")),
                latency: registry.latency(&format!("server_request_seconds_{label}")),
            })
            .collect();
        Arc::new(ServerInstruments {
            registry: Arc::clone(registry),
            ops,
            proto_errors: registry.counter("server_proto_errors"),
            io_errors: registry.counter("server_io_errors"),
            conns_accepted: registry.counter("server_conns_accepted"),
            conns_closed_eof: registry.counter("server_conns_closed_eof"),
            conns_closed_error: registry.counter("server_conns_closed_error"),
            conns_closed_shutdown: registry.counter("server_conns_closed_shutdown"),
            active_connections: registry.gauge("server_active_connections"),
            sweeps: registry.counter("server_sweeps"),
            sweep_seconds: registry.latency("server_sweep_seconds"),
            slow_threshold,
        })
    }
}

/// The periodic store-maintenance thread: runs
/// [`SketchStore::cool_down`] every `interval` so idle hot-tier keys
/// demote and release their concurrent buffers (without it, any key that
/// ever crossed the promotion threshold would hold its Gather&Sort
/// footprint forever). Stopped promptly through a condvar on shutdown.
struct Housekeeping {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: JoinHandle<()>,
}

impl Housekeeping {
    fn spawn(
        store: Arc<SketchStore>,
        interval: Duration,
        instruments: Arc<ServerInstruments>,
    ) -> std::io::Result<Self> {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new().name("qc-housekeeping".into()).spawn(move || {
                let (lock, cvar) = &*stop;
                let mut stopped = lock.lock().unwrap();
                while !*stopped {
                    let (guard, timeout) = cvar.wait_timeout(stopped, interval).unwrap();
                    stopped = guard;
                    if timeout.timed_out() && !*stopped {
                        drop(stopped);
                        let start = Instant::now();
                        store.cool_down();
                        instruments.sweeps.incr();
                        instruments.sweep_seconds.record_duration(start.elapsed());
                        stopped = lock.lock().unwrap();
                    }
                }
            })?
        };
        Ok(Self { stop, thread })
    }

    fn stop(self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
        let _ = self.thread.join();
    }
}

type Conns = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// Per-connection serving parameters threaded from [`ServerConfig`]
/// through the accept loop.
#[derive(Clone, Copy)]
struct ConnOptions {
    max_frame_len: usize,
    fail_registration: bool,
}

/// A running server; dropping it (or calling
/// [`shutdown`](ServerHandle::shutdown)) stops it gracefully.
pub struct ServerHandle {
    local_addr: SocketAddr,
    store: Arc<SketchStore>,
    shutdown: Arc<AtomicBool>,
    conns: Conns,
    accept: Option<JoinHandle<()>>,
    pool: Option<Arc<ThreadPool>>,
    housekeeping: Option<Housekeeping>,
    ingest: Option<qc_ingest::IngestHandle>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The store this server answers from.
    pub fn store(&self) -> &Arc<SketchStore> {
        &self.store
    }

    /// The telemetry registry this server records into (the store's own
    /// registry — store and server instruments share one namespace, one
    /// `Metrics` frame, one [`Registry::render_text`] exposition).
    pub fn telemetry(&self) -> &Arc<Registry> {
        self.store.telemetry()
    }

    /// The UDP ingest daemon's bound address, when
    /// [`ServerConfig::ingest`] enabled one.
    pub fn ingest_addr(&self) -> Option<SocketAddr> {
        self.ingest.as_ref().map(|handle| handle.local_addr())
    }

    /// Graceful shutdown: stop accepting, close live connections, join
    /// every serving thread. In-flight requests finish; subsequent reads
    /// on client sockets see EOF.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Sever the UDP front door first: the ingest daemon stops
        // accepting datagrams, drains its already-accepted queue into the
        // store, and joins its threads — so everything the daemon ever
        // accepted is applied (or counted dropped) before the TCP side
        // (and with it, the last chance to query the store) goes away.
        // The daemon's own ordering contract guarantees the socket thread
        // is severed before the drain begins.
        if let Some(ingest) = self.ingest.take() {
            ingest.shutdown();
        }
        // Stop housekeeping next: a sweep holds stripe locks briefly, and
        // joining it here keeps shutdown deterministic.
        if let Some(housekeeping) = self.housekeeping.take() {
            housekeeping.stop();
        }
        // Close every live socket first so workers parked in read() return.
        // This also unwedges an accept loop blocked on a full backlog
        // queue: freed workers drain it, letting the loop reach accept().
        if let Ok(conns) = self.conns.lock() {
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // Unblock the accept loop with a dummy connection to ourselves.
        // A wildcard bind address (0.0.0.0 / ::) is not connectable on
        // every platform; dial the loopback of the same family instead.
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake_addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // The accept thread has exited, so we hold the last pool reference;
        // consume it to drain the queue and join the workers.
        if let Some(pool) = self.pool.take() {
            match Arc::try_unwrap(pool) {
                Ok(pool) => pool.shutdown(),
                Err(_) => unreachable!("accept loop joined above still holds the pool"),
            }
        }
        // Every writer has drained: flush the durable log's buffered
        // tail so a clean stop loses nothing under `Interval`/`Off`
        // (`PerFrame` acks were already durable; this is a no-op there).
        self.store.sync();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    store: &Arc<SketchStore>,
    shutdown: &Arc<AtomicBool>,
    conns: &Conns,
    pool: &Arc<ThreadPool>,
    instruments: &Arc<ServerInstruments>,
    opts: ConnOptions,
) {
    let mut next_id = 0u64;
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                // Transient accept failure (e.g. EMFILE under fd
                // exhaustion): back off briefly instead of hot-spinning,
                // giving workers a chance to close sockets and free fds.
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        if shutdown.load(Ordering::Relaxed) {
            // Covers the wake-up dummy connection from `stop`.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        // A reply larger than the 8 KiB `BufWriter` leaves in two segments;
        // under Nagle the second waits out the client's delayed ACK (~40 ms).
        if let Err(e) = stream.set_nodelay(true) {
            instruments.registry.event(EventKind::IoError, format!("peer={peer} set_nodelay: {e}"));
        }
        instruments.conns_accepted.incr();
        instruments.registry.event(EventKind::ConnOpen, format!("peer={peer}"));
        let id = next_id;
        next_id += 1;
        let store = Arc::clone(store);
        let shutdown = Arc::clone(shutdown);
        let conns = Arc::clone(conns);
        let instruments = Arc::clone(instruments);
        let enqueued = pool.execute(move || {
            handle_connection(stream, id, peer, &store, &shutdown, &conns, &instruments, opts);
        });
        if enqueued.is_err() {
            return;
        }
    }
}

/// Why a connection's serving loop ended — classified so connection
/// outcomes are countable (previously every exit path was silent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnOutcome {
    /// The client closed cleanly between frames.
    Eof,
    /// The transport failed (disconnect, reset, mid-frame EOF, or a
    /// failed response write).
    IoError,
    /// The peer violated framing; the server answered once and closed.
    ProtoError,
    /// Server shutdown severed the connection.
    Shutdown,
}

#[allow(clippy::too_many_arguments)] // one private call site, mirror of accept_loop's captures
fn handle_connection(
    stream: TcpStream,
    id: u64,
    peer: SocketAddr,
    store: &SketchStore,
    shutdown: &AtomicBool,
    conns: &Conns,
    instruments: &ServerInstruments,
    opts: ConnOptions,
) {
    instruments.active_connections.inc();
    // Register a clone so `stop` can sever the socket under a stuck read.
    // If registration fails (fd exhaustion breaking `try_clone`, a
    // poisoned registry), the connection MUST NOT be served: `stop()`
    // could never sever it, so a worker parked in `read()` would block
    // the pool join and wedge shutdown indefinitely. Close it and bail.
    let registered = !opts.fail_registration
        && match stream.try_clone() {
            Ok(clone) => match conns.lock() {
                Ok(mut map) => {
                    map.insert(id, clone);
                    true
                }
                Err(_) => false,
            },
            Err(_) => false,
        };
    let outcome = if registered {
        let outcome = serve_frames(&stream, peer, store, shutdown, instruments, opts.max_frame_len);
        let _ = stream.shutdown(Shutdown::Both);
        if let Ok(mut map) = conns.lock() {
            map.remove(&id);
        }
        outcome
    } else {
        let _ = stream.shutdown(Shutdown::Both);
        instruments.io_errors.incr();
        instruments.registry.event(EventKind::IoError, format!("peer={peer} registration failed"));
        ConnOutcome::IoError
    };
    match outcome {
        ConnOutcome::Eof => instruments.conns_closed_eof.incr(),
        ConnOutcome::IoError | ConnOutcome::ProtoError => instruments.conns_closed_error.incr(),
        ConnOutcome::Shutdown => instruments.conns_closed_shutdown.incr(),
    }
    instruments.active_connections.dec();
    instruments.registry.event(EventKind::ConnClose, format!("peer={peer} outcome={outcome:?}"));
}

fn serve_frames(
    stream: &TcpStream,
    peer: SocketAddr,
    store: &SketchStore,
    shutdown: &AtomicBool,
    instruments: &ServerInstruments,
    max: usize,
) -> ConnOutcome {
    // `&TcpStream` implements Read/Write, so buffering both directions
    // needs no extra fd duplication: two fds per connection total (the
    // stream itself plus the registry clone `stop` severs).
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    let mut reply = Vec::new();
    loop {
        if shutdown.load(Ordering::Relaxed) {
            break ConnOutcome::Shutdown;
        }
        let body = match read_frame(&mut reader, max) {
            Ok(Some(body)) => body,
            Ok(None) => break ConnOutcome::Eof, // client closed cleanly
            Err(RecvError::Io(e)) => {
                // Disconnects and shutdown-severed sockets land here too;
                // count them all — a reset storm and a deploy restart look
                // identical from inside, the event detail disambiguates.
                instruments.io_errors.incr();
                instruments.registry.event(EventKind::IoError, format!("peer={peer} {e}"));
                break if shutdown.load(Ordering::Relaxed) {
                    ConnOutcome::Shutdown
                } else {
                    ConnOutcome::IoError
                };
            }
            Err(RecvError::Proto(e)) => {
                // Framing itself is broken (oversized declaration): answer
                // once, then close — byte boundaries are untrustworthy.
                instruments.proto_errors.incr();
                instruments.registry.event(EventKind::ProtoError, format!("peer={peer} {e}"));
                let resp = Response::Error { code: ErrorCode::Proto, message: e.to_string() };
                let _ = write_frame(&mut writer, &resp.encode());
                let _ = writer.flush();
                break ConnOutcome::ProtoError;
            }
        };
        let response = match Request::decode(&body) {
            // A malformed *body* inside a well-delimited frame does not
            // desync the stream; answer the error and keep serving.
            Err(e) => {
                instruments.proto_errors.incr();
                instruments.registry.event(EventKind::ProtoError, format!("peer={peer} {e}"));
                Response::Error { code: ErrorCode::Proto, message: e.to_string() }
            }
            Ok(req) => {
                let op = &instruments.ops[req.op_index()];
                let label = req.op_label();
                op.requests.incr();
                op.bytes.add(body.len() as u64);
                let start = Instant::now();
                let response = execute(store, req, shutdown);
                let elapsed = start.elapsed();
                op.latency.record_duration(elapsed);
                if elapsed >= instruments.slow_threshold {
                    instruments.registry.event(
                        EventKind::SlowRequest,
                        format!("peer={peer} op={label} micros={}", elapsed.as_micros()),
                    );
                }
                response
            }
        };
        reply.clear();
        response.encode_into(&mut reply);
        if write_frame(&mut writer, &reply).is_err() || writer.flush().is_err() {
            instruments.io_errors.incr();
            instruments.registry.event(EventKind::IoError, format!("peer={peer} response write"));
            break ConnOutcome::IoError;
        }
    }
}

fn execute(store: &SketchStore, req: Request, shutdown: &AtomicBool) -> Response {
    if shutdown.load(Ordering::Relaxed) {
        return Response::Error {
            code: ErrorCode::Unavailable,
            message: "server shutting down".into(),
        };
    }
    match req {
        Request::Update { key, value } => {
            store.update_many(&key, &[value]);
            Response::Ok
        }
        Request::UpdateMany { key, values } => {
            store.update_many(&key, &values);
            Response::Ok
        }
        Request::Query { key, phi } => Response::MaybeValue(store.query(&key, phi)),
        Request::Rank { key, value } => Response::MaybeValue(store.rank(&key, value)),
        Request::MergedQuery { keys, phi } => Response::MaybeValue(store.merged_query(&keys, phi)),
        Request::Stats => Response::Stats(store.stats()),
        Request::Remove { key } => Response::Flag(store.remove(&key)),
        Request::Keys => Response::Keys(store.keys()),
        Request::Snapshot { key } => Response::MaybeFrame(store.snapshot_bytes(&key)),
        Request::Ingest { key, frame } => match store.ingest_bytes(&key, &frame) {
            Ok(n) => Response::Count(n),
            Err(e) => Response::Error { code: ErrorCode::Wire, message: e.to_string() },
        },
        Request::Metrics => Response::Metrics(store.telemetry_snapshot()),
        Request::UpdateAt { key, ts, values } => {
            store.update_at(&key, ts, &values);
            Response::Ok
        }
        Request::QueryRange { key, t0, t1, phi } => {
            Response::MaybeValue(store.query_range(&key, t0, t1, phi))
        }
        Request::MergedQueryRange { keys, t0, t1, phi } => {
            Response::MaybeValue(store.merged_query_range(&keys, t0, t1, phi))
        }
    }
}
