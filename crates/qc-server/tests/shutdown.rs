//! Shutdown regression suite for connection-registry failures and for
//! the UDP ingest daemon's sever-before-drain ordering.
//!
//! `stop()` severs live connections through the registry; a connection
//! whose registration failed (e.g. `try_clone` under fd exhaustion) can
//! never be severed that way. Before the fix, `handle_connection` served
//! such a connection anyway: a pool worker parked in `read()` survived
//! shutdown's socket sweep, and `pool.shutdown()` joined forever. The fix
//! closes the socket and bails the moment registration fails; these tests
//! pin both the prompt close and the bounded shutdown.
//!
//! The ingest tests pin the daemon's shutdown contract: the socket thread
//! is severed *before* the processor channel closes, so everything the
//! daemon accepted is drained into the store (conservation holds at
//! rest), and nothing that arrives after the sever is ever accepted —
//! the counters are frozen the moment `shutdown()` returns.

use std::io::Read;
use std::net::{TcpStream, UdpSocket};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use qc_ingest::datagram::{encode_datagram, Record};
use qc_server::{IngestConfig, IngestDaemon, Server, ServerConfig};
use qc_store::{SketchStore, StoreConfig};

fn config(fail_registration: bool) -> ServerConfig {
    ServerConfig {
        pool_threads: 2,
        accept_backlog: 4,
        cool_down_interval: None,
        fail_connection_registration: fail_registration,
        ..ServerConfig::default()
    }
}

/// An unregistered connection is closed immediately instead of being
/// served: the client sees EOF without sending a byte.
#[test]
fn unregistered_connection_is_closed_immediately() {
    let handle = Server::bind("127.0.0.1:0", config(true)).expect("bind");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 1];
    match stream.read(&mut buf) {
        Ok(0) => {} // EOF: the server closed the unregistered connection
        Ok(n) => panic!("unexpected {n} bytes from a connection that must be closed"),
        Err(e) => panic!("expected EOF, got read error {e} (worker parked in serve loop?)"),
    }
    handle.shutdown();
}

/// Shutdown completes within a bounded time even when a connection was
/// accepted but never made it into the registry. Run under a watchdog:
/// pre-fix this joined forever on the worker parked in `read()`.
#[test]
fn shutdown_is_bounded_with_unregistered_connection() {
    let handle = Server::bind("127.0.0.1:0", config(true)).expect("bind");
    let addr = handle.local_addr();
    // Open (and keep open) a connection the server cannot sever through
    // its registry; never send anything, so a served connection would
    // leave a worker blocked in read().
    let stream = TcpStream::connect(addr).expect("connect");
    // Give the pool a beat to dequeue the connection before shutting down.
    std::thread::sleep(Duration::from_millis(100));

    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown wedged: unregistered connection blocked the pool join");
    drop(stream);
}

/// Control: with registration working (the default), a silent open
/// connection is severed by shutdown's registry sweep — same bound.
#[test]
fn shutdown_is_bounded_with_registered_idle_connection() {
    let handle = Server::bind("127.0.0.1:0", config(false)).expect("bind");
    let addr = handle.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));

    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx.recv_timeout(Duration::from_secs(60)).expect("shutdown wedged on idle connection");
    // The severed socket reads EOF (or a reset) promptly.
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 1];
    let _ = stream.read(&mut buf);
}

fn ingest_counters(store: &SketchStore) -> [u64; 5] {
    let snap = store.telemetry_snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    [
        c("ingest_datagrams"),
        c("ingest_applied_datagrams"),
        c("ingest_dropped_queue"),
        c("ingest_dropped_decode"),
        c("ingest_dropped_oversized"),
    ]
}

/// The daemon's shutdown ordering: everything accepted before the sever
/// is drained into the store (exact conservation at rest), and datagrams
/// arriving after `shutdown()` returns are never accepted — the socket
/// was severed *before* the processor channel closed, so the counters
/// are frozen.
#[test]
fn ingest_shutdown_drains_accepted_then_refuses_late_datagrams() {
    const SENT: usize = 200;
    const VALUES: usize = 8;
    let store = Arc::new(SketchStore::new(StoreConfig::default()));
    let daemon = IngestDaemon::spawn(
        Arc::clone(&store),
        IngestConfig::default().processors(2).queue_capacity(64),
    )
    .expect("spawn daemon");
    let addr = daemon.local_addr();

    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
    socket.connect(addr).expect("connect sender");
    let bytes = encode_datagram(&[Record {
        key: "drain".into(),
        values: (0..VALUES).map(|v| v as f64).collect(),
    }]);
    for _ in 0..SENT {
        socket.send(&bytes).expect("send");
        // Paced, so the kernel rarely drops any; the checks below hold
        // for whatever it delivers.
        std::thread::sleep(Duration::from_micros(300));
    }

    // Bounded shutdown under a watchdog: a wedged socket thread (the
    // pre-ordering bug) would park here forever.
    let (done_tx, done_rx) = mpsc::channel();
    let store_for_join = Arc::clone(&store);
    std::thread::spawn(move || {
        daemon.shutdown();
        let _ = done_tx.send(ingest_counters(&store_for_join));
    });
    let at_rest = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("ingest shutdown wedged: socket thread not severed before channel close");

    // Drained, not discarded: the conservation identity holds exactly at
    // rest (a queue closed before draining would lose datagrams uncounted),
    // and every applied datagram's values are in the store. Loopback UDP
    // may still lose a datagram in the kernel, so `received` is bounded,
    // not pinned.
    let [received, applied, ..] = at_rest;
    assert!(0 < received && received <= SENT as u64, "daemon received {received} of {SENT}");
    assert_eq!(received, applied + at_rest[2] + at_rest[3] + at_rest[4]);
    let stats = store.stats();
    assert_eq!(stats.updates, applied * VALUES as u64, "store weight != applied values");

    // Late datagrams are refused, not silently absorbed: the counters do
    // not move after shutdown() returned.
    for _ in 0..50 {
        let _ = socket.send(&bytes); // may error (port closed); either is fine
    }
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        ingest_counters(&store),
        at_rest,
        "counters moved after shutdown: a late datagram was accepted"
    );
    assert_eq!(store.stats().updates, applied * VALUES as u64);
}

/// Server-integrated version of the same bound: `ServerHandle::shutdown`
/// severs the ingest daemon first, and completes in bounded time while a
/// sender is still firing datagrams at the UDP port.
#[test]
fn server_shutdown_with_active_ingest_is_bounded() {
    let cfg = ServerConfig {
        ingest: Some(IngestConfig::default().processors(2).queue_capacity(256)),
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let udp_addr = handle.ingest_addr().expect("ingest enabled");

    // A sender that keeps firing straight through the shutdown.
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let sender = std::thread::spawn(move || {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        socket.connect(udp_addr).expect("connect sender");
        let bytes = encode_datagram(&[Record { key: "storm".into(), values: vec![1.0, 2.0, 3.0] }]);
        while stop_rx.try_recv().is_err() {
            let _ = socket.send(&bytes);
        }
    });
    std::thread::sleep(Duration::from_millis(100));

    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("server shutdown wedged while ingest was under fire");
    let _ = stop_tx.send(());
    sender.join().expect("sender panicked");
}
