//! Concurrent soak: a real server, N writer clients and M query clients
//! over disjoint *and* colliding keys, all over actual sockets.
//!
//! Assertions, in order of strength:
//!
//! 1. **Weight conservation** — after quiescence, the server's
//!    `stream_len` equals the exact number of values sent, end to end
//!    through the protocol (no element lost in framing, batching, stripe
//!    locking, or summary composition).
//! 2. **Accuracy** — final quantiles per key and over the union match the
//!    exact oracle within the combined ε budget (sketch error + merge
//!    compaction error; see `qc-store`'s merge-equivalence test for the
//!    budget derivation).
//! 3. **Relaxation** — mid-run snapshots respect the
//!    [`quancurrent::Quancurrent::relaxation_bound`] contract: a snapshot
//!    issued after `L` updates were acknowledged represents at least
//!    `L − r` of them, and never more than what had been sent when the
//!    snapshot returned (plus in-flight batches).
//! 4. **Sanity under contention** — every concurrent answer lies within
//!    the value range actually written to the queried key(s).
//!
//! Deterministic: fixed seeds, fixed value sequences, bounded by an
//! in-process watchdog so a livelock fails fast instead of hanging CI.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use qc_common::error::sequential_epsilon;
use qc_common::{OrderedBits, Summary};
use qc_server::{Client, Server, ServerConfig};
use qc_store::StoreConfig;
use qc_workloads::exact::ExactOracle;
use quancurrent::Quancurrent;

const K: usize = 256;
const B: usize = 4;
const WRITERS: usize = 4;
const QUERIERS: usize = 2;
const OWN_PER_WRITER: usize = 20_000;
const SHARED_PER_WRITER: usize = 8_000;
const BATCH: usize = 256;

/// Abort the whole process if the soak wedges (deadlock in the server or
/// store would otherwise hang the test runner until its global timeout).
fn watchdog(done: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(120));
        if !done.load(Ordering::SeqCst) {
            eprintln!("soak watchdog fired: server/store wedged");
            std::process::exit(2);
        }
    });
}

/// Writer `t`'s deterministic value stream for its own key: a permuted
/// walk over a window disjoint from every other writer's.
fn own_values(t: usize) -> Vec<f64> {
    let base = (t * 1_000_000) as u64;
    (0..OWN_PER_WRITER as u64).map(|i| (base + (i * 7919) % 100_000) as f64).collect()
}

/// Writer `t`'s contribution to the shared (colliding) key.
fn shared_values(t: usize) -> Vec<f64> {
    (0..SHARED_PER_WRITER as u64)
        .map(|i| ((i * WRITERS as u64 + t as u64) % 50_000) as f64)
        .collect()
}

#[test]
fn concurrent_soak_matches_oracle_and_relaxation_bound() {
    let done = Arc::new(AtomicBool::new(false));
    watchdog(Arc::clone(&done));

    let cfg = ServerConfig {
        pool_threads: WRITERS + QUERIERS + 2,
        accept_backlog: 16,
        store: StoreConfig::default().stripes(8).k(K).b(B).seed(0x50a4),
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = handle.local_addr();

    // Acked-update counters for the shared key, one per writer: a querier
    // reads them before and after a snapshot to sandwich its stream_len.
    let shared_acked: Arc<Vec<AtomicU64>> =
        Arc::new((0..WRITERS).map(|_| AtomicU64::new(0)).collect());
    let writers_done = Arc::new(AtomicBool::new(false));

    // The relaxation bound of the per-key sketch the store builds (all of
    // a key's updates funnel through one updater under the stripe lock,
    // so n_threads = 1 from the sketch's point of view).
    let reference = Quancurrent::<f64>::builder().k(K).b(B).seed(1).build();
    let relaxation = reference.relaxation_bound(1);

    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let shared_acked = Arc::clone(&shared_acked);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("writer connect");
                let own_key = format!("own-{t}");
                let own = own_values(t);
                let shared = shared_values(t);
                // Interleave: batches to the private key, batches to the
                // colliding key, and the occasional single update so both
                // request paths see traffic.
                let mut oi = 0usize;
                let mut si = 0usize;
                while oi < own.len() || si < shared.len() {
                    if oi < own.len() {
                        let end = (oi + BATCH).min(own.len());
                        client.update_many(&own_key, &own[oi..end]).expect("own batch");
                        oi = end;
                    }
                    if si < shared.len() {
                        // One single-value update then a batch.
                        client.update("shared", shared[si]).expect("shared single");
                        shared_acked[t].fetch_add(1, Ordering::SeqCst);
                        si += 1;
                        let end = (si + BATCH).min(shared.len());
                        if si < end {
                            client.update_many("shared", &shared[si..end]).expect("shared batch");
                            shared_acked[t].fetch_add((end - si) as u64, Ordering::SeqCst);
                            si = end;
                        }
                    }
                }
            });
        }

        for q in 0..QUERIERS {
            let shared_acked = Arc::clone(&shared_acked);
            let writers_done = Arc::clone(&writers_done);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("querier connect");
                let all_keys: Vec<String> =
                    (0..WRITERS).map(|t| format!("own-{t}")).chain(["shared".into()]).collect();
                let mut iterations = 0u64;
                while !writers_done.load(Ordering::SeqCst) {
                    iterations += 1;
                    // Relaxation sandwich on the colliding key.
                    let acked_before: u64 =
                        shared_acked.iter().map(|a| a.load(Ordering::SeqCst)).sum();
                    if let Some(summary) = client.snapshot_summary("shared").expect("snapshot rpc")
                    {
                        let sent_ceiling: u64 = shared_acked
                            .iter()
                            .map(|a| a.load(Ordering::SeqCst))
                            .sum::<u64>()
                            // Applied-but-not-yet-acknowledged batches.
                            + (WRITERS * (BATCH + 1)) as u64;
                        let len = summary.stream_len();
                        assert!(
                            len + relaxation >= acked_before,
                            "snapshot missed more than r={relaxation} updates: \
                             len={len}, acked_before={acked_before}"
                        );
                        assert!(
                            len <= sent_ceiling,
                            "snapshot saw elements never sent: len={len}, ceiling={sent_ceiling}"
                        );
                    }
                    // Concurrent answers stay inside the written value range.
                    if let Some(v) = client.query("shared", 0.5).expect("query rpc") {
                        assert!((0.0..50_000.0).contains(&v), "shared median {v} out of range");
                    }
                    if q == 0 {
                        if let Some(v) = client.merged_query(&all_keys, 0.9).expect("merged rpc") {
                            assert!(
                                (0.0..=(WRITERS * 1_000_000) as f64).contains(&v),
                                "union p90 {v} out of range"
                            );
                        }
                    } else if let Some(r) = client.rank("shared", 25_000.0).expect("rank rpc") {
                        assert!((0.0..=1.0).contains(&r), "rank {r} not normalized");
                    }
                }
                assert!(iterations > 0);
            });
        }

        // Mark writers done only after every writer thread joins: scope
        // spawns return handles; collect and join the writers first.
        // (The scope API joins everything at block end; we flip the flag
        // from a dedicated monitor thread instead.)
        let shared_acked = Arc::clone(&shared_acked);
        let writers_done_setter = Arc::clone(&writers_done);
        s.spawn(move || {
            let total_shared = (WRITERS * SHARED_PER_WRITER) as u64;
            while shared_acked.iter().map(|a| a.load(Ordering::SeqCst)).sum::<u64>() < total_shared
            {
                std::thread::yield_now();
            }
            // Shared stream fully acknowledged; own-key batches finish
            // within the same writer loops. A short grace then release.
            std::thread::sleep(std::time::Duration::from_millis(50));
            writers_done_setter.store(true, Ordering::SeqCst);
        });
    });

    // ---- Quiescent verification over a fresh connection ----
    let mut client = Client::connect(addr).expect("verify connect");

    let total: u64 = (WRITERS * (OWN_PER_WRITER + SHARED_PER_WRITER)) as u64;
    let stats = client.stats().expect("stats rpc");
    assert_eq!(stats.updates, total, "every protocol update must be counted");
    assert_eq!(stats.stream_len, total, "total weight must be conserved end to end");
    assert_eq!(stats.keys, WRITERS + 1);

    let mut keys = client.keys().expect("keys rpc");
    keys.sort();
    let mut expected: Vec<String> = (0..WRITERS).map(|t| format!("own-{t}")).collect();
    expected.push("shared".into());
    expected.sort();
    assert_eq!(keys, expected);

    // Per-key accuracy: sketch ε + one merge compaction + slack (the
    // budget the in-process store tests use for the same composition).
    let eps_budget = 3.0 * sequential_epsilon(K) + 0.005;
    let phis = [0.05, 0.25, 0.5, 0.75, 0.95, 0.99];

    for t in 0..WRITERS {
        let key = format!("own-{t}");
        let oracle = ExactOracle::from_values(&own_values(t));
        let summary = client.snapshot_summary(&key).expect("snapshot rpc").expect("key present");
        assert_eq!(summary.stream_len(), OWN_PER_WRITER as u64, "weight conserved for {key}");
        for phi in phis {
            let est = client.query(&key, phi).expect("query rpc").expect("non-empty");
            let err = oracle.rank_error(phi, est.to_ordered_bits());
            assert!(err <= eps_budget, "{key} φ={phi}: rank error {err:.5} > {eps_budget:.5}");
        }
    }

    let shared_all: Vec<f64> = (0..WRITERS).flat_map(shared_values).collect();
    let shared_oracle = ExactOracle::from_values(&shared_all);
    for phi in phis {
        let est = client.query("shared", phi).expect("query rpc").expect("non-empty");
        let err = shared_oracle.rank_error(phi, est.to_ordered_bits());
        assert!(err <= eps_budget, "shared φ={phi}: rank error {err:.5} > {eps_budget:.5}");
    }

    // Union accuracy: merged_query composes one more merge, so allow one
    // more ε-class term.
    let mut union_all = shared_all;
    for t in 0..WRITERS {
        union_all.extend(own_values(t));
    }
    let union_oracle = ExactOracle::from_values(&union_all);
    let union_budget = 4.0 * sequential_epsilon(K) + 0.005;
    for phi in phis {
        let est = client.merged_query(&keys, phi).expect("merged rpc").expect("non-empty");
        let err = union_oracle.rank_error(phi, est.to_ordered_bits());
        assert!(err <= union_budget, "union φ={phi}: rank error {err:.5} > {union_budget:.5}");
    }

    handle.shutdown();
    done.store(true, Ordering::SeqCst);
}

#[test]
fn snapshot_ingest_between_two_live_servers() {
    // A second, smaller soak: the distributed path. Server A ingests a
    // stream; its snapshot frames travel over A's socket, through the
    // test, into server B's socket; B's merged view must match A's.
    let done = Arc::new(AtomicBool::new(false));
    watchdog(Arc::clone(&done));

    let mk = |seed: u64| ServerConfig {
        pool_threads: 2,
        store: StoreConfig::default().stripes(4).k(K).b(B).seed(seed),
        ..ServerConfig::default()
    };
    let a = Server::bind("127.0.0.1:0", mk(1)).expect("bind A");
    let b = Server::bind("127.0.0.1:0", mk(2)).expect("bind B");

    let n = 60_000u64;
    let values: Vec<f64> = (0..n).map(|i| ((i * 31) % n) as f64).collect();
    let mut ca = Client::connect(a.local_addr()).expect("connect A");
    for chunk in values.chunks(512) {
        ca.update_many("metric", chunk).expect("ingest into A");
    }

    let frame = ca.snapshot_bytes("metric").expect("snapshot rpc").expect("key present");
    let mut cb = Client::connect(b.local_addr()).expect("connect B");
    let ingested = cb.ingest_bytes("metric", &frame).expect("ingest into B");
    assert_eq!(ingested, n, "frame carried the whole stream");

    let oracle = ExactOracle::from_values(&values);
    let budget = 3.0 * sequential_epsilon(K) + 0.005;
    for phi in [0.1, 0.5, 0.9] {
        let est = cb.query("metric", phi).expect("query B").expect("non-empty");
        let err = oracle.rank_error(phi, est.to_ordered_bits());
        assert!(err <= budget, "replica φ={phi}: rank error {err:.5} > {budget:.5}");
    }

    // A malformed frame must be rejected remotely with a typed error and
    // leave B's stats untouched except the error counter.
    let mut bad = frame.clone();
    bad[10] ^= 0xff;
    match cb.ingest_bytes("metric", &bad) {
        Err(qc_server::ClientError::Remote { code: qc_server::ErrorCode::Wire, .. }) => {}
        other => panic!("corrupt frame must yield a remote Wire error, got {other:?}"),
    }
    let stats = cb.stats().expect("stats B");
    assert_eq!(stats.ingest_errors, 1);
    assert_eq!(stats.stream_len, n);

    a.shutdown();
    b.shutdown();
    done.store(true, Ordering::SeqCst);
}

#[test]
fn large_replies_do_not_wait_out_a_delayed_ack() {
    // A reply larger than the server's 8 KiB write buffer leaves in two
    // segments; without `TCP_NODELAY` on the accepted socket the second
    // waits for the client's delayed ACK (~40 ms per round trip).
    let done = Arc::new(AtomicBool::new(false));
    watchdog(Arc::clone(&done));
    let cfg = ServerConfig {
        pool_threads: 1,
        store: StoreConfig::default().stripes(1).k(K).b(B).seed(5),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let values: Vec<f64> = (0..60_000).map(f64::from).collect();
    for chunk in values.chunks(512) {
        client.update_many("big", chunk).expect("update rpc");
    }
    let mut round_trips: Vec<std::time::Duration> = (0..21)
        .map(|_| {
            let start = std::time::Instant::now();
            let frame = client.snapshot_bytes("big").expect("snapshot rpc").expect("key present");
            assert!(frame.len() > 8 * 1024, "reply must outgrow the write buffer: {}", frame.len());
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(median < std::time::Duration::from_millis(20), "median snapshot round trip {median:?}");
    server.shutdown();
    done.store(true, Ordering::SeqCst);
}
