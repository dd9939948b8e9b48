//! Hot-key write-contention suite: many threads hammering one key must
//! ride the shared-lock fast path, conserve weight exactly, and stay
//! exact even when housekeeping (demotion) and removal race the writers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use qc_common::Summary;
use qc_store::{SketchStore, StaleLease, StoreConfig};

fn cfg(seed: u64) -> StoreConfig {
    StoreConfig::default().stripes(2).k(128).b(4).seed(seed).promotion_threshold(128)
}

/// 4 writers × one hot key: every batch after promotion must take the
/// shared path, and the final accounting must be exact to the element.
#[test]
fn four_writers_one_hot_key_exact_conservation() {
    const THREADS: usize = 4;
    const BATCHES: usize = 200;
    const BATCH: usize = 64;

    let store = Arc::new(SketchStore::new(cfg(1)));
    // Pre-promote so the measured phase is pure hot-key traffic.
    store.update_many("hot", &(0..200).map(f64::from).collect::<Vec<_>>());
    assert_eq!(store.stats().hot_keys, 1);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            s.spawn(move || {
                for i in 0..BATCHES {
                    let base = (t * BATCHES + i) * BATCH;
                    let batch: Vec<f64> = (0..BATCH).map(|j| (base + j) as f64).collect();
                    store.update_many("hot", &batch);
                }
            });
        }
    });

    let total = 200 + (THREADS * BATCHES * BATCH) as u64;
    let stats = store.stats();
    assert_eq!(stats.updates, total, "every element counted exactly once");
    assert_eq!(stats.stream_len, total, "every element resident exactly once");
    assert_eq!(store.summary_of("hot").unwrap().stream_len(), total);
    assert!(
        stats.shared_writes >= (THREADS * BATCHES) as u64,
        "hot-key batches must ride the shared path (shared {} / fallback {})",
        stats.shared_writes,
        stats.fallback_writes
    );
    // Median sanity: values are 0..total-ish uniform.
    let med = store.query("hot", 0.5).unwrap();
    assert!((0.25 * total as f64..0.75 * total as f64).contains(&med), "median {med}");
}

/// Writers race the housekeeping sweep: demotions may invalidate the pool
/// mid-run (writers transparently fall back and re-promote), yet not one
/// element may be lost or duplicated. A reader thread also pins the
/// mid-flight counter invariant `stream_len <= updates`.
#[test]
fn writers_race_cool_down_without_losing_weight() {
    const THREADS: usize = 4;
    const BATCHES: usize = 150;
    const BATCH: usize = 32;

    let store = Arc::new(SketchStore::new(cfg(2)));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            s.spawn(move || {
                for i in 0..BATCHES {
                    let base = (t * BATCHES + i) * BATCH;
                    let batch: Vec<f64> = (0..BATCH).map(|j| (base + j) as f64).collect();
                    store.update_many("contended", &batch);
                }
            });
        }
        // Housekeeping thread: sweep continuously while writers run.
        {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    store.cool_down();
                    std::thread::yield_now();
                }
            });
        }
        // Reader thread: the counter invariant must hold at every instant.
        {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let stats = store.stats();
                    assert!(
                        stats.stream_len <= stats.updates,
                        "observed uncounted weight: stream_len {} > updates {}",
                        stats.stream_len,
                        stats.updates
                    );
                }
            });
        }
        // Watcher: release the sweep/reader loopers once every writer
        // element is counted (the scope then joins everything).
        let store_done = Arc::clone(&store);
        let stop_done = Arc::clone(&stop);
        s.spawn(move || {
            let total = (THREADS * BATCHES * BATCH) as u64;
            while store_done.stats().updates < total {
                std::thread::yield_now();
            }
            stop_done.store(true, Ordering::Relaxed);
        });
    });

    let total = (THREADS * BATCHES * BATCH) as u64;
    let stats = store.stats();
    assert_eq!(stats.updates, total);
    assert_eq!(stats.stream_len, total, "no element lost across demotion races");
    assert_eq!(store.summary_of("contended").unwrap().stream_len(), total);
}

/// Server-style leases held across calls from multiple threads, racing
/// removal: every accepted leased write is resident, every rejected one
/// is re-routed exactly once, and the post-removal weight equals exactly
/// what was written after the removal.
#[test]
fn held_leases_race_removal_with_exact_accounting() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 300;
    const BATCH: usize = 16;

    let store = Arc::new(SketchStore::new(cfg(3).promotion_threshold(0)));
    store.update_many("k", &[0.5]);
    let applied = Arc::new(AtomicU64::new(1));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            let applied = Arc::clone(&applied);
            s.spawn(move || {
                let mut lease = None;
                for i in 0..ROUNDS {
                    let base = (t * ROUNDS + i) * BATCH;
                    let batch: Vec<f64> = (0..BATCH).map(|j| (base + j) as f64).collect();
                    if lease.is_none() {
                        lease = store.lease_writer("k");
                    }
                    match lease.as_mut() {
                        Some(held) => match store.update_many_leased("k", held, &batch) {
                            Ok(()) => {}
                            Err(StaleLease) => {
                                lease = None;
                                store.update_many("k", &batch);
                            }
                        },
                        None => store.update_many("k", &batch),
                    }
                    applied.fetch_add(BATCH as u64, Ordering::Relaxed);
                }
            });
        }
        // Removal thread: periodically wipe the key mid-traffic, forcing
        // held leases stale while batches are in flight.
        {
            let store = Arc::clone(&store);
            s.spawn(move || {
                for _ in 0..5 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    store.remove("k");
                }
            });
        }
    });

    // Conservation modulo removal: resident weight + discarded weight ==
    // applied weight. `updates` counts every applied element exactly once
    // (the exactness half we can assert without racing the removals).
    let stats = store.stats();
    assert_eq!(stats.updates, applied.load(Ordering::Relaxed));
    let resident = store.summary_of("k").map(|s| s.stream_len()).unwrap_or(0);
    assert!(resident <= stats.updates);
    assert_eq!(stats.stream_len, resident, "only the surviving key holds weight");
}

/// Leases on a one-handle pool racing removal: with `writer_pool(1)` and
/// three writers, leased writes often find the pool empty and take the
/// exclusive path, where the lease is checked again before anything could
/// create the key. Each remove is followed by a re-creation, so a stale
/// lease that slipped past that check would land in the successor.
/// Per-generation accounting pins that it never does.
#[test]
fn leases_on_a_one_handle_pool_race_removal_into_no_successor() {
    const THREADS: usize = 3;
    const ROUNDS: usize = 2000;
    const BATCH: usize = 64;
    // A leased write has taken the exclusive path once the fallbacks
    // outnumber the creations (read after them: a creation in flight
    // adds at most one fallback not yet in `creations`).
    let leased_fallback = |store: &SketchStore, creations: &AtomicU64| {
        let fallbacks = store.stats().fallback_writes;
        fallbacks > creations.load(Ordering::Relaxed) + 1
    };

    let store = SketchStore::new(cfg(4).promotion_threshold(0).writer_pool(1));
    store.update_many("k", &[0.5]);
    // Accepted weight per key generation.
    let accepted = Mutex::new(HashMap::<u64, u64>::new());
    let stale = AtomicU64::new(0);
    let creations = AtomicU64::new(1);
    let writers_done = AtomicU64::new(0);
    let start = Barrier::new(THREADS + 1);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (store, accepted, stale, creations) = (&store, &accepted, &stale, &creations);
            let (writers_done, start, leased_fallback) = (&writers_done, &start, &leased_fallback);
            s.spawn(move || {
                // A lease on the key's current generation; the key is
                // absent only between a remove and its re-creation.
                let lease = || loop {
                    match store.lease_writer("k") {
                        Some(lease) => break lease,
                        None => std::thread::yield_now(),
                    }
                };
                start.wait();
                let mut held = lease();
                // Past `ROUNDS`, keep writing (up to a cap) until a leased
                // write has reached the exclusive path: on a loaded
                // machine the writers may not have overlapped yet.
                let mut i = 0;
                while i < ROUNDS || (i < 20 * ROUNDS && !leased_fallback(store, creations)) {
                    i += 1;
                    let base = (t * 20 * ROUNDS + i) * BATCH;
                    let batch: Vec<f64> = (0..BATCH).map(|j| (base + j) as f64).collect();
                    match store.update_many_leased("k", &mut held, &batch) {
                        Ok(()) => {
                            *accepted.lock().unwrap().entry(held.generation()).or_default() +=
                                BATCH as u64;
                        }
                        Err(StaleLease) => {
                            stale.fetch_add(1, Ordering::Relaxed);
                            held = lease();
                        }
                    }
                }
                writers_done.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Remover: wipe the key and re-create it with one value, over and
        // over, until every writer is done; the key always ends present.
        // Writers only write through leases, so between a remove and the
        // re-creation nothing may bring the key back.
        let (store, creations, writers_done, start) = (&store, &creations, &writers_done, &start);
        s.spawn(move || {
            start.wait();
            while writers_done.load(Ordering::Relaxed) < THREADS as u64 {
                std::thread::sleep(std::time::Duration::from_micros(500));
                assert!(store.remove("k"), "only this thread removes, and it re-creates");
                std::thread::sleep(std::time::Duration::from_micros(100));
                assert!(store.summary_of("k").is_none(), "a stale lease re-created the key");
                store.update_many("k", &[0.5]);
                creations.fetch_add(1, Ordering::Relaxed);
            }
        });
    });

    let accepted = accepted.into_inner().unwrap();
    let creations = creations.load(Ordering::Relaxed);
    let stats = store.stats();
    // Exact accounting: every accepted batch and every creation counted
    // once; a stale rejection counts nothing.
    assert_eq!(stats.updates, creations + accepted.values().sum::<u64>());
    // No write into a successor: the surviving key holds its creation
    // value plus exactly the batches accepted under its own generation.
    let survivor = store.lease_writer("k").expect("key ends hot").generation();
    let resident = store.summary_of("k").expect("key ends present").stream_len();
    assert_eq!(resident, 1 + accepted.get(&survivor).copied().unwrap_or(0));
    assert_eq!(stats.stream_len, resident, "only the surviving key holds weight");
    // The race ran: leases went stale, and leased writes took the
    // exclusive path (every fallback past the creations is one).
    assert!(creations > 1 && stale.load(Ordering::Relaxed) > 0, "no removal raced a lease");
    assert!(
        stats.fallback_writes > creations,
        "no leased write reached the exclusive path (fallback {}, creations {creations})",
        stats.fallback_writes
    );
}
