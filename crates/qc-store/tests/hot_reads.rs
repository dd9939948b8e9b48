//! Hot-key reads answer over the engine's parts — the sketch's level
//! arrays, one sorted tail and the absorbed summaries — without merging
//! them. Two contracts:
//!
//! 1. **Deterministic:** a hot key's `query`, `rank` and `cdf` return the
//!    same answers on the miss that gathers the parts and on the hits that
//!    follow, whatever else the key's cache holds at that version (a flat
//!    summary a `summary_of` built, say).
//! 2. **Bounded under concurrency:** with N > 1 leased writers on one hot
//!    key, the weight a read sees stays inside the relaxation sandwich
//!    `flushed_before_read − r ≤ weight ≤ handed_before_read_end`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::thread;

use qc_common::{OrderedBits, QuantileEstimator, StreamIngest, WeightedSummary};
use qc_store::{encode_summary, ConcurrentEngine, SketchStore, StoreConfig};

const PHIS: [f64; 7] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
const PROBES: [f64; 6] = [-1.0, 0.0, 250.0, 500.5, 999.0, 1e9];

/// Everything a single-key read answers, for one key.
#[derive(Debug, PartialEq)]
struct Answers {
    quantiles: Vec<Option<f64>>,
    ranks: Vec<Option<f64>>,
    cdf: Option<Vec<f64>>,
}

fn answers(store: &SketchStore, key: &str) -> Answers {
    Answers {
        quantiles: PHIS.iter().map(|&phi| store.query(key, phi)).collect(),
        ranks: PROBES.iter().map(|&x| store.rank(key, x)).collect(),
        cdf: store.cdf(key, &PROBES),
    }
}

/// One round of [`answers`], and the cache misses it caused.
fn read_round(store: &SketchStore, key: &str) -> (Answers, u64) {
    let before = store.stats().cache_misses;
    let answers = answers(store, key);
    (answers, store.stats().cache_misses - before)
}

fn values(n: u64, salt: u64) -> Vec<f64> {
    (0..n).map(|i| ((i * 37 + salt * 101) % 1000) as f64).collect()
}

fn remote_frame(n: u64, salt: u64) -> Vec<u8> {
    let mut bits: Vec<u64> = values(n, salt).iter().map(|v| v.to_ordered_bits()).collect();
    bits.sort_unstable();
    encode_summary(&WeightedSummary::from_parts([(&bits[..], 2u64)]))
}

#[test]
fn hot_answers_are_the_same_on_the_gathering_miss_and_the_hits() {
    let store = SketchStore::<f64>::new(
        StoreConfig::default().stripes(2).k(16).b(4).seed(3).promotion_threshold(0),
    );
    for step in 0..24u64 {
        // Every step moves the key's version: resident writes of sizes
        // that leave Gather&Sort and writer tails, and remote absorbs.
        if step % 3 == 2 {
            store.ingest_bytes("hot", &remote_frame(20 + step, step)).expect("frame ingests");
        } else {
            store.update_many("hot", &values(50 + 13 * step, step));
        }
        assert_eq!(store.stats().hot_keys, 1, "the key is hot from its first write");

        // Odd steps cache the flat summary first: the answers still come
        // from parts, gathered by the first read at this version.
        if step % 2 == 1 {
            let _ = store.summary_of("hot");
        }
        // The first read gathers the parts; every later one hits them,
        // also after `summary_of` caches the flat summary beside them.
        let (miss, missed) = read_round(&store, "hot");
        assert_eq!(missed, 1, "step {step}: only the first read gathers");
        let (hit, missed) = read_round(&store, "hot");
        assert_eq!(missed, 0);
        assert_eq!(miss, hit, "step {step}: hit differs from the gathering miss");
        let _ = store.summary_of("hot");
        let (after, missed) = read_round(&store, "hot");
        assert_eq!(missed, 0);
        assert_eq!(miss, after, "step {step}: a cached flat summary changed the answers");
        // The flat summary a hot key hands out is still the engine's own.
        assert_eq!(*store.summary_of("hot").unwrap(), store.summary_of_uncached("hot").unwrap());
    }
}

/// `N` leased writers push bounded rounds into one hot engine while a
/// reader loops on `query`, `rank_weight` and `cdf`. Each read checks
/// `flushed_before − r ≤ weight ≤ handed_after`, where `weight` is the
/// total weight the read's parts hold (`rank_weight(+∞)` over finite
/// values).
///
/// `r` bounds the engine's documented transient misses. A read takes the
/// level snapshot first, then the Gather&Sort buffers, then the spill, so
/// a flushed element outside the levels when the read starts can be
/// missed if it moves into the levels behind the snapshot:
/// * a `2k` batch mid-install, skipped by Gather&Sort accounting until its
///   buffer resets — and **both** buffers of the one Gather&Sort unit can
///   hold such a batch at once (the second owner waits for level 0), so
///   `2 · 2k`;
/// * per writer, a spill drain its flush has taken but not yet placed:
///   the drain takes a multiple of `b` from a spill holding under `2b`,
///   so at most `b` each;
/// * the under-`b` spill at rest when the read starts, which a drain can
///   take into that path.
///
/// So `r = 4k + (N + 1)·b`. The upper bound has no slack: a read never
/// counts an element twice, nor one not yet handed to a writer.
fn sandwich_under_concurrent_leases(writers: usize, rounds: u64, seed: u64) -> u64 {
    const K: usize = 8;
    const B: usize = 4;
    let engine = ConcurrentEngine::<f64>::new(K, B, seed);
    let r = (4 * K + (writers + 1) * B) as u64;
    let handed = AtomicU64::new(0);
    let flushed = AtomicU64::new(0);
    let finished = AtomicUsize::new(0);
    let mut reads = 0u64;
    thread::scope(|s| {
        for t in 0..writers {
            let (engine, handed, flushed, finished) = (&engine, &handed, &flushed, &finished);
            s.spawn(move || {
                let mut lease = engine.try_writer().expect("a hot engine leases");
                for round in 0..rounds {
                    let n = 1 + (round * 7 + t as u64) % 11;
                    let batch = values(n, round * writers as u64 + t as u64);
                    handed.fetch_add(n, SeqCst);
                    lease.update_many(&batch);
                    lease.flush();
                    flushed.fetch_add(n, SeqCst);
                }
                finished.fetch_add(1, SeqCst);
            });
        }
        loop {
            let last = finished.load(SeqCst) == writers;
            let before = flushed.load(SeqCst);
            let weight = engine.rank_weight(f64::INFINITY);
            let after = handed.load(SeqCst);
            assert!(
                weight + r >= before && weight <= after,
                "read saw {weight}: flushed before {before}, handed after {after}, r = {r}"
            );
            if let Some(median) = engine.query(0.5) {
                assert!((0.0..1000.0).contains(&median), "median {median}");
            }
            let cdf = QuantileEstimator::cdf(&engine, &PROBES);
            assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "cdf not monotone: {cdf:?}");
            assert!(cdf.iter().all(|p| (0.0..=1.0).contains(p)), "cdf out of range: {cdf:?}");
            reads += 1;
            if last {
                break;
            }
        }
    });
    // Settled: every handed element is visible, exactly once.
    let total = handed.load(SeqCst);
    assert_eq!(engine.rank_weight(f64::INFINITY), total);
    assert_eq!(QuantileEstimator::stream_len(&engine), total);
    reads
}

#[test]
fn concurrent_leased_writers_against_hot_reads_stay_in_the_sandwich() {
    for (writers, seed) in [(2, 1), (3, 2), (4, 3)] {
        let reads = sandwich_under_concurrent_leases(writers, 20000, seed);
        assert!(reads > 0);
    }
}

/// The same writers through the store's own lease path, against store
/// reads of the hot key: answers stay in range while the key is written,
/// and once the writers stop, the hits agree with the gathering miss and
/// the stream length is exact.
#[test]
fn store_leases_against_hot_reads() {
    const WRITERS: u64 = 3;
    const ROUNDS: u64 = 800;
    let store = SketchStore::<f64>::new(
        StoreConfig::default().stripes(2).k(8).b(4).seed(9).promotion_threshold(0),
    );
    store.update_many("hot", &values(64, 0));
    let finished = AtomicUsize::new(0);
    thread::scope(|s| {
        for t in 0..WRITERS {
            let (store, finished) = (&store, &finished);
            s.spawn(move || {
                let mut lease = store.lease_writer("hot").expect("a hot key leases");
                for round in 0..ROUNDS {
                    let batch = values(1 + (round + t) % 9, round * WRITERS + t);
                    store.update_many_leased("hot", &mut lease, &batch).expect("lease stays valid");
                }
                finished.fetch_add(1, SeqCst);
            });
        }
        while finished.load(SeqCst) < WRITERS as usize {
            let median = store.query("hot", 0.5).expect("the key holds weight");
            assert!((0.0..1000.0).contains(&median), "median {median}");
            let rank = store.rank("hot", 500.0).expect("the key holds weight");
            assert!((0.0..=1.0).contains(&rank), "rank {rank}");
            let cdf = store.cdf("hot", &PROBES).expect("the key holds weight");
            assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "cdf not monotone: {cdf:?}");
        }
    });
    let expected: u64 =
        64 + (0..WRITERS).flat_map(|t| (0..ROUNDS).map(move |r| 1 + (r + t) % 9)).sum::<u64>();
    assert_eq!(store.stats().stream_len, expected);
    let first = answers(&store, "hot");
    let (again, missed) = read_round(&store, "hot");
    assert_eq!(missed, 0);
    assert_eq!(again, first);
    assert_eq!(first.ranks[PROBES.len() - 1], Some(1.0), "every value sits below 1e9");
}
