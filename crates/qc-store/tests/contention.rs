//! Contention regression: hammer `update_many`/`snapshot_bytes`/`remove`
//! on keys that all collide in a single stripe, from many threads at once.
//!
//! With `stripes: 1` every key maps to the same mutex, so this is the
//! worst case the striping design ever faces: all writers, snapshotters,
//! and removers serialize on one lock. The invariants under that load:
//!
//! * no deadlock (the suite finishes; CI adds an external timeout);
//! * exact total-weight conservation for surviving keys — every element
//!   handed to `update_many` is represented in the final summaries;
//! * snapshots taken mid-hammer are always decodable, and a snapshot's
//!   stream length never falls more than the hot key's relaxation bound
//!   below any earlier snapshot of that key (see [`MAX_SNAPSHOT_DROP`]);
//! * `merged_range_summary` consistently skips missing and removed keys, while
//!   counting every survivor exactly once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use qc_common::Summary;
use qc_store::wire::decode_summary;
use qc_store::{SketchStore, StoreConfig};

const HOT_KEYS: usize = 4;
const WRITERS_PER_KEY: usize = 2;
const BATCHES: usize = 60;
const BATCH: usize = 200;
const K: usize = 128;
const B: usize = 4;

/// The most a mid-hammer snapshot's stream length may fall below any
/// earlier snapshot of the same hot key.
///
/// A read never counts an element twice, and every element one read
/// counts is counted by each later read too, except while it moves into
/// the levels behind that later read's level snapshot. `hot_reads`
/// bounds how much can be in such transit at once for an engine with `N`
/// concurrent leased writers:
/// * two `2k` Gather&Sort batches mid-install, `4k`;
/// * per writer, one spill drain its flush has taken but not yet placed,
///   at most `b` each;
/// * the under-`b` spill at rest, which a drain can take into that path.
///
/// So a later read sees at least the earlier one's weight minus
/// `r = 4k + (N + 1)·b`. Here `N = WRITERS_PER_KEY`: every hot-key write
/// is one `update_many` holding one writer handle, and only the
/// key's own writers touch its engine. A cold key's reads are exact and
/// promotion moves its weight whole, so the bound covers the migration
/// too.
const MAX_SNAPSHOT_DROP: u64 = (4 * K + (WRITERS_PER_KEY + 1) * B) as u64;

fn hot_key(i: usize) -> String {
    format!("hot-{i}")
}

#[test]
fn single_stripe_hammer_conserves_weight_and_skips_removed_keys() {
    // One stripe: every key collides by construction.
    let store = Arc::new(SketchStore::new(StoreConfig::default().stripes(1).k(K).b(B).seed(9)));
    assert_eq!(store.num_stripes(), 1);

    let stop = Arc::new(AtomicBool::new(false));
    let doomed_rounds = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Writers: two per hot key, fixed element budget each.
        for key_idx in 0..HOT_KEYS {
            for w in 0..WRITERS_PER_KEY {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    let key = hot_key(key_idx);
                    let base = ((key_idx * WRITERS_PER_KEY + w) * 1_000_000) as f64;
                    for batch in 0..BATCHES {
                        let values: Vec<f64> =
                            (0..BATCH).map(|i| base + (batch * BATCH + i) as f64).collect();
                        store.update_many(&key, &values);
                    }
                });
            }
        }

        // Snapshotters: continuously serialize hot keys; every frame must
        // decode, and no stream length may fall more than the relaxation
        // bound below an earlier one.
        for reader in 0..2 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let key = hot_key(reader % HOT_KEYS);
                let mut peak = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if let Some(frame) = store.snapshot_bytes(&key) {
                        let summary = decode_summary(&frame)
                            .expect("mid-hammer snapshot frames always decode");
                        let len = summary.stream_len();
                        assert!(
                            len + MAX_SNAPSHOT_DROP >= peak,
                            "stream length fell more than r = {MAX_SNAPSHOT_DROP} below an \
                             earlier snapshot on {key}: {peak} -> {len}"
                        );
                        peak = peak.max(len);
                    }
                }
            });
        }

        // Remover: churns short-lived keys in the same (only) stripe —
        // create, fill, snapshot, remove — interleaved with the writers.
        {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let doomed_rounds = Arc::clone(&doomed_rounds);
            s.spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("doomed-{}", round % 3);
                    store.update_many(&key, &[1.0, 2.0, 3.0]);
                    let frame = store.snapshot_bytes(&key).expect("just created");
                    assert!(decode_summary(&frame).is_ok());
                    assert!(store.remove(&key), "own key must be removable");
                    round += 1;
                }
                doomed_rounds.store(round, Ordering::Relaxed);
            });
        }

        // Let the writers finish, then release the loops.
        // (Scoped threads: writers joined implicitly when the closure-only
        // threads see `stop`; we flip it from a monitor watching progress.)
        let store_monitor = Arc::clone(&store);
        let stop_setter = Arc::clone(&stop);
        s.spawn(move || {
            let hot_total = (HOT_KEYS * WRITERS_PER_KEY * BATCHES * BATCH) as u64;
            loop {
                // Counter invariant, asserted *mid-flight*: the `updates`
                // counter is bumped under the same stripe lock as the
                // engine mutation, so a stats sweep can never observe
                // resident weight that is not yet counted. (This is an
                // ingest-free workload; removes only ever discard weight,
                // so `stream_len <= updates` must hold at every instant.)
                let stats = store_monitor.stats();
                assert!(
                    stats.stream_len <= stats.updates,
                    "stats observed uncounted weight: stream_len {} > updates {}",
                    stats.stream_len,
                    stats.updates
                );
                // Cross-field consistency model (documented per field on
                // `StoreStats`), asserted mid-flight: read classification
                // (hits + misses >= reads), batch accounting, and the
                // tier partition must hold for *any* sample, not just at
                // quiescence.
                assert!(stats.consistency(), "mid-flight stats sample inconsistent: {stats:?}");
                let keys: Vec<String> = (0..HOT_KEYS).map(hot_key).collect();
                let resident: u64 = keys
                    .iter()
                    .filter_map(|k| store_monitor.summary_of(k))
                    .map(|s| s.stream_len())
                    .sum();
                if resident >= hot_total {
                    break;
                }
                std::thread::yield_now();
            }
            stop_setter.store(true, Ordering::Relaxed);
        });
    });

    // ---- Quiescent invariants ----
    let hot_total = (HOT_KEYS * WRITERS_PER_KEY * BATCHES * BATCH) as u64;

    // Exact conservation per key and in aggregate.
    let mut sum = 0u64;
    for i in 0..HOT_KEYS {
        let summary = store.summary_of(&hot_key(i)).expect("hot key survives");
        let expected = (WRITERS_PER_KEY * BATCHES * BATCH) as u64;
        assert_eq!(
            summary.stream_len(),
            expected,
            "{}: weight not conserved under contention",
            hot_key(i)
        );
        sum += summary.stream_len();
    }
    assert_eq!(sum, hot_total);

    // All doomed keys are gone; the store holds exactly the hot keys.
    let mut keys = store.keys();
    keys.sort();
    let mut expected_keys: Vec<String> = (0..HOT_KEYS).map(hot_key).collect();
    expected_keys.sort();
    assert_eq!(keys, expected_keys, "removed keys must not linger");

    // Store-level accounting agrees with the per-key sweep: total updates
    // include the doomed churn (3 per round), resident weight does not.
    let stats = store.stats();
    let churn = doomed_rounds.load(Ordering::Relaxed) * 3;
    assert_eq!(stats.updates, hot_total + churn, "update counter lost increments");
    assert_eq!(stats.stream_len, hot_total, "resident weight disagrees with summaries");
    assert!(stats.consistency(), "quiescent stats inconsistent: {stats:?}");

    // merged_range_summary skips missing and removed keys and counts every
    // survivor exactly once — including duplicates in the key list? No:
    // each listed key contributes its summary each time it appears, so
    // pass each once; absent keys contribute nothing.
    let mut probe: Vec<String> = (0..HOT_KEYS).map(hot_key).collect();
    probe.push("doomed-0".into()); // removed
    probe.push("doomed-1".into()); // removed
    probe.push("never-existed".into()); // missing
    let merged = store.merged_range_summary(&probe, 0, u64::MAX);
    assert_eq!(
        merged.stream_len(),
        hot_total,
        "merged_range_summary must skip removed/missing keys and count survivors once"
    );

    // And the merged quantiles stay inside the written range.
    let lo = merged.quantile::<f64>(0.01).unwrap();
    let hi = merged.quantile::<f64>(0.99).unwrap();
    let max_written = ((HOT_KEYS * WRITERS_PER_KEY - 1) * 1_000_000 + BATCHES * BATCH) as f64;
    assert!(lo >= 0.0 && hi <= max_written, "merged quantiles [{lo}, {hi}] escape written range");
}

#[test]
fn concurrent_remove_and_update_on_one_key_never_lose_the_lock() {
    // Tight remove/update race on a single key in a single stripe: the
    // key flickers in and out of existence; the store must neither
    // deadlock nor corrupt its accounting. Re-creation after removal
    // starts a fresh sketch, so the only invariant on stream length is
    // consistency with what the final summary reports.
    let store = Arc::new(SketchStore::new(StoreConfig::default().stripes(1).k(64).b(4).seed(5)));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for t in 0..3 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    store.update("flicker", (t * 1000 + i) as f64);
                    i += 1;
                }
            });
        }
        {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                for _ in 0..500 {
                    store.remove("flicker");
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });

    // Whatever survived is internally consistent.
    let stats = store.stats();
    assert!(stats.consistency(), "post-race stats inconsistent: {stats:?}");
    match store.summary_of("flicker") {
        Some(summary) => assert_eq!(stats.stream_len, summary.stream_len()),
        None => assert_eq!(stats.stream_len, 0),
    }
    // merged_range_summary over the flickering key plus garbage stays sound.
    let merged = store.merged_range_summary(&["flicker", "ghost"], 0, u64::MAX);
    assert_eq!(merged.stream_len(), stats.stream_len);
}
