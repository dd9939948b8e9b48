//! Tiering under contention: a single key hammered from several threads
//! must promote to the concurrent engine, conserve exact total weight
//! across the promotion, and report truthful per-tier counts in
//! [`StoreStats`] — while cold keys stay on the cheap sequential tier.

use std::sync::Arc;

use qc_common::Summary;
use qc_store::{SketchStore, StoreConfig, TieredEngine};

const THREADS: usize = 4;
const PER_THREAD: usize = 4_000;

/// 4 threads × 4k updates into one key (all through one stripe lock, the
/// store's intended hot-key discipline): the key must cross the promotion
/// threshold mid-run and lose nothing.
#[test]
fn hot_key_promotes_under_contention_and_conserves_weight() {
    let store = Arc::new(SketchStore::new(
        StoreConfig::default().stripes(1).k(128).b(4).seed(11).promotion_threshold(1_000),
    ));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let store = store.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    store.update("hammered", (t * PER_THREAD + i) as f64);
                }
            });
        }
    });

    let total = (THREADS * PER_THREAD) as u64;
    let stats = store.stats();
    assert_eq!(stats.updates, total);
    assert_eq!(stats.stream_len, total, "exact conservation across promotion");
    assert_eq!(store.summary_of("hammered").unwrap().stream_len(), total);
    assert_eq!(stats.keys, 1);
    assert_eq!(
        (stats.hot_keys, stats.cold_keys),
        (1, 0),
        "16k updates >> threshold 1k: the key must be on the concurrent tier"
    );

    // The promoted key still answers sane quantiles over the union of all
    // four writers' ranges.
    let median = store.query("hammered", 0.5).unwrap();
    assert!(
        (total as f64 * 0.2..total as f64 * 0.8).contains(&median),
        "median {median} of 0..{total}"
    );
}

/// Mixed population: hot keys promote, cold keys stay sequential, and the
/// stats tier counts match per-key ground truth.
#[test]
fn tier_counts_track_per_key_pressure() {
    let store = SketchStore::new(
        StoreConfig::default().stripes(8).k(64).b(4).seed(7).promotion_threshold(200),
    );
    for hot in 0..3 {
        let key = format!("hot-{hot}");
        store.update_many(&key, &(0..1_000).map(f64::from).collect::<Vec<_>>());
    }
    for cold in 0..20 {
        let key = format!("cold-{cold}");
        store.update_many(&key, &(0..10).map(f64::from).collect::<Vec<_>>());
    }
    let stats = store.stats();
    assert_eq!(stats.keys, 23);
    assert_eq!(stats.hot_keys, 3);
    assert_eq!(stats.cold_keys, 20);
    assert_eq!(stats.stream_len, 3 * 1_000 + 20 * 10);

    // Cool-down: two idle sweeps demote the hot keys; weight stays exact.
    store.cool_down();
    assert_eq!(store.cool_down(), 3);
    let stats = store.stats();
    assert_eq!((stats.hot_keys, stats.cold_keys), (0, 23));
    assert_eq!(stats.stream_len, 3 * 1_000 + 20 * 10);
}

/// Tier transitions are observable: promotions/demotions/removals count
/// in the registry, structured events carry the key, and the
/// `telemetry_snapshot` bridge exposes the hot engine's internal
/// counters as `sketch_*` gauges.
#[test]
fn tier_transitions_are_counted_and_evented() {
    use qc_telemetry::EventKind;
    let store = SketchStore::new(
        StoreConfig::default().stripes(4).k(64).b(4).seed(3).promotion_threshold(200),
    );
    store.update_many("hot", &(0..1_000).map(f64::from).collect::<Vec<_>>());
    store.update_many("cold", &[1.0, 2.0]);

    let snap = store.telemetry_snapshot();
    assert_eq!(snap.counter("store_promotions"), Some(1));
    assert_eq!(snap.counter("store_demotions"), Some(0));
    // The hot key's concurrent engine surfaces its internal counters
    // through the InstrumentedSketch bridge.
    assert!(
        snap.gauge("sketch_batches").is_some(),
        "hot engine counters missing from snapshot: {:?}",
        snap.gauges
    );

    // Two idle sweeps demote; the demotion is counted and evented.
    store.cool_down();
    assert_eq!(store.cool_down(), 1);
    store.remove("cold");
    let snap = store.telemetry_snapshot();
    assert_eq!(snap.counter("store_demotions"), Some(1));
    assert_eq!(snap.counter("store_removals"), Some(1));

    let events = store.telemetry().events().drain();
    let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::Promotion), "events: {kinds:?}");
    assert!(kinds.contains(&EventKind::Demotion), "events: {kinds:?}");
    assert!(kinds.contains(&EventKind::Eviction), "events: {kinds:?}");
    let promo = events.iter().find(|e| e.kind == EventKind::Promotion).unwrap();
    assert!(promo.detail.contains("key=hot"), "detail: {}", promo.detail);

    // Per-stripe key gauges partition the key count.
    let stats = store.stats();
    let striped: i64 = snap
        .gauges
        .iter()
        .filter(|(n, _)| n.starts_with("store_stripe_keys_"))
        .map(|&(_, v)| v)
        .sum();
    assert_eq!(striped, stats.keys as i64);
}

/// The memory half of the tiering claim: on an all-cold population a store
/// at the default promotion threshold retains exactly what a store pinned
/// cold (`u64::MAX`) does, an order of magnitude below a store whose keys
/// go hot on their first write (`0`).
#[test]
fn cold_population_memory_profile() {
    const KEYS: usize = 1_000;
    let cfg = |seed| StoreConfig::default().stripes(16).k(256).b(4).seed(seed);
    let tiered = SketchStore::<f64>::new(cfg(1));
    let sequential = SketchStore::<f64>::new(cfg(2).promotion_threshold(u64::MAX));
    let concurrent = SketchStore::<f64>::new(cfg(3).promotion_threshold(0));

    for i in 0..KEYS {
        let key = format!("k{i:04}");
        let vals: Vec<f64> = (0..8).map(|v| (i * 8 + v) as f64).collect();
        tiered.update_many(&key, &vals);
        sequential.update_many(&key, &vals);
        concurrent.update_many(&key, &vals);
    }

    let (t, s, c) =
        (tiered.stats().retained, sequential.stats().retained, concurrent.stats().retained);
    assert_eq!(t, s, "an all-cold default store must cost exactly what a pinned-cold one costs");
    assert!(
        t * 10 <= c,
        "default ({t} words) must be ≥10x below hot-on-first-write ({c} words) on cold keys"
    );
    assert_eq!(tiered.stats().cold_keys, KEYS);
    assert_eq!(concurrent.stats().hot_keys, KEYS);
}

/// Promotion and demotion round-trips keep every engine capability
/// working: queries, wire snapshots, and absorbs all survive migration.
#[test]
fn capabilities_survive_tier_migration() {
    let mut engine = TieredEngine::<f64>::new(64, 4, 5, 100);
    use qc_common::engine::{MergeableSketch, QuantileEstimator, StreamIngest};

    engine.update_many(&(0..5_000).map(f64::from).collect::<Vec<_>>());
    assert!(engine.is_hot());

    // Absorb a remote summary while hot.
    let mut remote = TieredEngine::<f64>::new(64, 4, 6, u64::MAX);
    remote.update_many(&(5_000..6_000).map(f64::from).collect::<Vec<_>>());
    engine.absorb_summary(&remote.to_summary());
    assert_eq!(QuantileEstimator::stream_len(&engine), 6_000);

    // Demote and keep answering.
    engine.demote_now();
    assert!(!engine.is_hot());
    assert_eq!(QuantileEstimator::stream_len(&engine), 6_000);
    let p99 = QuantileEstimator::query(&engine, 0.99).unwrap();
    assert!(p99 > 4_000.0, "p99 {p99}");

    // And back up.
    engine.update_many(&(0..200).map(f64::from).collect::<Vec<_>>());
    assert!(engine.is_hot());
    assert_eq!(QuantileEstimator::stream_len(&engine), 6_200);
}
