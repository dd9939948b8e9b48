//! Tour of the sketch-engine API: one generic function drives every
//! backend in the workspace through the `StreamIngest` and
//! `QuantileEstimator` traits, then a tiered keyed store shows promotion
//! and cool-down in action.
//!
//! ```text
//! cargo run --release --example engine_tour
//! ```

use qc_fcds::FcdsEngine;
use qc_sequential::Sketch;
use quancurrent_suite::store::engine::{ConcurrentEngine, TieredEngine};
use quancurrent_suite::{QuantileEstimator, SketchStore, StoreConfig, StreamIngest};

/// Ingest a skewed stream, flush, query, and print one row.
fn tour<E: StreamIngest<f64> + QuantileEstimator<f64>>(name: &str, mut engine: E) {
    for i in 0..100_000u64 {
        // Smooth ramp with a heavy tail every 1000 elements.
        let x = if i % 1000 == 0 { 1e6 + i as f64 } else { (i % 10_000) as f64 };
        engine.update(x);
    }
    engine.flush();
    let [p50, p99] = match engine.quantiles(&[0.5, 0.99])[..] {
        [a, b] => [a.unwrap(), b.unwrap()],
        _ => unreachable!(),
    };
    println!(
        "{:<12} {:>10} {:>12.1} {:>12.1} {:>10.5}",
        name,
        engine.stream_len(),
        p50,
        p99,
        engine.error_bound()
    );
}

fn main() {
    let k = 256;
    // One function, four backends.
    println!("{:<12} {:>10} {:>12} {:>12} {:>10}", "engine", "n", "p50", "p99", "eps(k)");
    tour("sequential", Sketch::<f64>::with_seed(k, 1));
    tour("quancurrent", ConcurrentEngine::<f64>::new(k, 4, 2));
    tour("fcds", FcdsEngine::<f64>::with_seed(k, 1024, 3));
    tour("tiered", TieredEngine::<f64>::new(k, 4, 4, 4096));

    // The tiered store: cold keys stay cheap, the hot key promotes.
    let store = SketchStore::new(
        StoreConfig::default().stripes(16).k(k).b(4).seed(9).promotion_threshold(4096),
    );
    for i in 0..20_000 {
        store.update("checkout-latency", i as f64);
    }
    for tenant in 0..500 {
        let key = format!("tenant-{tenant:03}");
        store.update_many(&key, &[1.0, 2.0, 3.0, 4.0]);
    }
    let stats = store.stats();
    println!(
        "\nstore: {} keys ({} hot / {} cold), {} elements, {} retained words",
        stats.keys, stats.hot_keys, stats.cold_keys, stats.stream_len, stats.retained
    );

    // Two idle cool-down sweeps demote the hot key again.
    store.cool_down();
    let demoted = store.cool_down();
    let stats = store.stats();
    println!(
        "after cool-down: {demoted} demoted -> {} hot / {} cold, {} retained words",
        stats.hot_keys, stats.cold_keys, stats.retained
    );
}
