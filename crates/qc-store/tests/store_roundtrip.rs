//! The PR's acceptance scenario, end to end at the store API:
//! `ingest_bytes(key, snapshot_bytes(key2))` round-trips through the wire
//! format, and a subsequent `merged_query` over both keys matches a
//! reference exact-quantile computation within the sketch error bound.

use qc_common::error::sequential_epsilon;
use qc_common::{OrderedBits, Summary};
use qc_store::{SketchStore, StoreConfig};
use qc_workloads::exact::ExactOracle;

const K: usize = 256;
const B: usize = 4;

fn store() -> SketchStore {
    SketchStore::new(StoreConfig::default().stripes(8).k(K).b(B).seed(4242))
}

#[test]
fn ingest_of_peer_snapshot_round_trips_and_merged_query_matches_exact() {
    let store = store();

    // Two keys over interleaved disjoint streams of different sizes.
    let n_total = 120_000u64;
    let stream_a: Vec<f64> = (0..n_total).filter(|i| i % 3 == 0).map(|i| i as f64).collect();
    let stream_b: Vec<f64> = (0..n_total).filter(|i| i % 3 != 0).map(|i| i as f64).collect();
    store.update_many("alpha", &stream_a);
    store.update_many("beta", &stream_b);

    // Round-trip: serialize beta, fold it into alpha's aggregate.
    let frame = store.snapshot_bytes("beta").expect("beta has data");
    let ingested = store.ingest_bytes("alpha", &frame).expect("frame decodes");
    assert_eq!(ingested, stream_b.len() as u64, "wire frame carried beta's whole stream");

    // Alpha alone now represents the union, weight conserved exactly.
    let alpha = store.summary_of("alpha").unwrap();
    assert_eq!(alpha.stream_len(), n_total);

    // merged_query over both keys = alpha ∪ beta ∪ (ingested beta again):
    // beta's stream now carries double weight under alpha ∪ beta. Query
    // the union of the *original* keys instead on a fresh store pair to
    // keep the reference exact; here we check alpha's own estimates.
    let combined: Vec<f64> = (0..n_total).map(|i| i as f64).collect();
    let oracle = ExactOracle::from_values(&combined);
    let budget = 3.0 * sequential_epsilon(K) + 2.0 * B as f64 / n_total as f64 + 0.005;
    for phi in [0.05, 0.25, 0.5, 0.75, 0.95] {
        let estimate = store.query("alpha", phi).expect("non-empty");
        let err = oracle.rank_error(phi, estimate.to_ordered_bits());
        assert!(err <= budget, "phi={phi}: rank error {err:.5} > budget {budget:.5}");
    }
}

#[test]
fn acceptance_ingest_snapshot_then_merged_query_matches_exact() {
    // The PR's acceptance criterion, verbatim: ingest_bytes(key,
    // snapshot_bytes(key2)) round-trips through the wire format, and a
    // subsequent merged_query over BOTH keys matches a reference exact
    // computation within the sketch error bound.
    let store = store();
    let n = 150_000u64;
    let stream: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
    store.update_many("origin", &stream);

    let frame = store.snapshot_bytes("origin").expect("origin has data");
    let ingested = store.ingest_bytes("mirror", &frame).expect("own frame decodes");
    assert_eq!(ingested, n, "wire round-trip conserved the stream length");

    // The union of origin and its mirror is the stream duplicated; its
    // exact quantiles equal the single stream's (duplication invariance),
    // which gives a crisp reference for merged_query over both keys.
    let merged = store.merged_range_summary(&["origin", "mirror"], 0, u64::MAX);
    assert_eq!(merged.stream_len(), 2 * n);
    let oracle = ExactOracle::from_values(&stream);
    let budget = 3.0 * sequential_epsilon(K) + 2.0 * B as f64 / n as f64 + 0.005;
    for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        let estimate = store.merged_query(&["origin", "mirror"], phi).expect("non-empty");
        let err = oracle.rank_error(phi, estimate.to_ordered_bits());
        assert!(err <= budget, "phi={phi}: rank error {err:.5} > budget {budget:.5}");
    }
}

#[test]
fn merged_query_over_disjoint_keys_matches_exact() {
    let store = store();
    let n_total = 100_000u64;
    let stream_a: Vec<f64> = (0..n_total).filter(|i| i % 2 == 0).map(|i| i as f64).collect();
    let stream_b: Vec<f64> = (0..n_total).filter(|i| i % 2 == 1).map(|i| i as f64).collect();
    store.update_many("even", &stream_a);
    store.update_many("odd", &stream_b);

    let merged = store.merged_range_summary(&["even", "odd"], 0, u64::MAX);
    assert_eq!(merged.stream_len(), n_total, "merge conserves weight exactly");

    let combined: Vec<f64> = (0..n_total).map(|i| i as f64).collect();
    let oracle = ExactOracle::from_values(&combined);
    let budget = 3.0 * sequential_epsilon(K) + 2.0 * B as f64 / n_total as f64 + 0.005;
    for phi in [0.01, 0.1, 0.5, 0.9, 0.99] {
        let estimate = store.merged_query(&["even", "odd"], phi).expect("non-empty");
        let err = oracle.rank_error(phi, estimate.to_ordered_bits());
        assert!(err <= budget, "phi={phi}: rank error {err:.5} > budget {budget:.5}");
    }
}

#[test]
fn cross_store_replication_via_wire() {
    // Simulates two processes: everything the origin store saw arrives at
    // the replica purely as bytes, one frame per key.
    let origin = store();
    for i in 0..30_000u64 {
        origin.update("p50-lat", (i % 997) as f64);
        origin.update("p99-lat", (i % 89) as f64);
    }

    let replica = store();
    for key in origin.keys() {
        let frame = origin.snapshot_bytes(&key).unwrap();
        replica.ingest_bytes(&key, &frame).unwrap();
    }

    assert_eq!(replica.stats().stream_len, origin.stats().stream_len);
    for (key, range) in [("p50-lat", 997.0), ("p99-lat", 89.0)] {
        let a = origin.query(key, 0.5).unwrap();
        let b = replica.query(key, 0.5).unwrap();
        // Values are uniform over [0, range), so value drift / range is a
        // rank-drift proxy; the replica re-compacts once, so allow one
        // extra epsilon over the origin's own estimate.
        let drift = (a - b).abs() / range;
        assert!(drift <= 2.0 * sequential_epsilon(K) + 0.01, "{key}: drift {drift}");
    }
}
