//! Cache-coherence property suite for the store's versioned read path.
//!
//! The contract under test: **a read never serves a stale summary**.
//! After any interleaving of `update_many` / `ingest_bytes` / `cool_down`
//! / `remove` — with reads interleaved so the cache is actually populated
//! between mutations — the cached [`SketchStore::summary_of`] must be
//! indistinguishable from a fresh materialization
//! ([`SketchStore::summary_of_uncached`]): same presence, same stream
//! length, same items, same quantiles. Materialization is deterministic
//! for a fixed engine state (fixed merge seeds), so full summary equality
//! is the strongest possible check.
//!
//! The same operation scripts run at three promotion thresholds: pinned
//! cold (`u64::MAX`), hot on the first write (`0`, so `cool_down` demotes
//! idle keys and the next write re-promotes them), and a tiny threshold
//! so scripts cross tier migrations routinely.

use proptest::prelude::*;
use qc_common::OrderedBits;
use qc_common::Summary;
use qc_store::{encode_summary, SketchStore, StoreConfig};

const KEYS: usize = 3;

fn key_name(i: usize) -> String {
    format!("key-{i}")
}

#[derive(Clone, Debug)]
enum Op {
    /// `update_many` of `n` values into a key.
    Update { key: usize, n: usize },
    /// `ingest_bytes` of an `n`-element remote summary into a key.
    Ingest { key: usize, n: usize },
    /// A read (populates the cache so later mutations can go stale).
    Read { key: usize },
    /// One maintenance sweep (tier demotions, cache pruning).
    CoolDown,
    /// Drop a key entirely.
    Remove { key: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Mutations and reads in roughly 2:1 proportion, with occasional
    // sweeps and removals (the vendored proptest has no weighted oneof,
    // so proportions come from repeating arms).
    prop_oneof![
        (0..KEYS, 1usize..300).prop_map(|(key, n)| Op::Update { key, n }),
        (0..KEYS, 300usize..600).prop_map(|(key, n)| Op::Update { key, n }),
        (0..KEYS, 1usize..100).prop_map(|(key, n)| Op::Ingest { key, n }),
        (0..KEYS).prop_map(|key| Op::Read { key }),
        (0..KEYS).prop_map(|key| Op::Read { key }),
        Just(Op::CoolDown),
        (0..KEYS).prop_map(|key| Op::Remove { key }),
    ]
}

/// A wire frame holding `n` unit-weight values derived from `salt`.
fn remote_frame(n: usize, salt: u64) -> Vec<u8> {
    let bits: Vec<u64> =
        (0..n as u64).map(|i| ((salt % 16) as f64 * 1000.0 + i as f64).to_ordered_bits()).collect();
    let summary = qc_common::WeightedSummary::from_parts([(&bits[..], 1u64)]);
    encode_summary(&summary)
}

/// Run a script over a store at promotion threshold `threshold`, checking
/// after every single operation that the cached read path agrees with a
/// fresh materialization for every key.
fn check_script(ops: &[Op], threshold: u64) -> Result<(), TestCaseError> {
    let store = SketchStore::<f64>::new(
        StoreConfig::default().stripes(2).k(32).b(4).seed(11).promotion_threshold(threshold),
    );
    let mut clock = 0u64;
    for op in ops {
        clock += 1;
        match *op {
            Op::Update { key, n } => {
                let values: Vec<f64> = (0..n).map(|i| (clock * 1000 + i as u64) as f64).collect();
                store.update_many(&key_name(key), &values);
            }
            Op::Ingest { key, n } => {
                store
                    .ingest_bytes(&key_name(key), &remote_frame(n, clock))
                    .expect("well-formed frame ingests");
            }
            Op::Read { key } => {
                let _ = store.query(&key_name(key), 0.5);
                let _ = store.rank(&key_name(key), 500.0);
            }
            Op::CoolDown => {
                store.cool_down();
            }
            Op::Remove { key } => {
                store.remove(&key_name(key));
            }
        }
        // The coherence check proper: cached == freshly materialized,
        // for every key, after every op.
        for key in 0..KEYS {
            let name = key_name(key);
            let cached = store.summary_of(&name);
            let direct = store.summary_of_uncached(&name);
            match (cached, direct) {
                (None, None) => {}
                (Some(cached), Some(direct)) => {
                    prop_assert_eq!(
                        cached.stream_len(),
                        direct.stream_len(),
                        "stale stream length for {} after {:?}",
                        &name,
                        op
                    );
                    for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
                        prop_assert_eq!(
                            cached.quantile::<f64>(phi),
                            direct.quantile::<f64>(phi),
                            "stale {}-quantile for {} after {:?}",
                            phi,
                            &name,
                            op
                        );
                    }
                    prop_assert_eq!(
                        &*cached,
                        &direct,
                        "cached summary diverged from fresh materialization for {} after {:?}",
                        &name,
                        op
                    );
                }
                (cached, direct) => {
                    prop_assert!(
                        false,
                        "presence mismatch for {} after {:?}: cached {} vs direct {}",
                        &name,
                        op,
                        cached.is_some(),
                        direct.is_some()
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reads_never_serve_stale_summaries_across_tiers(
        ops in prop::collection::vec(op_strategy(), 1..24)
    ) {
        // Keys go hot within one or two updates, so scripts exercise both
        // tiers and demotion sweeps.
        check_script(&ops, 64)?;
    }

    #[test]
    fn reads_never_serve_stale_summaries_pinned_cold(
        ops in prop::collection::vec(op_strategy(), 1..24)
    ) {
        check_script(&ops, u64::MAX)?;
    }

    #[test]
    fn reads_never_serve_stale_summaries_hot_on_first_write(
        ops in prop::collection::vec(op_strategy(), 1..24)
    ) {
        check_script(&ops, 0)?;
    }
}

/// Deterministic regression: a cache populated before a demotion sweep
/// must not survive it — demotion rebuilds the summary representation
/// even though the stream length is unchanged.
#[test]
fn demotion_invalidates_a_warm_cache() {
    let store = SketchStore::new(
        StoreConfig::default().stripes(1).k(32).b(4).seed(3).promotion_threshold(16),
    );
    store.update_many("hot", &(0..500).map(f64::from).collect::<Vec<_>>());
    let before = store.summary_of("hot").expect("present");
    assert_eq!(store.stats().hot_keys, 1);
    // Two idle sweeps: epoch close, then demote.
    store.cool_down();
    store.cool_down();
    assert_eq!(store.stats().hot_keys, 0);
    let after = store.summary_of("hot").expect("still present");
    assert_eq!(after.stream_len(), 500, "demotion conserves weight");
    assert_eq!(
        *after,
        store.summary_of_uncached("hot").unwrap(),
        "post-demotion reads must serve the demoted representation"
    );
    // The pre-demotion summary object must not be what reads serve now.
    assert_eq!(before.stream_len(), 500);
}
