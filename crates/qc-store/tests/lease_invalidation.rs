//! Lease-invalidation suite: random interleavings of leased and direct
//! writes with `remove`, `cool_down` (demotion), and promotion, run at
//! three promotion thresholds: pinned cold, hot on the first write, and a
//! small one that interleavings cross both ways.
//!
//! The invariants, checked after every op against a shadow model:
//!
//! 1. **Exact weight conservation** — each key's resident summary weight
//!    equals exactly the weight written to it since its last removal,
//!    whatever mix of shared-path, leased, and fallback writes delivered
//!    it and however many tier migrations happened in between.
//! 2. **Generation isolation** — a lease minted before a `remove` or a
//!    demotion is rejected with [`StaleLease`]; its re-routed weight is
//!    delivered by the fallback path exactly once, and **no write ever
//!    lands in a removed key's successor generation** through a stale
//!    handle.
//! 3. **Counter exactness** — `StoreStats::updates` equals the weight
//!    ever handed to the store (removal discards resident weight, not
//!    counter history), and every batch is attributed to exactly one of
//!    `shared_writes`/`fallback_writes`.

use proptest::prelude::*;
use qc_common::Summary;
use qc_store::{SketchStore, StaleLease, StoreConfig, WriterLease};

const KEYS: [&str; 3] = ["alpha", "beta", "gamma"];

/// One step of the interleaving.
#[derive(Clone, Debug)]
enum Op {
    /// `update_many` through the store's own two-tier path.
    Update { key: usize, n: u64 },
    /// `update_many_leased` through a held (possibly stale) lease,
    /// falling back like the serving layer does.
    LeasedUpdate { key: usize, n: u64 },
    /// Remove the key; its weight is discarded and any held lease must go
    /// stale.
    Remove { key: usize },
    /// A housekeeping sweep: closes epochs, demotes idle hot keys
    /// (invalidating their leases), drops idle pool handles.
    CoolDown,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weight the mix toward writes by decoding a discriminant range (the
    // vendored proptest's `prop_oneof!` is unweighted): 0-3 direct write,
    // 4-7 leased write, 8 remove, 9-10 cool-down.
    (0u8..11, 0usize..KEYS.len(), 1u64..200).prop_map(|(kind, key, n)| match kind {
        0..=3 => Op::Update { key, n },
        4..=7 => Op::LeasedUpdate { key, n },
        8 => Op::Remove { key },
        _ => Op::CoolDown,
    })
}

fn cfg(seed: u64) -> StoreConfig {
    // A low promotion threshold so random interleavings cross tiers both
    // ways many times; 2 stripes so keys collide.
    StoreConfig::default().stripes(2).k(64).b(4).seed(seed).promotion_threshold(64).writer_pool(4)
}

/// Run one op sequence at one promotion threshold, checking the shadow
/// model after every step.
fn run_ops(ops: &[Op], seed: u64, threshold: u64) -> Result<(), TestCaseError> {
    let store = SketchStore::<f64>::new(cfg(seed).promotion_threshold(threshold));
    let mut expected = [0u64; KEYS.len()];
    let mut written_total = 0u64;
    let mut leases: Vec<Option<WriterLease<f64>>> = (0..KEYS.len()).map(|_| None).collect();
    let mut x = 0.0f64;
    let mut batch = |n: u64| -> Vec<f64> {
        (0..n)
            .map(|_| {
                x += 1.0;
                x
            })
            .collect()
    };

    for op in ops {
        match *op {
            Op::Update { key, n } => {
                store.update_many(KEYS[key], &batch(n));
                expected[key] += n;
                written_total += n;
            }
            Op::LeasedUpdate { key, n } => {
                let values = batch(n);
                if leases[key].is_none() {
                    leases[key] = store.lease_writer(KEYS[key]);
                }
                match leases[key].as_mut() {
                    Some(lease) => {
                        match store.update_many_leased(KEYS[key], lease, &values) {
                            Ok(()) => {}
                            Err(StaleLease) => {
                                // The store guarantees the rejected write
                                // moved no weight: deliver it exactly once
                                // through the fallback (as qc-server does).
                                leases[key] = None;
                                store.update_many(KEYS[key], &values);
                            }
                        }
                    }
                    // Key absent or engine cold: the lease was declined.
                    None => store.update_many(KEYS[key], &values),
                }
                expected[key] += n;
                written_total += n;
            }
            Op::Remove { key } => {
                store.remove(KEYS[key]);
                expected[key] = 0;
                // Deliberately KEEP the stale lease: later LeasedUpdate
                // steps must be rejected and re-routed, never delivered
                // into the successor generation's engine.
            }
            Op::CoolDown => {
                store.cool_down();
            }
        }

        // Invariant 1: per-key weight exact after every single op.
        for (i, key) in KEYS.iter().enumerate() {
            let got = store.summary_of(key).map(|s| s.stream_len()).unwrap_or(0);
            prop_assert_eq!(
                got,
                expected[i],
                "key {} diverged after {:?} (promotion threshold {})",
                key,
                op,
                threshold
            );
        }
    }

    // Invariant 3: counters exact at quiescence.
    let stats = store.stats();
    prop_assert_eq!(stats.updates, written_total, "updates counter must count every element once");
    prop_assert_eq!(stats.stream_len, expected.iter().sum::<u64>());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleavings_conserve_weight_at_every_promotion_threshold(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in 1u64..1000,
    ) {
        run_ops(&ops, seed, u64::MAX)?;
        run_ops(&ops, seed, 0)?;
        run_ops(&ops, seed, 64)?;
    }
}

/// The deterministic core of invariant 2, spelled out: remove → recreate
/// → the pre-removal lease must never write into the successor.
#[test]
fn stale_lease_never_writes_into_successor_generation() {
    let store = SketchStore::new(cfg(42));
    store.update_many("k", &(0..100).map(f64::from).collect::<Vec<_>>());
    let mut lease = store.lease_writer("k").expect("hot key leases");
    let gen_before = lease.generation();

    assert!(store.remove("k"));
    store.update_many("k", &(0..100).map(f64::from).collect::<Vec<_>>());
    let successor = store.lease_writer("k").expect("successor re-promoted past the threshold");
    assert_ne!(successor.generation(), gen_before, "generations are never reused");

    for _ in 0..3 {
        assert_eq!(
            store.update_many_leased("k", &mut lease, &[999.0]),
            Err(StaleLease),
            "a retired generation must stay rejected"
        );
    }
    assert_eq!(store.summary_of("k").unwrap().stream_len(), 100);
    assert_eq!(store.rank("k", 500.0), Some(1.0), "no 999.0 leaked into the successor");
}

/// Demotion-path counterpart: cool-down demotes a hot key with a held
/// lease; the lease goes stale, the weight stays exact, and the key keeps
/// serving through both paths afterwards.
#[test]
fn demotion_retires_leases_and_conserves_weight() {
    let store = SketchStore::new(cfg(43));
    store.update_many("k", &(0..100).map(f64::from).collect::<Vec<_>>());
    let mut lease = store.lease_writer("k").expect("hot key leases");
    store
        .update_many_leased("k", &mut lease, &(100..150).map(f64::from).collect::<Vec<_>>())
        .unwrap();

    // First sweep closes the busy epoch, second demotes.
    assert_eq!(store.cool_down(), 0);
    assert_eq!(store.cool_down(), 1);
    assert_eq!(store.stats().hot_keys, 0);
    assert_eq!(store.summary_of("k").unwrap().stream_len(), 150);

    assert_eq!(store.update_many_leased("k", &mut lease, &[7.0]), Err(StaleLease));
    store.update_many("k", &(150..250).map(f64::from).collect::<Vec<_>>());
    assert_eq!(store.summary_of("k").unwrap().stream_len(), 250);
    let stats = store.stats();
    assert_eq!(stats.updates, 250);
    assert_eq!(stats.stream_len, 250);
}
