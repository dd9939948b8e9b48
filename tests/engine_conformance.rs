//! Engine-conformance suite: one set of contracts, each a generic function
//! over the engine type bounded only by the `qc_common::engine` traits it
//! exercises, run against every sketch backend.
//!
//! Every backend must satisfy the same read, write and merge contract:
//!
//! 1. **Exact weight conservation**: after a fill (see [`Engine::fill`]),
//!    `stream_len` and `to_summary().stream_len()` equal the ingested
//!    count exactly, whatever internal batching/tiering happened.
//! 2. **Quantile accuracy**: every φ-estimate lands within the engine's
//!    advertised `error_bound()` of the exact rank (with the usual
//!    high-probability slack used throughout this workspace's tests).
//! 3. **Summary round-trip idempotence**: exporting a summary and
//!    absorbing it into a fresh engine of the same family conserves the
//!    weight exactly and moves quantile estimates by at most one more
//!    error budget.
//!
//! The backends: the sequential Agarwal et al. sketch (`qc-sequential`),
//! Quancurrent behind the store's [`ConcurrentEngine`] bundle (the sketch
//! plus its resident writer, which is what gives the concurrent backend
//! exact accounting), the FCDS baseline driven the way the paper's
//! comparison drives it (a per-thread writer from
//! [`ConcurrentIngest::writer`], then [`Fcds::drain`]), and the store's
//! [`TieredEngine`].
//!
//! The store's two engines also carry a state version and lend shared-lock
//! writers (contracts 4 and 5), which the keyed store's read cache and
//! shared-lock write path rest on; those contracts run against
//! [`ConcurrentEngine`] and [`TieredEngine`] in both tiers.

use proptest::prelude::*;
use qc_common::WeightedSummary;
use qc_fcds::Fcds;
use qc_sequential::Sketch;
use qc_store::engine::Writer;
use qc_store::{ConcurrentEngine, TieredEngine};
use qc_workloads::ExactOracle;
use quancurrent_suite::{
    ConcurrentIngest, MergeableSketch, QuantileEstimator, StreamIngest, Summary,
};

const K: usize = 128;

/// The read and merge traits every backend implements, plus the one
/// write step the contracts need.
trait Engine: QuantileEstimator<f64> + MergeableSketch<f64> {
    /// Ingest `values` and make every one of them query-visible.
    fn fill(&mut self, values: &[f64]);
}

/// The single-object backends ingest through `&mut self`, then flush.
macro_rules! fill_through_stream_ingest {
    ($($engine:ty),*) => {$(
        impl Engine for $engine {
            fn fill(&mut self, values: &[f64]) {
                self.update_many(values);
                self.flush();
            }
        }
    )*};
}

fill_through_stream_ingest!(Sketch<f64>, ConcurrentEngine<f64>, TieredEngine<f64>);

/// FCDS ingests through per-thread writers: one writer takes the stream,
/// dropping it publishes its partial buffer, and `drain` waits until the
/// propagator has merged every published buffer.
impl Engine for Fcds<f64> {
    fn fill(&mut self, values: &[f64]) {
        let mut writer = self.writer();
        writer.update_many(values);
        drop(writer);
        self.drain();
    }
}

/// Runs `$check(name, build, args..)?` once per backend, where
/// `build(seed)` makes a fresh engine. The tiered engine must conform in
/// *both* tiers, so it gets a low promotion threshold and is exercised
/// across the migration.
macro_rules! for_each_backend {
    ($check:ident($($arg:expr),* $(,)?)) => {
        $check("sequential", |seed| Sketch::<f64>::with_seed(K, seed), $($arg),*)?;
        $check("concurrent", |seed| ConcurrentEngine::<f64>::new(K, 4, seed), $($arg),*)?;
        $check("fcds", |seed| Fcds::<f64>::with_seed(K, 64, 1, seed), $($arg),*)?;
        $check("tiered", |seed| TieredEngine::<f64>::new(K, 4, seed, 512), $($arg),*)?;
    };
}

/// Runs `$check(name, engine, version, writer, args..)?` for the
/// store's engines: the concurrent engine, and the tiered engine pinned
/// cold, migrating at a 512-update threshold, and hot from its first
/// write.
macro_rules! for_each_store_engine {
    ($check:ident($seed:expr $(, $arg:expr)* $(,)?)) => {
        $check(
            "concurrent",
            ConcurrentEngine::<f64>::new(K, 4, $seed),
            ConcurrentEngine::version,
            |engine: &ConcurrentEngine<f64>| engine.writer(1),
            $($arg),*
        )?;
        for (name, threshold) in [("tiered-cold", u64::MAX), ("tiered", 512), ("tiered-hot", 0)] {
            $check(
                name,
                TieredEngine::<f64>::new(K, 4, $seed, threshold),
                TieredEngine::version,
                |engine: &TieredEngine<f64>| engine.writer(1),
                $($arg),*
            )?;
        }
    };
}

/// A value stream with enough spread to make quantiles meaningful.
fn stream(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = qc_common::rng::Xoshiro256::seed_from_u64(seed);
    (0..len).map(|_| (rng.next_below(1 << 20) as f64) - (1 << 19) as f64).collect()
}

/// Contract 1: exact weight conservation.
fn conserves_weight<E: Engine>(
    name: &str,
    build: impl Fn(u64) -> E,
    seed: u64,
    values: &[f64],
) -> Result<(), TestCaseError> {
    let mut engine = build(seed);
    engine.fill(values);
    let len = values.len() as u64;
    prop_assert_eq!(engine.stream_len(), len, "{name}: stream_len after fill");
    prop_assert_eq!(engine.to_summary().stream_len(), len, "{name}: summary weight");
    Ok(())
}

/// Contract 2: quantile estimates within the advertised ε(k).
fn bounds_quantile_error<E: Engine>(
    name: &str,
    build: impl Fn(u64) -> E,
    seed: u64,
    values: &[f64],
    oracle: &ExactOracle,
) -> Result<(), TestCaseError> {
    let mut engine = build(seed);
    engine.fill(values);
    let eps = engine.error_bound();
    prop_assert!(eps > 0.0 && eps < 0.5, "{name}: eps {eps}");
    for phi in [0.01, 0.25, 0.5, 0.75, 0.99] {
        let est = engine.query(phi).expect("non-empty stream answers");
        // ε is a high-probability bound; 4ε absorbs the fixed seeds while
        // still catching real estimator bugs (the same margin the
        // per-crate suites use).
        let err = oracle.rank_error(phi, quancurrent_suite::OrderedBits::to_ordered_bits(est));
        let bound = 4.0 * eps + 1.0 / values.len() as f64;
        prop_assert!(err <= bound, "{name}: phi={phi} err={err} eps={eps}");
    }
    Ok(())
}

/// Contract 3: summary round-trip idempotence across same-family engines
/// — weight exact, estimates within one more error budget.
fn round_trips_summary<E: Engine>(
    name: &str,
    build: impl Fn(u64) -> E,
    seed: u64,
    values: &[f64],
) -> Result<(), TestCaseError> {
    let len = values.len();
    let mut engine = build(seed);
    engine.fill(values);
    let exported = engine.to_summary();
    let mut fresh = build(seed.wrapping_add(7));
    fresh.absorb_summary(&exported);
    prop_assert_eq!(fresh.stream_len(), len as u64, "{name}: absorbed weight");
    let back = fresh.to_summary();
    prop_assert_eq!(back.stream_len(), exported.stream_len(), "{name}: round-trip weight");
    let eps = engine.error_bound();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    for phi in [0.1, 0.5, 0.9] {
        let a = engine.query(phi).unwrap();
        let b = fresh.query(phi).unwrap();
        // Compare through ranks of the original stream: the two estimates
        // must agree within a small multiple of ε.
        let ra = sorted.partition_point(|&v| v < a) as f64 / len as f64;
        let rb = sorted.partition_point(|&v| v < b) as f64 / len as f64;
        let bound = 8.0 * eps + 2.0 / len as f64;
        prop_assert!((ra - rb).abs() <= bound, "{name}: phi={phi} ranks {ra} vs {rb}");
    }
    Ok(())
}

/// Contract 4: the version counter is monotone across mutations and stable
/// across reads and empty shared writes — the invariant the store's
/// summary cache rests on (a read tagged with version v stays valid while
/// `version()` still returns v).
fn versions_mutations_only<E: Engine>(
    name: &str,
    mut engine: E,
    version: impl Fn(&E) -> u64,
    writer: impl Fn(&E) -> Option<Writer<'_, f64>>,
    values: &[f64],
) -> Result<(), TestCaseError> {
    let v0 = version(&engine);
    engine.fill(values);
    let v1 = version(&engine);
    prop_assert!(v1 > v0, "{name}: flushed updates must advance the version");
    let _ = engine.query(0.5);
    let _ = engine.cdf(&[0.0]);
    let snapshot = engine.to_summary();
    if let Some(mut idle) = writer(&engine) {
        idle.write(&[]);
    }
    prop_assert_eq!(version(&engine), v1, "{name}: reads and empty writes must not move it");
    engine.absorb_summary(&snapshot);
    prop_assert!(version(&engine) > v1, "{name}: absorbing weight must advance the version");
    Ok(())
}

/// Contract 5 (shared-ingest law): weight written through a shared
/// writer is, when its `write` returns, exactly visible to
/// `stream_len`/`to_summary`, and the write advances the version past any
/// earlier reading. An engine that declines a writer (`writer` → `None`,
/// the tiered engine while cold) must keep full `&mut self` ingestion as
/// the fallback.
fn leases_exactly<E: Engine>(
    name: &str,
    mut engine: E,
    version: impl Fn(&E) -> u64,
    writer: impl Fn(&E) -> Option<Writer<'_, f64>>,
    values: &[f64],
    leased_values: &[f64],
) -> Result<(), TestCaseError> {
    // Prime through the exclusive path first: the tiered engine only
    // lends writers once hot (at the 512 threshold, small streams
    // legitimately stay cold and decline).
    engine.fill(values);
    let v0 = version(&engine);
    let Some(mut shared) = writer(&engine) else {
        prop_assert!(name != "concurrent" && name != "tiered-hot", "{name}: hot tiers lend");
        return Ok(());
    };
    shared.write(leased_values);
    // The writer borrows the engine: it is given back before the
    // exclusive path below can run.
    drop(shared);
    prop_assert!(version(&engine) > v0, "{name}: a shared write must advance the version");
    let total = (values.len() + leased_values.len()) as u64;
    prop_assert_eq!(engine.stream_len(), total, "{name}: shared weight exact after the write");
    prop_assert_eq!(engine.to_summary().stream_len(), total, "{name}: summary weight");
    // The exclusive path composes with earlier shared writes.
    engine.fill(&[1.0, 2.0, 3.0]);
    prop_assert_eq!(engine.stream_len(), total + 3, "{name}: composed");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 1: exact weight conservation.
    #[test]
    fn weight_is_conserved_exactly(
        len in 1usize..4000,
        seed in 1u64..1_000,
    ) {
        let values = stream(len, seed);
        for_each_backend!(conserves_weight(seed, &values));
    }

    /// Contract 2: quantile estimates within the advertised ε(k).
    #[test]
    fn quantile_error_is_bounded(
        len in 512usize..6000,
        seed in 1u64..500,
    ) {
        let values = stream(len, seed);
        let oracle = ExactOracle::from_values(&values);
        for_each_backend!(bounds_quantile_error(seed, &values, &oracle));
    }

    /// Contract 3: summary round-trip idempotence.
    #[test]
    fn summary_round_trip_is_idempotent(
        len in 256usize..4000,
        seed in 1u64..500,
    ) {
        let values = stream(len, seed);
        for_each_backend!(round_trips_summary(seed, &values));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Contract 5: shared-write weight is exact when the write returns.
    #[test]
    fn shared_ingest_law(
        len in 64usize..2000,
        leased_len in 1usize..2000,
        seed in 1u64..500,
    ) {
        let values = stream(len, seed);
        let leased_values = stream(leased_len, seed ^ 0x5ea5e);
        for_each_store_engine!(leases_exactly(seed, &values, &leased_values));
    }

    /// Contract 4: versions move on mutations and hold on reads.
    #[test]
    fn version_advances_on_mutations_and_holds_on_reads(
        len in 1usize..2000,
        seed in 1u64..500,
    ) {
        let values = stream(len, seed);
        for_each_store_engine!(versions_mutations_only(seed, &values));
    }
}

/// Builds a backend's engine, fills it and exports its summary.
fn export<E: Engine>(
    name: &'static str,
    build: impl Fn(u64) -> E,
    values: &[f64],
    exports: &mut Vec<(&'static str, WeightedSummary)>,
) -> Result<(), TestCaseError> {
    let mut engine = build(1);
    engine.fill(values);
    exports.push((name, engine.to_summary()));
    Ok(())
}

/// Absorbs `summary`, exported by `source`, into a fresh engine.
fn absorbs_exactly<E: Engine>(
    name: &str,
    build: impl Fn(u64) -> E,
    source: &str,
    summary: &WeightedSummary,
) -> Result<(), TestCaseError> {
    let mut engine = build(99);
    engine.absorb_summary(summary);
    prop_assert_eq!(engine.stream_len(), summary.stream_len(), "{source} -> {name}: weight");
    prop_assert!(engine.query(0.5).is_some(), "{source} -> {name}: queryable");
    Ok(())
}

/// Cross-backend interchange: any backend's export is absorbable by any
/// other backend, with exact weight conservation — the property the
/// tiered store's promotions/demotions and the wire layer rest on.
#[test]
fn summaries_interchange_across_backends() -> Result<(), TestCaseError> {
    let values = stream(3000, 42);
    let mut exports = Vec::new();
    for_each_backend!(export(&values, &mut exports));
    for (source, summary) in &exports {
        assert_eq!(summary.stream_len(), 3000, "{source}: exported weight");
        for_each_backend!(absorbs_exactly(source, summary));
    }
    Ok(())
}

/// Multi-writer conformance for the handle-based backends: writers from
/// several threads, then exact conservation at quiescence. Run with
/// `b = 1` for Quancurrent so no tail is ever thread-local (FCDS flushes
/// its tail on writer drop).
#[test]
fn concurrent_ingest_conserves_across_writers() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 5000;

    let qc = quancurrent::Quancurrent::<f64>::builder().k(64).b(1).seed(3).build();
    let fcds = qc_fcds::Fcds::<f64>::with_seed(64, 128, THREADS, 4);
    let backends: [(&str, &dyn ConcurrentIngest<f64>); 2] = [("quancurrent", &qc), ("fcds", &fcds)];

    for (name, backend) in backends {
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let mut writer = backend.writer();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        writer.update((t * PER_THREAD + i) as f64);
                    }
                    writer.flush();
                });
            }
        });
        let _ = name;
    }
    fcds.drain();
    let total = (THREADS * PER_THREAD) as u64;
    // Quancurrent with b = 1: every element reached the levels or a
    // Gather&Sort buffer.
    assert_eq!(qc.stream_len() + qc.buffered_len() as u64, total, "quancurrent conservation");
    assert_eq!(qc.quiescent_summary().stream_len(), total);
    // FCDS: writer drop flushed, drain propagated everything.
    use quancurrent_suite::QuantileEstimator;
    assert_eq!(QuantileEstimator::stream_len(&fcds), total, "fcds conservation");
}
