//! Keyed-store benchmarks: update throughput vs stripe count (the store's
//! scaling knob), the snapshot/ingest wire path, merged queries — and the
//! **engines axis**: the same store workloads run over the sequential,
//! concurrent, and tiered per-key engines.
//!
//! The headline series is `store_update_8_threads/<stripes>`: 8 writer
//! threads spraying updates across 64 keys. With one stripe every writer
//! contends on one mutex; with 16+ stripes writers mostly own their stripe
//! and throughput should approach the per-sketch ingestion rate.
//!
//! The engines axis asks the tiering questions directly:
//!
//! * `store_engines_hot_key/<engine>` — one key hammered far past the
//!   promotion threshold: tiered must track the concurrent engine, not
//!   the sequential one.
//! * `store_engines_cold_spray/<engine>` — 10 000 keys touched a handful
//!   of times each: tiered must track the sequential engine's memory
//!   profile (the run prints each engine's `retained` footprint — the
//!   concurrent engine preallocates Gather&Sort buffers per key, roughly
//!   an order of magnitude more).
//!
//! The **write-contention axis** (`store_write_hot_key_<n>_threads/`)
//! asks the write-path question: N threads batch-updating ONE hot key,
//! leased shared-lock path (`shared`) vs the exclusive-lock baseline
//! (`fallback`, pinned via `writer_pool(0)`). The multi-thread shared
//! series must scale; the baseline serializes by construction.
//!
//! The **telemetry axis** (`store_telemetry_overhead{,_batched}/`)
//! prices observation itself: identical hot-key write loops against the
//! live default registry vs `Registry::disabled()`. On the batched
//! (throughput-carrying) path the instrumented series must sit within
//! the noise floor (<2%); the single-element series documents the worst
//! case — two sharded relaxed increments against a ~170 ns op.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qc_common::Summary;
use qc_store::{
    ConcurrentEngine, SequentialEngine, SketchStore, StoreConfig, StoreEngine, TieredEngine,
};
use qc_workloads::streams::{Distribution, StreamGen};

const KEYS: usize = 64;
const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 16 * 1024;

fn key_names() -> Vec<String> {
    (0..KEYS).map(|i| format!("stream-{i:03}")).collect()
}

fn cfg(stripes: usize, seed: u64) -> StoreConfig {
    StoreConfig::default().stripes(stripes).k(256).b(4).seed(seed)
}

fn bench_update_vs_stripes(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_update_8_threads");
    group.sample_size(10);
    group.throughput(Throughput::Elements((THREADS * OPS_PER_THREAD) as u64));
    for &stripes in &[1usize, 4, 16, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(stripes),
            &stripes,
            |bencher, &stripes| {
                let keys = key_names();
                bencher.iter(|| {
                    let store = SketchStore::new(cfg(stripes, 7));
                    std::thread::scope(|s| {
                        for t in 0..THREADS {
                            let store = &store;
                            let keys = &keys;
                            s.spawn(move || {
                                let mut gen = StreamGen::new(Distribution::Uniform, t as u64);
                                for i in 0..OPS_PER_THREAD {
                                    // Round-robin with a thread-dependent
                                    // offset: all threads touch all keys.
                                    let key = &keys[(i * THREADS + t) % KEYS];
                                    store.update(key, gen.next_f64());
                                }
                            });
                        }
                    });
                    black_box(store.stats().updates)
                });
            },
        );
    }
    group.finish();
}

fn bench_single_thread_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_update_single_thread");
    group.throughput(Throughput::Elements(1));
    group.bench_function("hot_key", |bencher| {
        let store = SketchStore::new(cfg(16, 3));
        let mut gen = StreamGen::new(Distribution::Uniform, 5);
        bencher.iter(|| store.update("hot", black_box(gen.next_f64())));
    });
    group.bench_function("key_spray", |bencher| {
        let store = SketchStore::new(cfg(16, 4));
        let keys = key_names();
        let mut gen = StreamGen::new(Distribution::Uniform, 6);
        let mut i = 0usize;
        bencher.iter(|| {
            i += 1;
            store.update(&keys[i % KEYS], black_box(gen.next_f64()))
        });
    });
    group.finish();
}

const HOT_OPS: usize = 256 * 1024;

/// Run one engines-axis workload over a given engine type, returning the
/// final stats for the footprint report.
fn run_hot_key<E: StoreEngine<f64>>(seed: u64) -> u64 {
    let store = SketchStore::<f64, E>::with_engine(cfg(4, seed));
    let mut gen = StreamGen::new(Distribution::Uniform, seed);
    // 256k updates on one key: the default promotion threshold (4k) is
    // crossed in the first 2%, so the measurement reflects the steady
    // state of whatever tier the engine settles in.
    for _ in 0..HOT_OPS {
        store.update("hot", gen.next_f64());
    }
    store.stats().updates
}

fn run_cold_spray<E: StoreEngine<f64>>(seed: u64, report: bool, name: &str) -> u64 {
    const COLD_KEYS: usize = 10_000;
    const TOUCHES: usize = 8;
    let store = SketchStore::<f64, E>::with_engine(cfg(64, seed));
    let mut gen = StreamGen::new(Distribution::Uniform, seed);
    for i in 0..COLD_KEYS {
        let key = format!("cold-{i:05}");
        for _ in 0..TOUCHES {
            store.update(&key, gen.next_f64());
        }
    }
    let stats = store.stats();
    if report {
        // The memory-profile half of the engines axis: retained 64-bit
        // words across all 10k cold keys (criterion measures the time
        // half). Tiered must match sequential here, not concurrent.
        println!(
            "store_engines_cold_spray/{name}: {} keys, retained {} words \
             ({} cold / {} hot)",
            stats.keys, stats.retained, stats.cold_keys, stats.hot_keys
        );
    }
    stats.retained
}

fn bench_engines_axis(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_engines_hot_key");
    group.sample_size(10);
    group.throughput(Throughput::Elements(HOT_OPS as u64));
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(run_hot_key::<SequentialEngine>(11)))
    });
    group.bench_function("concurrent", |b| {
        b.iter(|| black_box(run_hot_key::<ConcurrentEngine>(12)))
    });
    group.bench_function("tiered", |b| b.iter(|| black_box(run_hot_key::<TieredEngine>(13))));
    group.finish();

    // One-shot footprint report per engine (outside the timed loops).
    run_cold_spray::<SequentialEngine>(21, true, "sequential");
    run_cold_spray::<ConcurrentEngine>(22, true, "concurrent");
    run_cold_spray::<TieredEngine>(23, true, "tiered");

    let mut group = c.benchmark_group("store_engines_cold_spray");
    group.sample_size(10);
    group.throughput(Throughput::Elements(10_000 * 8));
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(run_cold_spray::<SequentialEngine>(21, false, "sequential")))
    });
    group.bench_function("concurrent", |b| {
        b.iter(|| black_box(run_cold_spray::<ConcurrentEngine>(22, false, "concurrent")))
    });
    group.bench_function("tiered", |b| {
        b.iter(|| black_box(run_cold_spray::<TieredEngine>(23, false, "tiered")))
    });
    group.finish();
}

const WRITE_KEY: &str = "hot";
const WRITE_BATCH: usize = 256;
const WRITE_BATCHES_TOTAL: usize = 512;

/// One pass of the hot-key write-contention axis: `threads` writers split
/// `WRITE_BATCHES_TOTAL` batches of `WRITE_BATCH` elements on ONE
/// pre-promoted key. `shared` selects the leased-writer fast path; the
/// baseline pins `writer_pool(0)`, so every batch serializes on the
/// stripe write lock — the cost all hot-key writes paid before leases.
fn write_contention_store(seed: u64, shared: bool) -> SketchStore {
    let mut cfg = cfg(4, seed).promotion_threshold(128);
    if !shared {
        cfg = cfg.writer_pool(0);
    }
    let store = SketchStore::new(cfg);
    // Pre-promote outside the timed loop.
    let mut gen = StreamGen::new(Distribution::Uniform, seed ^ 0xfeed);
    let warm: Vec<f64> = (0..512).map(|_| gen.next_f64()).collect();
    store.update_many(WRITE_KEY, &warm);
    store
}

fn run_write_contention(store: &SketchStore, threads: usize) -> u64 {
    let per_thread = WRITE_BATCHES_TOTAL / threads;
    std::thread::scope(|s| {
        for t in 0..threads {
            let store = &store;
            s.spawn(move || {
                let mut gen = StreamGen::new(Distribution::Uniform, 0x5eed + t as u64);
                let mut batch = vec![0.0f64; WRITE_BATCH];
                for _ in 0..per_thread {
                    for slot in batch.iter_mut() {
                        *slot = gen.next_f64();
                    }
                    store.update_many(WRITE_KEY, &batch);
                }
            });
        }
    });
    store.stats().updates
}

/// The tentpole acceptance axis for the write path: hot-key `update_many`
/// under 1/2/4 threads, leased shared path vs exclusive-lock baseline.
fn bench_write_contention(c: &mut Criterion) {
    for &threads in &[1usize, 2, 4] {
        let mut group = c.benchmark_group(format!("store_write_hot_key_{threads}_threads"));
        group.sample_size(10);
        group.throughput(Throughput::Elements((WRITE_BATCHES_TOTAL * WRITE_BATCH) as u64));
        for (name, shared) in [("shared", true), ("fallback", false)] {
            group.bench_function(name, |bencher| {
                let store = write_contention_store(51 + threads as u64, shared);
                bencher.iter(|| black_box(run_write_contention(&store, threads)));
            });
        }
        group.finish();
    }
}

const MIX_KEYS: usize = 8;
const MIX_OPS: usize = 4096;
const MIX_WRITE_BATCH: usize = 32;

/// One pass of the 90/10 read-write mix over hot keys: op `i` is an
/// `update_many` when `i % 10 == 0`, otherwise alternating `query`/`rank`.
/// `cached` selects the store's summary-cache read path; the baseline
/// re-materializes per read (the cost every read paid before the cache).
fn run_read_mix(store: &SketchStore, keys: &[String], gen: &mut StreamGen, cached: bool) -> u64 {
    let mut answered = 0u64;
    for i in 0..MIX_OPS {
        let key = &keys[i % MIX_KEYS];
        if i % 10 == 0 {
            let batch: Vec<f64> = (0..MIX_WRITE_BATCH).map(|_| gen.next_f64()).collect();
            store.update_many(key, &batch);
        } else if cached {
            let hit = if i % 2 == 0 {
                store.query(key, 0.99).is_some()
            } else {
                store.rank(key, 0.5).is_some()
            };
            answered += hit as u64;
        } else {
            let summary = store.summary_of_uncached(key);
            let hit = match summary {
                Some(s) if i % 2 == 0 => s.quantile::<f64>(0.99).is_some(),
                Some(s) => {
                    black_box(s.rank_fraction(0.5));
                    true
                }
                None => false,
            };
            answered += hit as u64;
        }
    }
    answered
}

fn mix_store(seed: u64) -> (SketchStore, Vec<String>) {
    // ONE stripe: every key collides, the worst case for reader/writer
    // interference — exactly where the RwLock + cache must pay off.
    let store = SketchStore::new(cfg(1, seed));
    let keys: Vec<String> = (0..MIX_KEYS).map(|i| format!("hot-{i:02}")).collect();
    let mut gen = StreamGen::new(Distribution::Uniform, seed ^ 0xabc);
    for key in &keys {
        let batch: Vec<f64> = (0..64 * 1024).map(|_| gen.next_f64()).collect();
        store.update_many(key, &batch);
    }
    (store, keys)
}

/// The tentpole acceptance axis: 90% `query`/`rank`, 10% `update_many`,
/// keys colliding on one stripe — cached read path vs per-read
/// materialization, single-threaded and with 4 mixed-workload threads.
fn bench_read_heavy_mixed(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_read_mixed");
    group.sample_size(10);
    group.throughput(Throughput::Elements(MIX_OPS as u64));
    for (name, cached) in [("cached", true), ("uncached", false)] {
        group.bench_function(name, |bencher| {
            let (store, keys) = mix_store(31);
            let mut gen = StreamGen::new(Distribution::Uniform, 37);
            bencher.iter(|| black_box(run_read_mix(&store, &keys, &mut gen, cached)));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("store_read_mixed_4_threads");
    group.sample_size(10);
    group.throughput(Throughput::Elements((4 * MIX_OPS) as u64));
    for (name, cached) in [("cached", true), ("uncached", false)] {
        group.bench_function(name, |bencher| {
            let (store, keys) = mix_store(41);
            bencher.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..4usize {
                        let store = &store;
                        let keys = &keys;
                        s.spawn(move || {
                            let mut gen = StreamGen::new(Distribution::Uniform, 43 + t as u64);
                            black_box(run_read_mix(store, keys, &mut gen, cached));
                        });
                    }
                });
            });
        });
    }
    group.finish();
}

const TELEMETRY_BATCH: usize = 256;

fn telemetry_store(seed: u64, disabled: bool) -> SketchStore {
    let mut config = cfg(16, seed);
    if disabled {
        config = config.telemetry(std::sync::Arc::new(qc_telemetry::Registry::disabled()));
    }
    SketchStore::new(config)
}

/// The telemetry acceptance axis: identical hot-key write loops against
/// the default live registry vs `Registry::disabled()` inert handles.
///
/// Two workloads bound the cost from both ends:
///
/// * `store_telemetry_overhead_batched/` — the throughput-carrying write
///   path (`update_many`, batch = 256, the write-contention axis shape):
///   two sharded relaxed increments per *batch*, so the instrumented
///   series must sit within the noise floor (<2%) of the disabled one.
/// * `store_telemetry_overhead/` — the worst case: single-element
///   `update`, where those same two increments land on every ~170 ns op.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_telemetry_overhead");
    group.throughput(Throughput::Elements(1));
    for (name, disabled) in [("instrumented", false), ("disabled", true)] {
        group.bench_function(name, |bencher| {
            let store = telemetry_store(77, disabled);
            let mut gen = StreamGen::new(Distribution::Uniform, 78);
            bencher.iter(|| store.update("hot", black_box(gen.next_f64())));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("store_telemetry_overhead_batched");
    group.throughput(Throughput::Elements(TELEMETRY_BATCH as u64));
    for (name, disabled) in [("instrumented", false), ("disabled", true)] {
        group.bench_function(name, |bencher| {
            let store = telemetry_store(79, disabled);
            let mut gen = StreamGen::new(Distribution::Uniform, 80);
            let mut batch = vec![0.0f64; TELEMETRY_BATCH];
            bencher.iter(|| {
                for slot in batch.iter_mut() {
                    *slot = gen.next_f64();
                }
                store.update_many("hot", black_box(&batch));
            });
        });
    }
    group.finish();
}

const WAL_BATCH: usize = 256;

/// A store with the given durability setting, logging into `dir`.
/// `None` is the in-memory baseline every WAL series is priced against.
fn wal_store(
    seed: u64,
    dir: &qc_workloads::TempDir,
    policy: Option<qc_store::FsyncPolicy>,
) -> SketchStore {
    let mut config = cfg(4, seed);
    if let Some(policy) = policy {
        config = config.data_dir(dir.path()).fsync(policy);
    }
    match policy {
        None => SketchStore::new(config),
        Some(_) => SketchStore::<f64>::recover(config).expect("fresh data dir").0,
    }
}

/// The durability acceptance axis: identical hot-key write loops with the
/// log detached (`memory`) and attached under each fsync policy.
///
/// * `store_wal_overhead_batched/` — the throughput-carrying path
///   (`update_many`, batch = 256): one frame append (+ optional fsync)
///   amortized over 256 elements.
/// * `store_wal_overhead/` — the worst case: single-element `update`,
///   one frame and one policy decision per ~170 ns op. `per_frame` here
///   is the price of "ack ⇒ durable" paid on every element — expect
///   orders of magnitude, that is the honest number.
///
/// The log grows unboundedly inside the timed loop by design (no
/// checkpoint runs), matching what a server does between housekeeping
/// sweeps.
fn bench_wal_overhead(c: &mut Criterion) {
    let series: [(&str, Option<qc_store::FsyncPolicy>); 4] = [
        ("memory", None),
        ("wal_off", Some(qc_store::FsyncPolicy::Off)),
        ("wal_interval_1ms", Some(qc_store::FsyncPolicy::Interval(Duration::from_millis(1)))),
        ("wal_per_frame", Some(qc_store::FsyncPolicy::PerFrame)),
    ];

    let mut group = c.benchmark_group("store_wal_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(1));
    for (name, policy) in series {
        group.bench_function(name, |bencher| {
            let dir = qc_workloads::TempDir::new("bench-wal");
            let store = wal_store(91, &dir, policy);
            let mut gen = StreamGen::new(Distribution::Uniform, 92);
            bencher.iter(|| store.update("hot", black_box(gen.next_f64())));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("store_wal_overhead_batched");
    group.sample_size(10);
    group.throughput(Throughput::Elements(WAL_BATCH as u64));
    for (name, policy) in series {
        group.bench_function(name, |bencher| {
            let dir = qc_workloads::TempDir::new("bench-wal-batched");
            let store = wal_store(93, &dir, policy);
            let mut gen = StreamGen::new(Distribution::Uniform, 94);
            let mut batch = vec![0.0f64; WAL_BATCH];
            bencher.iter(|| {
                for slot in batch.iter_mut() {
                    *slot = gen.next_f64();
                }
                store.update_many("hot", black_box(&batch));
            });
        });
    }
    group.finish();
}

const GROUP_OPS_PER_THREAD: usize = 32;

/// The group-commit axis: N concurrent durable writers under `PerFrame`
/// sharing fsyncs through leader-based group commit. Every op is a
/// single-element durable update — one ack ⇒ one covered LSN — so at 1
/// thread an op costs one append plus one ~170 µs fsync, while at 4
/// threads each fsync is shared across all writers and the per-op cost
/// must fall by multiples (3.5× against the retired per-writer-fsync
/// discipline when that was last measured beside it; see CHANGES.md,
/// PR 10).
fn bench_wal_group_commit(c: &mut Criterion) {
    for &threads in &[1usize, 2, 4] {
        let mut group = c.benchmark_group(format!("store_wal_group_{threads}_threads"));
        group.sample_size(10);
        group.throughput(Throughput::Elements((threads * GROUP_OPS_PER_THREAD) as u64));
        group.bench_function("group", |bencher| {
            let dir = qc_workloads::TempDir::new("bench-wal-group");
            let config = cfg(4, 101).data_dir(dir.path()).fsync(qc_store::FsyncPolicy::PerFrame);
            let store = SketchStore::<f64>::recover(config).expect("fresh data dir").0;
            bencher.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let store = &store;
                        s.spawn(move || {
                            let mut gen = StreamGen::new(Distribution::Uniform, 0x9a + t as u64);
                            let key = format!("writer-{t}");
                            for _ in 0..GROUP_OPS_PER_THREAD {
                                store.update(&key, gen.next_f64());
                            }
                        });
                    }
                });
                black_box(store.stats().updates)
            });
        });
        group.finish();
    }
}

fn bench_wire_roundtrip(c: &mut Criterion) {
    let store = SketchStore::new(cfg(4, 9));
    let mut gen = StreamGen::new(Distribution::Normal { mean: 0.0, std_dev: 1.0 }, 11);
    for _ in 0..200_000 {
        store.update("src", gen.next_f64());
    }
    let frame = store.snapshot_bytes("src").unwrap();

    let mut group = c.benchmark_group("store_wire");
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("snapshot_bytes", |bencher| {
        bencher.iter(|| black_box(store.snapshot_bytes("src").unwrap()));
    });
    group.bench_function("ingest_bytes", |bencher| {
        let sink: SketchStore = SketchStore::new(cfg(4, 10));
        bencher.iter(|| sink.ingest_bytes("dst", black_box(&frame)).unwrap());
    });
    group.finish();
}

fn bench_merged_query(c: &mut Criterion) {
    let store = SketchStore::new(cfg(16, 13));
    let keys = key_names();
    let mut gen = StreamGen::new(Distribution::Uniform, 17);
    for i in 0..400_000usize {
        store.update(&keys[i % KEYS], gen.next_f64());
    }
    let mut group = c.benchmark_group("store_merged_query");
    for &fanin in &[1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(fanin), &fanin, |bencher, &fanin| {
            let subset = &keys[..fanin];
            bencher.iter(|| black_box(store.merged_query(subset, 0.99)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_update_vs_stripes,
    bench_single_thread_update,
    bench_engines_axis,
    bench_write_contention,
    bench_read_heavy_mixed,
    bench_telemetry_overhead,
    bench_wal_overhead,
    bench_wal_group_commit,
    bench_wire_roundtrip,
    bench_merged_query
);
criterion_main!(benches);
