//! Keyed-store benchmarks along the one axis `bench/` (`qcb`) does not
//! measure — **thread count**. Every single-thread store, WAL, wire,
//! window, server and ingest axis is a named `BENCHMARK.json` metric.
//!
//! The headline series is `store_update_8_threads/<stripes>`: 8 writer
//! threads spraying updates across 64 keys. With one stripe every writer
//! contends on one mutex; with 16+ stripes writers mostly own their stripe
//! and throughput should approach the per-sketch ingestion rate.
//!
//! The **write-contention axis** (`store_write_hot_key_<n>_threads/`)
//! asks the write-path question: N threads batch-updating ONE hot key,
//! shared-lock path (`shared`, a `Writer` borrowed from the hot engine)
//! vs the exclusive-lock baseline (`fallback`, pinned via
//! `writer_pool(0)`). The multi-thread shared
//! series must scale; the baseline serializes by construction.
//!
//! `store_read_mixed_4_threads/` and `store_wal_group_<n>_threads/` are
//! documented at their functions below.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qc_common::Summary;
use qc_store::{FsyncPolicy, SketchStore, StoreConfig};
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

const WRITE_KEY: &str = "hot";
const WRITE_BATCH: usize = 256;
const WRITE_BATCHES_TOTAL: usize = 512;

/// One pass of the hot-key write-contention axis: `threads` writers split
/// `WRITE_BATCHES_TOTAL` batches of `WRITE_BATCH` elements on ONE
/// pre-promoted key. `shared` selects the fast path, where each batch
/// borrows one of the hot engine's writers under the shared stripe lock;
/// the baseline pins `writer_pool(0)`, so the engine lends no writer and
/// every batch serializes on the stripe write lock.
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

/// The write-path axis: hot-key `update_many`
/// under 1/2/4 threads, shared-lock path vs exclusive-lock baseline.
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

/// The read-path axis: 90% `query`/`rank`, 10% `update_many`, keys
/// colliding on one stripe — cached read path vs per-read
/// materialization, under 4 mixed-workload threads.
fn bench_read_heavy_mixed(c: &mut Criterion) {
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

const GROUP_OPS_PER_THREAD: usize = 32;

/// The group-commit axis: N concurrent durable writers under `PerFrame`
/// sharing fsyncs through leader-based group commit. Every op is a
/// single-element durable update — one ack ⇒ one covered LSN — so at 1
/// thread an op costs one append plus one ~170 µs fsync, while at 4
/// threads each fsync is shared across all writers and the per-op cost
/// must fall by multiples (3.5× against the retired per-writer-fsync
/// discipline when that was last measured beside it; see CHANGES.md,
/// PR 10). No `qcb` workload runs `PerFrame` with more than one writer.
fn bench_wal_group_commit(c: &mut Criterion) {
    for &threads in &[1usize, 2, 4] {
        let mut group = c.benchmark_group(format!("store_wal_group_{threads}_threads"));
        group.sample_size(10);
        group.throughput(Throughput::Elements((threads * GROUP_OPS_PER_THREAD) as u64));
        group.bench_function("group", |bencher| {
            let dir = qc_workloads::TempDir::new("bench-wal-group");
            let config = cfg(4, 101).data_dir(dir.path()).fsync(FsyncPolicy::PerFrame);
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

criterion_group!(
    benches,
    bench_update_vs_stripes,
    bench_write_contention,
    bench_read_heavy_mixed,
    bench_wal_group_commit
);
criterion_main!(benches);
