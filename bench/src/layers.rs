//! Per-layer probes: each layer's public calls timed from outside, in
//! process, on one thread, on fixed-seed generated inputs.
//!
//! A probe reports the median of [`REPS`] timed slices. Probes exist so a
//! change to one layer shows up under that layer's name before (and
//! beside) whatever it does to an end-to-end metric; README.md has the
//! table of which end-to-end metric each is expected to move, on which
//! workload. `qc-fcds`, `qc-mwcas` and `qc-reclaim` stay with their
//! criterion benches: nothing in the served path calls them except
//! through `quancurrent`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qc_common::summary::WeightedSummary;
use qc_ingest::{decode_datagram, DatagramBuilder};
use qc_sequential::Sketch;
use qc_server::proto::encode_update_many;
use qc_server::{Request, Response};
use qc_store::{
    decode_summary, encode_summary, merge_summaries, FsyncPolicy, SketchStore, StoreConfig,
};
use qc_telemetry::Registry;
use qc_workloads::exact::{phi_grid, ExactOracle};
use qc_workloads::streams::{Distribution, StreamGen};
use quancurrent::Quancurrent;

use crate::stats::median;
use crate::sut::{fresh_dir, window_config, WINDOW_MS};

/// Timed slices per probe; the median is reported.
pub const REPS: usize = 5;

/// The probes' input seed: fixed, so probe results compare across runs
/// whatever `--seed` the workloads use.
const SEED: u64 = 0x0B5E_55ED;

const K: usize = 256;

/// Probe results by metric name.
pub type Results = BTreeMap<String, f64>;

fn uniform(n: usize, lane: u64) -> Vec<f64> {
    StreamGen::new(Distribution::Uniform, SEED ^ lane).take_f64(n)
}

/// Successive `n`-value batches of `values`, wrapping to the start when
/// the rest is too short.
fn cycle<'a>(values: &'a [f64]) -> impl FnMut(usize) -> &'a [f64] {
    let mut at = 0usize;
    move |n| {
        at = if at + n > values.len() { 0 } else { at };
        at += n;
        &values[at - n..at]
    }
}

/// Median ns per call of `op`, looped for `slice` per repetition. The
/// clock is read once per batch of calls, sized so reading it costs
/// under a percent.
fn loop_ns(slice: Duration, mut op: impl FnMut()) -> f64 {
    let probe = Instant::now();
    for _ in 0..8 {
        op();
    }
    let per_call = (probe.elapsed().as_nanos() as f64 / 8.0).max(1.0);
    let batch = ((5_000.0 / per_call) as u64).clamp(1, 4096);
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            loop {
                for _ in 0..batch {
                    op();
                }
                calls += batch;
                let elapsed = start.elapsed();
                if elapsed >= slice {
                    break elapsed.as_nanos() as f64 / calls as f64;
                }
            }
        })
        .collect();
    median(&reps).expect("REPS > 0")
}

/// Median ns of the part of each iteration `op` itself times (it returns
/// the duration of the measured part), for `slice` per repetition.
fn timed_ns(slice: Duration, mut op: impl FnMut() -> Duration) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let (mut total, mut calls) = (Duration::ZERO, 0u32);
            while start.elapsed() < slice || calls == 0 {
                total += op();
                calls += 1;
            }
            total.as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&reps).expect("REPS > 0")
}

fn time(op: impl FnOnce()) -> Duration {
    let start = Instant::now();
    op();
    start.elapsed()
}

/// Run every probe. `slice` is the time per repetition per probe;
/// `scratch` holds the durable probes' directories.
pub fn run_all(slice: Duration, scratch: &Path) -> Result<Results, String> {
    let mut out = Results::new();
    sketches(slice, &mut out);
    store(slice, &mut out);
    merge_and_wire(slice, &mut out);
    persist(slice, scratch, &mut out)?;
    window(slice, &mut out);
    codecs(slice, &mut out);
    telemetry(slice, &mut out);
    Ok(out)
}

fn put(out: &mut Results, name: &str, value: f64) {
    out.insert(name.to_string(), value);
}

/// `quancurrent` and `qc-sequential`: the paper-level engines.
fn sketches(slice: Duration, out: &mut Results) {
    let values = uniform(1 << 16, 1);
    let mask = values.len() - 1;

    let sketch = Quancurrent::<f64>::builder().k(K).b(4).seed(SEED).build();
    let mut updater = sketch.updater();
    let mut i = 0usize;
    put(
        out,
        "quancurrent.update_ns",
        loop_ns(slice, || {
            updater.update(values[i & mask]);
            i += 1;
        }),
    );
    let mut handle = sketch.query_handle();
    handle.refresh();
    put(
        out,
        "quancurrent.query_hit_ns",
        loop_ns(slice, || {
            black_box(handle.query(black_box(0.5)));
        }),
    );
    // A miss: the stream moved (two batches' worth of updates flushed
    // into the levels), so the cached snapshot is rebuilt.
    put(
        out,
        "quancurrent.query_miss_ns",
        timed_ns(slice, || {
            for _ in 0..4 * K {
                updater.update(values[i & mask]);
                i += 1;
            }
            time(|| {
                handle.refresh();
                black_box(handle.query(0.5));
            })
        }),
    );

    // Accuracy against the exact oracle: one thread, fixed seed, so the
    // number repeats exactly.
    let stream = uniform(300_000, 2);
    let accuracy = Quancurrent::<f64>::builder().k(K).b(4).seed(SEED).build();
    let mut feeder = accuracy.updater();
    stream.iter().for_each(|&x| feeder.update(x));
    let oracle = ExactOracle::from_values(&stream);
    let mut reader = accuracy.query_handle();
    let worst = phi_grid(19)
        .into_iter()
        .filter_map(|phi| {
            use qc_common::bits::OrderedBits;
            reader.query(phi).map(|x| oracle.rank_error(phi, x.to_ordered_bits()))
        })
        .fold(0.0, f64::max);
    put(out, "quancurrent.rank_err_max", worst);

    let mut sequential = Sketch::<f64>::with_seed(K, SEED);
    put(
        out,
        "sequential.update_ns",
        loop_ns(slice, || {
            sequential.update(values[i & mask]);
            i += 1;
        }),
    );
    let build = |lane| {
        let mut s = Sketch::<f64>::with_seed(K, SEED ^ lane);
        uniform(100_000, lane).into_iter().for_each(|x| s.update(x));
        s
    };
    let (left, right) = (build(3), build(4));
    put(
        out,
        "sequential.merge_ns",
        timed_ns(slice, || {
            let mut target = left.clone();
            time(|| target.merge_from(black_box(&right)))
        }),
    );
}

/// A memory store with one hot key, `values` already in it.
fn hot_store(cfg: StoreConfig, values: &[f64]) -> SketchStore {
    let store = SketchStore::new(cfg);
    store.update_many("hot", values);
    store
}

/// `qc-store::store` + `engine`: the keyed write and read paths.
fn store(slice: Duration, out: &mut Results) {
    let values = uniform(1 << 16, 5);
    let store = hot_store(StoreConfig::default(), &values[..8192]);
    let mut next = cycle(&values);
    put(out, "store.update_ns", loop_ns(slice, || store.update("hot", next(1)[0])));
    for batch in [32usize, 64, 256] {
        let ns = loop_ns(slice, || store.update_many("hot", next(batch)));
        put(out, &format!("store.update_many_ns_per_value.b{batch}"), ns / batch as f64);
    }
    let mut lease = store.lease_writer("hot").expect("a promoted key hands out leases");
    let leased = loop_ns(slice, || {
        store.update_many_leased("hot", &mut lease, next(64)).expect("lease stays valid")
    });
    put(out, "store.update_leased_ns_per_value", leased / 64.0);
    drop(lease);

    black_box(store.query("hot", 0.5));
    put(
        out,
        "store.query_hit_ns",
        loop_ns(slice, || {
            black_box(store.query("hot", black_box(0.5)));
        }),
    );
    // A miss: a write bumped the key's version, so the cached summary is
    // rebuilt from the engine.
    put(
        out,
        "store.query_miss_ns",
        timed_ns(slice, || {
            store.update_many("hot", next(32));
            time(|| {
                black_box(store.query("hot", 0.5));
            })
        }),
    );

    let keys: Vec<String> = (0..16).map(|i| format!("m{i}")).collect();
    for (i, key) in keys.iter().enumerate() {
        store.update_many(key, &uniform(8192, 10 + i as u64));
    }
    put(
        out,
        "store.merged_query16_ns",
        loop_ns(slice, || {
            black_box(store.merged_query(&keys, black_box(0.5)));
        }),
    );
}

/// `qc-store::merge` and `qc-store::wire`.
fn merge_and_wire(slice: Duration, out: &mut Results) {
    let store = SketchStore::new(StoreConfig::default());
    let summaries: Vec<Arc<WeightedSummary>> = (0..16u64)
        .map(|i| {
            let key = format!("s{i}");
            store.update_many(&key, &uniform(8192, 30 + i));
            store.summary_of(&key).expect("key just written")
        })
        .collect();
    put(
        out,
        "merge.merge_summaries16_ns",
        loop_ns(slice, || {
            black_box(merge_summaries(summaries.iter().map(Arc::as_ref), K, SEED));
        }),
    );

    store.update_many("big", &uniform(100_000, 50));
    let summary = store.summary_of("big").expect("key just written");
    put(
        out,
        "wire.encode_summary_ns",
        loop_ns(slice, || {
            black_box(encode_summary(black_box(&summary)));
        }),
    );
    let frame = encode_summary(&summary);
    put(
        out,
        "wire.decode_summary_ns",
        loop_ns(slice, || {
            black_box(decode_summary(black_box(&frame)).expect("own frame decodes"));
        }),
    );
}

fn durable(dir: &Path, fsync: FsyncPolicy) -> Result<SketchStore, String> {
    let cfg = StoreConfig::default().data_dir(dir).fsync(fsync);
    SketchStore::recover(cfg).map(|(store, _)| store).map_err(|e| format!("recover: {e}"))
}

/// `qc-store::persist`: what the log adds to a memory write, and what a
/// checkpoint and a recovery cost.
fn persist(slice: Duration, scratch: &Path, out: &mut Results) -> Result<(), String> {
    let dir = |name: &str| fresh_dir(scratch, name).map_err(|e| format!("scratch dir: {e}"));
    let values = uniform(1 << 16, 60);
    let mut next = cycle(&values);

    // The same op stream on a store logging with fsync off, minus the
    // memory store: encode + append, the `BENCH_store_wal.json` line item.
    let logged = durable(&dir("probe-wal-off")?, FsyncPolicy::Off)?;
    let memory = SketchStore::new(StoreConfig::default());
    for store in [&logged, &memory] {
        store.update_many("hot", &values[..8192]);
    }
    for batch in [1usize, 64, 256] {
        let with_log = loop_ns(slice, || logged.update_many("hot", next(batch)));
        let without = loop_ns(slice, || memory.update_many("hot", next(batch)));
        put(out, &format!("persist.wal_off_overhead_ns.b{batch}"), with_log - without);
    }
    drop(logged);

    // Device-bound and diagnostic only: one writer, every ack waits for
    // its own fdatasync.
    let per_frame = durable(&dir("probe-per-frame")?, FsyncPolicy::PerFrame)?;
    let mut acks: Vec<f64> = Vec::new();
    let until = Instant::now() + slice * REPS as u32;
    while Instant::now() < until || acks.len() < 20 {
        acks.push(time(|| per_frame.update("hot", next(1)[0])).as_nanos() as f64 / 1e3);
    }
    put(out, "persist.durable_ack_p50_us", median(&acks).expect("at least 20 acks"));
    drop(per_frame);

    // One checkpoint of 256 keys × 8192 values.
    let ckpt = durable(&dir("probe-checkpoint")?, FsyncPolicy::Off)?;
    for i in 0..256u64 {
        ckpt.update_many(&format!("c{i}"), &uniform(8192, 100 + i));
    }
    let start = Instant::now();
    let stats = ckpt.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    put(out, "persist.checkpoint_s", start.elapsed().as_secs_f64());
    put(out, "persist.checkpoint_bytes", stats.map_or(0.0, |s| s.bytes as f64));
    drop(ckpt);

    // Replay of a log of 20 000 `update_many(64)` records, no checkpoint.
    let replay_dir = dir("probe-recover")?;
    let writer = durable(&replay_dir, FsyncPolicy::Off)?;
    for i in 0..20_000usize {
        writer.update_many(&format!("r{}", i % 32), next(64));
    }
    writer.sync();
    drop(writer);
    let start = Instant::now();
    let cfg = StoreConfig::default().data_dir(&replay_dir).fsync(FsyncPolicy::Off);
    let (_store, report) = SketchStore::<f64>::recover(cfg).map_err(|e| format!("recover: {e}"))?;
    let elapsed = start.elapsed().as_nanos() as f64;
    put(out, "persist.recover_ns_per_record", elapsed / report.records_applied.max(1) as f64);
    if report.records_applied != 20_000 {
        return Err(format!("recovery replayed {} of 20000 records", report.records_applied));
    }
    for name in ["probe-wal-off", "probe-per-frame", "probe-checkpoint", "probe-recover"] {
        let _ = std::fs::remove_dir_all(scratch.join(name));
    }
    Ok(())
}

/// The windowed workload's layout, with the retention and lateness a
/// probe needs.
fn windowed(retention_windows: u64) -> StoreConfig {
    StoreConfig::default().window(
        window_config()
            .retention(Duration::from_millis(WINDOW_MS * retention_windows))
            .lateness(Duration::from_millis(WINDOW_MS * 64)),
    )
}

/// `qc-store::window`: timestamped writes, seals, late merges, range
/// reads, and the housekeeping sweep.
fn window(slice: Duration, out: &mut Results) {
    let values = uniform(1 << 16, 70);
    let mut next = cycle(&values);
    const BATCH: usize = 256;
    const NEVER: u64 = 1 << 40;

    let same = SketchStore::new(windowed(NEVER));
    let ns = loop_ns(slice, || same.update_at("w", 0, next(BATCH)));
    put(out, "window.update_at_ns_per_value", ns / BATCH as f64);

    // Every write lands one window later, so each also seals its
    // predecessor: summary snapshot, fresh engine, retired leases.
    let rolling = SketchStore::new(windowed(NEVER));
    let mut w = 0u64;
    put(
        out,
        "window.seal_ns",
        loop_ns(slice, || {
            rolling.update_at("w", w * WINDOW_MS, next(BATCH));
            w += 1;
        }),
    );

    // 512 sealed windows of 256 values, the windowed workload's shape.
    let history = SketchStore::new(windowed(NEVER));
    for w in 0..=512u64 {
        history.update_at("w", w * WINDOW_MS, next(BATCH));
    }
    put(
        out,
        "window.late_merge_ns",
        loop_ns(slice, || {
            history.update_at("w", 500 * WINDOW_MS, next(BATCH));
        }),
    );
    let full = loop_ns(slice, || {
        black_box(history.query_range("w", 0, 512 * WINDOW_MS, black_box(0.99)));
    });
    put(out, "window.range_full512_ns", full);
    // The same question answered the only other way a caller could: one
    // `query_range` per window (which cannot give a correct whole-span
    // quantile; it is the cost reference of ROADMAP item 4b).
    let stitched = loop_ns(slice, || {
        for w in 0..512u64 {
            black_box(history.query_range("w", w * WINDOW_MS, (w + 1) * WINDOW_MS, 0.99));
        }
    });
    put(out, "window.range_stitched512_ns", stitched);
    put(
        out,
        "window.range_16_ns",
        loop_ns(slice, || {
            black_box(history.query_range("w", 496 * WINDOW_MS, 512 * WINDOW_MS, black_box(0.99)));
        }),
    );

    // One sweep over 8 keys × 512 windows with downsampling and eviction
    // due (retention 256 windows): the spike `cool_down` adds to a range
    // read that waits behind it.
    let sweeps: Vec<f64> = (0..3)
        .map(|_| {
            let store = SketchStore::new(windowed(256));
            for key in 0..8 {
                for w in 0..512u64 {
                    store.update_at(&format!("w{key}"), w * WINDOW_MS, next(BATCH));
                }
            }
            time(|| {
                black_box(store.cool_down());
            })
            .as_nanos() as f64
        })
        .collect();
    put(out, "window.cool_down_ns", median(&sweeps).expect("three sweeps"));
}

/// `qc-server::proto` and `qc-ingest::datagram`: the codecs on either
/// side of a socket.
fn codecs(slice: Duration, out: &mut Results) {
    let values = uniform(64, 80);
    put(
        out,
        "proto.encode_update_many64_ns",
        loop_ns(slice, || {
            black_box(encode_update_many(black_box("wal-0007"), &values));
        }),
    );
    let body = encode_update_many("wal-0007", &values);
    put(
        out,
        "proto.decode_update_many64_ns",
        loop_ns(slice, || {
            black_box(Request::decode(black_box(&body)).expect("own body decodes"));
        }),
    );
    let query = Request::Query { key: "fan-0007".into(), phi: 0.99 }.encode();
    put(
        out,
        "proto.decode_query_ns",
        loop_ns(slice, || {
            black_box(Request::decode(black_box(&query)).expect("own body decodes"));
        }),
    );
    let response = Response::MaybeValue(Some(7.5));
    put(
        out,
        "proto.encode_response_ns",
        loop_ns(slice, || {
            black_box(black_box(&response).encode());
        }),
    );

    // The ingest workload's datagram shape: 4 records × 32 values.
    let mut builder = DatagramBuilder::with_seq(1400, 0);
    let keys = ["mix-0000", "mix-0003", "mix-0040", "mix-0400"];
    let mut encode = || {
        for key in keys {
            builder.push(key, &values[..32]);
        }
        builder.finish().expect("four records were pushed")
    };
    put(
        out,
        "datagram.encode_ns_per_record",
        loop_ns(slice, || {
            black_box(encode());
        }) / 4.0,
    );
    let datagram = encode();
    put(
        out,
        "datagram.decode_ns_per_record",
        loop_ns(slice, || {
            black_box(decode_datagram(black_box(&datagram)).expect("own datagram decodes"));
        }) / 4.0,
    );
}

/// `qc-telemetry`: what the live registry adds to a batched write. The
/// two stores alternate slice by slice so drift hits both alike.
fn telemetry(slice: Duration, out: &mut Results) {
    let values = uniform(1 << 16, 90);
    let live = hot_store(StoreConfig::default(), &values[..8192]);
    let quiet = hot_store(
        StoreConfig::default().telemetry(Arc::new(Registry::disabled())),
        &values[..8192],
    );
    let mut at = 0usize;
    let mut run = |store: &SketchStore| {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < slice {
            for _ in 0..64 {
                at = (at + 64) % (values.len() - 64);
                store.update_many("hot", &values[at..at + 64]);
            }
            calls += 64;
        }
        start.elapsed().as_nanos() as f64 / calls as f64
    };
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        with.push(run(&live));
        without.push(run(&quiet));
    }
    let (with, without) = (median(&with).expect("REPS > 0"), median(&without).expect("REPS > 0"));
    put(out, "telemetry.overhead_fraction", (with - without) / without);
}
