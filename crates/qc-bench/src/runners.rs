//! Concrete throughput runners for the three sketches under test.
//!
//! Handle creation and stream-generator setup happen **before** the timed
//! region (the harness invokes `make_worker` pre-barrier), matching the
//! paper's methodology of measuring pure feeding time.

use std::sync::{Barrier, Mutex};

use qc_common::engine::ConcurrentIngest;
use qc_common::OrderedBits;
use qc_fcds::Fcds;
use qc_sequential::QuantilesSketch;
use qc_workloads::exact::ExactOracle;
use qc_workloads::harness::{
    concurrent_ingest_throughput, fixed_ops_throughput, mixed_throughput, Throughput,
};
use qc_workloads::streams::{Distribution, StreamGen};
use qc_workloads::topology::Topology;
use quancurrent::{Config, Quancurrent};

/// Quancurrent configuration for a benchmark point, mirroring the paper's
/// parameters plus the simulated testbed.
#[derive(Clone, Debug)]
pub struct QcSetup {
    /// Level size k.
    pub k: usize,
    /// Local buffer size b.
    pub b: usize,
    /// Freshness bound ρ.
    pub rho: f64,
    /// Simulated machine (node count + fill-first placement).
    pub topology: Topology,
    /// Sampling seed.
    pub seed: u64,
}

impl QcSetup {
    /// The paper's main setting: k=4096, b=16 on the 4×8 testbed.
    pub fn paper_default() -> Self {
        Self { k: 4096, b: 16, rho: 1.0, topology: Topology::paper_testbed(), seed: 1 }
    }

    /// Build the sketch for a run with `threads` updaters: the number of
    /// Gather&Sort units is the number of nodes those threads *occupy*
    /// (fill-first), as in §5.1.
    pub fn build(&self, threads: usize) -> Quancurrent<f64> {
        let nodes = self.topology.nodes_used(threads.max(1));
        Quancurrent::with_config(Config {
            k: self.k,
            b: self.b,
            numa_nodes: nodes,
            threads_per_node: self.topology.cores_per_node,
            rho: self.rho,
            seed: self.seed,
        })
    }

    /// The relaxation r = 4kS + (N−S)b this setup yields at `threads`.
    pub fn relaxation(&self, threads: usize) -> u64 {
        let s = self.topology.nodes_used(threads.max(1));
        qc_common::error::quancurrent_relaxation(self.k, self.b, threads, s)
    }
}

/// Backend-generic update throughput: `threads` writers registered
/// through [`ConcurrentIngest::writer`] feed `n_total` elements. This is
/// the single measurement path behind [`qc_update_throughput`] and
/// [`fcds_update_throughput`], and it accepts any future backend that
/// implements the trait.
fn engine_update_throughput<S>(
    sketch: &S,
    threads: usize,
    n_total: u64,
    dist: Distribution,
    seed: u64,
) -> Throughput
where
    S: ConcurrentIngest<f64> + ?Sized,
{
    let per_thread = n_total / threads as u64;
    concurrent_ingest_throughput(sketch, threads, per_thread, |t| {
        let mut gen = StreamGen::new(dist, seed.wrapping_add(t as u64 * 77));
        move |_i| gen.next_f64()
    })
}

/// Update-only throughput: `threads` updaters feed `n_total` elements.
pub fn qc_update_throughput(
    setup: &QcSetup,
    threads: usize,
    n_total: u64,
    dist: Distribution,
    seed: u64,
) -> Throughput {
    let sketch = setup.build(threads);
    engine_update_throughput(&sketch, threads, n_total, dist, seed)
}

/// Query-only throughput: prefill with `prefill` elements, then `threads`
/// query threads issue `queries_total` queries against the static sketch.
pub fn qc_query_throughput(
    setup: &QcSetup,
    threads: usize,
    prefill: u64,
    queries_total: u64,
    dist: Distribution,
    seed: u64,
) -> Throughput {
    let sketch = setup.build(1);
    let mut updater = sketch.updater();
    let mut gen = StreamGen::new(dist, seed);
    for _ in 0..prefill {
        updater.update(gen.next_f64());
    }
    drop(updater);

    let per_thread = queries_total / threads as u64;
    fixed_ops_throughput(threads, per_thread, |t| {
        let mut handle = sketch.query_handle();
        let mut phi = 0.1 + 0.01 * t as f64;
        move |_i| {
            let _ = handle.query(phi);
            phi += 0.037;
            if phi >= 1.0 {
                phi -= 1.0;
            }
        }
    })
}

/// Mixed workload (Figure 6c / 7c): fixed update count, queries free-run
/// until updates finish. Returns `(update, query)` throughput and the
/// final sketch stats (for miss rates).
pub fn qc_mixed_throughput(
    setup: &QcSetup,
    update_threads: usize,
    query_threads: usize,
    prefill: u64,
    updates_total: u64,
    dist: Distribution,
    seed: u64,
) -> (Throughput, Throughput, quancurrent::SketchStats) {
    let sketch = setup.build(update_threads);
    {
        let mut updater = sketch.updater_on(0);
        let mut gen = StreamGen::new(dist, seed ^ 0xFEED);
        for _ in 0..prefill {
            updater.update(gen.next_f64());
        }
    }
    let per_thread = updates_total / update_threads as u64;
    let (u, q) = mixed_throughput(
        update_threads,
        query_threads,
        per_thread,
        |t| {
            let mut updater = sketch.updater();
            let mut gen = StreamGen::new(dist, seed.wrapping_add(t as u64 * 131));
            move |_i| updater.update(gen.next_f64())
        },
        |t| {
            let mut handle = sketch.query_handle();
            let mut phi = 0.05 + 0.01 * t as f64;
            move |_i| {
                let _ = handle.query(phi);
                phi += 0.029;
                if phi >= 1.0 {
                    phi -= 1.0;
                }
            }
        },
    );
    (u, q, sketch.stats())
}

/// Feed `n` values of `dist` into `sketch` from `threads` updaters (each
/// `n / threads` values, thread `t` seeded `seed_of(t)`) released together
/// by a barrier. With `record`, every fed value is kept and the exact
/// oracle of the whole stream is returned; without it nothing is kept.
pub fn feed_behind_barrier(
    sketch: &Quancurrent<f64>,
    threads: usize,
    n: u64,
    dist: Distribution,
    seed_of: impl Fn(usize) -> u64,
    record: bool,
) -> Option<ExactOracle> {
    let per_thread = n / threads as u64;
    let all = Mutex::new(Vec::<u64>::with_capacity(if record { n as usize } else { 0 }));
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            // Registered in thread order before any thread starts, so each
            // updater lands on the same Gather&Sort unit on every run.
            let mut updater = sketch.updater();
            let mut gen = StreamGen::new(dist, seed_of(t));
            let (all, barrier) = (&all, &barrier);
            s.spawn(move || {
                let mut mine = Vec::with_capacity(if record { per_thread as usize } else { 0 });
                barrier.wait();
                for _ in 0..per_thread {
                    let x = gen.next_f64();
                    if record {
                        mine.push(x.to_ordered_bits());
                    }
                    updater.update(x);
                }
                all.lock().expect("no feeding thread panics").extend_from_slice(&mine);
            });
        }
    });
    record.then(|| ExactOracle::from_bits(all.into_inner().expect("no feeding thread panics")))
}

/// Sequential-sketch update throughput (single thread, by definition).
pub fn seq_update_throughput(k: usize, n: u64, dist: Distribution, seed: u64) -> Throughput {
    fixed_ops_throughput(1, n, |_| {
        let mut sketch = QuantilesSketch::with_seed(k, seed);
        let mut gen = StreamGen::new(dist, seed);
        move |_i| sketch.update(gen.next_bits())
    })
}

/// Sequential query throughput: one thread querying a prefilled sketch
/// through a cached summary (the fastest sequential serving mode).
pub fn seq_query_throughput(k: usize, prefill: u64, queries: u64, seed: u64) -> Throughput {
    let mut sketch = QuantilesSketch::with_seed(k, seed);
    let mut gen = StreamGen::new(Distribution::Uniform, seed);
    for _ in 0..prefill {
        sketch.update(gen.next_bits());
    }
    let summary = sketch.summary();
    fixed_ops_throughput(1, queries, |_| {
        use qc_common::Summary;
        let summary = summary.clone();
        let mut phi = 0.1;
        move |_i| {
            let _ = summary.quantile_bits(phi);
            phi += 0.037;
            if phi >= 1.0 {
                phi -= 1.0;
            }
        }
    })
}

/// FCDS update throughput: `threads` workers with buffer size `buffer` feed
/// `n_total` elements (plus the dedicated propagator thread).
pub fn fcds_update_throughput(
    k: usize,
    buffer: usize,
    threads: usize,
    n_total: u64,
    dist: Distribution,
    seed: u64,
) -> Throughput {
    let fcds = Fcds::<f64>::with_seed(k, buffer, threads, seed);
    engine_update_throughput(&fcds, threads, n_total, dist, seed.wrapping_mul(997))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> QcSetup {
        QcSetup { k: 64, b: 4, rho: 1.0, topology: Topology::single_node(4), seed: 3 }
    }

    #[test]
    fn qc_update_runner_feeds_everything() {
        let setup = tiny();
        let tp = qc_update_throughput(&setup, 2, 20_000, Distribution::Uniform, 5);
        assert_eq!(tp.ops, 20_000);
        assert!(tp.ops_per_sec() > 0.0);
    }

    #[test]
    fn qc_query_runner_counts_queries() {
        let setup = tiny();
        let tp = qc_query_throughput(&setup, 2, 10_000, 5_000, Distribution::Uniform, 5);
        assert_eq!(tp.ops, 5_000);
    }

    #[test]
    fn qc_mixed_runner_reports_both() {
        let setup = tiny();
        let (u, q, stats) =
            qc_mixed_throughput(&setup, 1, 2, 5_000, 10_000, Distribution::Uniform, 5);
        assert_eq!(u.ops, 10_000);
        assert!(q.ops > 0);
        let _ = stats.miss_rate();
    }

    #[test]
    fn barrier_feed_records_each_threads_seeded_stream() {
        let sketch = tiny().build(2);
        let seed_of = |t: usize| 40 + t as u64;
        let oracle = feed_behind_barrier(&sketch, 2, 10_000, Distribution::Uniform, seed_of, true)
            .expect("recorded");
        let fed: Vec<f64> = (0..2)
            .flat_map(|t| {
                let mut gen = StreamGen::new(Distribution::Uniform, seed_of(t));
                (0..5_000).map(move |_| gen.next_f64())
            })
            .collect();
        let expected = ExactOracle::from_values(&fed);
        assert_eq!(oracle.n(), 10_000);
        for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(oracle.quantile_bits(phi), expected.quantile_bits(phi), "phi {phi}");
        }
        let unrecorded = tiny().build(1);
        assert!(feed_behind_barrier(&unrecorded, 1, 1_000, Distribution::Uniform, seed_of, false)
            .is_none());
    }

    #[test]
    fn seq_runners_work() {
        let tp = seq_update_throughput(64, 50_000, Distribution::Uniform, 1);
        assert_eq!(tp.ops, 50_000);
        let qp = seq_query_throughput(64, 10_000, 1_000, 1);
        assert_eq!(qp.ops, 1_000);
    }

    #[test]
    fn fcds_runner_works() {
        let tp = fcds_update_throughput(64, 128, 2, 20_000, Distribution::Uniform, 1);
        assert_eq!(tp.ops, 20_000);
    }

    /// The generic runner drives both concurrent backends through one
    /// trait object — no concrete sketch types in the measurement path.
    #[test]
    fn engine_runner_is_backend_generic() {
        let qc = tiny().build(2);
        let fcds = Fcds::<f64>::with_seed(64, 128, 2, 9);
        let backends: [&dyn ConcurrentIngest<f64>; 2] = [&qc, &fcds];
        for backend in backends {
            let tp = engine_update_throughput(backend, 2, 10_000, Distribution::Uniform, 4);
            assert_eq!(tp.ops, 10_000);
        }
    }

    #[test]
    fn setup_relaxation_tracks_topology() {
        let setup = QcSetup::paper_default();
        // 8 threads fill one node: r = 4k + 7b.
        assert_eq!(setup.relaxation(8), 4 * 4096 + 7 * 16);
        // 32 threads fill four nodes: r = 16k + 28b.
        assert_eq!(setup.relaxation(32), 4 * 4096 * 4 + 28 * 16);
    }
}
