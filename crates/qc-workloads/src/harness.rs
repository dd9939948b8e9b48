//! Multi-threaded measurement harness.
//!
//! All throughput numbers in the benchmark suite come from these runners:
//! a barrier-released pack of worker threads, wall-clock timed from the
//! moment the barrier drops to the last join — the same methodology the
//! paper describes in §5.1 ("we measure the time it takes to feed the
//! sketch").
//!
//! The engine-generic runner ([`concurrent_ingest_throughput`]) drives
//! any multi-writer backend through the [`qc_common::engine`] traits, so
//! one measurement path covers Quancurrent and FCDS.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use qc_common::engine::ConcurrentIngest;
use qc_common::OrderedBits;

/// A throughput measurement: operations completed over a wall-clock span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Throughput {
    /// Total operations across all threads.
    pub ops: u64,
    /// Wall-clock duration of the measured region.
    pub elapsed: Duration,
}

impl Throughput {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }
}

impl std::fmt::Display for Throughput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({} ops in {:?})", format_ops(self.ops_per_sec()), self.ops, self.elapsed)
    }
}

/// Human format for op rates: `22.3M op/s`.
pub fn format_ops(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e9 {
        format!("{:.2}G op/s", ops_per_sec / 1e9)
    } else if ops_per_sec >= 1e6 {
        format!("{:.2}M op/s", ops_per_sec / 1e6)
    } else if ops_per_sec >= 1e3 {
        format!("{:.2}K op/s", ops_per_sec / 1e3)
    } else {
        format!("{ops_per_sec:.2} op/s")
    }
}

/// Run a fixed per-thread op count and measure throughput.
///
/// `make_worker(t)` builds the per-thread state (updater handle, stream
/// generator, …) **before** the clock starts; the returned closure is then
/// called `ops_per_thread` times inside the timed region.
pub fn fixed_ops_throughput<W>(
    threads: usize,
    ops_per_thread: u64,
    make_worker: impl Fn(usize) -> W + Sync,
) -> Throughput
where
    W: FnMut(u64) + Send,
{
    assert!(threads >= 1);
    let barrier = Barrier::new(threads + 1);
    let done = Barrier::new(threads + 1);
    let make_worker = &make_worker;
    let mut result = Throughput::default();
    std::thread::scope(|s| {
        for t in 0..threads {
            let barrier = &barrier;
            let done = &done;
            s.spawn(move || {
                let mut work = make_worker(t);
                barrier.wait();
                for i in 0..ops_per_thread {
                    work(i);
                }
                done.wait();
            });
        }
        // Start the clock *before* releasing the barrier: on machines with
        // fewer cores than threads, a worker can otherwise run to completion
        // before this thread is rescheduled to read the clock.
        let start = Instant::now();
        barrier.wait();
        done.wait();
        result = Throughput { ops: threads as u64 * ops_per_thread, elapsed: start.elapsed() };
    });
    result
}

/// Barrier-released multi-writer fill through
/// [`ConcurrentIngest::writer`]: each thread registers one writer and
/// builds its stream generator (`make_gen(thread)`) before the clock
/// starts, then pushes `ops_per_thread` generated elements. This is the
/// engine-generic form of the paper's update-throughput experiment — it
/// runs unmodified against Quancurrent and FCDS.
pub fn concurrent_ingest_throughput<T, S, G>(
    sketch: &S,
    threads: usize,
    ops_per_thread: u64,
    make_gen: impl Fn(usize) -> G + Sync,
) -> Throughput
where
    T: OrderedBits,
    S: ConcurrentIngest<T> + ?Sized,
    G: FnMut(u64) -> T + Send,
{
    let make_gen = &make_gen;
    fixed_ops_throughput(threads, ops_per_thread, |t| {
        let mut writer = sketch.writer();
        let mut gen = make_gen(t);
        move |i| writer.update(gen(i))
    })
}

/// Mixed workload: `update_threads` run a fixed number of updates each
/// while `query_threads` issue queries until the updates finish. Returns
/// both throughputs over the same wall-clock window (Figure 6c's setup).
pub fn mixed_throughput<U, Q>(
    update_threads: usize,
    query_threads: usize,
    updates_per_thread: u64,
    make_updater: impl Fn(usize) -> U + Sync,
    make_querier: impl Fn(usize) -> Q + Sync,
) -> (Throughput, Throughput)
where
    U: FnMut(u64) + Send,
    Q: FnMut(u64) + Send,
{
    assert!(update_threads >= 1);
    let barrier = Barrier::new(update_threads + query_threads + 1);
    let done = Barrier::new(update_threads + 1);
    let stop = AtomicBool::new(false);
    let queries_done = AtomicU64::new(0);
    let make_updater = &make_updater;
    let make_querier = &make_querier;
    let mut update_tp = Throughput::default();
    let mut query_tp = Throughput::default();

    std::thread::scope(|s| {
        for t in 0..update_threads {
            let barrier = &barrier;
            let done = &done;
            s.spawn(move || {
                let mut work = make_updater(t);
                barrier.wait();
                for i in 0..updates_per_thread {
                    work(i);
                }
                done.wait();
            });
        }
        for t in 0..query_threads {
            let barrier = &barrier;
            let stop = &stop;
            let queries_done = &queries_done;
            s.spawn(move || {
                let mut work = make_querier(t);
                barrier.wait();
                let mut count = 0u64;
                while !stop.load(SeqCst) {
                    work(count);
                    count += 1;
                }
                queries_done.fetch_add(count, SeqCst);
            });
        }
        // As in `fixed_ops_throughput`: clock starts before the release so
        // oversubscribed schedules cannot shrink the measured window.
        let start = Instant::now();
        barrier.wait();
        done.wait();
        let elapsed = start.elapsed();
        stop.store(true, SeqCst);
        update_tp = Throughput { ops: update_threads as u64 * updates_per_thread, elapsed };
        // Query threads stop just after the updates complete; their count
        // is attributed to the same window (overshoot < 1 query/thread).
        query_tp = Throughput { ops: 0, elapsed };
    });
    query_tp.ops = queries_done.load(SeqCst);
    (update_tp, query_tp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_common::engine::StreamIngest;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn format_ops_scales() {
        assert_eq!(format_ops(12.0), "12.00 op/s");
        assert_eq!(format_ops(1_500.0), "1.50K op/s");
        assert_eq!(format_ops(22_000_000.0), "22.00M op/s");
        assert_eq!(format_ops(3.1e9), "3.10G op/s");
    }

    #[test]
    fn throughput_math() {
        let t = Throughput { ops: 1000, elapsed: Duration::from_millis(500) };
        assert!((t.ops_per_sec() - 2000.0).abs() < 1.0);
    }

    #[test]
    fn fixed_ops_runs_exactly_n_ops() {
        let count = AtomicU64::new(0);
        let tp = fixed_ops_throughput(4, 1000, |_t| {
            let count = &count;
            move |_i| {
                count.fetch_add(1, SeqCst);
            }
        });
        assert_eq!(tp.ops, 4000);
        assert_eq!(count.load(SeqCst), 4000);
        assert!(tp.elapsed > Duration::ZERO);
    }

    #[test]
    fn concurrent_ingest_runner_spans_writers() {
        use std::sync::atomic::AtomicU64;
        struct Shared(AtomicU64);
        struct Writer<'a>(&'a AtomicU64);
        impl StreamIngest<u64> for Writer<'_> {
            fn update(&mut self, x: u64) {
                self.0.fetch_add(x, SeqCst);
            }
        }
        impl ConcurrentIngest<u64> for Shared {
            fn writer(&self) -> Box<dyn StreamIngest<u64> + Send + '_> {
                Box::new(Writer(&self.0))
            }
        }
        let shared = Shared(AtomicU64::new(0));
        let tp = concurrent_ingest_throughput(&shared, 4, 100, |_t| |_i| 1u64);
        assert_eq!(tp.ops, 400);
        assert_eq!(shared.0.load(SeqCst), 400);
    }

    #[test]
    fn mixed_counts_both_sides() {
        let updates = AtomicU64::new(0);
        let queries = AtomicU64::new(0);
        let (u, q) = mixed_throughput(
            2,
            2,
            5_000,
            |_t| {
                let updates = &updates;
                move |_i| {
                    updates.fetch_add(1, SeqCst);
                }
            },
            |_t| {
                let queries = &queries;
                move |_i| {
                    queries.fetch_add(1, SeqCst);
                }
            },
        );
        assert_eq!(u.ops, 10_000);
        assert_eq!(updates.load(SeqCst), 10_000);
        assert_eq!(q.ops, queries.load(SeqCst));
        assert!(q.ops > 0, "query threads must have run");
    }
}
