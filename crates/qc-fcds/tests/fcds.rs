//! FCDS behaviour tests: hand-off correctness, accounting, relaxation,
//! accuracy, and concurrent stress.

use qc_fcds::Fcds;
use std::sync::Barrier;

#[test]
fn single_worker_roundtrip() {
    let fcds = Fcds::<u64>::new(64, 256, 1);
    let mut w = fcds.updater();
    for x in 0..10_000u64 {
        w.update(x);
    }
    w.flush();
    fcds.drain();
    assert_eq!(fcds.stream_len(), 10_000);
    let median = fcds.query(0.5).unwrap();
    assert!((3_000..7_000).contains(&median), "median {median}");
}

#[test]
fn flush_publishes_partial_buffer() {
    let fcds = Fcds::<u64>::new(16, 1000, 1);
    let mut w = fcds.updater();
    for x in 0..5u64 {
        w.update(x);
    }
    assert_eq!(fcds.stream_len(), 0, "nothing propagated before flush");
    w.flush();
    fcds.drain();
    assert_eq!(fcds.stream_len(), 5);
    assert_eq!(fcds.query(0.0), Some(0));
    assert_eq!(fcds.query(1.0), Some(4));
}

#[test]
fn updater_drop_flushes() {
    let fcds = Fcds::<u64>::new(16, 1000, 1);
    {
        let mut w = fcds.updater();
        for x in 0..7u64 {
            w.update(x);
        }
    } // drop flushes
    fcds.drain();
    assert_eq!(fcds.stream_len(), 7);
}

#[test]
fn worker_slots_recycle_after_drop() {
    let fcds = Fcds::<u64>::new(16, 8, 2);
    let w1 = fcds.updater();
    let w2 = fcds.updater();
    drop(w1);
    drop(w2);
    let _w3 = fcds.updater();
    let _w4 = fcds.updater();
}

#[test]
#[should_panic(expected = "worker slots")]
fn worker_slot_exhaustion_panics() {
    let fcds = Fcds::<u64>::new(16, 8, 1);
    let _a = fcds.updater();
    let _b = fcds.updater();
}

#[test]
fn relaxation_bound_formula() {
    let fcds = Fcds::<u64>::new(4096, 1920, 8);
    assert_eq!(fcds.relaxation_bound(8), 2 * 8 * 1920); // §5.5's 30720
}

#[test]
fn unpropagated_lag_is_within_relaxation() {
    const WORKERS: usize = 4;
    const PER_WORKER: u64 = 50_000;
    const B: usize = 512;

    let fcds = Fcds::<u64>::new(256, B, WORKERS);
    let barrier = Barrier::new(WORKERS);
    // The workers hand their updaters back unflushed: each one's residue
    // stays in its local buffers until it is dropped after the check.
    let updaters: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS as u64)
            .map(|t| {
                let mut w = fcds.updater();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..PER_WORKER {
                        w.update(t * PER_WORKER + i);
                    }
                    // No flush: leave residue in local buffers.
                    let lag_bound = 2 * B as u64; // this worker's two buffers
                    assert!(w.pushed() >= PER_WORKER - lag_bound);
                    w
                })
            })
            .collect();
        workers.into_iter().map(|worker| worker.join().unwrap()).collect()
    });

    let total = WORKERS as u64 * PER_WORKER;
    fcds.drain();
    let visible = fcds.stream_len();
    assert!(
        total - visible <= fcds.relaxation_bound(WORKERS),
        "lag {} exceeds 2NB {}",
        total - visible,
        fcds.relaxation_bound(WORKERS)
    );
    drop(updaters);
}

#[test]
fn concurrent_workers_accuracy() {
    const WORKERS: usize = 8;
    const PER_WORKER: u64 = 40_000;

    let fcds = Fcds::<u64>::new(256, 1024, WORKERS);
    let barrier = Barrier::new(WORKERS);
    std::thread::scope(|s| {
        for t in 0..WORKERS as u64 {
            let mut w = fcds.updater();
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..PER_WORKER {
                    w.update(i * WORKERS as u64 + t);
                }
                w.flush();
            });
        }
    });
    fcds.drain();

    let n = WORKERS as u64 * PER_WORKER;
    assert_eq!(fcds.stream_len(), n, "every flushed element propagated");
    for phi in [0.1, 0.5, 0.9] {
        let est = fcds.query(phi).unwrap() as f64;
        let err = (est - phi * n as f64).abs() / n as f64;
        assert!(err < 0.05, "phi={phi}: err {err}");
    }
    let stats = fcds.stats();
    assert!(stats.batches_propagated >= (n / 1024) * 9 / 10);
    assert_eq!(stats.elements_propagated, n);
}

#[test]
fn queries_run_concurrently_with_updates() {
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    let fcds = Fcds::<u64>::new(64, 128, 2);
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        s.spawn(|| {
            let mut w = fcds.updater();
            for i in 0..200_000u64 {
                w.update(i);
            }
            w.flush();
            stop.store(true, SeqCst);
        });
        s.spawn(|| {
            let mut last_n = 0;
            while !stop.load(SeqCst) {
                let n = fcds.stream_len();
                assert!(n >= last_n, "visible stream shrank");
                last_n = n;
                let _ = fcds.query(0.5);
            }
        });
    });
    fcds.drain();
    assert_eq!(fcds.stream_len(), 200_000);
}

/// Small B under many workers forces worker stalls — the bottleneck the
/// paper attributes FCDS's poor freshness-adjusted scaling to.
#[test]
fn small_buffers_cause_stalls() {
    const WORKERS: usize = 8;
    let fcds = Fcds::<u64>::new(64, 16, WORKERS);
    let barrier = Barrier::new(WORKERS);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            let mut w = fcds.updater();
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..20_000u64 {
                    w.update(i);
                }
                w.flush();
            });
        }
    });
    fcds.drain();
    let stats = fcds.stats();
    assert!(
        stats.worker_stalls > 0,
        "8 workers on B=16 must stall on the single propagator: {stats:?}"
    );
}
