//! Multi-threaded stress tests for the IBR domain.
//!
//! These exercise the safety property the sketch relies on: a value read
//! through `Guard::protect` stays dereferenceable for the guard's lifetime,
//! no matter how aggressively writers retire and the domain recycles.

use qc_reclaim::{Domain, DomainConfig, Shared};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A payload with a self-check: `a` and `b` must always agree. A use-after-
/// free that hands the block to a concurrent re-allocation would be caught
/// by the checksum with high probability.
struct Checked {
    a: u64,
    b: u64,
}

impl Checked {
    fn new(v: u64) -> Self {
        Self { a: v, b: v ^ 0xDEAD_BEEF_F00D_CAFE }
    }
    fn verify(&self) -> bool {
        self.a == self.b ^ 0xDEAD_BEEF_F00D_CAFE
    }
}

#[test]
fn readers_never_observe_reclaimed_payloads() {
    const READERS: usize = 4;
    const WRITES: u64 = 20_000;

    let domain = Domain::with_config(DomainConfig {
        era_frequency: 4,
        empty_frequency: 4,
        ..Default::default()
    });
    let word = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    // Readers that have completed a first successful read: the writer
    // keeps swapping past `WRITES` until all have, since on a small box a
    // reader may not be scheduled at all inside the ~20 ms `WRITES` take.
    let reading = AtomicUsize::new(0);
    let barrier = Barrier::new(READERS + 1);

    let swaps = std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                let handle = domain.register();
                barrier.wait();
                let mut reads = 0u64;
                while !stop.load(SeqCst) {
                    let guard = handle.pin();
                    let raw = guard.protect(|| word.load(SeqCst));
                    if raw != 0 {
                        let shared = unsafe { Shared::<Checked>::from_raw(raw) };
                        let payload = unsafe { shared.deref() };
                        assert!(payload.verify(), "torn or reclaimed payload observed");
                        if reads == 0 {
                            reading.fetch_add(1, SeqCst);
                        }
                        reads += 1;
                    }
                    drop(guard);
                }
                assert!(reads > 0, "reader made no successful reads");
            });
        }

        let writer = s.spawn(|| {
            let handle = domain.register();
            barrier.wait();
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut swaps = 0u64;
            while swaps < WRITES || reading.load(SeqCst) < READERS {
                if swaps >= WRITES {
                    if Instant::now() > deadline {
                        stop.store(true, SeqCst);
                        panic!("only {} of {READERS} readers ever read", reading.load(SeqCst));
                    }
                    std::thread::yield_now();
                }
                swaps += 1;
                let fresh = handle.alloc(Checked::new(swaps));
                let old = word.swap(fresh.into_raw(), SeqCst);
                if old != 0 {
                    let old = unsafe { Shared::<Checked>::from_raw(old) };
                    unsafe { handle.retire(old) };
                }
            }
            stop.store(true, SeqCst);
            // Unlink the final block so teardown accounting is exact.
            let last = word.swap(0, SeqCst);
            if last != 0 {
                unsafe { handle.retire(Shared::<Checked>::from_raw(last)) };
            }
            swaps
        });
        writer.join().expect("writer panicked")
    });

    // All guards are gone: everything retired must now be reclaimable.
    domain.reclaim_orphans();
    let stats = domain.stats();
    assert_eq!(stats.retired_pending, 0, "stats: {stats:?}");
    assert_eq!(stats.allocated, swaps);
    assert_eq!(stats.reclaimed, swaps);
}

#[test]
fn recycling_actually_happens_under_churn() {
    let domain = Domain::with_config(DomainConfig {
        era_frequency: 2,
        empty_frequency: 2,
        ..Default::default()
    });
    let handle = domain.register();
    for i in 0..10_000u64 {
        let b = handle.alloc([i; 8]);
        unsafe { handle.retire(b) };
    }
    let stats = domain.stats();
    assert!(
        stats.recycled > 9_000,
        "unprotected churn should recycle nearly every block: {stats:?}"
    );
    assert!(stats.pooled <= 16, "pool should stay near-empty: {stats:?}");
}

#[test]
fn many_threads_allocate_and_retire_disjoint_blocks() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 5_000;

    let domain = Domain::with_config(DomainConfig {
        era_frequency: 8,
        empty_frequency: 8,
        ..Default::default()
    });

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let domain = domain.clone();
            s.spawn(move || {
                let handle = domain.register();
                for i in 0..PER_THREAD {
                    let b = handle.alloc(vec![t as u64, i]);
                    assert_eq!(unsafe { b.deref() }[1], i);
                    unsafe { handle.retire(b) };
                }
            });
        }
    });

    domain.reclaim_orphans();
    let stats = domain.stats();
    assert_eq!(stats.allocated, THREADS as u64 * PER_THREAD);
    assert_eq!(stats.retired_pending, 0);
    assert_eq!(stats.reclaimed, stats.allocated);
}

/// Guards taken while an era is in flight must still protect: hammer the
/// protect path while another thread advances the era as fast as it can.
#[test]
fn protect_is_robust_to_rapid_era_advance() {
    let domain = Domain::with_config(DomainConfig {
        era_frequency: 1, // every allocation bumps the era
        empty_frequency: 1,
        ..Default::default()
    });
    let word = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        s.spawn(|| {
            let handle = domain.register();
            while !stop.load(SeqCst) {
                let fresh = handle.alloc(Checked::new(1));
                let old = word.swap(fresh.into_raw(), SeqCst);
                if old != 0 {
                    unsafe { handle.retire(Shared::<Checked>::from_raw(old)) };
                }
            }
            let last = word.swap(0, SeqCst);
            if last != 0 {
                unsafe { handle.retire(Shared::<Checked>::from_raw(last)) };
            }
        });

        let handle = domain.register();
        for _ in 0..30_000 {
            let guard = handle.pin();
            let raw = guard.protect(|| word.load(SeqCst));
            if raw != 0 {
                let shared = unsafe { Shared::<Checked>::from_raw(raw) };
                assert!(unsafe { shared.deref() }.verify());
            }
        }
        stop.store(true, SeqCst);
    });
}
