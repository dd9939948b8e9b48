//! Property tests of FCDS's relaxation accounting: however updates and
//! propagation interleave, the visible lag never exceeds 2·N·B and the
//! stream size is conserved end-to-end.

use proptest::prelude::*;
use qc_common::rng::SplitMix64;
use qc_fcds::Fcds;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Single worker, arbitrary update counts and buffer sizes: lag ≤ 2B
    /// (the worker's two buffers) before flush, 0 after flush + drain.
    #[test]
    fn single_worker_lag_bound(
        buffer in 1usize..64,
        n in 0u64..5000,
    ) {
        let fcds = Fcds::<u64>::new(16, buffer, 1);
        let mut worker = fcds.updater();
        for i in 0..n {
            worker.update(i);
        }
        // Unflushed: up to 2B may be invisible (current + published).
        fcds.drain();
        let visible = fcds.stream_len();
        prop_assert!(n - visible <= 2 * buffer as u64,
            "lag {} > 2B = {}", n - visible, 2 * buffer as u64);

        worker.flush();
        fcds.drain();
        prop_assert_eq!(fcds.stream_len(), n, "flush + drain must expose everything");
    }

    /// Estimates from arbitrary FCDS runs are stream members.
    #[test]
    fn estimates_are_members(
        buffer in 1usize..32,
        n in 1u64..3000,
    ) {
        let fcds = Fcds::<u64>::new(8, buffer, 1);
        let mut worker = fcds.updater();
        for i in 0..n {
            worker.update(i * 7 + 1);
        }
        worker.flush();
        fcds.drain();
        for phi in [0.0, 0.5, 1.0] {
            let est = fcds.query(phi).unwrap();
            prop_assert!(est >= 1 && est <= (n - 1) * 7 + 1 && (est - 1).is_multiple_of(7),
                "estimate {} not in stream", est);
        }
    }
}

/// `drain` must not return while the propagator still holds a batch it has
/// taken from a worker but not yet merged: after `flush` + `drain`, every
/// update is visible, round after round. The worker gets its buffer back
/// when the propagator takes it, so the window is narrow and only shows
/// over thousands of rounds.
#[test]
fn drain_waits_for_the_batch_in_flight() {
    const ROUNDS: usize = 20_000;
    let mut rng = SplitMix64::new(0xD2A1);
    let mut short = Vec::new();
    for round in 0..ROUNDS {
        let buffer = 1 + (rng.next_u64() % 63) as usize;
        let n = 1000 + rng.next_u64() % 4000;
        let fcds = Fcds::<u64>::new(16, buffer, 1);
        let mut worker = fcds.updater();
        for i in 0..n {
            worker.update(i);
        }
        worker.flush();
        fcds.drain();
        let visible = fcds.stream_len();
        if visible != n {
            short.push((round, buffer, n, visible));
        }
    }
    assert!(
        short.is_empty(),
        "{} of {ROUNDS} rounds came up short (round, B, n, visible): {:?}",
        short.len(),
        &short[..short.len().min(5)]
    );
}

/// The propagator must make progress even when workers stop abruptly
/// (drop without flush): published buffers still drain.
#[test]
fn published_buffers_drain_after_worker_drop() {
    let fcds = Fcds::<u64>::new(8, 16, 2);
    {
        let mut w = fcds.updater();
        for i in 0..16 {
            w.update(i); // exactly one full buffer published
        }
        // Dropped here: flush publishes the (empty) current buffer too.
    }
    fcds.drain();
    assert_eq!(fcds.stream_len(), 16);
}
