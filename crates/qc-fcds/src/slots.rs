//! Worker double-buffers: the FCDS hand-off cells.
//!
//! Each worker owns two buffers of capacity `B`. The worker fills one while
//! the propagator may be draining the other; ownership of a buffer is
//! transferred through its `state` atomic (release/acquire), the classic
//! single-producer/single-consumer hand-off:
//!
//! * `WORKER` — the registered worker may mutate `data`;
//! * `FULL` — the propagator may take `data` (worker finished and
//!   published it with a `Release` store).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Buffer owned by its worker (being filled).
pub(crate) const WORKER: u8 = 0;
/// Buffer published to the propagator.
pub(crate) const FULL: u8 = 1;

pub(crate) struct BufCell {
    pub(crate) state: AtomicU8,
    pub(crate) data: UnsafeCell<Vec<u64>>,
}

// SAFETY: `data` is accessed only by the single party the `state` machine
// designates; transfers are Release→Acquire ordered.
unsafe impl Sync for BufCell {}

impl BufCell {
    /// Starts **unallocated**: a slot costs nothing until its worker
    /// actually pushes (the vector grows amortized to `B` on first fill,
    /// and [`BufCell::try_drain`] hands back full-capacity vectors from
    /// then on), so a slot that never registers a worker does not pay
    /// `2·B` words.
    pub(crate) fn new() -> Self {
        Self { state: AtomicU8::new(WORKER), data: UnsafeCell::new(Vec::new()) }
    }

    /// Worker-side access. Caller must be the registered worker and the
    /// state must be `WORKER`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn worker_data(&self) -> &mut Vec<u64> {
        debug_assert_eq!(self.state.load(Ordering::Relaxed), WORKER);
        // SAFETY: per the contract above, the worker has exclusive access.
        unsafe { &mut *self.data.get() }
    }

    /// Publish a filled buffer to the propagator.
    pub(crate) fn publish(&self) {
        self.state.store(FULL, Ordering::Release);
    }

    /// Propagator-side: take the contents if published. Returns `None`
    /// when the buffer is still being filled.
    pub(crate) fn try_drain(&self) -> Option<Vec<u64>> {
        if self.state.load(Ordering::Acquire) != FULL {
            return None;
        }
        // SAFETY: state FULL transfers exclusive access to the propagator
        // (single propagator thread).
        let data = unsafe { &mut *self.data.get() };
        let batch = std::mem::take(data);
        // Hand an empty-but-allocated vector back to the worker.
        *data = Vec::with_capacity(batch.capacity().max(1));
        self.state.store(WORKER, Ordering::Release);
        Some(batch)
    }

    /// Is the buffer currently published?
    pub(crate) fn is_full(&self) -> bool {
        self.state.load(Ordering::Acquire) == FULL
    }
}

/// One worker's pair of buffers plus its registration flag.
pub(crate) struct WorkerSlot {
    pub(crate) bufs: [BufCell; 2],
    pub(crate) registered: AtomicBool,
}

impl WorkerSlot {
    pub(crate) fn new() -> Self {
        Self { bufs: [BufCell::new(), BufCell::new()], registered: AtomicBool::new(false) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_of_unpublished_buffer_is_none() {
        let cell = BufCell::new();
        assert!(cell.try_drain().is_none());
    }

    #[test]
    fn publish_then_drain_transfers_contents() {
        let cell = BufCell::new();
        unsafe { cell.worker_data() }.extend_from_slice(&[3, 1, 2]);
        cell.publish();
        assert!(cell.is_full());
        let batch = cell.try_drain().unwrap();
        assert_eq!(batch, vec![3, 1, 2]);
        assert!(!cell.is_full());
        assert!(unsafe { cell.worker_data() }.is_empty());
    }

    #[test]
    fn drain_preserves_capacity_for_reuse() {
        let cell = BufCell::new();
        unsafe { cell.worker_data() }.extend_from_slice(&[1; 64]);
        cell.publish();
        let _ = cell.try_drain().unwrap();
        assert!(unsafe { cell.worker_data() }.capacity() >= 64);
    }
}
