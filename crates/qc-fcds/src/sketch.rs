//! The FCDS quantiles sketch: shared state, propagator, handles.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, RwLock};

use qc_common::bits::OrderedBits;
use qc_common::engine::{ConcurrentIngest, MergeableSketch, QuantileEstimator, StreamIngest};
use qc_common::summary::{Summary, WeightedSummary};
use qc_sequential::QuantilesSketch;

use crate::slots::{BufCell, WorkerSlot};

/// Counters exposed by [`Fcds::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FcdsStats {
    /// Buffers the propagator merged into the shared sketch.
    pub batches_propagated: u64,
    /// Elements those buffers contained.
    pub elements_propagated: u64,
    /// Times a worker had to wait because both its buffers were full —
    /// the sequential-propagator bottleneck the paper's §5.5 discusses.
    pub worker_stalls: u64,
    /// Idle scan passes of the propagator.
    pub idle_scans: u64,
}

pub(crate) struct FcdsShared {
    pub(crate) k: usize,
    pub(crate) buffer_size: usize,
    pub(crate) workers: Box<[WorkerSlot]>,
    pub(crate) sketch: RwLock<QuantilesSketch>,
    pub(crate) stop: AtomicBool,
    /// Raised by the propagator before it takes a batch and lowered after
    /// the merge: the worker gets its buffer back at take time, so without
    /// this a taken-but-unmerged batch would be invisible to [`Fcds::drain`].
    pub(crate) in_flight: AtomicBool,
    pub(crate) batches: AtomicU64,
    pub(crate) elements: AtomicU64,
    pub(crate) stalls: AtomicU64,
    pub(crate) idle_scans: AtomicU64,
}

impl FcdsShared {
    /// Drain one published buffer into the shared sketch. Returns whether
    /// any work was found.
    fn drain_once(&self) -> bool {
        let mut found = false;
        for slot in self.workers.iter() {
            for buf in &slot.bufs {
                if !buf.is_full() {
                    continue;
                }
                self.in_flight.store(true, SeqCst);
                if let Some(batch) = buf.try_drain() {
                    if !batch.is_empty() {
                        let mut sketch = self.sketch.write().unwrap();
                        // The heavy merge-sort: fold B sorted elements into
                        // the level hierarchy.
                        sketch.ingest_sorted(&batch);
                        drop(sketch);
                        self.batches.fetch_add(1, SeqCst);
                        self.elements.fetch_add(batch.len() as u64, SeqCst);
                    }
                    found = true;
                }
                self.in_flight.store(false, SeqCst);
            }
        }
        found
    }

    fn any_published(&self) -> bool {
        self.workers.iter().any(|s| s.bufs.iter().any(BufCell::is_full))
    }

    /// Is any batch published or taken but not yet merged?
    fn any_pending(&self) -> bool {
        self.any_published() || self.in_flight.load(SeqCst)
    }
}

/// FCDS (Rinberg et al., *Fast Concurrent Data Sketches*) instantiated for
/// the Quantiles sketch — the state-of-the-art baseline the paper compares
/// against (§5.5).
///
/// Architecture: `N` worker threads each own **two local buffers of size
/// B**; a full buffer is sorted and published, and a **single dedicated
/// propagator thread** merges published buffers into one shared sequential
/// sketch. A worker whose buffers are both awaiting propagation stalls —
/// which is why FCDS needs large `B` to scale, at the cost of a relaxation
/// of up to `2·N·B` hidden updates.
///
/// # Example
///
/// ```
/// use qc_fcds::Fcds;
///
/// let fcds = Fcds::<u64>::new(128, 1024, 4); // k, B, max workers
/// let mut w = fcds.updater();
/// for x in 0..100_000u64 {
///     w.update(x);
/// }
/// w.flush();
/// fcds.drain();
/// let median = fcds.query(0.5).unwrap();
/// assert!((40_000..60_000).contains(&median));
/// ```
pub struct Fcds<T: OrderedBits> {
    shared: Arc<FcdsShared>,
    propagator: Option<std::thread::JoinHandle<()>>,
    next_worker: AtomicUsize,
    _marker: std::marker::PhantomData<fn(T) -> T>,
}

impl<T: OrderedBits> Fcds<T> {
    /// Create a sketch with level size `k`, per-worker buffer size
    /// `buffer_size` (B), and capacity for `max_workers` registered
    /// workers. Spawns the propagator thread.
    pub fn new(k: usize, buffer_size: usize, max_workers: usize) -> Self {
        Self::with_seed(k, buffer_size, max_workers, 0xFCD5)
    }

    /// As [`Fcds::new`] with an explicit sampling seed.
    pub fn with_seed(k: usize, buffer_size: usize, max_workers: usize, seed: u64) -> Self {
        assert!(buffer_size >= 1, "buffer size must be at least 1");
        assert!(max_workers >= 1, "at least one worker slot is required");
        let shared = Arc::new(FcdsShared {
            k,
            buffer_size,
            workers: (0..max_workers).map(|_| WorkerSlot::new()).collect(),
            sketch: RwLock::new(QuantilesSketch::with_seed(k, seed)),
            stop: AtomicBool::new(false),
            in_flight: AtomicBool::new(false),
            batches: AtomicU64::new(0),
            elements: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            idle_scans: AtomicU64::new(0),
        });
        let propagator = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fcds-propagator".into())
                .spawn(move || {
                    // The single propagation loop: scan, drain, repeat.
                    loop {
                        let worked = shared.drain_once();
                        if !worked {
                            if shared.stop.load(SeqCst) && !shared.any_published() {
                                break;
                            }
                            shared.idle_scans.fetch_add(1, SeqCst);
                            std::thread::yield_now();
                        }
                    }
                })
                .expect("spawn fcds propagator")
        };
        Self {
            shared,
            propagator: Some(propagator),
            next_worker: AtomicUsize::new(0),
            _marker: std::marker::PhantomData,
        }
    }

    /// Register a worker (claims one of the `max_workers` slots).
    ///
    /// # Panics
    /// If all slots are taken.
    pub fn updater(&self) -> FcdsUpdater<T> {
        let start = self.next_worker.fetch_add(1, SeqCst);
        let n = self.shared.workers.len();
        for off in 0..n {
            let slot = (start + off) % n;
            if self.shared.workers[slot]
                .registered
                .compare_exchange(false, true, SeqCst, SeqCst)
                .is_ok()
            {
                return FcdsUpdater {
                    shared: Arc::clone(&self.shared),
                    slot,
                    current: 0,
                    pushed: 0,
                    _marker: std::marker::PhantomData,
                };
            }
        }
        panic!("all {n} FCDS worker slots are registered")
    }

    /// Estimate the φ-quantile from the shared sketch.
    pub fn query(&self, phi: f64) -> Option<T> {
        self.summary().quantile_bits(phi).map(T::from_ordered_bits)
    }

    /// A weighted summary of the propagated stream (snapshot under the
    /// sketch lock).
    pub fn summary(&self) -> WeightedSummary {
        self.shared.sketch.read().unwrap().summary()
    }

    /// Stream size visible to queries (propagated updates only).
    pub fn stream_len(&self) -> u64 {
        self.shared.sketch.read().unwrap().n()
    }

    /// Block until every currently-published buffer has been merged.
    pub fn drain(&self) {
        while self.shared.any_pending() {
            std::thread::yield_now();
        }
    }

    /// The relaxation bound 2·N·B for `n_workers` active workers (§5.5).
    pub fn relaxation_bound(&self, n_workers: usize) -> u64 {
        qc_common::error::fcds_relaxation(self.shared.buffer_size, n_workers)
    }

    /// Operation counters.
    pub fn stats(&self) -> FcdsStats {
        FcdsStats {
            batches_propagated: self.shared.batches.load(SeqCst),
            elements_propagated: self.shared.elements.load(SeqCst),
            worker_stalls: self.shared.stalls.load(SeqCst),
            idle_scans: self.shared.idle_scans.load(SeqCst),
        }
    }

    /// Level size parameter.
    pub fn k(&self) -> usize {
        self.shared.k
    }

    /// Per-worker buffer size B.
    pub fn buffer_size(&self) -> usize {
        self.shared.buffer_size
    }
}

impl<T: OrderedBits> Drop for Fcds<T> {
    fn drop(&mut self) {
        self.shared.stop.store(true, SeqCst);
        if let Some(handle) = self.propagator.take() {
            let _ = handle.join();
        }
    }
}

impl<T: OrderedBits> std::fmt::Debug for Fcds<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fcds")
            .field("k", &self.shared.k)
            .field("B", &self.shared.buffer_size)
            .field("stream_len", &self.stream_len())
            .finish()
    }
}

/// Read-side engine capability: queries see the **propagated** stream
/// (un-propagated worker buffers are FCDS's relaxation, up to `2·N·B`
/// hidden updates). Flush workers and [`Fcds::drain`] for exact
/// end-of-stream accounting.
impl<T: OrderedBits> QuantileEstimator<T> for Fcds<T> {
    fn stream_len(&self) -> u64 {
        Fcds::stream_len(self)
    }

    fn query(&self, phi: f64) -> Option<T> {
        Fcds::query(self, phi)
    }

    fn rank_weight(&self, x: T) -> u64 {
        self.summary().rank_bits(x.to_ordered_bits())
    }

    fn cdf(&self, split_points: &[T]) -> Vec<f64> {
        let bits: Vec<u64> = split_points.iter().map(|x| x.to_ordered_bits()).collect();
        self.summary().cdf_bits(&bits)
    }

    fn quantiles(&self, phis: &[f64]) -> Vec<Option<T>> {
        let summary = self.summary();
        phis.iter().map(|&phi| summary.quantile_bits(phi).map(T::from_ordered_bits)).collect()
    }

    fn error_bound(&self) -> f64 {
        qc_common::error::sequential_epsilon(self.shared.k)
    }
}

/// Merge capability: absorption bypasses the worker/propagator pipeline
/// and folds the summary straight into the shared sequential sketch under
/// the write lock, conserving total weight exactly.
impl<T: OrderedBits> MergeableSketch<T> for Fcds<T> {
    fn to_summary(&self) -> WeightedSummary {
        self.summary()
    }

    fn absorb_summary(&mut self, summary: &WeightedSummary) {
        self.shared.sketch.write().unwrap().absorb_summary(summary);
    }
}

/// Multi-writer engine capability.
///
/// # Panics
/// Like [`Fcds::updater`]: when all `max_workers` slots are registered.
impl<T: OrderedBits> ConcurrentIngest<T> for Fcds<T> {
    fn writer(&self) -> Box<dyn StreamIngest<T> + Send + '_> {
        Box::new(self.updater())
    }
}

/// An FCDS worker handle (one per thread; `Send`, not `Sync`).
pub struct FcdsUpdater<T: OrderedBits> {
    shared: Arc<FcdsShared>,
    slot: usize,
    current: usize,
    pushed: u64,
    _marker: std::marker::PhantomData<fn(T) -> T>,
}

impl<T: OrderedBits> FcdsUpdater<T> {
    /// Process one stream element.
    #[inline]
    pub fn update(&mut self, x: T) {
        let cell = &self.shared.workers[self.slot].bufs[self.current];
        // SAFETY: this thread is the registered worker of `slot`, and
        // `current` always points at a WORKER-state buffer.
        let data = unsafe { cell.worker_data() };
        data.push(x.to_ordered_bits());
        self.pushed += 1;
        if data.len() == self.shared.buffer_size {
            data.sort_unstable();
            cell.publish();
            self.swap_buffers();
        }
    }

    /// Publish a partially filled buffer (end-of-stream flush).
    pub fn flush(&mut self) {
        let cell = &self.shared.workers[self.slot].bufs[self.current];
        // SAFETY: as in `update`.
        let data = unsafe { cell.worker_data() };
        if !data.is_empty() {
            data.sort_unstable();
            cell.publish();
            self.swap_buffers();
        }
    }

    /// Total elements pushed through this handle.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    fn swap_buffers(&mut self) {
        self.current ^= 1;
        let next = &self.shared.workers[self.slot].bufs[self.current];
        // Double buffering: wait until the propagator has drained the
        // other buffer. This wait is FCDS's scalability bottleneck.
        let mut stalled = false;
        while next.is_full() {
            if !stalled {
                self.shared.stalls.fetch_add(1, SeqCst);
                stalled = true;
            }
            std::thread::yield_now();
        }
    }
}

/// Writer-side engine capability. `flush` publishes the partial buffer;
/// pair it with [`Fcds::drain`] to make every update query-visible.
impl<T: OrderedBits> StreamIngest<T> for FcdsUpdater<T> {
    fn update(&mut self, x: T) {
        FcdsUpdater::update(self, x);
    }

    fn flush(&mut self) {
        FcdsUpdater::flush(self);
    }
}

impl<T: OrderedBits> Drop for FcdsUpdater<T> {
    fn drop(&mut self) {
        self.flush();
        self.shared.workers[self.slot].registered.store(false, SeqCst);
    }
}

impl<T: OrderedBits> std::fmt::Debug for FcdsUpdater<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FcdsUpdater")
            .field("slot", &self.slot)
            .field("pushed", &self.pushed)
            .finish()
    }
}
