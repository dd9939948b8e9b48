//! Stages 1–3 of ingestion: local buffering, batch update, propagation
//! (paper Algorithms 2–4).

use std::sync::Arc;

use qc_common::bits::OrderedBits;
use qc_common::merge::merge_sorted;
use qc_common::rng::Xoshiro256;
use qc_common::sample::sample_odd_or_even;
use qc_mwcas::CasPair;
use qc_reclaim::{LocalHandle, Shared};

use crate::backoff::Backoff;
use crate::config::MAX_LEVEL;
use crate::gather_sort::Placement;
use crate::sketch::SketchShared;
use crate::stats::Counters;

/// An update thread's handle (one per thread; `Send`, not `Sync`).
///
/// Owns the thread-local buffer of `b` elements (Algorithm 1, line 13) and
/// executes all three ingestion stages when it becomes a batch owner.
pub struct Updater<T: OrderedBits> {
    shared: Arc<SketchShared>,
    node: usize,
    local: Vec<u64>,
    rng: Xoshiro256,
    reclaim: LocalHandle,
    pushed: u64,
    _marker: std::marker::PhantomData<fn(T) -> T>,
}

impl<T: OrderedBits> Updater<T> {
    pub(crate) fn new(shared: Arc<SketchShared>, node: usize) -> Self {
        let seed = shared.seed_ctr.fetch_add(0x9E37_79B9, std::sync::atomic::Ordering::SeqCst);
        let reclaim = shared.domain.register();
        Self {
            node,
            local: Vec::with_capacity(shared.cfg.b),
            rng: Xoshiro256::seed_from_u64(seed),
            reclaim,
            pushed: 0,
            shared,
            _marker: std::marker::PhantomData,
        }
    }

    /// The Gather&Sort unit (NUMA node) this updater feeds.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Total elements pushed through this handle.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Elements still in the thread-local buffer (at most `b − 1` after any
    /// `update` returns).
    pub fn pending(&self) -> Vec<T> {
        self.local.iter().map(|&bits| T::from_ordered_bits(bits)).collect()
    }

    /// Number of elements in the thread-local buffer (the allocation-free
    /// form of `pending().len()`, for accounting hot paths).
    pub fn pending_len(&self) -> usize {
        self.local.len()
    }

    /// Move the thread-local tail out of the handle, leaving it empty
    /// (capacity retained). [`Updater::pushed`] still counts the taken
    /// elements — the caller assumes responsibility for re-homing them.
    ///
    /// This is how shared-ingest leases achieve exact accounting: a
    /// sub-`b` tail cannot be placed into Gather&Sort (placement is
    /// exactly `b` slots), so an engine-level flush takes it and parks it
    /// in engine-visible storage instead.
    pub fn take_pending(&mut self) -> Vec<T> {
        let out = self.pending();
        self.local.clear();
        out
    }

    /// Process one stream element (paper `update(x)`, Algorithm 2).
    #[inline]
    pub fn update(&mut self, x: T) {
        self.local.push(x.to_ordered_bits());
        self.pushed += 1;
        if self.local.len() == self.shared.cfg.b {
            self.flush_local();
        }
    }

    /// Stage 1 (Algorithm 2, lines 19–30): sort the local buffer and move
    /// it into one of the node's Gather&Sort buffers; run stages 2–3 if
    /// this thread became the batch owner.
    fn flush_local(&mut self) {
        self.local.sort_unstable();
        let gs = &self.shared.gs[self.node];
        let mut which = 0usize;
        let mut backoff = Backoff::new();
        loop {
            match gs.try_place(which, &self.local) {
                Placement::Placed => break,
                Placement::Owner { batch, holes } => {
                    Counters::add(&self.shared.counters.holes, holes);
                    self.batch_update(which, batch);
                    break;
                }
                Placement::Full => {
                    // Line 29: i ← ¬i. Both buffers full means two owners
                    // are mid-batch-update; keep alternating.
                    Counters::bump(&self.shared.counters.gs_full_spins);
                    which ^= 1;
                    backoff.snooze();
                }
            }
        }
        self.local.clear();
    }

    /// Stage 2 (Algorithm 3): install the sorted 2k batch into level 0
    /// with DCAS(levels[0]: ⊥ → batch, tritmap[0]: 0 → 2), then reopen the
    /// Gather&Sort buffer and propagate.
    fn batch_update(&mut self, which_buffer: usize, batch: Vec<u64>) {
        debug_assert_eq!(batch.len(), 2 * self.shared.cfg.k);
        debug_assert!(qc_common::merge::is_sorted(&batch));
        let shared = Arc::clone(&self.shared);
        // From here to the post-install reset, the batch would be counted
        // both by the buffer's fill index and (once the DCAS lands) by
        // the tritmap. Flag the buffer so concurrent accounting readers
        // skip it — they may transiently miss the batch, never see it
        // twice.
        shared.gs[self.node].begin_install(which_buffer);
        let block = self.reclaim.alloc(batch);
        let raw = block.into_raw();

        // Line 33: spin until the DCAS succeeds.
        let mut backoff = Backoff::new();
        loop {
            let tm = shared.tritmap_now();
            if tm.trit(0) != 0 {
                // Another batch occupies level 0; wait for its propagation
                // to move it up.
                backoff.snooze();
                continue;
            }
            let ok = qc_mwcas::mwcas(
                &shared.arena,
                &[
                    CasPair { word: &shared.levels[0], old: 0, new: raw },
                    CasPair { word: &shared.tritmap, old: tm.0, new: tm.after_batch_insert().0 },
                ],
            );
            if ok {
                break;
            }
            Counters::bump(&shared.counters.dcas_retries);
        }

        // Line 34: reopen the buffer for new reservations.
        shared.gs[self.node].reset(which_buffer);
        Counters::bump(&shared.counters.batches);

        // Line 35 / stage 3.
        self.propagate(0, block);
    }

    /// Stage 3 (Algorithm 4): propagate level `l` upward until an empty
    /// level absorbs the carry.
    ///
    /// `cur` is the 2k block this owner just installed at level `l` — the
    /// owner carries the pointer, so it never re-reads a level it owns
    /// (tritmap trit `l` = 2 is the exclusive ownership token).
    fn propagate(&mut self, mut l: usize, mut cur: Shared<Vec<u64>>) {
        let shared = Arc::clone(&self.shared);
        loop {
            assert!(
                l + 1 < MAX_LEVEL,
                "propagation reached MAX_LEVEL ({MAX_LEVEL}); stream too large for tritmap"
            );
            // Line 39: sample odd or even indices with a fair coin.
            // SAFETY: `cur` is owned by this propagation (trit l = 2);
            // blocks are immutable once published.
            let sampled = sample_odd_or_even(unsafe { cur.deref() }, &mut self.rng);

            // Decide by the next level's state; trit l+1 can only be
            // changed to/from 2 by this owner or by the propagation it
            // waits for, so the case is stable once ∈ {0, 1}.
            let mut backoff = Backoff::new();
            let next_trit = loop {
                let tm = shared.tritmap_now();
                debug_assert_eq!(tm.trit(l), 2, "lost ownership of level {l}");
                match tm.trit(l + 1) {
                    2 => {
                        // Blocked by a propagation from l+1 to l+2 (Figure
                        // 5e: batch i+1 waits for batch i).
                        Counters::bump(&shared.counters.level_waits);
                        backoff.snooze();
                    }
                    t => break t,
                }
            };

            if next_trit == 1 {
                // Lines 40–44: next level holds k elements — merge, swing
                // the pointer and the two trits atomically, clear, recurse.
                let guard = self.reclaim.pin();
                let next_raw =
                    qc_mwcas::read(&shared.levels[l + 1], |w| guard.protect(|| w.load_raw()));
                debug_assert_ne!(next_raw, 0, "trit 1 level must hold an array");
                let next: Shared<Vec<u64>> = unsafe { Shared::from_raw(next_raw) };
                // SAFETY: protected by `guard`; also structurally stable
                // (only a propagation from level l — i.e. us — replaces it).
                let merged = merge_sorted(&sampled, unsafe { next.deref() });
                drop(guard);

                let new_block = self.reclaim.alloc(merged);
                let new_raw = new_block.into_raw();
                loop {
                    let tm = shared.tritmap_now();
                    let ok = qc_mwcas::mwcas(
                        &shared.arena,
                        &[
                            CasPair { word: &shared.levels[l + 1], old: next_raw, new: new_raw },
                            CasPair {
                                word: &shared.tritmap,
                                old: tm.0,
                                new: tm.after_propagate(l).0,
                            },
                        ],
                    );
                    if ok {
                        break;
                    }
                    Counters::bump(&shared.counters.dcas_retries);
                }
                Counters::bump(&shared.counters.propagations);
                Counters::bump(&shared.counters.merges);

                // The old k-array is unlinked by the DCAS.
                // SAFETY: unreachable, retired once.
                unsafe { self.reclaim.retire(next) };
                // Line 43: clear level l (plain store — the tritmap makes
                // every concurrent DCAS expecting this word fail until ⊥).
                shared.levels[l].store_plain(0);
                // SAFETY: unlinked by the clear above.
                unsafe { self.reclaim.retire(cur) };

                // Line 44: continue propagating the merged level.
                cur = new_block;
                l += 1;
            } else {
                // Lines 45–46: next level is empty — install the k sample
                // and stop.
                let new_block = self.reclaim.alloc(sampled);
                let new_raw = new_block.into_raw();
                loop {
                    let tm = shared.tritmap_now();
                    let ok = qc_mwcas::mwcas(
                        &shared.arena,
                        &[
                            // ⊥ → sample: fails while the previous owner of
                            // level l+1 has not stored ⊥ yet — exactly the
                            // paper's retry loop.
                            CasPair { word: &shared.levels[l + 1], old: 0, new: new_raw },
                            CasPair {
                                word: &shared.tritmap,
                                old: tm.0,
                                new: tm.after_propagate(l).0,
                            },
                        ],
                    );
                    if ok {
                        break;
                    }
                    Counters::bump(&shared.counters.dcas_retries);
                    backoff.snooze();
                }
                Counters::bump(&shared.counters.propagations);

                // Line 46: clear level l and finish.
                shared.levels[l].store_plain(0);
                // SAFETY: unlinked by the clear above.
                unsafe { self.reclaim.retire(cur) };
                return;
            }
        }
    }
}

/// Writer-side engine capability. `flush` is the default no-op: a sub-`b`
/// thread-local tail is invisible to queries **by design** (it is part of
/// the r-relaxation bound); compose [`Updater::pending`] into quiescent
/// accounting where exactness is required, as the keyed store does.
impl<T: OrderedBits> qc_common::engine::StreamIngest<T> for Updater<T> {
    fn update(&mut self, x: T) {
        Updater::update(self, x);
    }
}

impl<T: OrderedBits> std::fmt::Debug for Updater<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Updater")
            .field("node", &self.node)
            .field("pushed", &self.pushed)
            .field("buffered", &self.local.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::Quancurrent;

    #[test]
    fn updates_below_b_stay_local() {
        let q = Quancurrent::<u64>::builder().k(4).b(4).build();
        let mut u = q.updater();
        u.update(1);
        u.update(2);
        assert_eq!(u.pending(), vec![1, 2]);
        assert_eq!(q.stream_len(), 0);
        assert_eq!(q.buffered_len(), 0);
    }

    #[test]
    fn full_local_buffer_moves_to_gather_sort() {
        let q = Quancurrent::<u64>::builder().k(4).b(4).build();
        let mut u = q.updater();
        for x in 0..4u64 {
            u.update(x);
        }
        assert!(u.pending().is_empty());
        assert_eq!(q.buffered_len(), 4);
        assert_eq!(q.stream_len(), 0, "no batch yet");
    }

    #[test]
    fn filling_one_buffer_triggers_batch() {
        let k = 4;
        let q = Quancurrent::<u64>::builder().k(k).b(4).build();
        let mut u = q.updater();
        for x in 0..(2 * k as u64) {
            u.update(x);
        }
        assert_eq!(q.stream_len(), 2 * k as u64);
        assert_eq!(q.buffered_len(), 0);
        let stats = q.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.propagations, 1, "batch propagates 0 → 1 immediately");
    }

    #[test]
    fn two_batches_merge_into_level_two() {
        let k = 4;
        let q = Quancurrent::<u64>::builder().k(k).b(4).seed(9).build();
        let mut u = q.updater();
        for x in 0..(4 * k as u64) {
            u.update(x);
        }
        assert_eq!(q.stream_len(), 4 * k as u64);
        let stats = q.stats();
        assert_eq!(stats.batches, 2);
        // First batch: 0→1 (empty). Second: 0→1 (full, merge) then 1→2
        // (empty).
        assert_eq!(stats.propagations, 3);
        assert_eq!(stats.merges, 1);
    }

    #[test]
    fn every_dcas_attempt_takes_one_arena_descriptor() {
        // Each `qc_mwcas::mwcas` call allocates its descriptor, failed
        // attempts included: a batch install and each propagation succeed
        // once, and each retry is one more failed attempt.
        let q = Quancurrent::<u64>::builder().k(8).b(2).seed(5).build();
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let mut u = q.updater();
                s.spawn(move || (0..20_000u64).for_each(|x| u.update(2 * x + t)));
            }
        });
        let stats = q.stats();
        assert!(stats.batches > 0 && stats.propagations >= stats.batches);
        let attempts = stats.batches + stats.propagations + stats.dcas_retries;
        assert_eq!(q.shared().arena.allocated(), attempts, "{stats:?}");
    }

    #[test]
    fn pushed_counts_all_updates() {
        let q = Quancurrent::<f64>::builder().k(4).b(2).build();
        let mut u = q.updater();
        for i in 0..37 {
            u.update(i as f64);
        }
        assert_eq!(u.pushed(), 37);
        // 37 = 2k·2 batches (32) + buffered; local holds 37 mod 2 = 1.
        assert_eq!(u.pending().len(), 1);
        assert_eq!(q.stream_len() + q.buffered_len() as u64 + 1, 37);
    }

    #[test]
    fn updaters_round_robin_fill_first() {
        let q = Quancurrent::<u64>::builder().k(4).b(2).numa_nodes(2).threads_per_node(2).build();
        assert_eq!(q.updater().node(), 0);
        assert_eq!(q.updater().node(), 0);
        assert_eq!(q.updater().node(), 1);
        assert_eq!(q.updater().node(), 1);
        assert_eq!(q.updater().node(), 0);
    }
}
