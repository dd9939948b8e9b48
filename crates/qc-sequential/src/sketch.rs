//! The core (bit-space) sequential Quantiles sketch.
//!
//! Structure (paper §2.2, Figure 3): a **base buffer** of up to `2k`
//! weight-1 elements (the paper's level 0) and a hierarchy of **levels**
//! that each hold either `0` or `k` sorted elements; an element in paper
//! level `i ≥ 1` carries weight `2^i`.
//!
//! When the base buffer fills it is sorted and *compacted*: the odd- or
//! even-indexed half is retained (fair coin) and carried into level 1. A
//! carry arriving at a full level merges with it (merge sort of two sorted
//! `k`-arrays) and is compacted again, one level higher — exactly the
//! propagation of Figure 3.
//!
//! Memory follows the stream seen so far: the base buffer grows on demand
//! (nothing is preallocated), and each full level is an immutable
//! `Arc`-shared run, replaced — never edited — by a compaction. Reads take
//! the sketch as [`SketchParts`] — those shared runs plus the base sorted
//! once — and answer over their union ([`UnionView`]) without building
//! the flat `samples` list; [`QuantilesSketch::summary`] is that list,
//! the flattening of the same parts.

use std::sync::Arc;

use qc_common::merge::merge_sorted;
use qc_common::rng::Xoshiro256;
use qc_common::sample::sample_odd_or_even;
use qc_common::summary::{Summary, UnionView, WeightedSummary};

/// Sequential Agarwal et al. Quantiles sketch over 64-bit ordered keys.
///
/// This is the algorithm Apache DataSketches' classic Quantiles sketch
/// implements and the one Quancurrent parallelizes. Typed access (f64, i64,
/// …) is provided by [`crate::Sketch`].
#[derive(Clone, Debug)]
pub struct QuantilesSketch {
    k: usize,
    n: u64,
    /// Paper level 0: up to `2k` weight-1 elements, kept unsorted until
    /// compaction (sorting once per `2k` ingests is the classic trade).
    /// Grows on demand: a key that has seen 32 values holds 32 slots.
    base: Vec<u64>,
    /// `levels[i]` is paper level `i + 1`: empty or exactly `k` sorted
    /// elements of weight `2^(i+1)`. Immutable between compactions, so
    /// [`QuantilesSketch::parts`] shares them instead of copying.
    levels: Vec<Option<Arc<Vec<u64>>>>,
    rng: Xoshiro256,
}

impl QuantilesSketch {
    /// Create a sketch with level size `k` and a fixed default seed.
    ///
    /// `k` trades accuracy for space: the rank error is ≈ `1.76 / k^0.93`
    /// ([`qc_common::error::sequential_epsilon`]).
    pub fn new(k: usize) -> Self {
        Self::with_seed(k, 0x5E_ED0F_5EED)
    }

    /// Create a sketch with an explicit RNG seed (for reproducible runs).
    pub fn with_seed(k: usize, seed: u64) -> Self {
        assert!(k >= 2, "k must be at least 2");
        Self { k, n: 0, base: Vec::new(), levels: Vec::new(), rng: Xoshiro256::seed_from_u64(seed) }
    }

    /// Level size parameter.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of stream elements processed.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Has the sketch seen no elements?
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of elements currently retained (memory ∝ this).
    pub fn num_retained(&self) -> usize {
        self.base.len() + self.levels.iter().flatten().map(|run| run.len()).sum::<usize>()
    }

    /// Sizes of the occupied structures: `(base length, per-level lengths)`.
    /// Level `i` of the return value is paper level `i + 1`.
    pub fn level_sizes(&self) -> (usize, Vec<usize>) {
        (
            self.base.len(),
            self.levels.iter().map(|l| l.as_ref().map_or(0, |run| run.len())).collect(),
        )
    }

    /// The normalized rank error bound ε(k) of this sketch.
    pub fn epsilon(&self) -> f64 {
        qc_common::error::sequential_epsilon(self.k)
    }

    /// Process one stream element (paper `update(x)`), given in ordered-bit
    /// space.
    #[inline]
    pub fn update(&mut self, bits: u64) {
        self.base.push(bits);
        self.n += 1;
        if self.base.len() == 2 * self.k {
            self.compact_base();
        }
    }

    /// Make room in the base buffer for `additional` more values, up to its
    /// `2k` bound, so a batch grows the buffer once rather than value by
    /// value. The capacity still follows the data: nothing beyond the
    /// batch is reserved.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.base.reserve(additional.min(2 * self.k - self.base.len()));
    }

    /// Bulk-ingest an ascending slice.
    ///
    /// Equivalent to `for &x in sorted { self.update(x) }` (bit-identical,
    /// including RNG consumption) but skips the per-buffer sort whenever a
    /// full `2k` chunk lands on an empty base buffer. This is the "heavy
    /// merge-sort" path the FCDS propagator runs.
    pub fn ingest_sorted(&mut self, sorted: &[u64]) {
        debug_assert!(qc_common::merge::is_sorted(sorted), "ingest_sorted needs ascending input");
        let mut rest = sorted;
        while !rest.is_empty() {
            if self.base.is_empty() && rest.len() >= 2 * self.k {
                let (chunk, tail) = rest.split_at(2 * self.k);
                self.n += 2 * self.k as u64;
                let carry = sample_odd_or_even(chunk, &mut self.rng);
                self.carry_into(carry, 0);
                rest = tail;
            } else {
                let take = (2 * self.k - self.base.len()).min(rest.len());
                let (chunk, tail) = rest.split_at(take);
                self.base.extend_from_slice(chunk);
                self.n += take as u64;
                if self.base.len() == 2 * self.k {
                    self.compact_base();
                }
                rest = tail;
            }
        }
    }

    /// Absorb an arbitrary [`WeightedSummary`] into this sketch,
    /// conserving its total weight **exactly**.
    ///
    /// This is **total**: weights need not be powers of two (they are
    /// decomposed binarily) and level populations need not be multiples
    /// of `k`. A ragged remainder of `m < k` elements at level `L` is
    /// pushed down one level with each element duplicated — one element
    /// of weight `2^L` is exactly two of weight `2^(L-1)` — until it
    /// either completes a `k`-array or reaches the base buffer, which
    /// accepts any count. Each level contributes
    /// fewer than `k` descending elements, so the extra work is
    /// `O(k · levels)`, not `O(total weight)`.
    ///
    /// This is the summary-round-trip primitive behind engine tiering:
    /// any backend's exported summary can be folded into a sequential
    /// sketch without losing a single unit of stream weight.
    pub fn absorb_summary(&mut self, summary: &WeightedSummary) {
        let mut levels = summary.level_runs();
        // Top-down: absorb whole k-arrays at their level, descend ragged
        // remainders (duplicated) toward the base buffer.
        let mut carry: Vec<u64> = Vec::new();
        for level in (1..levels.len()).rev() {
            let own = std::mem::take(&mut levels[level]);
            let items = merge_sorted(&own, &carry);
            let full = items.len() - items.len() % self.k;
            for chunk in items[..full].chunks(self.k) {
                self.carry_into(chunk.to_vec(), level - 1);
            }
            self.n += (full as u64) << level;
            carry = Vec::with_capacity(2 * (items.len() - full));
            for &v in &items[full..] {
                carry.push(v);
                carry.push(v);
            }
        }
        // Weight-1 elements: the summary's own level-0 run plus everything
        // that descended all the way down.
        let zero = merge_sorted(levels.first().map_or(&[][..], Vec::as_slice), &carry);
        self.ingest_sorted(&zero);
    }

    /// Merge another sketch into this one (Agarwal et al.'s *mergeable
    /// summaries* property — the result distributes like a sketch built
    /// from the concatenated stream).
    ///
    /// # Panics
    /// If the sketches have different `k`.
    pub fn merge_from(&mut self, other: &QuantilesSketch) {
        assert_eq!(self.k, other.k, "can only merge sketches with equal k");
        // Weighted levels first: carry each of other's occupied levels into
        // the same level of self.
        for (i, level) in other.levels.iter().enumerate() {
            if let Some(arr) = level {
                self.carry_into(arr.to_vec(), i);
            }
        }
        // Other's base elements are weight-1 singletons.
        for &x in &other.base {
            self.base.push(x);
            if self.base.len() == 2 * self.k {
                self.compact_base();
            }
        }
        self.n += other.n;
    }

    /// The sketch's state as the runs a read answers over: the base buffer
    /// sorted once, then every full level — shared with the sketch, not
    /// copied — lowest first.
    pub fn parts(&self) -> SketchParts {
        let mut base = self.base.clone();
        base.sort_unstable();
        let levels =
            self.levels.iter().enumerate().filter_map(|(i, level)| {
                level.as_ref().map(|run| (Arc::clone(run), 1u64 << (i + 1)))
            });
        SketchParts { base, levels: levels.collect() }
    }

    /// Build the weighted `samples` list of §2.2: the flattening of
    /// [`QuantilesSketch::parts`] (see [`SketchParts::summary`]).
    pub fn summary(&self) -> WeightedSummary {
        self.parts().summary()
    }

    /// Estimate the φ-quantile (in bit space). `None` iff empty.
    ///
    /// Cost: sorts a copy of the base buffer (at most `2k` values), then
    /// selects over the sorted runs ([`SketchParts::view`]); no flat
    /// summary is built. Bit-equal to `self.summary().quantile_bits(phi)`.
    pub fn quantile_bits(&self, phi: f64) -> Option<u64> {
        self.parts().view().quantile_bits(phi)
    }

    /// Estimate the rank of `x` (in bit space), over the same runs as
    /// [`QuantilesSketch::quantile_bits`].
    pub fn rank_bits(&self, x: u64) -> u64 {
        self.parts().view().rank_bits(x)
    }

    /// Sort + compact the full base buffer and carry the survivors up.
    fn compact_base(&mut self) {
        debug_assert_eq!(self.base.len(), 2 * self.k);
        self.base.sort_unstable();
        let carry = sample_odd_or_even(&self.base, &mut self.rng);
        self.base.clear();
        self.carry_into(carry, 0);
    }

    /// Insert a sorted `k`-array carrying weight `2^(slot+1)` at `levels
    /// [slot]`, merging-and-compacting upwards until a free level absorbs
    /// it (Figure 3's propagation).
    fn carry_into(&mut self, mut carry: Vec<u64>, mut slot: usize) {
        debug_assert_eq!(carry.len(), self.k);
        loop {
            if self.levels.len() <= slot {
                self.levels.resize_with(slot + 1, || None);
            }
            match self.levels[slot].take() {
                None => {
                    self.levels[slot] = Some(Arc::new(carry));
                    return;
                }
                Some(existing) => {
                    let merged = merge_sorted(&carry, &existing);
                    carry = sample_odd_or_even(&merged, &mut self.rng);
                    slot += 1;
                }
            }
        }
    }
}

/// A sketch's state as ascending runs, each with the weight every one of
/// its values stands for — what a read answers over.
///
/// [`SketchParts::view`] answers over their union without a merge (rank
/// is additive across runs), bit-equal to [`SketchParts::summary`], the
/// flat `samples` list of the same runs.
#[derive(Clone, Debug, Default)]
pub struct SketchParts {
    /// Unit-weight values, sorted: a sequential sketch's base buffer.
    pub base: Vec<u64>,
    /// Ascending runs and their weights, lowest weight first: a
    /// sequential sketch's full levels, shared with it.
    pub levels: Vec<(Arc<Vec<u64>>, u64)>,
}

impl SketchParts {
    /// The union of the runs, answering without a merge.
    pub fn view(&self) -> UnionView<'_> {
        let mut view = UnionView::new();
        self.push_into(&mut view);
        view
    }

    /// Add every run to `view`.
    pub fn push_into<'a>(&'a self, view: &mut UnionView<'a>) {
        view.push_sorted(&self.base, 1);
        for (run, weight) in &self.levels {
            view.push_sorted(run, *weight);
        }
    }

    /// The flat `samples` list of the runs: the base, then the levels, in
    /// one [`WeightedSummary::from_parts`] call.
    pub fn summary(&self) -> WeightedSummary {
        let levels = self.levels.iter().map(|(run, weight)| (&run[..], *weight));
        WeightedSummary::from_parts(std::iter::once((&self.base[..], 1)).chain(levels))
    }
}

impl Summary for QuantilesSketch {
    fn stream_len(&self) -> u64 {
        self.n
    }
    fn quantile_bits(&self, phi: f64) -> Option<u64> {
        QuantilesSketch::quantile_bits(self, phi)
    }
    fn rank_bits(&self, x_bits: u64) -> u64 {
        QuantilesSketch::rank_bits(self, x_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(k: usize, n: u64) -> QuantilesSketch {
        let mut s = QuantilesSketch::with_seed(k, 1);
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..n {
            s.update(rng.next_below(1_000_000));
        }
        s
    }

    #[test]
    fn empty_sketch() {
        let s = QuantilesSketch::new(16);
        assert!(s.is_empty());
        assert_eq!(s.n(), 0);
        assert_eq!(s.num_retained(), 0);
        assert_eq!(s.quantile_bits(0.5), None);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn k_of_one_rejected() {
        let _ = QuantilesSketch::new(1);
    }

    #[test]
    fn small_stream_is_exact() {
        // With n < 2k nothing is ever sampled: quantiles are exact order
        // statistics.
        let mut s = QuantilesSketch::new(64);
        for x in [50u64, 10, 40, 20, 30] {
            s.update(x);
        }
        assert_eq!(s.n(), 5);
        assert_eq!(s.quantile_bits(0.0), Some(10));
        assert_eq!(s.quantile_bits(0.5), Some(30)); // ⌊0.5·5⌋ = 2: W(30) = 2 ≤ 2 < W(40) = 3
        assert_eq!(s.quantile_bits(1.0), Some(50));
    }

    #[test]
    fn n_is_conserved_through_compactions() {
        let s = filled(8, 10_000);
        assert_eq!(s.n(), 10_000);
        assert_eq!(s.summary().stream_len(), 10_000, "summary weights must add to n");
    }

    #[test]
    fn retained_is_logarithmic() {
        let k = 128;
        let s = filled(k, 1_000_000);
        // base ≤ 2k plus ~log2(n / 2k) levels of k.
        let bound = 2 * k + k * 32;
        assert!(s.num_retained() <= bound, "retained {} > {}", s.num_retained(), bound);
        assert!(s.num_retained() < 10_000, "sublinear space: {}", s.num_retained());
    }

    #[test]
    fn level_invariants_hold() {
        let s = filled(16, 54_321);
        let (base_len, levels) = s.level_sizes();
        assert!(base_len < 2 * 16);
        for (i, len) in levels.iter().enumerate() {
            assert!(*len == 0 || *len == 16, "level {} has {} elements", i + 1, len);
        }
    }

    #[test]
    fn exact_compaction_boundary() {
        // Exactly 2k updates: base compacts to one k-level, base empties.
        let mut s = QuantilesSketch::with_seed(8, 3);
        for x in 0..16u64 {
            s.update(x);
        }
        let (base_len, levels) = s.level_sizes();
        assert_eq!(base_len, 0);
        assert_eq!(levels, vec![8]);
        assert_eq!(s.n(), 16);
    }

    #[test]
    fn rank_error_is_bounded_on_uniform_stream() {
        let k = 128;
        let n = 200_000u64;
        let mut s = QuantilesSketch::with_seed(k, 11);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut all: Vec<u64> = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let x = rng.next_u64() >> 1;
            all.push(x);
            s.update(x);
        }
        all.sort_unstable();
        let eps = s.epsilon();
        let summary = s.summary();
        for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let est = summary.quantile_bits(phi).unwrap();
            let true_rank = all.partition_point(|&v| v < est) as f64;
            let err = (true_rank - phi * n as f64).abs() / n as f64;
            // ε is a high-probability bound; 4ε makes the test robust to
            // the fixed seed while still catching real estimator bugs.
            assert!(err < 4.0 * eps, "phi={phi}: rank error {err} vs eps {eps}");
        }
    }

    #[test]
    fn ingest_sorted_matches_update_loop_exactly() {
        let k = 32;
        let data: Vec<u64> = (0..10 * k as u64 + 7).collect();
        let mut a = QuantilesSketch::with_seed(k, 42);
        let mut b = QuantilesSketch::with_seed(k, 42);
        for &x in &data {
            a.update(x);
        }
        b.ingest_sorted(&data);
        assert_eq!(a.n(), b.n());
        assert_eq!(a.level_sizes(), b.level_sizes());
        assert_eq!(a.summary().items(), b.summary().items());
    }

    #[test]
    fn ingest_sorted_with_partial_base_present() {
        let k = 16;
        let mut s = QuantilesSketch::with_seed(k, 9);
        for x in 0..5u64 {
            s.update(x);
        }
        let chunk: Vec<u64> = (100..100 + 4 * k as u64).collect();
        s.ingest_sorted(&chunk);
        assert_eq!(s.n(), 5 + 4 * k as u64);
        assert_eq!(s.summary().stream_len(), s.n());
    }

    #[test]
    fn absorb_summary_conserves_weight_exactly() {
        use qc_common::summary::WeightedItem;
        // Ragged sizes and non-power-of-two weights exercise both the
        // decomposition and the descend-with-duplication path.
        let summary = WeightedSummary::from_items(vec![
            WeightedItem { value_bits: 10, weight: 5 },
            WeightedItem { value_bits: 20, weight: 7 },
            WeightedItem { value_bits: 30, weight: 1 },
            WeightedItem { value_bits: 40, weight: 16 },
        ]);
        let mut s = QuantilesSketch::with_seed(8, 1);
        s.absorb_summary(&summary);
        assert_eq!(s.n(), 29);
        assert_eq!(s.summary().stream_len(), 29);
    }

    #[test]
    fn absorb_summary_of_own_summary_is_exact_roundtrip() {
        let a = filled(16, 12_345);
        let mut b = QuantilesSketch::with_seed(16, 2);
        b.absorb_summary(&a.summary());
        assert_eq!(b.n(), a.n());
        assert_eq!(b.summary().stream_len(), a.n());
        // Estimates stay within the composed error budget.
        let (qa, qb) = (a.quantile_bits(0.5).unwrap(), b.quantile_bits(0.5).unwrap());
        let ra = a.summary().rank_bits(qb).abs_diff(b.summary().rank_bits(qb));
        assert!(
            ra as f64 / a.n() as f64 <= 4.0 * a.epsilon(),
            "round-trip rank drift {ra} (qa={qa}, qb={qb})"
        );
    }

    #[test]
    fn absorb_summary_into_nonempty_sketch_adds() {
        let mut s = filled(8, 1000);
        let other = filled(8, 500).summary();
        s.absorb_summary(&other);
        assert_eq!(s.n(), 1500);
        assert_eq!(s.summary().stream_len(), 1500);
    }

    #[test]
    fn absorb_summary_of_a_concurrent_snapshot_keeps_estimates() {
        // A Quancurrent snapshot's shape: full level arrays of `2k` and `k`
        // values at weights `2^j`, plus a ragged unit-weight buffer.
        let k = 64u64;
        let spread = |len: u64, offset: u64| -> Vec<u64> {
            (0..len).map(|i| i * 100_000 / len + offset).collect()
        };
        let (level1, level3, buffer) = (spread(2 * k, 3), spread(k, 7), vec![11, 50_000, 99_999]);
        let snapshot =
            WeightedSummary::from_parts([(&buffer[..], 1), (&level1[..], 2), (&level3[..], 8)]);
        let mut s = QuantilesSketch::with_seed(k as usize, 3);
        s.absorb_summary(&snapshot);
        assert_eq!(s.n(), snapshot.stream_len());
        assert_eq!(s.summary().stream_len(), snapshot.stream_len());
        let n = snapshot.stream_len() as f64;
        for phi in [0.1, 0.5, 0.9] {
            let rank = snapshot.rank_bits(s.quantile_bits(phi).unwrap()) as f64 / n;
            assert!((rank - phi).abs() <= 4.0 * s.epsilon() + 8.0 / n, "phi={phi}: rank {rank}");
        }
    }

    #[test]
    fn absorb_empty_summary_is_identity() {
        let mut s = filled(8, 100);
        let before = s.summary().items().to_vec();
        s.absorb_summary(&WeightedSummary::empty());
        assert_eq!(s.n(), 100);
        assert_eq!(s.summary().items(), &before[..]);
    }

    #[test]
    fn merge_conserves_n_and_bounds_error() {
        let k = 64;
        let mut a = QuantilesSketch::with_seed(k, 1);
        let mut b = QuantilesSketch::with_seed(k, 2);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut all = Vec::new();
        for _ in 0..50_000 {
            let x = rng.next_below(1 << 40);
            all.push(x);
            a.update(x);
        }
        for _ in 0..30_000 {
            let x = rng.next_below(1 << 40);
            all.push(x);
            b.update(x);
        }
        a.merge_from(&b);
        assert_eq!(a.n(), 80_000);
        assert_eq!(a.summary().stream_len(), 80_000);

        all.sort_unstable();
        let est = a.quantile_bits(0.5).unwrap();
        let true_rank = all.partition_point(|&v| v < est) as f64 / all.len() as f64;
        assert!((true_rank - 0.5).abs() < 4.0 * a.epsilon());
    }

    #[test]
    #[should_panic(expected = "equal k")]
    fn merge_with_different_k_rejected() {
        let mut a = QuantilesSketch::new(16);
        let b = QuantilesSketch::new(32);
        a.merge_from(&b);
    }

    #[test]
    fn merge_empty_is_identity() {
        let mut a = filled(16, 1000);
        let before = a.summary().items().to_vec();
        let empty = QuantilesSketch::new(16);
        a.merge_from(&empty);
        assert_eq!(a.n(), 1000);
        assert_eq!(a.summary().items(), &before[..]);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let a = filled(32, 12_345);
        let b = filled(32, 12_345);
        assert_eq!(a.summary().items(), b.summary().items());
    }

    #[test]
    fn constant_stream_estimates_constant() {
        let mut s = QuantilesSketch::with_seed(16, 8);
        for _ in 0..100_000 {
            s.update(777);
        }
        for phi in [0.0, 0.5, 1.0] {
            assert_eq!(s.quantile_bits(phi), Some(777));
        }
        assert_eq!(s.rank_bits(777), 0);
        assert_eq!(s.rank_bits(778), 100_000);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = filled(16, 1000);
        let b = a.clone();
        a.update(1);
        assert_eq!(b.n(), 1000);
        assert_eq!(a.n(), 1001);
    }
}
