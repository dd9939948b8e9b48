//! Weighted-sample summaries and the paper's quantile-selection rule.
//!
//! §2.2 of the paper: *"For approximating the φ quantile, we construct a
//! list of tuples, denoted `samples`, containing all elements in the sketch
//! and their associated weights. The list is then sorted by the elements'
//! values. Denote by `W(x_i)` the sum of weights up to element `x_i` in the
//! sorted list. The estimation of the φ quantile is an element `x_j` such
//! that `W(x_j) ≤ ⌊φn⌋` and `W(x_{j+1}) > ⌊φn⌋`."*
//!
//! [`WeightedSummary`] is that list with precomputed exclusive prefix
//! weights, so a quantile query is a single binary search. It is produced by
//! the sequential sketch, by Quancurrent query snapshots, and by the FCDS
//! baseline, which makes estimator behaviour identical across all three —
//! exactly what the paper's accuracy comparisons (Figures 2, 8, 9) assume.

use crate::bits::OrderedBits;

/// One summary point: an element (in ordered-bit space) and its weight,
/// i.e. how many stream elements it represents (2^level).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightedItem {
    /// The element, embedded via [`OrderedBits`].
    pub value_bits: u64,
    /// The number of stream elements this summary point stands for.
    pub weight: u64,
}

/// Query interface shared by every sketch in the workspace.
pub trait Summary {
    /// Total weight = size of the (sub)stream this summary represents.
    fn stream_len(&self) -> u64;

    /// The paper's φ-quantile estimate in ordered-bit space.
    /// `None` iff the summary is empty.
    fn quantile_bits(&self, phi: f64) -> Option<u64>;

    /// Estimated rank of `x` (given in ordered-bit space): the weight of all
    /// summary points strictly smaller than `x`.
    fn rank_bits(&self, x_bits: u64) -> u64;

    /// Typed φ-quantile estimate.
    fn quantile<T: OrderedBits>(&self, phi: f64) -> Option<T>
    where
        Self: Sized,
    {
        self.quantile_bits(phi).map(T::from_ordered_bits)
    }

    /// Typed **absolute** rank estimate: the total weight of summary points
    /// strictly smaller than `x`.
    fn rank_weight<T: OrderedBits>(&self, x: T) -> u64
    where
        Self: Sized,
    {
        self.rank_bits(x.to_ordered_bits())
    }

    /// Typed **normalized** rank estimate: the fraction of the stream
    /// strictly below `x`, in `[0, 1]`. Returns `0.0` on an empty summary.
    fn rank_fraction<T: OrderedBits>(&self, x: T) -> f64
    where
        Self: Sized,
    {
        let n = self.stream_len();
        if n == 0 {
            0.0
        } else {
            self.rank_bits(x.to_ordered_bits()) as f64 / n as f64
        }
    }

    /// Estimated CDF at each split point: `rank(p) / n`.
    fn cdf_bits(&self, split_points: &[u64]) -> Vec<f64> {
        let n = self.stream_len();
        if n == 0 {
            return vec![0.0; split_points.len()];
        }
        split_points.iter().map(|&p| self.rank_bits(p) as f64 / n as f64).collect()
    }

    /// Batch quantile estimation.
    fn quantiles_bits(&self, phis: &[f64]) -> Vec<Option<u64>> {
        phis.iter().map(|&p| self.quantile_bits(p)).collect()
    }

    /// Estimated histogram: the number of stream elements falling in each
    /// bucket `[split[i], split[i+1])`, plus the under/overflow buckets —
    /// `splits.len() + 1` counts in total. Splits must be ascending.
    fn histogram_bits(&self, splits: &[u64]) -> Vec<u64> {
        debug_assert!(splits.windows(2).all(|w| w[0] <= w[1]), "splits must ascend");
        let mut counts = Vec::with_capacity(splits.len() + 1);
        let mut prev = 0u64;
        for &s in splits {
            let r = self.rank_bits(s);
            counts.push(r.saturating_sub(prev));
            prev = r;
        }
        counts.push(self.stream_len().saturating_sub(prev));
        counts
    }
}

/// The sorted `samples` list with exclusive prefix weights.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WeightedSummary {
    /// Sorted by `value_bits` ascending.
    items: Vec<WeightedItem>,
    /// `prefix[i]` = total weight of items `0..i` (exclusive prefix sum).
    prefix: Vec<u64>,
    /// Total weight of all items.
    total: u64,
}

impl WeightedSummary {
    /// An empty summary (represents the empty stream).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from `(sorted_slice, weight)` parts — one part per sketch level.
    ///
    /// Each slice must be ascending (checked with `debug_assert`); parts may
    /// overlap arbitrarily in value space. Total cost is one k-way sort of
    /// the concatenation.
    pub fn from_parts<'a, I>(parts: I) -> Self
    where
        I: IntoIterator<Item = (&'a [u64], u64)>,
    {
        let mut items = Vec::new();
        for (slice, weight) in parts {
            debug_assert!(crate::merge::is_sorted(slice), "summary part not sorted");
            debug_assert!(weight > 0, "summary part with zero weight");
            items.extend(slice.iter().map(|&v| WeightedItem { value_bits: v, weight }));
        }
        Self::from_items(items)
    }

    /// Build from an arbitrary collection of weighted items.
    pub fn from_items(mut items: Vec<WeightedItem>) -> Self {
        items.sort_unstable_by_key(|it| it.value_bits);
        let mut prefix = Vec::with_capacity(items.len());
        let mut acc = 0u64;
        for it in &items {
            prefix.push(acc);
            acc += it.weight;
        }
        Self { items, prefix, total: acc }
    }

    /// Number of summary points (not stream elements).
    pub fn num_retained(&self) -> usize {
        self.items.len()
    }

    /// The summary points, sorted by value.
    pub fn items(&self) -> &[WeightedItem] {
        &self.items
    }

    /// The items as per-level sorted runs: run `j` holds one copy of every
    /// item whose weight has bit `j` set, each standing for `2^j` stream
    /// elements, so a power-of-two weight lands in exactly one run. The
    /// result is sized to the highest occupied level; empty runs below it
    /// stay in place so the index is the level.
    pub fn level_runs(&self) -> Vec<Vec<u64>> {
        // Size once from the OR of all weights: the push loop never grows
        // the outer vector.
        let occupied = self.items.iter().fold(0u64, |bits, item| bits | item.weight);
        let mut runs = vec![Vec::new(); (u64::BITS - occupied.leading_zeros()) as usize];
        for item in &self.items {
            let mut w = item.weight;
            while w != 0 {
                runs[w.trailing_zeros() as usize].push(item.value_bits);
                w &= w - 1;
            }
        }
        runs
    }

    /// Smallest retained element, in bit space.
    pub fn min_bits(&self) -> Option<u64> {
        self.items.first().map(|it| it.value_bits)
    }

    /// Largest retained element, in bit space.
    pub fn max_bits(&self) -> Option<u64> {
        self.items.last().map(|it| it.value_bits)
    }

    /// **Normalized** rank of `value`: the estimated fraction of the stream
    /// strictly below it, in `[0, 1]`. Returns `0.0` on an empty summary.
    ///
    /// Merged queries across sketches of different stream sizes compare
    /// fractions; per-stream weight accounting uses
    /// [`WeightedSummary::rank_weight`].
    pub fn rank_fraction<T: OrderedBits>(&self, value: T) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.rank_bits(value.to_ordered_bits()) as f64 / self.total as f64
    }

    /// **Absolute** rank of `value`: the estimated total weight of stream
    /// elements strictly below it.
    pub fn rank_weight<T: OrderedBits>(&self, value: T) -> u64 {
        self.rank_bits(value.to_ordered_bits())
    }

    /// Estimated CDF at each typed split point: `rank_fraction(p)` for
    /// every `p`, i.e. the normalized counterpart of
    /// [`Summary::cdf_bits`].
    pub fn cdf<T: OrderedBits>(&self, split_points: &[T]) -> Vec<f64> {
        split_points.iter().map(|&p| self.rank_fraction(p)).collect()
    }
}

impl Summary for WeightedSummary {
    fn stream_len(&self) -> u64 {
        self.total
    }

    fn quantile_bits(&self, phi: f64) -> Option<u64> {
        if self.items.is_empty() {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        // ⌊φn⌋, clamped into the last weight interval so φ = 1 returns the
        // maximum retained element rather than falling off the end.
        let target = ((phi * self.total as f64).floor() as u64).min(self.total - 1);
        // Find the item whose weight interval [prefix[i], prefix[i]+w_i)
        // contains `target`: the last i with prefix[i] <= target.
        let idx = match self.prefix.binary_search(&target) {
            Ok(mut i) => {
                // Ties in `prefix` arise only from zero-weight items, which
                // `from_parts` forbids; still, step to the last equal entry
                // for robustness.
                while i + 1 < self.prefix.len() && self.prefix[i + 1] == target {
                    i += 1;
                }
                i
            }
            Err(ins) => ins - 1, // ins >= 1 because prefix[0] == 0 <= target
        };
        Some(self.items[idx].value_bits)
    }

    fn rank_bits(&self, x_bits: u64) -> u64 {
        // Weight of all items with value < x: binary search for the first
        // item >= x, then take its exclusive prefix.
        let idx = self.items.partition_point(|it| it.value_bits < x_bits);
        if idx == self.items.len() {
            self.total
        } else {
            self.prefix[idx]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_summary(values: &[u64]) -> WeightedSummary {
        WeightedSummary::from_items(
            values.iter().map(|&v| WeightedItem { value_bits: v, weight: 1 }).collect(),
        )
    }

    #[test]
    fn empty_summary_has_no_quantiles() {
        let s = WeightedSummary::empty();
        assert_eq!(s.stream_len(), 0);
        assert_eq!(s.quantile_bits(0.5), None);
        assert_eq!(s.rank_bits(42), 0);
    }

    #[test]
    fn single_item_answers_everything() {
        let s = unit_summary(&[7]);
        for phi in [0.0, 0.3, 0.5, 1.0] {
            assert_eq!(s.quantile_bits(phi), Some(7));
        }
        assert_eq!(s.rank_bits(7), 0);
        assert_eq!(s.rank_bits(8), 1);
    }

    /// With unit weights the estimator must return exact order statistics.
    #[test]
    fn unit_weights_give_exact_order_statistics() {
        let s = unit_summary(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(s.quantile_bits(0.0), Some(10));
        assert_eq!(s.quantile_bits(0.5), Some(60)); // ⌊0.5·10⌋ = 5 → index 5
        assert_eq!(s.quantile_bits(0.99), Some(100));
        assert_eq!(s.quantile_bits(1.0), Some(100));
    }

    #[test]
    fn paper_selection_rule_on_weighted_items() {
        // items: (5, w=2), (8, w=4), (12, w=2); n = 8.
        // W(5)=0, W(8)=2, W(12)=6.
        let s = WeightedSummary::from_items(vec![
            WeightedItem { value_bits: 5, weight: 2 },
            WeightedItem { value_bits: 8, weight: 4 },
            WeightedItem { value_bits: 12, weight: 2 },
        ]);
        assert_eq!(s.stream_len(), 8);
        // ⌊φn⌋ = 0, 1 → x_j = 5;  2..=5 → 8;  6, 7 → 12.
        assert_eq!(s.quantile_bits(0.0), Some(5));
        assert_eq!(s.quantile_bits(0.24), Some(5)); // target 1
        assert_eq!(s.quantile_bits(0.25), Some(8)); // target 2
        assert_eq!(s.quantile_bits(0.74), Some(8)); // target 5
        assert_eq!(s.quantile_bits(0.75), Some(12)); // target 6
        assert_eq!(s.quantile_bits(1.0), Some(12));
    }

    #[test]
    fn from_parts_combines_levels_with_weights() {
        // level-0-ish part (weight 1) and level-2-ish part (weight 4).
        let s = WeightedSummary::from_parts([(&[1u64, 9][..], 1), (&[4u64][..], 4)]);
        assert_eq!(s.stream_len(), 6);
        assert_eq!(s.num_retained(), 3);
        // sorted items: 1(w1), 4(w4), 9(w1); prefix: 0, 1, 5.
        assert_eq!(s.quantile_bits(0.0), Some(1)); // target 0
        assert_eq!(s.quantile_bits(0.2), Some(4)); // target 1
        assert_eq!(s.quantile_bits(0.8), Some(4)); // target ⌊4.8⌋=4: W(9)=5 > 4, so x_j = 4
        assert_eq!(s.quantile_bits(0.99), Some(9)); // target 5: W(9)=5 ≤ 5
    }

    #[test]
    fn rank_counts_strictly_smaller_weight() {
        let s = WeightedSummary::from_parts([(&[10u64, 20, 30][..], 2)]);
        assert_eq!(s.rank_bits(5), 0);
        assert_eq!(s.rank_bits(10), 0);
        assert_eq!(s.rank_bits(11), 2);
        assert_eq!(s.rank_bits(20), 2);
        assert_eq!(s.rank_bits(30), 4);
        assert_eq!(s.rank_bits(31), 6);
    }

    #[test]
    fn rank_and_quantile_are_dual() {
        let values: Vec<u64> = (0..1000).map(|i| i * 7).collect();
        let s = unit_summary(&values);
        let n = s.stream_len();
        for phi in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let q = s.quantile_bits(phi).unwrap();
            let r = s.rank_bits(q);
            // rank(quantile(φ)) must bracket ⌊φn⌋ within one item's weight.
            let target = (phi * n as f64).floor() as u64;
            assert!(r <= target && target < r + 1 + 1, "phi={phi} r={r} target={target}");
        }
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let s = unit_summary(&(0..100).collect::<Vec<_>>());
        let points: Vec<u64> = vec![0, 10, 50, 99, 100, 200];
        let cdf = s.cdf_bits(&points);
        assert_eq!(cdf.len(), points.len());
        for w in cdf.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(cdf[0], 0.0);
        assert_eq!(*cdf.last().unwrap(), 1.0);
    }

    #[test]
    fn cdf_of_empty_summary_is_zero() {
        let s = WeightedSummary::empty();
        assert_eq!(s.cdf_bits(&[1, 2, 3]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn typed_queries_roundtrip_through_bits() {
        let xs = [-5.0f64, -1.0, 0.0, 2.0, 10.0];
        let s = WeightedSummary::from_items(
            xs.iter()
                .map(|x| WeightedItem { value_bits: x.to_ordered_bits(), weight: 1 })
                .collect(),
        );
        assert_eq!(s.quantile::<f64>(0.0), Some(-5.0));
        assert_eq!(s.quantile::<f64>(0.5), Some(0.0));
        assert_eq!(s.quantile::<f64>(1.0), Some(10.0));
        // Absolute weight below the probe.
        assert_eq!(s.rank_weight(0.0f64), 2);
        // Normalized fraction.
        assert!((s.rank_fraction(0.0f64) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn normalized_rank_and_cdf() {
        let s = unit_summary(&[10, 20, 30, 40]);
        // u64 probes use the identity embedding.
        assert_eq!(s.rank_fraction(5u64), 0.0);
        assert_eq!(s.rank_fraction(25u64), 0.5);
        assert_eq!(s.rank_fraction(100u64), 1.0);
        assert_eq!(s.cdf(&[5u64, 25, 100]), vec![0.0, 0.5, 1.0]);
        // Empty summaries rank everything at 0.
        assert_eq!(WeightedSummary::empty().rank_fraction(7u64), 0.0);
        assert_eq!(WeightedSummary::empty().cdf(&[1u64, 2]), vec![0.0, 0.0]);
    }

    #[test]
    fn level_runs_decompose_weights_by_bit() {
        // 5 = levels 0 and 2; runs stay sorted and keep the empty level 1.
        let s = WeightedSummary::from_items(vec![
            WeightedItem { value_bits: 3, weight: 4 },
            WeightedItem { value_bits: 1, weight: 5 },
            WeightedItem { value_bits: 2, weight: 1 },
        ]);
        assert_eq!(s.level_runs(), vec![vec![1, 2], vec![], vec![1, 3]]);
        assert!(WeightedSummary::empty().level_runs().is_empty());
    }

    #[test]
    fn min_max_retained() {
        let s = unit_summary(&[42, 7, 99]);
        assert_eq!(s.min_bits(), Some(7));
        assert_eq!(s.max_bits(), Some(99));
    }

    #[test]
    fn unsorted_input_items_get_sorted() {
        let s = WeightedSummary::from_items(vec![
            WeightedItem { value_bits: 30, weight: 1 },
            WeightedItem { value_bits: 10, weight: 1 },
            WeightedItem { value_bits: 20, weight: 1 },
        ]);
        let vals: Vec<u64> = s.items().iter().map(|it| it.value_bits).collect();
        assert_eq!(vals, vec![10, 20, 30]);
    }

    #[test]
    fn histogram_partitions_the_stream() {
        let s = unit_summary(&(0..100).collect::<Vec<_>>());
        let h = s.histogram_bits(&[25, 50, 75]);
        assert_eq!(h, vec![25, 25, 25, 25]);
        assert_eq!(h.iter().sum::<u64>(), s.stream_len());
    }

    #[test]
    fn histogram_extremes() {
        let s = unit_summary(&(0..10).collect::<Vec<_>>());
        // All splits below the data: everything lands in the last bucket.
        assert_eq!(s.histogram_bits(&[0]), vec![0, 10]);
        // All above: everything in the first.
        assert_eq!(s.histogram_bits(&[100]), vec![10, 0]);
        // No splits: single bucket holding everything.
        assert_eq!(s.histogram_bits(&[]), vec![10]);
    }

    #[test]
    fn histogram_with_weighted_items() {
        let s = WeightedSummary::from_parts([(&[10u64, 20, 30][..], 4)]);
        let h = s.histogram_bits(&[15, 25]);
        assert_eq!(h, vec![4, 4, 4]);
    }

    #[test]
    fn quantiles_batch_matches_single() {
        let s = unit_summary(&(0..50).collect::<Vec<_>>());
        let phis = [0.1, 0.5, 0.9];
        let batch = s.quantiles_bits(&phis);
        for (i, &phi) in phis.iter().enumerate() {
            assert_eq!(batch[i], s.quantile_bits(phi));
        }
    }
}
