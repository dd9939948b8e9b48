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
//!
//! Two more shapes answer the same rule without building that list:
//!
//! * [`LeveledSummary`] keeps the sorted level runs a sketch is made of,
//!   each level's weight implied as `2^j` and each run packed — at most 8
//!   bytes per retained value instead of the flat list's 24;
//! * [`UnionView`] borrows any number of summaries and answers over their
//!   union. Rank is additive across disjoint substreams (the mergeability
//!   property KLL's compactor levels rest on; arXiv 1603.05346), so a
//!   union rank is a sum of part ranks and a union quantile is a selection
//!   over the parts' sorted runs — bit-equal to
//!   [`WeightedSummary::from_items`] over the concatenated items, with no
//!   merge and no compaction.

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

/// The item whose weight interval `[prefix[i], prefix[i] + w_i)` contains
/// `target`: the last `i` with `prefix[i] <= target`, found with one binary
/// search. `target` must be below the items' total weight.
fn prefix_select(items: &[WeightedItem], prefix: &[u64], target: u64) -> u64 {
    let idx = match prefix.binary_search(&target) {
        Ok(mut i) => {
            // Ties in `prefix` arise only from zero-weight items, which
            // `from_parts` forbids; still, step to the last equal entry for
            // robustness.
            while i + 1 < prefix.len() && prefix[i + 1] == target {
                i += 1;
            }
            i
        }
        Err(ins) => ins - 1, // ins >= 1 because prefix[0] == 0 <= target
    };
    items[idx].value_bits
}

impl Summary for WeightedSummary {
    fn stream_len(&self) -> u64 {
        self.total
    }

    fn quantile_bits(&self, phi: f64) -> Option<u64> {
        // Zero-weight items alone stand for the empty stream.
        if self.total == 0 {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        // ⌊φn⌋, clamped into the last weight interval so φ = 1 returns the
        // maximum retained element rather than falling off the end.
        let target = ((phi * self.total as f64).floor() as u64).min(self.total - 1);
        Some(prefix_select(&self.items, &self.prefix, target))
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

/// A summary as sorted level runs: every value in run `j` stands for `2^j`
/// stream elements. This is the shape every sketch level array already has,
/// with no per-item weight or prefix, and each run is frame-of-reference
/// packed: at most 8 bytes per retained value, and fewer whenever a run
/// spans less than the whole `u64` range (a 256-value window of values
/// drawn from one unit interval packs at about 6.5 bytes each).
///
/// Queries answer the paper's selection rule directly over the packed
/// runs, with the same results as the flattened
/// [`LeveledSummary::to_weighted`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LeveledSummary {
    /// `levels[j]` is the run of weight `2^j`. Empty runs below the top
    /// stay so the index is the level.
    levels: Box<[PackedRun]>,
    /// Total weight: `Σ |levels[j]| · 2^j`.
    total: u64,
}

impl LeveledSummary {
    /// Build from per-level ascending runs, indexed by level.
    pub fn from_runs(runs: &[Vec<u64>]) -> Self {
        let top = runs.iter().rposition(|run| !run.is_empty()).map_or(0, |j| j + 1);
        let levels: Box<[PackedRun]> = runs[..top].iter().map(|run| PackedRun::pack(run)).collect();
        let total = levels.iter().enumerate().map(|(j, run)| (run.len as u64) << j).sum();
        Self { levels, total }
    }

    /// The level runs of a flat summary; an arbitrary weight is split
    /// across the levels of its set bits (see [`WeightedSummary::level_runs`]).
    pub fn from_weighted(summary: &WeightedSummary) -> Self {
        Self::from_runs(&summary.level_runs())
    }

    /// The runs unpacked, indexed by level, with empty runs below the top
    /// kept in place — the shape [`WeightedSummary::level_runs`] returns.
    pub fn level_runs(&self) -> Vec<Vec<u64>> {
        self.levels.iter().map(PackedRun::unpack).collect()
    }

    /// The flat form: the runs concatenated level by level and sorted, as
    /// [`WeightedSummary::from_parts`] builds it.
    pub fn to_weighted(&self) -> WeightedSummary {
        let runs = self.level_runs();
        WeightedSummary::from_parts(
            runs.iter()
                .enumerate()
                .filter(|(_, run)| !run.is_empty())
                .map(|(j, run)| (&run[..], 1u64 << j)),
        )
    }
}

impl Summary for LeveledSummary {
    fn stream_len(&self) -> u64 {
        self.total
    }

    fn quantile_bits(&self, phi: f64) -> Option<u64> {
        let mut view = UnionView::new();
        view.push_leveled(self);
        view.quantile_bits(phi)
    }

    fn rank_bits(&self, x_bits: u64) -> u64 {
        let below = |run: &PackedRun| run.partition(0, run.len, |v| v < x_bits) as u64;
        self.levels.iter().enumerate().map(|(j, run)| below(run) << j).sum()
    }
}

/// One ascending run, frame-of-reference packed: value `i` is `base` plus
/// the `width`-bit offset stored at bit `i · width` of `words`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct PackedRun {
    /// The smallest value.
    base: u64,
    len: usize,
    /// Bits per offset, 1 to 64: enough for the largest value minus `base`.
    width: u32,
    /// The offsets back to back, plus one zero word so that every offset
    /// can be read as the two words it may straddle.
    words: Box<[u64]>,
}

impl PackedRun {
    fn pack(values: &[u64]) -> Self {
        debug_assert!(crate::merge::is_sorted(values), "run not sorted");
        let (Some(&base), Some(&top)) = (values.first(), values.last()) else {
            return Self::default();
        };
        let width = (u64::BITS - (top - base).leading_zeros()).max(1);
        let mut words = vec![0u64; (values.len() * width as usize).div_ceil(64) + 1];
        for (i, &v) in values.iter().enumerate() {
            let bit = i * width as usize;
            let (word, shift) = (bit / 64, bit % 64);
            let offset = u128::from(v - base) << shift;
            words[word] |= offset as u64;
            words[word + 1] |= (offset >> 64) as u64;
        }
        Self { base, len: values.len(), width, words: words.into_boxed_slice() }
    }

    fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let bit = i * self.width as usize;
        let (word, shift) = (bit / 64, bit % 64);
        let pair = u128::from(self.words[word]) | u128::from(self.words[word + 1]) << 64;
        self.base + ((pair >> shift) as u64 & (u64::MAX >> (64 - self.width)))
    }

    fn unpack(&self) -> Vec<u64> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// The first index in `lo..hi` whose value fails `below`, given that
    /// `below` holds on a prefix of the run.
    fn partition(&self, lo: usize, hi: usize, below: impl Fn(u64) -> bool) -> usize {
        if lo == hi {
            return lo;
        }
        // A fixed number of halvings with a select instead of a branch, as
        // `slice::partition_point` does.
        let (mut at, mut size) = (lo, hi - lo);
        while size > 1 {
            let half = size / 2;
            if below(self.get(at + half)) {
                at += half;
            }
            size -= half;
        }
        at + usize::from(below(self.get(at)))
    }
}

/// One sorted run of a [`UnionView`].
#[derive(Clone, Copy, Debug)]
enum Run<'a> {
    /// A level run: every value weighs `weight`.
    Level { run: &'a PackedRun, weight: u64 },
    /// A flat summary's items with their exclusive prefix weights.
    Items { items: &'a [WeightedItem], prefix: &'a [u64], total: u64 },
    /// An unpacked ascending run: every value weighs `weight`.
    Sorted { values: &'a [u64], weight: u64 },
}

impl Run<'_> {
    fn len(&self) -> usize {
        match self {
            Run::Level { run, .. } => run.len,
            Run::Items { items, .. } => items.len(),
            Run::Sorted { values, .. } => values.len(),
        }
    }

    fn value(&self, i: usize) -> u64 {
        match self {
            Run::Level { run, .. } => run.get(i),
            Run::Items { items, .. } => items[i].value_bits,
            Run::Sorted { values, .. } => values[i],
        }
    }

    /// Total weight of the first `i` values.
    fn weight_before(&self, i: usize) -> u64 {
        match *self {
            Run::Level { weight, .. } | Run::Sorted { weight, .. } => i as u64 * weight,
            Run::Items { prefix, total, .. } => prefix.get(i).copied().unwrap_or(total),
        }
    }

    /// The first index in `lo..hi` whose value fails `below`, given that
    /// `below` holds on a prefix of the run.
    fn partition(&self, lo: usize, hi: usize, below: impl Fn(u64) -> bool) -> usize {
        match self {
            Run::Level { run, .. } => run.partition(lo, hi, below),
            Run::Items { items, .. } => {
                lo + items[lo..hi].partition_point(|it| below(it.value_bits))
            }
            Run::Sorted { values, .. } => lo + values[lo..hi].partition_point(|&v| below(v)),
        }
    }
}

/// The union of borrowed summaries, answering queries without merging them.
///
/// A rank is the sum of the parts' ranks. A quantile is the smallest retained
/// value whose summed inclusive rank exceeds `⌊φn⌋` — the paper's rule
/// applied to the union, and bit-equal to [`WeightedSummary::from_items`]
/// over every part's items concatenated. Where a merge would flip
/// compaction coins, the view is exact over the stored parts.
///
/// ```
/// use qc_common::summary::{LeveledSummary, Summary, UnionView, WeightedSummary};
///
/// let low = WeightedSummary::from_parts([(&[1u64, 2, 3][..], 1)]);
/// let high = LeveledSummary::from_runs(&[vec![], vec![10, 20]]);
/// let mut view = UnionView::new();
/// view.push_weighted(&low);
/// view.push_leveled(&high);
/// assert_eq!(view.stream_len(), 7);
/// assert_eq!(view.rank_bits(10), 3);
/// assert_eq!(view.quantile_bits(0.5), Some(10));
/// ```
#[derive(Clone, Debug, Default)]
pub struct UnionView<'a> {
    runs: Vec<Run<'a>>,
    total: u64,
}

impl<'a> UnionView<'a> {
    /// An empty view (the empty stream).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a flat summary as one part.
    pub fn push_weighted(&mut self, summary: &'a WeightedSummary) {
        if !summary.items.is_empty() {
            self.runs.push(Run::Items {
                items: &summary.items,
                prefix: &summary.prefix,
                total: summary.total,
            });
        }
        self.total += summary.total;
    }

    /// Add one ascending run whose every value weighs `weight`: a sketch
    /// level array, or a tail of unit-weight values sorted once.
    pub fn push_sorted(&mut self, values: &'a [u64], weight: u64) {
        debug_assert!(crate::merge::is_sorted(values), "run not sorted");
        if !values.is_empty() {
            self.runs.push(Run::Sorted { values, weight });
        }
        self.total += values.len() as u64 * weight;
    }

    /// Add a leveled summary as one part.
    pub fn push_leveled(&mut self, summary: &'a LeveledSummary) {
        for (j, run) in summary.levels.iter().enumerate().filter(|(_, run)| run.len > 0) {
            self.runs.push(Run::Level { run, weight: 1 << j });
        }
        self.total += summary.total;
    }
}

impl Summary for UnionView<'_> {
    fn stream_len(&self) -> u64 {
        self.total
    }

    fn quantile_bits(&self, phi: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        // The same ⌊φn⌋ as `WeightedSummary::quantile_bits`, bit for bit.
        let target = ((phi.clamp(0.0, 1.0) * self.total as f64).floor() as u64).min(self.total - 1);
        Some(match self.runs[..] {
            // One flat part answers with its own prefix search, as the
            // summary alone would.
            [Run::Items { items, prefix, .. }] => prefix_select(items, prefix, target),
            _ => select(&self.runs, target),
        })
    }

    fn rank_bits(&self, x_bits: u64) -> u64 {
        self.runs
            .iter()
            .map(|run| run.weight_before(run.partition(0, run.len(), |v| v < x_bits)))
            .sum()
    }
}

/// A run's still-undecided index window `lo..hi` during [`select`].
struct Cursor<'a> {
    run: Run<'a>,
    lo: usize,
    hi: usize,
    /// Index of the first value above the current pivot.
    cut: usize,
}

/// The smallest value `a` in `runs` whose summed inclusive weight `f(a)`
/// exceeds `target`, which must be below the runs' total weight.
///
/// Each round takes one pick per run and pivots on their count-weighted
/// median, weighed with one binary search per run. If `f(pivot) <= target`
/// everything up to the pivot is too small; otherwise the pivot is a
/// candidate and everything from it up is no better. Values left of a
/// window are always below every later pivot, and values right of it
/// above, so each search stays inside its window.
///
/// The picks sit where the answer would be if every run were distributed
/// alike: at the answer's rank among the undecided weight. That usually
/// settles a query in a handful of rounds. A round that leaves more than
/// three quarters undecided switches the next one to window midpoints,
/// whose median always removes at least a quarter, so there are
/// `O(log n)` rounds of `O(P log k)` at worst.
fn select(runs: &[Run<'_>], target: u64) -> u64 {
    let mut live: Vec<Cursor<'_>> =
        runs.iter().map(|&run| Cursor { run, lo: 0, hi: run.len(), cut: 0 }).collect();
    // Weight below the windows of runs that have left `live`.
    let mut settled = 0u64;
    // `f(u64::MAX)` is the total, so the answer is never above this.
    let mut best = u64::MAX;
    let mut picks: Vec<(u64, usize)> = Vec::with_capacity(live.len());
    let mut interpolate = true;
    while !live.is_empty() {
        // The answer's rank within the undecided weight, as the fraction
        // `num / den`; a half for midpoints, and when the undecided values
        // weigh nothing (zero-weight items, which `from_items` accepts).
        // Once `best` holds the answer the undecided values all lie below
        // it and the fraction can pass 1, so picks are clamped to the
        // window.
        let (mut num, mut den) = (1, 2);
        if interpolate {
            let (mut below, mut open) = (settled, 0u64);
            for c in &live {
                let lo = c.run.weight_before(c.lo);
                below += lo;
                open += c.run.weight_before(c.hi) - lo;
            }
            if open > 0 {
                (num, den) = (2 * u128::from(target - below) + 1, 2 * u128::from(open));
            }
        }
        picks.clear();
        picks.extend(live.iter().map(|c| {
            let n = c.hi - c.lo;
            (c.run.value(c.lo + ((n as u128 * num / den) as usize).min(n - 1)), n)
        }));
        let undecided: usize = picks.iter().map(|&(_, n)| n).sum();
        let pivot = weighted_median(&mut picks, undecided.div_ceil(2));
        let mut weight = settled;
        for c in &mut live {
            c.cut = c.run.partition(c.lo, c.hi, |v| v <= pivot);
            weight += c.run.weight_before(c.cut);
        }
        if weight <= target {
            for c in &mut live {
                c.lo = c.cut;
            }
        } else {
            best = pivot;
            for c in &mut live {
                c.hi = c.run.partition(c.lo, c.cut, |v| v < pivot);
            }
        }
        let mut left = 0usize;
        live.retain(|c| {
            left += c.hi - c.lo;
            let open = c.lo < c.hi;
            if !open {
                settled += c.run.weight_before(c.lo);
            }
            open
        });
        interpolate = 4 * left <= 3 * undecided;
    }
    best
}

/// A value `p` of `items` (pairs of value and count) such that the counts of
/// pairs below `p` sum to less than `half` and those up to and including `p`
/// to at least `half`. Expected linear time; reorders `items`.
fn weighted_median(mut items: &mut [(u64, usize)], mut half: usize) -> u64 {
    loop {
        let mid = items.len() / 2;
        let (below, &mut (value, count), above) =
            std::mem::take(&mut items).select_nth_unstable_by_key(mid, |m| m.0);
        let below_count: usize = below.iter().map(|&(_, n)| n).sum();
        if below_count >= half {
            items = below;
        } else if below_count + count >= half {
            return value;
        } else {
            half -= below_count + count;
            items = above;
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
    fn zero_weight_items_never_answer() {
        let item = |value_bits, weight| WeightedItem { value_bits, weight };
        let s = WeightedSummary::from_items(vec![item(5, 0), item(7, 1)]);
        let mut view = UnionView::new();
        view.push_weighted(&s);
        for phi in [0.0, 0.5, 1.0] {
            assert_eq!(s.quantile_bits(phi), Some(7));
            assert_eq!(view.quantile_bits(phi), Some(7));
        }
        // Weightless items alone are the empty stream.
        let none = WeightedSummary::from_items(vec![item(5, 0)]);
        let mut view = UnionView::new();
        view.push_weighted(&none);
        assert_eq!(none.quantile_bits(0.5), None);
        assert_eq!(view.quantile_bits(0.5), None);
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
