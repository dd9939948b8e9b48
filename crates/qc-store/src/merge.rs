//! Weight-aware merging of [`WeightedSummary`] snapshots.
//!
//! Mergeability is what makes a quantiles sketch deployable: snapshots taken
//! by independent processes (each a [`quancurrent::Quancurrent`] over its own
//! substream) combine into one summary answering quantiles over the union,
//! with additive error — the central property of Agarwal et al., *Mergeable
//! Summaries* (PODS'12).
//!
//! The construction mirrors the sequential sketch's level structure:
//!
//! 1. every input item of weight `w` is decomposed along the binary
//!    representation of `w` — one copy at level `j` per set bit `j` (for the
//!    power-of-two weights our sketches produce this is a single level;
//!    see [`WeightedSummary::level_runs`]);
//! 2. per level, the sorted runs contributed by each input summary are
//!    combined with [`qc_common::merge::merge_sorted_many`];
//! 3. from the bottom up, any level holding more than `2k` elements is
//!    compacted with the paper's randomized odd-or-even sampling
//!    ([`qc_common::sample`]): the retained half doubles its weight and is
//!    merged one level up. An odd straggler stays behind at its own level,
//!    so **total weight is conserved exactly** — `stream_len` of the result
//!    equals the sum of the inputs.
//!
//! Each compaction at level `j` perturbs ranks by at most `2^j` on average
//! zero (the coin is fair), which is the same unbiased-halving argument the
//! sketches themselves rest on; the merged summary answers quantiles within
//! the combined bound of a single sketch over the concatenated stream (see
//! `tests/merge_equivalence.rs`).
//!
//! The kernel takes level runs in, so summaries the store already keeps as
//! runs (sealed windows, as [`LeveledSummary`]) merge without being
//! flattened; [`merge_summaries`] is the wrapper for [`WeightedSummary`]
//! in and out.

use qc_common::merge::{merge_sorted, merge_sorted_many};
use qc_common::rng::Xoshiro256;
use qc_common::sample::{sample_with_parity, Parity};
use qc_common::summary::{LeveledSummary, WeightedSummary};

/// Highest level a `u64` weight can populate.
const LEVELS: usize = 64;

/// Merge any number of summaries given as level runs — each one indexed
/// by level, as [`WeightedSummary::level_runs`] and
/// [`LeveledSummary::level_runs`] return them — into one
/// [`LeveledSummary`] with at most `2k` values per level.
///
/// `seed` drives the compaction coins. The result depends only on the
/// multiset of values each level receives, not on the order the inputs
/// come in. Total weight is conserved exactly.
///
/// # Panics
/// If `k == 0`.
pub(crate) fn merge_runs<'a, I>(summaries: I, k: usize, seed: u64) -> LeveledSummary
where
    I: IntoIterator<Item = &'a [Vec<u64>]>,
{
    LeveledSummary::from_runs(&compact(by_level(summaries), k, seed))
}

/// The same merge with a flat summary out, as [`merge_summaries`] returns
/// it: the compacted runs go straight into the flat list, never packed.
/// Runs come in as `(level, run)` pairs, so parts held in any container —
/// a key's shared level runs, its sorted tail, absorbed summaries' level
/// runs ([`by_level`]) — feed it without being copied into one shape.
pub(crate) fn merge_runs_flat<'a, I>(runs: I, k: usize, seed: u64) -> WeightedSummary
where
    I: IntoIterator<Item = (usize, &'a [u64])>,
{
    let levels = compact(runs, k, seed);
    WeightedSummary::from_parts(
        levels
            .iter()
            .enumerate()
            .filter(|(_, run)| !run.is_empty())
            .map(|(j, run)| (&run[..], 1u64 << j)),
    )
}

/// Every summary's level runs as `(level, run)` pairs.
pub(crate) fn by_level<'a, I>(summaries: I) -> impl Iterator<Item = (usize, &'a [u64])>
where
    I: IntoIterator<Item = &'a [Vec<u64>]>,
{
    summaries.into_iter().flat_map(|runs| runs.iter().map(Vec::as_slice).enumerate())
}

/// The kernel under [`merge_runs`] and [`merge_runs_flat`]: the merged,
/// compacted level runs, indexed by level.
fn compact<'a, I>(runs: I, k: usize, seed: u64) -> Vec<Vec<u64>>
where
    I: IntoIterator<Item = (usize, &'a [u64])>,
{
    assert!(k > 0, "k must be positive");
    let mut rng = Xoshiro256::seed_from_u64(seed);

    // Stage 1+2: per level, merge the sorted runs the inputs contribute.
    let mut inputs: Vec<Vec<&[u64]>> = Vec::new();
    for (level, run) in runs {
        if inputs.len() <= level {
            inputs.resize_with(level + 1, Vec::new);
        }
        if !run.is_empty() {
            inputs[level].push(run);
        }
    }
    let mut levels: Vec<Vec<u64>> = inputs.iter().map(|level| merge_sorted_many(level)).collect();

    // Stage 3: bottom-up randomized compaction back to <= 2k per level.
    let cap = 2 * k;
    let mut j = 0;
    while j < levels.len() && j < LEVELS - 1 {
        if levels[j].len() > cap {
            let arr = std::mem::take(&mut levels[j]);
            // An odd element count cannot halve cleanly; hold one element
            // back at this level (random end, to avoid min/max bias) so
            // weight is conserved exactly.
            let (withheld, even_part) = if arr.len() % 2 == 1 {
                if rng.coin() {
                    (Some(arr[0]), &arr[1..])
                } else {
                    (Some(arr[arr.len() - 1]), &arr[..arr.len() - 1])
                }
            } else {
                (None, &arr[..])
            };
            let parity = if rng.coin() { Parity::Odd } else { Parity::Even };
            let promoted = sample_with_parity(even_part, parity);
            levels[j] = withheld.into_iter().collect();
            if j + 1 == levels.len() {
                levels.push(Vec::new());
            }
            levels[j + 1] = merge_sorted(&levels[j + 1], &promoted);
        }
        j += 1;
    }
    levels
}

/// Merge any number of summaries into one whose per-level population is
/// bounded by `2k` (so total retained size is `O(k log(n/k))`).
///
/// Takes anything yielding summary **references** — a slice, an array of
/// borrows, a `chain` over cached `Arc<WeightedSummary>` handles — so
/// callers composing already-materialized summaries (the store's read
/// cache, [`crate::engine::ConcurrentEngine`]'s absorb buffer) never clone
/// an input just to merge it.
///
/// `seed` drives the randomized compaction coins; fixing it makes merges
/// reproducible. Empty input (or all-empty summaries) yields the empty
/// summary. Total weight is conserved exactly.
///
/// # Panics
/// If `k == 0`.
pub fn merge_summaries<'a, I>(summaries: I, k: usize, seed: u64) -> WeightedSummary
where
    I: IntoIterator<Item = &'a WeightedSummary>,
{
    let runs: Vec<Vec<Vec<u64>>> = summaries.into_iter().map(WeightedSummary::level_runs).collect();
    merge_runs_flat(by_level(runs.iter().map(Vec::as_slice)), k, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_common::summary::{Summary, WeightedItem};

    fn unit_summary(range: std::ops::Range<u64>) -> WeightedSummary {
        WeightedSummary::from_items(
            range.map(|v| WeightedItem { value_bits: v, weight: 1 }).collect(),
        )
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let none: [WeightedSummary; 0] = [];
        let m = merge_summaries(&none, 64, 1);
        assert_eq!(m.stream_len(), 0);
        let m2 = merge_summaries(&[WeightedSummary::empty(), WeightedSummary::empty()], 64, 1);
        assert_eq!(m2.stream_len(), 0);
    }

    #[test]
    fn single_small_summary_is_preserved_exactly() {
        let s = unit_summary(0..100);
        let m = merge_summaries(std::slice::from_ref(&s), 64, 7);
        // 100 <= 2k: no compaction may fire, items come through verbatim.
        assert_eq!(m.items(), s.items());
    }

    #[test]
    fn total_weight_is_conserved() {
        let a = unit_summary(0..10_000);
        let b = unit_summary(10_000..15_000);
        let c =
            WeightedSummary::from_parts([(&(0..500).map(|i| i * 64).collect::<Vec<u64>>()[..], 8)]);
        let m = merge_summaries(&[a.clone(), b.clone(), c.clone()], 32, 3);
        assert_eq!(m.stream_len(), a.stream_len() + b.stream_len() + c.stream_len());
    }

    #[test]
    fn merged_size_is_k_bounded() {
        let inputs: Vec<WeightedSummary> =
            (0..8).map(|i| unit_summary(i * 50_000..(i + 1) * 50_000)).collect();
        let k = 64;
        let m = merge_summaries(&inputs, k, 11);
        // <= 2k per occupied level, ~log2(n/k) levels.
        let levels_bound = (64 - (400_000u64 / k as u64).leading_zeros()) as usize + 2;
        assert!(
            m.num_retained() <= 2 * k * levels_bound,
            "retained {} > bound {}",
            m.num_retained(),
            2 * k * levels_bound
        );
    }

    #[test]
    fn disjoint_halves_answer_union_quantiles() {
        let lo = unit_summary(0..100_000);
        let hi = unit_summary(100_000..200_000);
        let m = merge_summaries(&[lo, hi], 128, 5);
        assert_eq!(m.stream_len(), 200_000);
        for (phi, expect) in [(0.25, 50_000.0), (0.5, 100_000.0), (0.75, 150_000.0)] {
            let q = m.quantile_bits(phi).unwrap() as f64;
            let err = (q - expect).abs() / 200_000.0;
            assert!(err < 0.05, "phi={phi}: got {q}, expected ~{expect} (err {err})");
        }
    }

    #[test]
    fn non_power_of_two_weights_are_decomposed() {
        // weight 5 = levels 0 and 2.
        let s = WeightedSummary::from_items(vec![WeightedItem { value_bits: 42, weight: 5 }]);
        let m = merge_summaries(std::slice::from_ref(&s), 16, 1);
        assert_eq!(m.stream_len(), 5);
        assert_eq!(m.num_retained(), 2);
        assert!(m.items().iter().all(|it| it.value_bits == 42));
        let mut weights: Vec<u64> = m.items().iter().map(|it| it.weight).collect();
        weights.sort_unstable();
        assert_eq!(weights, vec![1, 4]);
    }

    #[test]
    fn merge_is_deterministic_under_fixed_seed() {
        let inputs: Vec<WeightedSummary> =
            (0..4).map(|i| unit_summary(i * 10_000..(i + 1) * 10_000)).collect();
        let a = merge_summaries(&inputs, 16, 99);
        let b = merge_summaries(&inputs, 16, 99);
        assert_eq!(a.items(), b.items());
    }

    #[test]
    fn repeated_self_merge_keeps_error_bounded() {
        // Fold 16 copies of the same distribution together; the median must
        // stay near the true median rather than drifting with each merge.
        let mut acc = WeightedSummary::empty();
        for _ in 0..16 {
            acc = merge_summaries(&[acc, unit_summary(0..10_000)], 128, 17);
        }
        assert_eq!(acc.stream_len(), 160_000);
        let med = acc.quantile_bits(0.5).unwrap() as f64;
        assert!((med - 5_000.0).abs() / 10_000.0 < 0.1, "median drifted to {med}");
    }
}
