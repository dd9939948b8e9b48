//! Property tests for the shared kernels: the contracts everything
//! upstream relies on.

use proptest::prelude::*;
use qc_common::bits::OrderedBits;
use qc_common::merge::{is_sorted, merge_sorted, merge_sorted_many};
use qc_common::rng::Xoshiro256;
use qc_common::sample::{sample_with_parity, Parity};
use qc_common::summary::{LeveledSummary, Summary, UnionView, WeightedItem, WeightedSummary};

/// Values for union tests: a narrow band forces ties across parts, and the
/// extremes pin both ends of the bit space.
fn union_value() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..16, Just(0u64), Just(u64::MAX), any::<u64>()]
}

/// One part of a union, as generated.
#[derive(Clone, Debug)]
enum Part {
    /// A flat summary with arbitrary weights, as a decoded remote frame
    /// carries, and the zero weights `from_items` also accepts.
    Flat(Vec<(u64, u64)>),
    /// Level runs indexed by level (sorted when built).
    Leveled(Vec<Vec<u64>>),
    /// One run at one weight (sorted when built): empty runs, zero and
    /// non-power-of-two weights included.
    Sorted(Vec<u64>, u64),
}

fn part() -> impl Strategy<Value = Part> {
    prop_oneof![
        prop::collection::vec((union_value(), 0u64..20), 0..12).prop_map(Part::Flat),
        prop::collection::vec(prop::collection::vec(union_value(), 0..8), 0..6)
            .prop_map(Part::Leveled),
        (prop::collection::vec(union_value(), 0..12), prop_oneof![0u64..20, Just(1 << 20)])
            .prop_map(|(run, weight)| Part::Sorted(run, weight)),
    ]
}

/// A built part the view can borrow.
enum Built {
    Flat(WeightedSummary),
    Leveled(LeveledSummary),
    Sorted(Vec<u64>, u64),
}

fn build(part: &Part) -> Built {
    match part {
        Part::Flat(items) => Built::Flat(WeightedSummary::from_items(
            items.iter().map(|&(v, w)| WeightedItem { value_bits: v, weight: w }).collect(),
        )),
        Part::Leveled(runs) => {
            let mut runs = runs.clone();
            for run in &mut runs {
                run.sort_unstable();
            }
            Built::Leveled(LeveledSummary::from_runs(&runs))
        }
        Part::Sorted(run, weight) => {
            let mut run = run.clone();
            run.sort_unstable();
            Built::Sorted(run, *weight)
        }
    }
}

proptest! {
    // ---- union queries: exact over the parts, no merge ----

    /// `UnionView` over any parts, and `LeveledSummary` over their
    /// concatenation, answer exactly what the flat summary of the
    /// concatenated items answers: equality, not ε-closeness.
    #[test]
    fn union_view_and_leveled_summary_equal_the_flat_concatenation(
        parts in prop::collection::vec(part(), 0..=130),
        phis in prop::collection::vec(0.0f64..=1.0, 1..8),
        probes in prop::collection::vec(union_value(), 1..8),
    ) {
        let built: Vec<Built> = parts.iter().map(build).collect();
        let mut view = UnionView::new();
        let mut items = Vec::new();
        for part in &built {
            match part {
                Built::Flat(s) => {
                    view.push_weighted(s);
                    items.extend_from_slice(s.items());
                }
                Built::Leveled(s) => {
                    view.push_leveled(s);
                    for (j, run) in s.level_runs().iter().enumerate() {
                        items.extend(run.iter().map(|&v| WeightedItem { value_bits: v, weight: 1 << j }));
                    }
                }
                Built::Sorted(run, weight) => {
                    view.push_sorted(run, *weight);
                    items.extend(run.iter().map(|&v| WeightedItem { value_bits: v, weight: *weight }));
                }
            }
        }
        let flat = WeightedSummary::from_items(items);
        let leveled = LeveledSummary::from_weighted(&flat);
        prop_assert_eq!(view.stream_len(), flat.stream_len());
        prop_assert_eq!(leveled.stream_len(), flat.stream_len());
        prop_assert_eq!(leveled.to_weighted().stream_len(), flat.stream_len());
        for phi in [0.0, 1.0].into_iter().chain(phis) {
            let expected = flat.quantile_bits(phi);
            prop_assert_eq!(view.quantile_bits(phi), expected, "union, phi {}", phi);
            prop_assert_eq!(leveled.quantile_bits(phi), expected, "leveled, phi {}", phi);
        }
        for x in probes.into_iter().chain([0, 1, u64::MAX]) {
            let expected = flat.rank_bits(x);
            prop_assert_eq!(view.rank_bits(x), expected, "union, rank of {}", x);
            prop_assert_eq!(leveled.rank_bits(x), expected, "leveled, rank of {}", x);
        }
    }

    /// A view of one flat part, beside any number of empty parts, answers
    /// what the summary alone answers, bit for bit — ties, zero weights and
    /// both ends of the bit space included.
    #[test]
    fn a_one_flat_part_view_equals_the_summary(
        items in prop::collection::vec((union_value(), 0u64..20), 0..40),
        empties in 0usize..3,
        phis in prop::collection::vec(0.0f64..=1.0, 1..8),
        probes in prop::collection::vec(union_value(), 1..8),
    ) {
        let summary = WeightedSummary::from_items(
            items.iter().map(|&(v, w)| WeightedItem { value_bits: v, weight: w }).collect(),
        );
        let (empty, no_levels) = (WeightedSummary::empty(), LeveledSummary::from_runs(&[]));
        let mut view = UnionView::new();
        for _ in 0..empties {
            view.push_weighted(&empty);
            view.push_leveled(&no_levels);
            view.push_sorted(&[], 1);
        }
        view.push_weighted(&summary);
        prop_assert_eq!(view.stream_len(), summary.stream_len());
        for phi in [0.0, 1.0].into_iter().chain(phis) {
            prop_assert_eq!(view.quantile_bits(phi), summary.quantile_bits(phi), "phi {}", phi);
        }
        let probes: Vec<u64> = probes.into_iter().chain([0, 1, u64::MAX]).collect();
        prop_assert_eq!(view.cdf_bits(&probes), summary.cdf_bits(&probes));
    }

    /// Packing is lossless at every offset width, including the zero
    /// width of a run of equal values and the full 64 bits.
    #[test]
    fn leveled_runs_unpack_to_what_was_packed(
        mut runs in prop::collection::vec(prop::collection::vec(union_value(), 0..40), 0..6),
        repeated in (union_value(), 0usize..5),
    ) {
        runs.push(vec![repeated.0; repeated.1]);
        for run in &mut runs {
            run.sort_unstable();
        }
        let leveled = LeveledSummary::from_runs(&runs);
        while runs.last().is_some_and(Vec::is_empty) {
            runs.pop();
        }
        prop_assert_eq!(leveled.level_runs(), runs.clone());
        let flat = WeightedSummary::from_parts(
            runs.iter().enumerate().filter(|(_, r)| !r.is_empty()).map(|(j, r)| (&r[..], 1u64 << j)),
        );
        prop_assert_eq!(leveled.to_weighted(), flat);
    }
}

proptest! {
    // ---- OrderedBits: the embedding must be a monotone bijection ----

    #[test]
    fn u64_embedding_is_identity(x in any::<u64>()) {
        prop_assert_eq!(x.to_ordered_bits(), x);
        prop_assert_eq!(u64::from_ordered_bits(x), x);
    }

    #[test]
    fn i64_embedding_monotone_bijective(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(i64::from_ordered_bits(a.to_ordered_bits()), a);
        prop_assert_eq!(a < b, a.to_ordered_bits() < b.to_ordered_bits());
    }

    #[test]
    fn i32_embedding_monotone_bijective(a in any::<i32>(), b in any::<i32>()) {
        prop_assert_eq!(i32::from_ordered_bits(a.to_ordered_bits()), a);
        prop_assert_eq!(a < b, a.to_ordered_bits() < b.to_ordered_bits());
    }

    #[test]
    fn f64_embedding_monotone_on_non_nan(a in any::<f64>(), b in any::<f64>()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        let back = f64::from_ordered_bits(a.to_ordered_bits());
        prop_assert_eq!(back.to_bits(), a.to_bits(), "bit-exact roundtrip");
        if a < b {
            prop_assert!(a.to_ordered_bits() < b.to_ordered_bits());
        }
    }

    #[test]
    fn f32_embedding_monotone_on_non_nan(a in any::<f32>(), b in any::<f32>()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        let back = f32::from_ordered_bits(a.to_ordered_bits());
        prop_assert_eq!(back.to_bits(), a.to_bits());
        if a < b {
            prop_assert!(a.to_ordered_bits() < b.to_ordered_bits());
        }
    }

    // ---- merge: permutation-preserving, order-preserving ----

    #[test]
    fn merge_is_sorted_union(
        mut a in prop::collection::vec(any::<u64>(), 0..200),
        mut b in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        a.sort_unstable();
        b.sort_unstable();
        let merged = merge_sorted(&a, &b);
        prop_assert!(is_sorted(&merged));
        let mut expected = [a, b].concat();
        expected.sort_unstable();
        prop_assert_eq!(merged, expected);
    }

    #[test]
    fn multiway_merge_matches_flat_sort(
        parts in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..60), 0..6),
    ) {
        let sorted_parts: Vec<Vec<u64>> = parts
            .iter()
            .map(|p| {
                let mut p = p.clone();
                p.sort_unstable();
                p
            })
            .collect();
        let refs: Vec<&[u64]> = sorted_parts.iter().map(|p| p.as_slice()).collect();
        let merged = merge_sorted_many(&refs);
        let mut expected: Vec<u64> = parts.into_iter().flatten().collect();
        expected.sort_unstable();
        prop_assert_eq!(merged, expected);
    }

    // ---- sampling: halving, order, complementarity ----

    #[test]
    fn parities_partition_the_input(mut src in prop::collection::vec(any::<u64>(), 0..300)) {
        src.sort_unstable();
        let even = sample_with_parity(&src, Parity::Even);
        let odd = sample_with_parity(&src, Parity::Odd);
        prop_assert_eq!(even.len() + odd.len(), src.len());
        prop_assert!(is_sorted(&even));
        prop_assert!(is_sorted(&odd));
        // Interleaving them back reproduces the input.
        let mut rebuilt = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            rebuilt.push(if i % 2 == 0 { even[i / 2] } else { odd[i / 2] });
        }
        prop_assert_eq!(rebuilt, src);
    }

    // ---- summaries: weight conservation and estimator laws ----

    #[test]
    fn summary_total_weight_is_sum(items in prop::collection::vec((any::<u64>(), 1u64..100), 0..200)) {
        let expected: u64 = items.iter().map(|&(_, w)| w).sum();
        let summary = WeightedSummary::from_items(
            items.into_iter().map(|(v, w)| WeightedItem { value_bits: v, weight: w }).collect(),
        );
        prop_assert_eq!(summary.stream_len(), expected);
    }

    #[test]
    fn quantile_is_monotone_and_within_range(
        items in prop::collection::vec((any::<u64>(), 1u64..50), 1..150),
        phis in prop::collection::vec(0.0f64..=1.0, 2..10),
    ) {
        let summary = WeightedSummary::from_items(
            items.iter().map(|&(v, w)| WeightedItem { value_bits: v, weight: w }).collect(),
        );
        let mut phis = phis;
        phis.sort_by(f64::total_cmp);
        let qs: Vec<u64> = phis.iter().map(|&p| summary.quantile_bits(p).unwrap()).collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let min = items.iter().map(|&(v, _)| v).min().unwrap();
        let max = items.iter().map(|&(v, _)| v).max().unwrap();
        for &q in &qs {
            prop_assert!((min..=max).contains(&q));
        }
    }

    #[test]
    fn rank_quantile_duality(
        values in prop::collection::vec(any::<u64>(), 1..300),
        phi in 0.0f64..1.0,
    ) {
        let summary = WeightedSummary::from_items(
            values.iter().map(|&v| WeightedItem { value_bits: v, weight: 1 }).collect(),
        );
        let n = summary.stream_len();
        let q = summary.quantile_bits(phi).unwrap();
        // The paper's selection rule: W(x_j) ≤ ⌊φn⌋, i.e. rank(q) ≤ target,
        // and the next item's cumulative weight exceeds the target.
        let target = ((phi * n as f64).floor() as u64).min(n - 1);
        prop_assert!(summary.rank_bits(q) <= target);
    }

    // ---- RNG: determinism and clone-independence ----

    #[test]
    fn rng_streams_are_deterministic(seed in any::<u64>()) {
        let mut a = Xoshiro256::seed_from_u64(seed);
        let mut b = Xoshiro256::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_below_is_always_below(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }
}
