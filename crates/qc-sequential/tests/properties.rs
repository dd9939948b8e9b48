//! Property-based tests of the sequential sketch.

use proptest::prelude::*;
use qc_common::rng::Xoshiro256;
use qc_common::Summary;
use qc_sequential::QuantilesSketch;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The total weight in the summary always equals the stream length,
    /// regardless of how compactions fell.
    #[test]
    fn weight_conservation(
        k in prop::sample::select(vec![2usize, 4, 8, 16, 32]),
        xs in prop::collection::vec(any::<u64>().prop_map(|v| v >> 1), 0..2000),
        seed in any::<u64>(),
    ) {
        let mut s = QuantilesSketch::with_seed(k, seed);
        for &x in &xs {
            s.update(x);
        }
        prop_assert_eq!(s.n(), xs.len() as u64);
        prop_assert_eq!(s.summary().stream_len(), xs.len() as u64);
    }

    /// Every level holds 0 or exactly k sorted elements.
    #[test]
    fn level_structure_invariant(
        k in prop::sample::select(vec![2usize, 4, 8]),
        n in 0u64..5000,
        seed in any::<u64>(),
    ) {
        let mut s = QuantilesSketch::with_seed(k, seed);
        for i in 0..n {
            s.update(i.wrapping_mul(0x9E3779B97F4A7C15));
        }
        let (base, levels) = s.level_sizes();
        prop_assert!(base < 2 * k);
        for len in levels {
            prop_assert!(len == 0 || len == k);
        }
    }

    /// While n ≤ 2k the sketch is exact: quantile(φ) is the ⌊φn⌋-ranked
    /// element.
    #[test]
    fn exact_below_first_compaction(
        xs in prop::collection::vec(any::<u64>().prop_map(|v| v >> 1), 1..64),
        phi in 0.0f64..=1.0,
    ) {
        let k = 32; // 2k = 64 > max len
        let mut s = QuantilesSketch::with_seed(k, 0);
        for &x in &xs {
            s.update(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let target = ((phi * xs.len() as f64).floor() as usize).min(xs.len() - 1);
        prop_assert_eq!(s.quantile_bits(phi), Some(sorted[target]));
    }

    /// Estimates always come from the stream (never invented values).
    #[test]
    fn estimates_are_stream_values(
        xs in prop::collection::vec(any::<u64>().prop_map(|v| v >> 1), 1..3000),
        seed in any::<u64>(),
    ) {
        let mut s = QuantilesSketch::with_seed(8, seed);
        for &x in &xs {
            s.update(x);
        }
        for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let est = s.quantile_bits(phi).unwrap();
            prop_assert!(xs.contains(&est), "estimate {est} not in stream");
        }
    }

    /// rank is monotone in its argument.
    #[test]
    fn rank_monotonicity(
        xs in prop::collection::vec(any::<u64>().prop_map(|v| v >> 1), 1..1000),
        probes in prop::collection::vec(any::<u64>().prop_map(|v| v >> 1), 2..20),
        seed in any::<u64>(),
    ) {
        let mut s = QuantilesSketch::with_seed(4, seed);
        for &x in &xs {
            s.update(x);
        }
        let mut probes = probes;
        probes.sort_unstable();
        let summary = s.summary();
        let ranks: Vec<u64> = probes.iter().map(|&p| summary.rank_bits(p)).collect();
        for w in ranks.windows(2) {
            prop_assert!(w[0] <= w[1], "rank not monotone: {:?}", ranks);
        }
    }

    /// Merging must behave like ingesting the concatenation, up to the
    /// randomness of sampling: n, level-structure legality, and weight
    /// conservation all hold.
    #[test]
    fn merge_is_sound(
        xs in prop::collection::vec(any::<u64>().prop_map(|v| v >> 1), 0..1500),
        ys in prop::collection::vec(any::<u64>().prop_map(|v| v >> 1), 0..1500),
        seed in any::<u64>(),
    ) {
        let k = 8;
        let mut a = QuantilesSketch::with_seed(k, seed);
        let mut b = QuantilesSketch::with_seed(k, seed.wrapping_add(1));
        for &x in &xs { a.update(x); }
        for &y in &ys { b.update(y); }
        a.merge_from(&b);
        prop_assert_eq!(a.n(), (xs.len() + ys.len()) as u64);
        prop_assert_eq!(a.summary().stream_len(), a.n());
        let (base, levels) = a.level_sizes();
        prop_assert!(base < 2 * k);
        for len in levels {
            prop_assert!(len == 0 || len == k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The two answer paths are one: every answer over `parts()` — the
    /// shared level runs and the base sorted once — is bit-equal to the
    /// same answer over `summary()`, the flat `samples` list, and so are
    /// the sketch's own `quantile_bits` / `rank_bits`. Stream lengths sit
    /// on and around the first compaction (0, 1, 2k-1, 2k, 2k+1) and
    /// anywhere up to 20 000; narrow value domains force ties within and
    /// across levels.
    #[test]
    fn parts_answer_bit_equal_to_summary(
        k in prop::sample::select(vec![2usize, 3, 8, 16, 64]),
        n_kind in 0usize..6,
        n_random in 0u64..=20_000,
        domain in prop::sample::select(vec![1u64, 7, 1000, u64::MAX]),
        seed in any::<u64>(),
    ) {
        let two_k = 2 * k as u64;
        let n = [0, 1, two_k - 1, two_k, two_k + 1, n_random][n_kind];
        let mut s = QuantilesSketch::with_seed(k, seed);
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xA5A5);
        for _ in 0..n {
            let x = if domain == u64::MAX { rng.next_u64() } else { rng.next_below(domain) };
            s.update(x);
        }
        let summary = s.summary();
        let parts = s.parts();
        let view = parts.view();
        prop_assert_eq!(view.stream_len(), summary.stream_len());
        prop_assert_eq!(view.stream_len(), n);
        for phi in (0..=100).map(|i| i as f64 / 100.0) {
            let flat = summary.quantile_bits(phi);
            prop_assert_eq!(view.quantile_bits(phi), flat, "phi {}", phi);
            prop_assert_eq!(s.quantile_bits(phi), flat, "phi {}", phi);
        }
        // Every retained value and its neighbours, plus both ends.
        let mut probes = vec![0, u64::MAX];
        for item in summary.items() {
            let v = item.value_bits;
            probes.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
        }
        probes.sort_unstable();
        for &x in &probes {
            let flat = summary.rank_bits(x);
            prop_assert_eq!(view.rank_bits(x), flat, "rank of {}", x);
            prop_assert_eq!(s.rank_bits(x), flat, "rank of {}", x);
        }
        let bits = |cdf: Vec<f64>| cdf.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(bits(view.cdf_bits(&probes)), bits(summary.cdf_bits(&probes)));
    }
}

/// Statistical sanity (fixed seeds, not proptest): the median estimate of a
/// shuffled range should concentrate near the true median across many
/// independently-seeded sketches.
#[test]
fn median_concentrates_across_seeds() {
    let n = 40_000u64;
    let k = 64;
    let mut errs = Vec::new();
    for seed in 0..20 {
        let mut s = QuantilesSketch::with_seed(k, seed);
        // Deterministic "shuffle": multiply by an odd constant mod 2^16 range.
        for i in 0..n {
            s.update((i.wrapping_mul(48271)) % n);
        }
        let est = s.quantile_bits(0.5).unwrap() as f64;
        errs.push((est - n as f64 / 2.0).abs() / n as f64);
    }
    let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
    assert!(mean_err < 0.02, "mean median error {mean_err}");
}
