//! Accuracy drift of repeated small ingests vs one bulk merge.
//!
//! Regression for the compounding-compaction bug: every summary absorbed
//! into a `ConcurrentEngine` (a store `ingest_bytes` into a hot key) used
//! to re-run randomized compaction on the whole absorbed summary, so N
//! small ingests paid N compaction passes — each one perturbing ranks —
//! where a single bulk merge pays one. With the absorb buffer,
//! sub-threshold ingests are retained verbatim and the buffer folds in one
//! pass per `ABSORB_COMPACT_FACTOR·k` retained elements, so the incremental
//! path's error stays within the same ε(k) budget as the bulk path instead
//! of drifting with N.
//!
//! The suite drives the engine directly: what it pins is the engine's
//! absorb buffer, not store behaviour.

use qc_common::engine::MergeableSketch;
use qc_common::error::sequential_epsilon;
use qc_common::{OrderedBits, Summary, WeightedSummary};
use qc_store::ConcurrentEngine;

const TOTAL: usize = 8192;
const CHUNKS: usize = 128;
const K: usize = 64;

fn engine() -> ConcurrentEngine {
    ConcurrentEngine::new(K, 4, 17)
}

/// Summary holding the given values with unit weight.
fn summary_of(values: &[f64]) -> WeightedSummary {
    let mut bits: Vec<u64> = values.iter().map(|v| v.to_ordered_bits()).collect();
    bits.sort_unstable();
    WeightedSummary::from_parts([(&bits[..], 1u64)])
}

/// Max |estimated rank − φ| over a φ grid, against the exact uniform
/// stream 0..TOTAL.
fn max_rank_error(summary: &WeightedSummary) -> f64 {
    let mut worst: f64 = 0.0;
    for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        let exact_value = phi * TOTAL as f64;
        let est = summary.rank_fraction(exact_value);
        worst = worst.max((est - phi).abs());
    }
    worst
}

#[test]
fn n_small_ingests_match_one_bulk_merge_within_epsilon() {
    let all: Vec<f64> = (0..TOTAL).map(|i| i as f64).collect();

    // Incremental: 128 strided 64-element chunks (each a representative
    // sample of the full range, like periodic shard snapshots).
    let mut incremental = engine();
    for c in 0..CHUNKS {
        let chunk: Vec<f64> = (0..TOTAL / CHUNKS).map(|i| (i * CHUNKS + c) as f64).collect();
        incremental.absorb_summary(&summary_of(&chunk));
    }

    // Bulk: the same 8192 elements in one summary.
    let mut bulk = engine();
    bulk.absorb_summary(&summary_of(&all));

    let inc_summary = incremental.to_summary();
    let bulk_summary = bulk.to_summary();

    // Exact conservation on both paths, however many compactions fired.
    assert_eq!(inc_summary.stream_len(), TOTAL as u64);
    assert_eq!(bulk_summary.stream_len(), TOTAL as u64);

    let eps = sequential_epsilon(K);
    let inc_err = max_rank_error(&inc_summary);
    let bulk_err = max_rank_error(&bulk_summary);
    // Both paths must sit inside the usual high-probability budget (the
    // 4ε slack every suite in this workspace uses for fixed seeds). The
    // incremental bound is the regression: with per-ingest re-compaction
    // the 128-ingest path compounds far past it.
    assert!(bulk_err <= 4.0 * eps, "bulk path error {bulk_err} > 4ε = {}", 4.0 * eps);
    assert!(
        inc_err <= 4.0 * eps,
        "incremental path drifted: error {inc_err} > 4ε = {} (bulk path: {bulk_err})",
        4.0 * eps
    );
}

#[test]
fn small_ingests_stay_buffered_uncompacted_until_threshold() {
    // The sharp structural regression, read off the engine's stored state
    // via `footprint()` (it counts buffered absorbed parts verbatim): 240
    // unit-weight elements arrive in 24 small absorbs. 240 sits **above**
    // a single merge's per-level cap (2k = 128) but **below** the
    // absorb-buffer threshold
    // (ABSORB_COMPACT_FACTOR·k = 256). The pre-fix path re-merged the
    // absorbed summary on every ingest, compacting the moment it crossed
    // 128 retained; the buffered path must hold all 240 words.
    let mut engine = engine();
    for c in 0..24 {
        let chunk: Vec<f64> = (0..10).map(|i| (c * 10 + i) as f64).collect();
        engine.absorb_summary(&summary_of(&chunk));
    }
    // ConcurrentEngine footprint = fixed Gather&Sort words (8k) + level
    // arrays (0: no local updates) + pending tail (0) + absorbed words.
    let gather_sort = 8 * K;
    assert_eq!(
        engine.footprint(),
        gather_sort + 240,
        "absorbed parts must stay uncompacted below the threshold"
    );
    assert_eq!(engine.to_summary().stream_len(), 240);

    // Two more chunks cross the threshold: ONE compaction pass folds the
    // whole buffer (and only then), shrinking the stored state.
    for c in 24..26 {
        let chunk: Vec<f64> = (0..10).map(|i| (c * 10 + i) as f64).collect();
        engine.absorb_summary(&summary_of(&chunk));
    }
    assert!(
        engine.footprint() < gather_sort + 240,
        "crossing the threshold must compact the buffer (retained {})",
        engine.footprint()
    );
    let summary = engine.to_summary();
    assert_eq!(summary.stream_len(), 260, "compaction conserves weight exactly");
}

#[test]
fn ingests_below_the_level_cap_read_back_verbatim() {
    // Below 2k total retained nothing may compact anywhere — not in the
    // stored state, not in the read-side merge — so quantiles are exact.
    let mut engine = engine();
    for c in 0..12 {
        let chunk: Vec<f64> = (0..10).map(|i| (c * 10 + i) as f64).collect();
        engine.absorb_summary(&summary_of(&chunk));
    }
    let summary = engine.to_summary();
    assert_eq!(summary.stream_len(), 120);
    assert_eq!(summary.num_retained(), 120);
    assert!(summary.items().iter().all(|it| it.weight == 1));
    for phi in [0.0, 0.5, 1.0] {
        let q = summary.quantile::<f64>(phi).unwrap();
        let exact = (phi * 119.0).floor();
        assert!((q - exact).abs() <= 1.0, "phi={phi}: {q} vs exact {exact}");
    }
}
