//! Moving a sketch between representations: a Quancurrent snapshot (sorted
//! levels of weight `2^i`) absorbed into a sequential sketch, several
//! shards' snapshots merged by the store's one merge path, and summaries
//! carried across the `qc-store` wire format. Each test calls the function
//! that owns the behaviour: `QuantilesSketch::absorb_summary`,
//! `qc_store::merge_summaries` and `encode_summary` / `decode_summary`.

use qc_common::summary::{WeightedItem, WeightedSummary};
use qc_common::Summary;
use qc_sequential::QuantilesSketch;
use qc_store::{decode_summary, encode_summary, merge_summaries};
use quancurrent::Quancurrent;

fn concurrent_sketch(k: usize, range: std::ops::Range<u64>, seed: u64) -> Quancurrent<u64> {
    let sketch = Quancurrent::<u64>::builder().k(k).b(4).seed(seed).build();
    let mut updater = sketch.updater();
    for i in range {
        updater.update(i);
    }
    sketch
}

fn absorbed(summary: &WeightedSummary, k: usize, seed: u64) -> QuantilesSketch {
    let mut sketch = QuantilesSketch::with_seed(k, seed);
    sketch.absorb_summary(summary);
    sketch
}

#[test]
fn conversion_preserves_stream_size() {
    let k = 32;
    let qc = concurrent_sketch(k, 0..100_000, 1);
    let seq = absorbed(&qc.snapshot(), k, 2);
    assert_eq!(seq.n(), qc.stream_len());
    assert_eq!(seq.summary().stream_len(), qc.stream_len());
}

#[test]
fn conversion_preserves_estimates() {
    let k = 128;
    let qc = concurrent_sketch(k, 0..200_000, 3);
    let seq = absorbed(&qc.snapshot(), k, 4);
    let eps = seq.epsilon();
    let n = seq.n() as f64;
    for phi in [0.1, 0.5, 0.9] {
        let q = seq.quantile_bits(phi).unwrap() as f64;
        assert!(
            (q - phi * 200_000.0).abs() / 200_000.0 < 4.0 * eps + 4.0 * k as f64 / n,
            "phi={phi}: {q}"
        );
    }
}

#[test]
fn merging_three_shards_covers_union() {
    let k = 64;
    let shards = [
        concurrent_sketch(k, 0..60_000, 5),
        concurrent_sketch(k, 60_000..120_000, 6),
        concurrent_sketch(k, 120_000..180_000, 7),
    ];
    let snaps: Vec<_> = shards.iter().map(|s| s.snapshot()).collect();
    let merged = merge_summaries(snaps.iter(), k, 9);
    let total: u64 = shards.iter().map(|s| s.stream_len()).sum();
    assert_eq!(merged.stream_len(), total);
    let median = merged.quantile_bits(0.5).unwrap();
    assert!((70_000..110_000).contains(&median), "median {median}");
    // Cross-shard quantiles: the first third ends near 60k.
    let third = merged.quantile_bits(1.0 / 3.0).unwrap();
    assert!((45_000..75_000).contains(&third), "p33 {third}");
}

#[test]
fn empty_inputs() {
    let merged = merge_summaries([], 16, 1);
    assert_eq!(merged.stream_len(), 0);
    let seq = absorbed(&WeightedSummary::empty(), 16, 2);
    assert_eq!(seq.n(), 0);
}

#[test]
fn wire_bridge_roundtrips_concurrent_snapshots() {
    let k = 64;
    let qc = concurrent_sketch(k, 0..80_000, 21);
    let frame = encode_summary(&qc.snapshot());
    let seq = absorbed(&decode_summary(&frame).expect("frame decodes"), k, 22);
    assert_eq!(seq.n(), qc.stream_len());
    let median = seq.quantile_bits(0.5).unwrap();
    assert!((25_000..55_000).contains(&median), "median {median}");
}

#[test]
fn wire_bridge_normalizes_arbitrary_weights() {
    // The wire format carries any weight; merging decomposes weight 5 into
    // levels 0 and 2 with the total kept exact.
    let odd = WeightedSummary::from_items(vec![WeightedItem { value_bits: 9, weight: 5 }]);
    let decoded = decode_summary(&encode_summary(&odd)).unwrap();
    let back = merge_summaries(std::slice::from_ref(&decoded), 16, 1);
    assert_eq!(back.stream_len(), 5);
    assert!(back.items().iter().all(|it| it.weight.is_power_of_two()));
}

#[test]
fn wire_bridge_surfaces_decode_errors() {
    assert!(decode_summary(b"not a frame").is_err());
}

#[test]
fn sequential_summaries_also_convert() {
    let mut a = QuantilesSketch::with_seed(32, 1);
    for i in 0..50_000u64 {
        a.update(i);
    }
    let back = absorbed(&a.summary(), 32, 2);
    assert_eq!(back.n(), 50_000);
    let m = back.quantile_bits(0.5).unwrap();
    assert!((15_000..35_000).contains(&m), "median {m}");
}
