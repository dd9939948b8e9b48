//! Golden outputs of the two consumers of a summary's level structure:
//! [`merge_summaries`] and [`QuantilesSketch::absorb_summary`].
//!
//! Both decompose item weights into per-level sorted runs and then flip
//! seeded coins, so any change to which runs they see, or in what order,
//! changes their output bits. Each case pins the exact result on fixed
//! inputs as `(stream_len, retained, fingerprint of every item)`.

use qc_common::rng::SplitMix64;
use qc_common::summary::{Summary, WeightedItem, WeightedSummary};
use qc_sequential::QuantilesSketch;
use qc_store::merge_summaries;

/// `(stream_len, num_retained, FNV-1a over every (value, weight))`.
fn fingerprint(s: &WeightedSummary) -> (u64, usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for it in s.items() {
        for word in [it.value_bits, it.weight] {
            for b in word.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (s.stream_len(), s.num_retained(), h)
}

/// `n` items with pseudo-random values and weights drawn from `weights`.
fn weighted(seed: u64, n: usize, weights: &[u64]) -> WeightedSummary {
    let mut rng = SplitMix64::new(seed);
    WeightedSummary::from_items(
        (0..n)
            .map(|_| WeightedItem {
                value_bits: rng.next_u64() % 100_000,
                weight: weights[(rng.next_u64() % weights.len() as u64) as usize],
            })
            .collect(),
    )
}

/// Three inputs: unit weights, power-of-two levels, arbitrary weights.
fn inputs() -> Vec<WeightedSummary> {
    vec![weighted(1, 3_000, &[1]), weighted(2, 700, &[2, 8, 64]), weighted(3, 500, &[3, 5, 7, 12])]
}

#[test]
fn merge_summaries_output_is_pinned() {
    let inputs = inputs();
    assert_eq!(
        fingerprint(&merge_summaries(&inputs, 16, 7)),
        (24_752, 27, 14_391_657_689_142_090_664),
        "three mixed inputs, k = 16"
    );
    assert_eq!(
        fingerprint(&merge_summaries(&inputs[2..], 4, 1)),
        (3_400, 9, 13_109_652_753_761_298_016),
        "arbitrary weights alone, k = 4"
    );
    let many: Vec<WeightedSummary> = (10..26).map(|s| weighted(s, 400, &[1, 2, 4])).collect();
    assert_eq!(
        fingerprint(&merge_summaries(&many, 32, 99)),
        (14_944, 60, 8_066_671_702_728_858_377),
        "16 inputs, k = 32"
    );
}

#[test]
fn absorb_summary_output_is_pinned() {
    let inputs = inputs();
    let mut sketch = QuantilesSketch::with_seed(8, 3);
    for i in 0..100u64 {
        sketch.update(i * 37 % 1_000);
    }
    for input in &inputs {
        sketch.absorb_summary(input);
    }
    assert_eq!(
        fingerprint(&sketch.summary()),
        (24_852, 36, 8_378_573_971_233_979_312),
        "k = 8 sketch after three absorbs"
    );
    let mut fresh = QuantilesSketch::with_seed(16, 5);
    fresh.absorb_summary(&merge_summaries(&inputs, 16, 7));
    assert_eq!(
        fingerprint(&fresh.summary()),
        (24_752, 80, 6_429_419_322_026_152_745),
        "a merged summary absorbed whole"
    );
}
