//! Golden bytes for the summary wire format (`QCWS` v1): the encoder
//! must produce exactly these frames and the decoder must read them
//! back, so a codec refactor cannot move a byte unnoticed. (The WAL and
//! checkpoint images are pinned next to their private writers, in
//! `persist.rs`'s unit tests.)

use qc_common::summary::{Summary, WeightedItem, WeightedSummary};
use qc_store::wire::{decode_summary, encode_summary};

fn unhex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert_eq!(digits.len() % 2, 0, "odd hex fixture");
    digits
        .chunks_exact(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// magic, version 1, flags 0, count 4, deltas (3, 87, 1, MAX-91),
/// weights (1, 4, 2, 8), CRC-32.
const FOUR_ITEMS: &str = "51435753 0100 0000 04 03 57 01 a4ffffffffffffffff01 01 04 02 08 e558f471";

/// magic, version 1, flags 0, count 0, CRC-32.
const EMPTY: &str = "51435753 0100 0000 00 45003a75";

fn four_items() -> WeightedSummary {
    WeightedSummary::from_items(vec![
        WeightedItem { value_bits: 3, weight: 1 },
        WeightedItem { value_bits: 90, weight: 4 },
        WeightedItem { value_bits: 91, weight: 2 },
        WeightedItem { value_bits: u64::MAX, weight: 8 },
    ])
}

#[test]
fn four_item_summary_frame_is_pinned_both_ways() {
    assert_eq!(hex(&encode_summary(&four_items())), hex(&unhex(FOUR_ITEMS)));
    let back = decode_summary(&unhex(FOUR_ITEMS)).unwrap();
    assert_eq!(back.items(), four_items().items());
    assert_eq!(back.stream_len(), 15);
}

#[test]
fn empty_summary_frame_is_pinned_both_ways() {
    assert_eq!(hex(&encode_summary(&WeightedSummary::empty())), hex(&unhex(EMPTY)));
    let back = decode_summary(&unhex(EMPTY)).unwrap();
    assert_eq!(back.num_retained(), 0);
    assert_eq!(back.stream_len(), 0);
}
