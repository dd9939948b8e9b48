//! Property tests for the durable segment format: an *independently*
//! hand-encoded segment (built here from the published layout, not via
//! the store's own writer) must parse back exactly, and every flavour of
//! damage — truncation at any byte, single bit flips, garbage tails,
//! hostile length fields — must yield a clean-prefix scan with a typed
//! error. Never a panic, and never an allocation sized by attacker-
//! controlled bytes rather than by the actual file.

use proptest::prelude::*;
use qc_common::summary::{WeightedItem, WeightedSummary};
use qc_store::persist::{
    parse_checkpoint, parse_segment, RecordError, RecordOp, FILE_HEADER_LEN, MAX_RECORD_LEN,
    PERSIST_VERSION, SEGMENT_MAGIC,
};
use qc_store::wire::{crc32, encode_summary, put_varint, CodecError};

/// A record spec the test encodes by hand, straight from the format doc.
#[derive(Clone, Debug)]
enum Spec {
    UpdateMany { key: String, window: u64, value_bits: Vec<u64> },
    Ingest { key: String, items: Vec<(u64, u64)> },
    Remove { key: String },
}

fn key_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 1..16).prop_map(|bytes| {
        // Arbitrary (possibly multi-byte) UTF-8 via lossy conversion;
        // keys in the log are length-prefixed, so nothing is off-limits.
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        (key_strategy(), any::<u64>(), prop::collection::vec(any::<u64>(), 1..24))
            .prop_map(|(key, window, value_bits)| Spec::UpdateMany { key, window, value_bits }),
        (key_strategy(), prop::collection::vec((any::<u64>(), 1u64..1 << 20), 0..16))
            .prop_map(|(key, items)| Spec::Ingest { key, items }),
        key_strategy().prop_map(|key| Spec::Remove { key }),
    ]
}

/// Independent encoder: opcode, varint lsn, varint key length, key bytes,
/// opcode-specific payload — framed as `u32 LE body-len | body | u32 LE
/// crc32(body)`. Deliberately NOT the store's own `Wal`, so the two
/// implementations check each other.
fn encode_record(lsn: u64, spec: &Spec) -> Vec<u8> {
    let mut body = Vec::new();
    let (opcode, key) = match spec {
        Spec::UpdateMany { key, .. } => (0x01u8, key),
        Spec::Ingest { key, .. } => (0x02, key),
        Spec::Remove { key } => (0x03, key),
    };
    body.push(opcode);
    put_varint(&mut body, lsn);
    put_varint(&mut body, key.len() as u64);
    body.extend_from_slice(key.as_bytes());
    match spec {
        Spec::UpdateMany { window, value_bits, .. } => {
            put_varint(&mut body, *window);
            put_varint(&mut body, value_bits.len() as u64);
            for bits in value_bits {
                body.extend_from_slice(&bits.to_le_bytes());
            }
        }
        Spec::Ingest { items, .. } => {
            let summary = WeightedSummary::from_items(
                items.iter().map(|&(v, w)| WeightedItem { value_bits: v, weight: w }).collect(),
            );
            body.extend_from_slice(&encode_summary(&summary));
        }
        Spec::Remove { .. } => {}
    }
    let mut frame = Vec::with_capacity(body.len() + 8);
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    let crc = crc32(&body);
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

fn encode_segment(specs: &[Spec]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SEGMENT_MAGIC);
    bytes.extend_from_slice(&PERSIST_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    for (i, spec) in specs.iter().enumerate() {
        bytes.extend_from_slice(&encode_record(i as u64 + 1, spec));
    }
    bytes
}

/// The parsed records a scan returned must be exactly the leading specs.
fn assert_is_prefix(scan: &qc_store::persist::SegmentScan, specs: &[Spec]) {
    assert!(scan.records.len() <= specs.len());
    for (parsed, spec) in scan.records.iter().zip(specs) {
        match (&parsed.record.op, spec) {
            (
                RecordOp::UpdateMany { key, value_bits, window },
                Spec::UpdateMany { key: k, window: w, value_bits: v },
            ) => {
                assert_eq!(key, k);
                assert_eq!(window, w);
                assert_eq!(value_bits, v);
            }
            (RecordOp::Ingest { key, .. }, Spec::Ingest { key: k, .. }) => assert_eq!(key, k),
            (RecordOp::Remove { key }, Spec::Remove { key: k }) => assert_eq!(key, k),
            (got, want) => panic!("record class mismatch: got {got:?}, want {want:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conformance: the format doc is sufficient to write a compatible
    /// encoder, and the parser accepts every record of it bit-exactly.
    #[test]
    fn hand_encoded_segments_parse_back_exactly(
        specs in prop::collection::vec(spec_strategy(), 0..20),
    ) {
        let scan = parse_segment(&encode_segment(&specs));
        prop_assert!(scan.error.is_none(), "clean segment must scan clean: {:?}", scan.error);
        prop_assert_eq!(scan.records.len(), specs.len());
        assert_is_prefix(&scan, &specs);
        for (i, parsed) in scan.records.iter().enumerate() {
            prop_assert_eq!(parsed.record.lsn, i as u64 + 1);
        }
    }

    /// Truncation at ANY byte boundary yields the clean prefix of whole
    /// frames, plus a typed `Torn` for the partial one (if any).
    #[test]
    fn every_truncation_is_a_clean_prefix(
        specs in prop::collection::vec(spec_strategy(), 1..12),
        cut in 0.0f64..1.0,
    ) {
        let bytes = encode_segment(&specs);
        let full = parse_segment(&bytes);
        let len = (bytes.len() as f64 * cut) as usize;
        let scan = parse_segment(&bytes[..len]);
        assert_is_prefix(&scan, &specs);
        if len < FILE_HEADER_LEN {
            prop_assert!(scan.error.is_some(), "headerless stub must be an error");
            prop_assert!(scan.records.is_empty());
        } else {
            // Exactly the frames that fit wholly before the cut survive.
            let expect = full.records.iter().filter(|r| r.end <= len).count();
            prop_assert_eq!(scan.records.len(), expect);
            match &scan.error {
                None => {
                    // A cut landing exactly on a frame (or header)
                    // boundary is indistinguishable from a cleanly
                    // closed shorter segment — clean is correct there.
                    let boundary = scan.records.last().map_or(FILE_HEADER_LEN, |r| r.end);
                    prop_assert_eq!(len, boundary, "short read scanned clean");
                }
                Some((offset, RecordError::Torn { .. })) => {
                    prop_assert_eq!(*offset, scan.records.last().map_or(FILE_HEADER_LEN, |r| r.end));
                }
                Some((_, other)) => prop_assert!(false, "unexpected error class: {other:?}"),
            }
        }
    }

    /// A single bit flip anywhere can lose frames from the flip onward —
    /// never a panic, never a *wrong* record accepted before the flip.
    #[test]
    fn single_bit_flips_never_panic_and_never_forge_records(
        specs in prop::collection::vec(spec_strategy(), 1..12),
        pos in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut bytes = encode_segment(&specs);
        let idx = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[idx] ^= 1 << bit;
        let scan = parse_segment(&bytes);
        if idx < FILE_HEADER_LEN {
            // Header damage: no record may be trusted.
            prop_assert!(scan.error.is_some());
            prop_assert!(scan.records.is_empty());
        } else {
            // Frames wholly before the flipped byte are untouched; the
            // scan may not run past the flip without noticing.
            prop_assert!(scan.error.is_some(), "bit flip at {idx} went unnoticed");
            assert_is_prefix(&scan, &specs);
            prop_assert!(
                scan.records.iter().all(|r| r.end <= idx),
                "a record overlapping the flipped byte was accepted"
            );
        }
    }

    /// Garbage appended after valid frames: the prefix still parses, the
    /// tail is a typed error.
    #[test]
    fn garbage_tails_keep_the_valid_prefix(
        specs in prop::collection::vec(spec_strategy(), 0..8),
        tail in prop::collection::vec(any::<u8>(), 1..200),
    ) {
        let mut bytes = encode_segment(&specs);
        bytes.extend_from_slice(&tail);
        let scan = parse_segment(&bytes);
        // The garbage could *begin* with a plausible frame header; all we
        // guarantee is that every original record survives in order and
        // the scan terminates with a typed error rather than a panic.
        prop_assert!(scan.records.len() >= specs.len());
        prop_assert!(scan.error.is_some(), "a random tail cannot be an exact frame sequence");
        for (parsed, spec) in scan.records.iter().zip(specs.iter()) {
            let key = match spec {
                Spec::UpdateMany { key, .. } | Spec::Ingest { key, .. } | Spec::Remove { key } => key,
            };
            prop_assert_eq!(parsed.record.op.key(), key);
        }
    }

    /// Entirely random bytes: both parsers must return, not panic, and
    /// never mistake garbage length fields for something worth trusting.
    #[test]
    fn random_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = parse_segment(&bytes);
        let _ = parse_checkpoint(&bytes);
    }

    /// Hostile length fields: a frame header claiming up to `u32::MAX`
    /// bytes is rejected by arithmetic on the buffer it actually has —
    /// `Oversized` past the cap, `Torn` below it — with no allocation
    /// proportional to the claim.
    #[test]
    fn hostile_length_fields_are_bounded(claim in 0u32..u32::MAX) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SEGMENT_MAGIC);
        bytes.extend_from_slice(&PERSIST_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&claim.to_le_bytes());
        let scan = parse_segment(&bytes);
        prop_assert!(scan.records.is_empty());
        match scan.error {
            Some((offset, RecordError::Oversized { length, .. })) => {
                prop_assert_eq!(offset, FILE_HEADER_LEN);
                prop_assert!(length > MAX_RECORD_LEN);
            }
            Some((_, RecordError::Torn { .. })) => {
                prop_assert!((claim as usize) <= MAX_RECORD_LEN);
            }
            other => prop_assert!(false, "unexpected outcome: {other:?}"),
        }
    }

    /// Wrong magic / reserved flags / any version but the current one
    /// (zero, the retired version 1, the future) are typed header errors
    /// before any record is considered.
    #[test]
    fn header_skew_is_rejected(
        specs in prop::collection::vec(spec_strategy(), 1..4),
        magic_byte in any::<u8>(),
        version in prop_oneof![0u16..PERSIST_VERSION, PERSIST_VERSION + 1..=u16::MAX],
        flags in 1u16..u16::MAX,
    ) {
        let good = encode_segment(&specs);

        let mut bad_magic = good.clone();
        prop_assume!(magic_byte != SEGMENT_MAGIC[0]);
        bad_magic[0] = magic_byte;
        let scan = parse_segment(&bad_magic);
        prop_assert!(matches!(scan.error, Some((0, RecordError::Codec(CodecError::BadMagic { .. })))));
        prop_assert!(scan.records.is_empty());

        let mut skewed = good.clone();
        skewed[4..6].copy_from_slice(&version.to_le_bytes());
        let scan = parse_segment(&skewed);
        prop_assert!(matches!(
            scan.error,
            Some((0, RecordError::Codec(CodecError::UnsupportedVersion { found, .. })))
                if found == version
        ));

        let mut flagged = good;
        flagged[6..8].copy_from_slice(&flags.to_le_bytes());
        let scan = parse_segment(&flagged);
        prop_assert!(matches!(
            scan.error,
            Some((0, RecordError::Codec(CodecError::ReservedFlags { found }))) if found == flags
        ));
    }
}

/// A one-record segment around a hand-built body, CRC valid — so the
/// body decoder, not the envelope, is what rejects it.
fn segment_with_body(body: &[u8]) -> Vec<u8> {
    let mut bytes = encode_segment(&[]);
    bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
    bytes.extend_from_slice(body);
    bytes.extend_from_slice(&crc32(body).to_le_bytes());
    bytes
}

/// Structural damage inside a checksummed body is reported as what it
/// is: a zero LSN is `ZeroLsn` (not "zero weight at item 0"), a
/// non-UTF-8 key is `BadUtf8` at its file offset (not a malformed
/// varint).
#[test]
fn body_damage_is_named_honestly() {
    // Remove record, LSN 0, key "k".
    let scan = parse_segment(&segment_with_body(&[0x03, 0x00, 0x01, b'k']));
    assert!(scan.records.is_empty());
    let (offset, error) = scan.error.expect("zero LSN must be rejected");
    assert_eq!(
        (offset, &error),
        (FILE_HEADER_LEN, &RecordError::ZeroLsn { offset: FILE_HEADER_LEN })
    );
    assert_eq!(error.to_string(), "zero LSN in record at byte 8");

    // Remove record, LSN 1, two key bytes that are not UTF-8. The key's
    // content starts after header (8) + length prefix (4) + opcode, LSN
    // and key length (3).
    let scan = parse_segment(&segment_with_body(&[0x03, 0x01, 0x02, 0xff, 0xfe]));
    assert!(scan.records.is_empty());
    let (offset, error) = scan.error.expect("non-UTF-8 key must be rejected");
    assert_eq!(offset, FILE_HEADER_LEN);
    assert_eq!(error, RecordError::Codec(CodecError::BadUtf8 { offset: 15 }));
    assert_eq!(error.to_string(), "invalid UTF-8 at byte 15");
}
