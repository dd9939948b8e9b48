//! Datagram codec property tests, mirroring the TCP protocol's
//! `proto_roundtrip` suite: every record batch round-trips bit-exactly,
//! and corrupted datagrams of every flavour — truncation, bit flips,
//! random garbage, hostile length claims, wrong magic/version/flags —
//! come back as typed [`DatagramError`]s. Never a panic, never an
//! allocation of attacker-controlled size: this is the parser an open
//! UDP port points at the internet.

use proptest::prelude::*;
use qc_ingest::datagram::{
    decode_datagram, encode_datagram, encode_datagram_seq, peek_seq, DatagramBuilder,
    DatagramError, Record, CHECKSUM_LEN, HEADER_LEN, MAGIC, MAX_DATAGRAM_LEN, SEQ_LEN, VERSION,
};
use qc_store::wire::{crc32, put_varint};

fn key_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..24)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

fn f64_strategy() -> impl Strategy<Value = f64> {
    // Raw bit patterns: NaNs, infinities, subnormals all travel.
    any::<u64>().prop_map(f64::from_bits)
}

fn record_strategy() -> impl Strategy<Value = Record> {
    (key_strategy(), prop::collection::vec(f64_strategy(), 0..32))
        .prop_map(|(key, values)| Record { key, values })
}

fn records_strategy() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(record_strategy(), 0..12)
}

/// Bit-exact record equality (plain `==` treats NaN != NaN).
fn same_records(a: &[Record], b: &[Record]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.key == y.key
                && x.values.len() == y.values.len()
                && x.values.iter().zip(&y.values).all(|(v, w)| v.to_bits() == w.to_bits())
        })
}

/// A syntactically pristine envelope (magic, version, flags, CRC all
/// valid) around an arbitrary payload — isolates the record parser from
/// the envelope checks.
fn enveloped(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + SEQ_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // v2 sequence number
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_is_bit_exact_identity(records in records_strategy()) {
        let bytes = encode_datagram(&records);
        prop_assert!(bytes.len() <= MAX_DATAGRAM_LEN);
        let back = decode_datagram(&bytes).unwrap();
        prop_assert!(same_records(&records, &back), "{records:?} != {back:?}");
    }

    #[test]
    fn sequenced_roundtrip_is_bit_exact_identity(records in records_strategy(), seq in any::<u64>()) {
        let bytes = encode_datagram_seq(&records, seq);
        prop_assert!(bytes.len() <= MAX_DATAGRAM_LEN);
        prop_assert_eq!(peek_seq(&bytes), Some(seq));
        let back = decode_datagram(&bytes).unwrap();
        prop_assert!(same_records(&records, &back), "{records:?} != {back:?}");
    }

    #[test]
    fn sequenced_bit_flips_are_always_detected(records in records_strategy(), seq in any::<u64>(), pos in 0.0f64..1.0, bit in 0u32..8) {
        let mut bytes = encode_datagram_seq(&records, seq);
        let idx = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[idx] ^= 1 << bit;
        prop_assert!(decode_datagram(&bytes).is_err());
    }

    #[test]
    fn truncation_at_every_cut_is_a_typed_error(records in records_strategy(), cut in 0.0f64..1.0) {
        let bytes = encode_datagram(&records);
        let len = (bytes.len() as f64 * cut) as usize;
        if len < bytes.len() {
            // A prefix can never be a valid datagram: the CRC trails the
            // payload, so cutting anywhere invalidates it (or leaves too
            // few bytes to even hold an envelope).
            prop_assert!(decode_datagram(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn single_bit_flips_are_always_detected(records in records_strategy(), pos in 0.0f64..1.0, bit in 0u32..8) {
        let mut bytes = encode_datagram(&records);
        let idx = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[idx] ^= 1 << bit;
        // CRC-32 detects every single-bit error; a flip in the header
        // fields is caught even earlier by magic/version/flags checks.
        prop_assert!(decode_datagram(&bytes).is_err());
    }

    #[test]
    fn random_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_datagram(&bytes);
    }

    #[test]
    fn valid_envelope_hostile_payload_never_panics(payload in prop::collection::vec(any::<u8>(), 0..128)) {
        // Adversary who bothers to compute the CRC: the record parser
        // itself must stay total.
        let _ = decode_datagram(&enveloped(&payload));
    }

    #[test]
    fn absurd_record_counts_are_rejected_before_allocation(count in 1u64 << 20..u64::MAX) {
        // Claims `count` records but carries none. The claim bound
        // (`count * MIN_RECORD_LEN` vs bytes present) must fire before any
        // `Vec::with_capacity(count)`.
        let mut payload = Vec::new();
        put_varint(&mut payload, count);
        prop_assert!(matches!(
            decode_datagram(&enveloped(&payload)),
            Err(DatagramError::Truncated { .. })
        ));
    }

    #[test]
    fn absurd_key_lengths_are_rejected_before_allocation(klen in 1u64 << 20..u64::MAX) {
        // One record whose key claims up to u64::MAX bytes.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1); // record count
        put_varint(&mut payload, klen); // key length, nothing behind it
        prop_assert!(matches!(
            decode_datagram(&enveloped(&payload)),
            Err(DatagramError::Truncated { .. })
        ));
    }

    #[test]
    fn absurd_value_counts_are_rejected_before_allocation(vcount in 1u64 << 20..u64::MAX) {
        let mut payload = Vec::new();
        put_varint(&mut payload, 1); // record count
        put_varint(&mut payload, 1); // key length
        payload.push(b'k');
        put_varint(&mut payload, vcount); // value count, nothing behind it
        prop_assert!(matches!(
            decode_datagram(&enveloped(&payload)),
            Err(DatagramError::Truncated { .. })
        ));
    }

    #[test]
    fn wrong_magic_is_typed(magic_bits in any::<u32>(), records in records_strategy()) {
        let magic = magic_bits.to_le_bytes();
        prop_assume!(magic != MAGIC);
        let mut bytes = encode_datagram(&records);
        bytes[..4].copy_from_slice(&magic);
        let crc = crc32(&bytes[..bytes.len() - CHECKSUM_LEN]);
        let crc_at = bytes.len() - CHECKSUM_LEN;
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        prop_assert_eq!(
            decode_datagram(&bytes),
            Err(DatagramError::BadMagic { found: magic })
        );
    }

    #[test]
    fn future_versions_are_typed(version in VERSION + 1..u16::MAX, records in records_strategy()) {
        let mut bytes = encode_datagram(&records);
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let crc = crc32(&bytes[..bytes.len() - CHECKSUM_LEN]);
        let crc_at = bytes.len() - CHECKSUM_LEN;
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        prop_assert_eq!(
            decode_datagram(&bytes),
            Err(DatagramError::UnsupportedVersion { found: version, supported: VERSION })
        );
    }

    #[test]
    fn reserved_flags_are_typed(flags in 1u16..u16::MAX, records in records_strategy()) {
        let mut bytes = encode_datagram(&records);
        bytes[6..8].copy_from_slice(&flags.to_le_bytes());
        let crc = crc32(&bytes[..bytes.len() - CHECKSUM_LEN]);
        let crc_at = bytes.len() - CHECKSUM_LEN;
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        prop_assert_eq!(
            decode_datagram(&bytes),
            Err(DatagramError::ReservedFlags { found: flags })
        );
    }

    #[test]
    fn trailing_bytes_are_typed(records in records_strategy(), extra in 1usize..16) {
        // Well-formed records followed by surplus payload bytes (CRC made
        // valid again so the parser is what rejects them).
        let bytes = encode_datagram(&records);
        let mut payload = bytes[HEADER_LEN..bytes.len() - CHECKSUM_LEN].to_vec();
        payload.extend(vec![0u8; extra]);
        // The surplus zeros may parse as further length claims; either
        // way the decode must fail with a typed error, not absorb them.
        prop_assert!(decode_datagram(&enveloped(&payload)).is_err());
    }

    #[test]
    fn builder_output_decodes_to_pushed_records(
        records in prop::collection::vec(
            (key_strategy(), prop::collection::vec(f64_strategy(), 1..16)),
            1..8
        )
    ) {
        let mut builder = DatagramBuilder::new(MAX_DATAGRAM_LEN);
        let mut pushed = Vec::new();
        for (key, values) in &records {
            if builder.push(key, values) {
                pushed.push(Record { key: key.clone(), values: values.clone() });
            }
        }
        prop_assert_eq!(builder.records() as usize, pushed.len());
        if let Some(bytes) = builder.finish() {
            prop_assert!(bytes.len() <= MAX_DATAGRAM_LEN);
            let back = decode_datagram(&bytes).unwrap();
            prop_assert!(same_records(&pushed, &back));
            // The builder resets after finish.
            prop_assert!(builder.is_empty());
        } else {
            prop_assert!(pushed.is_empty());
        }
    }

    #[test]
    fn builder_respects_tight_budgets(
        budget in 32usize..256,
        records in prop::collection::vec(
            (key_strategy(), prop::collection::vec(f64_strategy(), 0..8)),
            1..16
        )
    ) {
        // Fill-a-packet loop under a small budget: every shipped datagram
        // obeys the cap and decodes; every record either ships or was
        // declined (never silently mangled).
        let mut builder = DatagramBuilder::new(budget);
        let floor = builder.finish().map(|b| b.len()).unwrap_or(0);
        prop_assert_eq!(floor, 0, "empty builder must not emit");
        let mut shipped = 0usize;
        for (key, values) in &records {
            if !builder.push(key, values) {
                if let Some(bytes) = builder.finish() {
                    prop_assert!(bytes.len() <= budget);
                    shipped += decode_datagram(&bytes).unwrap().len();
                }
                // Retry into the fresh builder; a decline now means the
                // record alone exceeds the budget.
                if builder.push(key, values) {
                    // accepted on retry
                } else {
                    continue;
                }
            }
        }
        if let Some(bytes) = builder.finish() {
            shipped += decode_datagram(&bytes).unwrap().len();
        }
        prop_assert!(shipped <= records.len());
    }
}

#[test]
fn corrupt_crc_is_typed_with_both_values() {
    let records = vec![Record { key: "k".into(), values: vec![1.0, 2.0] }];
    let mut bytes = encode_datagram(&records);
    let crc_at = bytes.len() - CHECKSUM_LEN;
    let stored = u32::from_le_bytes(bytes[crc_at..].try_into().unwrap()) ^ 0xDEAD_BEEF;
    bytes[crc_at..].copy_from_slice(&stored.to_le_bytes());
    match decode_datagram(&bytes) {
        Err(DatagramError::ChecksumMismatch { stored: s, computed }) => {
            assert_eq!(s, stored);
            assert_ne!(s, computed);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}
