//! Property tests for the wire format: arbitrary summaries round-trip
//! bit-exactly, and corrupted frames of every flavour (truncation, bad
//! magic, version skew, bit flips, garbage) come back as typed errors —
//! never a panic, never a silently-wrong summary.

use proptest::prelude::*;
use qc_common::summary::{Summary, WeightedItem, WeightedSummary};
use qc_store::wire::{
    crc32, decode_summary, encode_summary, CodecError, WireError, CHECKSUM_LEN, VERSION,
};

fn summary_strategy() -> impl Strategy<Value = WeightedSummary> {
    prop::collection::vec((any::<u64>(), 1u64..1 << 40), 0..300).prop_map(|items| {
        WeightedSummary::from_items(
            items.into_iter().map(|(v, w)| WeightedItem { value_bits: v, weight: w }).collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_is_identity(summary in summary_strategy()) {
        let bytes = encode_summary(&summary);
        let back = decode_summary(&bytes).unwrap();
        prop_assert_eq!(back.items(), summary.items());
        prop_assert_eq!(back.stream_len(), summary.stream_len());
        // Estimator behaviour is identical, not just the items.
        for phi in [0.0, 0.1, 0.5, 0.9, 1.0] {
            prop_assert_eq!(back.quantile_bits(phi), summary.quantile_bits(phi));
        }
    }

    #[test]
    fn truncation_never_panics_and_is_typed(
        summary in summary_strategy(),
        cut in 0.0f64..1.0,
    ) {
        let bytes = encode_summary(&summary);
        let len = (bytes.len() as f64 * cut) as usize;
        match decode_summary(&bytes[..len]) {
            Ok(_) => prop_assert!(len == bytes.len(), "short read decoded"),
            Err(WireError::Codec(
                CodecError::Truncated { .. }
                | CodecError::ChecksumMismatch { .. }
                | CodecError::MalformedVarint { .. },
            )) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected(summary in summary_strategy(), b0 in any::<u8>()) {
        prop_assume!(b0 != b'Q');
        let mut bytes = encode_summary(&summary);
        bytes[0] = b0;
        prop_assert_eq!(
            decode_summary(&bytes),
            Err(WireError::Codec(CodecError::BadMagic { found: [b0, b'C', b'W', b'S'] }))
        );
    }

    #[test]
    fn version_skew_is_rejected(summary in summary_strategy(), v in 2u16..u16::MAX) {
        let mut bytes = encode_summary(&summary);
        bytes[4..6].copy_from_slice(&v.to_le_bytes());
        // Re-sign so the version check (not the CRC) is what fires.
        let body_end = bytes.len() - CHECKSUM_LEN;
        let crc = crc32(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        prop_assert_eq!(
            decode_summary(&bytes),
            Err(WireError::Codec(CodecError::UnsupportedVersion { found: v, supported: VERSION }))
        );
    }

    #[test]
    fn single_bit_flips_are_caught(
        summary in summary_strategy(),
        pos in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut bytes = encode_summary(&summary);
        let idx = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[idx] ^= 1 << bit;
        // Whatever byte was hit — header, payload, or the CRC itself —
        // decode must fail (a flip cannot produce a consistent frame).
        prop_assert!(decode_summary(&bytes).is_err(), "bit flip at {idx} went unnoticed");
    }

    #[test]
    fn random_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        // Any outcome is fine except a panic; decoding random bytes that
        // happen to form a valid frame is astronomically unlikely but legal.
        let _ = decode_summary(&bytes);
    }

    #[test]
    fn encoding_is_deterministic(summary in summary_strategy()) {
        prop_assert_eq!(encode_summary(&summary), encode_summary(&summary));
    }
}
