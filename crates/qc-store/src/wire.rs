//! Versioned, endian-stable binary encoding of [`WeightedSummary`].
//!
//! This is the interchange seam of the workspace: any process can snapshot a
//! sketch, move the bytes over a socket or a file, and another process can
//! [`merge`](crate::merge) the decoded summary into its own aggregate. The
//! paper's sketch is an in-process object; mergeable *serialized* summaries
//! are what make it deployable across processes (Agarwal et al., *Mergeable
//! Summaries*).
//!
//! # Layout (version 1)
//!
//! Integers, varints, the header and the CRC trailer follow the shared
//! conventions of [`qc_common::codec`].
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"QCWS"
//! 4       2     version = 1            (u16 LE)
//! 6       2     flags   = 0            (u16 LE, reserved — must be zero)
//! 8       var   item count `n`         (varint)
//! ·       var   n value deltas         (varint; first is absolute, the
//!                                       rest are gaps between consecutive
//!                                       sorted `value_bits`)
//! ·       var   n weights              (varint, each ≥ 1)
//! end-4   4     CRC-32 (IEEE)          (u32 LE, over all preceding bytes)
//! ```
//!
//! Delta-coding the sorted value bits keeps snapshots compact (consecutive
//! summary points are near each other in ordered-bit space), and the trailing
//! CRC turns random corruption into a typed [`WireError`] instead of a
//! garbage summary. Decoding never panics on arbitrary input — every
//! arithmetic step is checked.

use qc_common::codec::{Reader, Writer};
use qc_common::summary::{WeightedItem, WeightedSummary};

pub use qc_common::codec::{crc32, get_varint, put_varint, CodecError, CHECKSUM_LEN, HEADER_LEN};

/// First four bytes of every encoded summary.
pub const MAGIC: [u8; 4] = *b"QCWS";

/// The wire version this module encodes (and the highest it decodes).
pub const VERSION: u16 = 1;

/// Typed decode failures. Every malformed input maps to one of these —
/// decoding must never panic, whatever the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// A failure kind every format shares: truncation, bad magic,
    /// version skew, reserved flags, checksum mismatch, malformed
    /// varint, trailing bytes.
    Codec(CodecError),
    /// Accumulated value bits overflowed `u64` (corrupt delta stream).
    ValueOverflow {
        /// Index of the offending item.
        index: usize,
    },
    /// An item with weight zero (v1 forbids them).
    ZeroWeight {
        /// Index of the offending item.
        index: usize,
    },
    /// Total weight overflowed `u64` (corrupt weight stream).
    WeightOverflow,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Codec(e) => e.fmt(f),
            WireError::ValueOverflow { index } => {
                write!(f, "value bits overflow at item {index}")
            }
            WireError::ZeroWeight { index } => write!(f, "zero weight at item {index}"),
            WireError::WeightOverflow => write!(f, "total weight overflows u64"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

/// Encode a summary into a fresh byte frame.
pub fn encode_summary(summary: &WeightedSummary) -> Vec<u8> {
    let items = summary.items();
    // Items are sorted; deltas are small, so ~2 bytes/varint is typical.
    let mut out = Vec::with_capacity(HEADER_LEN + CHECKSUM_LEN + 4 + items.len() * 4);
    let mut w = Writer::new(&mut out);
    w.header(MAGIC, VERSION);
    w.varint(items.len() as u64);
    let mut prev = 0u64;
    for item in items {
        // The first delta is the absolute value (gap from zero).
        w.varint(item.value_bits - prev);
        prev = item.value_bits;
    }
    for item in items {
        w.varint(item.weight);
    }
    w.finish_with_crc(0);
    out
}

/// Decode a frame produced by [`encode_summary`] (any supported version).
///
/// The whole buffer must be exactly one frame; surplus bytes are a
/// [`CodecError::TrailingBytes`] so framing bugs surface loudly.
pub fn decode_summary(buf: &[u8]) -> Result<WeightedSummary, WireError> {
    let mut r = Reader::new(buf);
    r.expect_header(MAGIC, 1..=VERSION)?;
    // Validate the checksum before trusting any payload varint.
    r.split_crc_trailer()?;
    // A delta and a weight are at least one byte each: rejects absurd
    // counts before any allocation.
    let count = r.count(2)?;
    let mut items = Vec::with_capacity(count);
    let mut acc = 0u64;
    for index in 0..count {
        acc = acc.checked_add(r.varint()?).ok_or(WireError::ValueOverflow { index })?;
        items.push(WeightedItem { value_bits: acc, weight: 0 });
    }
    let mut total = 0u64;
    for (index, item) in items.iter_mut().enumerate() {
        item.weight = r.varint()?;
        if item.weight == 0 {
            return Err(WireError::ZeroWeight { index });
        }
        total = total.checked_add(item.weight).ok_or(WireError::WeightOverflow)?;
    }
    r.finish()?;
    Ok(WeightedSummary::from_items(items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_common::summary::Summary;

    fn sample_summary() -> WeightedSummary {
        WeightedSummary::from_items(vec![
            WeightedItem { value_bits: 3, weight: 1 },
            WeightedItem { value_bits: 90, weight: 4 },
            WeightedItem { value_bits: 91, weight: 2 },
            WeightedItem { value_bits: u64::MAX, weight: 8 },
        ])
    }

    #[test]
    fn roundtrip_preserves_items_and_queries() {
        let s = sample_summary();
        let bytes = encode_summary(&s);
        let back = decode_summary(&bytes).unwrap();
        assert_eq!(back.items(), s.items());
        assert_eq!(back.stream_len(), s.stream_len());
        for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(back.quantile_bits(phi), s.quantile_bits(phi));
        }
    }

    #[test]
    fn empty_summary_roundtrips() {
        let bytes = encode_summary(&WeightedSummary::empty());
        assert_eq!(bytes.len(), HEADER_LEN + 1 + CHECKSUM_LEN);
        let back = decode_summary(&bytes).unwrap();
        assert_eq!(back.stream_len(), 0);
        assert_eq!(back.num_retained(), 0);
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = encode_summary(&sample_summary());
        for len in 0..bytes.len() {
            let err = decode_summary(&bytes[..len]).unwrap_err();
            match err {
                WireError::Codec(
                    CodecError::Truncated { .. }
                    | CodecError::ChecksumMismatch { .. }
                    | CodecError::MalformedVarint { .. },
                ) => {}
                other => panic!("unexpected error at len {len}: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = encode_summary(&sample_summary());
        bytes[0] = b'X';
        assert!(matches!(
            decode_summary(&bytes),
            Err(WireError::Codec(CodecError::BadMagic { .. }))
        ));
    }

    #[test]
    fn version_skew_detected() {
        let mut bytes = encode_summary(&sample_summary());
        bytes[4] = 0x2a;
        // Header edits must also fail the CRC unless re-signed; re-sign to
        // test the version check in isolation.
        let body_end = bytes.len() - CHECKSUM_LEN;
        let crc = crc32(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_summary(&bytes),
            Err(WireError::Codec(CodecError::UnsupportedVersion {
                found: 0x2a,
                supported: VERSION
            }))
        );
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut bytes = encode_summary(&sample_summary());
        let mid = HEADER_LEN + 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            decode_summary(&bytes),
            Err(WireError::Codec(CodecError::ChecksumMismatch { .. }))
        ));
    }

    #[test]
    fn zero_weight_rejected() {
        // Hand-build a frame with a zero weight and a valid CRC.
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&VERSION.to_le_bytes());
        f.extend_from_slice(&0u16.to_le_bytes());
        put_varint(&mut f, 1); // one item
        put_varint(&mut f, 7); // value
        put_varint(&mut f, 0); // weight 0 — invalid
        let crc = crc32(&f);
        f.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_summary(&f), Err(WireError::ZeroWeight { index: 0 }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&VERSION.to_le_bytes());
        f.extend_from_slice(&0u16.to_le_bytes());
        put_varint(&mut f, 0); // zero items
        f.push(0x00); // stray payload byte
        let crc = crc32(&f);
        f.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_summary(&f),
            Err(WireError::Codec(CodecError::TrailingBytes { extra: 1 }))
        );
    }

    #[test]
    fn absurd_count_with_valid_crc_is_typed_not_panic() {
        // A frame whose count varint claims u64::MAX items but whose CRC is
        // valid (the checksum is unkeyed, so anyone can compute it) must
        // come back as Truncated — including in debug builds, where naive
        // size arithmetic would overflow-panic.
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC);
        f.extend_from_slice(&VERSION.to_le_bytes());
        f.extend_from_slice(&0u16.to_le_bytes());
        put_varint(&mut f, u64::MAX);
        let crc = crc32(&f);
        f.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_summary(&f), Err(WireError::Codec(CodecError::Truncated { .. }))));
    }

    #[test]
    fn delta_coding_is_compact_for_clustered_values() {
        let items: Vec<WeightedItem> =
            (0..1000).map(|i| WeightedItem { value_bits: 1_000_000 + i * 3, weight: 1 }).collect();
        let s = WeightedSummary::from_items(items);
        let bytes = encode_summary(&s);
        // 1 byte per delta + 1 per weight + small header/first-value cost.
        assert!(bytes.len() < 1000 * 2 + 32, "frame unexpectedly large: {}", bytes.len());
    }
}
