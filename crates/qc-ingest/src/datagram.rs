//! The ingest datagram format: one UDP packet = one CRC-checked batch of
//! `(key, values…)` records.
//!
//! The TCP protocol pays a round trip and two fds per connection; the
//! ingest path is fire-and-forget — a writer packs as many records as fit
//! into one datagram and sends it. Delivery is **at-most-once**: a
//! datagram is either applied whole (the CRC covers the entire packet) or
//! dropped whole and counted, never partially applied.
//!
//! # Layout (versions 1 and 2)
//!
//! Integers, varints, strings, the header and the CRC trailer follow
//! the shared conventions of [`qc_common::codec`]. Versions 1 and 2 are
//! one layout; the version field says whether the sequence number is
//! present.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"QCDG"
//! 4       2     version = 1 or 2       (u16 LE)
//! 6       2     flags   = 0            (u16 LE, reserved — must be zero)
//! 8       8     sequence number        (u64 LE — version 2 only)
//! ·       var   record count `n`       (varint)
//! ·             n records, each:
//!                 var  key length in bytes (varint)
//!                 ·    key (UTF-8)
//!                 var  value count `m`     (varint)
//!                 8*m  value bits          (f64::to_bits, u64 LE each)
//! end-4   4     CRC-32 (IEEE)          (u32 LE, over all preceding bytes)
//! ```
//!
//! Version 2 adds a per-sender sequence number directly after the fixed
//! header, so a receiver can attribute silent kernel-buffer drops to the
//! gap between consecutive datagrams from one peer — [`peek_seq`] reads
//! it in O(1) without decoding the body. Version 1 datagrams (no
//! sequence) still decode; senders opt in with
//! [`DatagramBuilder::with_seq`].
//!
//! Values travel as raw `f64` bit patterns (not deltas): ingest batches
//! are unsorted measurement streams, so there is no ordered-bit locality
//! to exploit, and fixed-width values keep the encoder allocation-free
//! per element. Decoding is total and panic-free: every length claim is
//! checked against the bytes actually present **before** any allocation,
//! so a hostile 4-byte datagram claiming 2^60 records costs nothing.

use qc_common::codec::{varint_len, Reader, Writer};

pub use qc_common::codec::{CHECKSUM_LEN, HEADER_LEN};

/// First four bytes of every ingest datagram.
pub const MAGIC: [u8; 4] = *b"QCDG";

/// The highest datagram version this module encodes and decodes.
pub const VERSION: u16 = 2;

/// Length of the version-2 sequence number field.
pub const SEQ_LEN: usize = 8;

/// Largest payload a UDP datagram can carry over IPv4 (65535 minus the
/// IP and UDP headers). The daemon's receive buffer is sized one byte
/// past its configured cap so kernel truncation is detectable.
pub const MAX_DATAGRAM_LEN: usize = 65507;

/// Smallest possible encoded record: a zero-length key (1-byte varint)
/// with zero values (1-byte varint). Used to bound hostile record-count
/// claims before any allocation.
pub const MIN_RECORD_LEN: usize = 2;

/// One `(key, values…)` record inside a datagram.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Store key the values belong to.
    pub key: String,
    /// Batch of observations (bit-exact through the wire, NaNs included).
    pub values: Vec<f64>,
}

/// Typed decode failures. The datagram layout has no failure kind of
/// its own — every malformed packet is one of the shared
/// [`qc_common::codec::CodecError`] kinds (a record count, key length or
/// value count the bytes cannot back is `Truncated`, rejected before any
/// allocation) — and decoding never panics, whatever the bytes.
pub type DatagramError = qc_common::codec::CodecError;

/// Incremental datagram assembly with a hard size budget.
///
/// Senders loop `push` until it declines, ship [`DatagramBuilder::finish`],
/// and keep pushing into the recycled builder — the classic fill-a-packet
/// loop. The budget accounts for the header, the worst-case record-count
/// varint, and the trailing CRC, so a finished datagram never exceeds
/// `max_len`.
#[derive(Debug)]
pub struct DatagramBuilder {
    body: Vec<u8>,
    records: u64,
    max_len: usize,
    /// `Some`: stamp each finished datagram with this sequence number and
    /// advance it (version-2 wire format); `None`: version 1, no sequence.
    seq: Option<u64>,
}

impl DatagramBuilder {
    /// A builder whose finished datagrams never exceed `max_len` bytes
    /// (clamped to at least one minimal record's worth of framing).
    pub fn new(max_len: usize) -> Self {
        let floor = HEADER_LEN + SEQ_LEN + 1 + MIN_RECORD_LEN + CHECKSUM_LEN;
        DatagramBuilder { body: Vec::new(), records: 0, max_len: max_len.max(floor), seq: None }
    }

    /// A sequence-numbered builder: each finished datagram carries the
    /// next consecutive sequence starting at `start_seq`, so the receiver
    /// can attribute drops. The 8-byte sequence field counts against the
    /// size budget.
    pub fn with_seq(max_len: usize, start_seq: u64) -> Self {
        let mut b = Self::new(max_len);
        b.seq = Some(start_seq);
        b
    }

    /// The sequence number the next finished datagram will carry
    /// (`None` for a version-1 builder).
    pub fn next_seq(&self) -> Option<u64> {
        self.seq
    }

    /// Number of records pushed since the last `finish`.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// True when nothing has been pushed since the last `finish`.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Bytes the datagram would occupy with `records` records in `body`
    /// bytes.
    fn framed_len(&self, records: u64, body: usize) -> usize {
        let seq = if self.seq.is_some() { SEQ_LEN } else { 0 };
        HEADER_LEN + seq + varint_len(records) + body + CHECKSUM_LEN
    }

    /// Bytes the datagram would occupy if finished now.
    fn encoded_len(&self) -> usize {
        self.framed_len(self.records, self.body.len())
    }

    /// Append one record if it fits in the remaining budget. Returns
    /// `false` (and leaves the builder unchanged) when it does not — the
    /// caller should `finish` the current datagram and push again. A
    /// record too large for an *empty* builder can never be sent; the
    /// caller sees `push` fail on a fresh builder and must split the
    /// batch.
    pub fn push(&mut self, key: &str, values: &[f64]) -> bool {
        let record_len = varint_len(key.len() as u64)
            + key.len()
            + varint_len(values.len() as u64)
            + 8 * values.len();
        if self.framed_len(self.records + 1, self.body.len() + record_len) > self.max_len {
            return false;
        }
        let mut w = Writer::new(&mut self.body);
        w.str(key);
        w.varint(values.len() as u64);
        for &v in values {
            w.f64_le(v);
        }
        self.records += 1;
        true
    }

    /// Seal the accumulated records into a wire datagram and reset the
    /// builder for reuse. `None` when nothing was pushed.
    pub fn finish(&mut self) -> Option<Vec<u8>> {
        (self.records > 0).then(|| self.seal())
    }

    /// The one datagram encoder: envelope (version 2 iff sequenced)
    /// around whatever was pushed — possibly nothing.
    fn seal(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        let mut w = Writer::new(&mut out);
        w.header(MAGIC, if self.seq.is_some() { 2 } else { 1 });
        if let Some(seq) = &mut self.seq {
            w.u64_le(*seq);
            *seq = seq.wrapping_add(1);
        }
        w.varint(self.records);
        w.bytes(&self.body);
        w.finish_with_crc(0);
        self.body.clear();
        self.records = 0;
        out
    }
}

/// Encode a record batch as one version-1 (unsequenced) datagram, without
/// a size budget. For tests, benches, and callers that bound their
/// batches themselves; senders packing to the wire limit want
/// [`DatagramBuilder`].
pub fn encode_datagram(records: &[Record]) -> Vec<u8> {
    encode_unbounded(records, None)
}

/// Encode a record batch as one version-2 datagram carrying `seq`.
pub fn encode_datagram_seq(records: &[Record], seq: u64) -> Vec<u8> {
    encode_unbounded(records, Some(seq))
}

fn encode_unbounded(records: &[Record], seq: Option<u64>) -> Vec<u8> {
    let mut builder = DatagramBuilder::new(usize::MAX);
    builder.seq = seq;
    for rec in records {
        let fits = builder.push(&rec.key, &rec.values);
        debug_assert!(fits, "an unbounded builder declines nothing");
    }
    builder.seal()
}

/// Decode one datagram. Total and panic-free: any byte sequence returns
/// either the exact record batch that was encoded or a typed
/// [`DatagramError`], and no allocation is sized from an unvalidated
/// claim.
pub fn decode_datagram(buf: &[u8]) -> Result<Vec<Record>, DatagramError> {
    let mut r = Reader::new(buf);
    let version = r.expect_header(MAGIC, 1..=VERSION)?;
    // CRC before structure: corruption anywhere in the packet surfaces as
    // one typed error instead of whichever parse step it happens to break.
    r.split_crc_trailer()?;
    if version >= 2 {
        r.u64_le()?; // sequence number: `peek_seq`'s business, not ours
    }
    // A record occupies at least MIN_RECORD_LEN bytes, so a count claim
    // larger than the remaining payload admits is hostile — reject before
    // reserving anything.
    let count = r.count(MIN_RECORD_LEN)?;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.str()?.to_owned();
        let n = r.count(8)?;
        let values = r.u64s_le(n)?.map(f64::from_bits).collect();
        records.push(Record { key, values });
    }
    r.finish()?;
    Ok(records)
}

/// Read a version-2 datagram's sequence number in O(1), without decoding
/// (or CRC-checking) the body. `None` for version-1 datagrams, short
/// buffers, or wrong magic — callers treat those as "no sequence", the
/// same as a legacy sender. Corrupt sequenced datagrams may still yield a
/// sequence here and then fail full decoding; the receiver counts them as
/// delivered-but-rejected, which is what drop attribution wants.
pub fn peek_seq(buf: &[u8]) -> Option<u64> {
    if buf.len() < HEADER_LEN + SEQ_LEN + CHECKSUM_LEN {
        return None;
    }
    let mut r = Reader::new(buf);
    if r.bytes(4).ok()? != MAGIC || r.u16_le().ok()? < 2 {
        return None;
    }
    r.u16_le().ok()?; // flags: full decoding's business
    r.u64_le().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_common::codec::{crc32, put_varint};

    #[test]
    fn roundtrip_basic() {
        let records = vec![
            Record { key: "latency.api".into(), values: vec![1.5, 2.5, f64::NAN, -0.0] },
            Record { key: String::new(), values: vec![] },
            Record { key: "π".into(), values: vec![3.25] },
        ];
        let bytes = encode_datagram(&records);
        let back = decode_datagram(&bytes).expect("roundtrip decodes");
        assert_eq!(back.len(), records.len());
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a.key, b.key);
            let a_bits: Vec<u64> = a.values.iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u64> = b.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits);
        }
    }

    #[test]
    fn builder_respects_budget_and_matches_free_encoding() {
        let mut builder = DatagramBuilder::new(256);
        let mut pushed = Vec::new();
        let values = [1.0f64, 2.0, 3.0];
        let mut i = 0;
        while builder.push(&format!("key-{i}"), &values) {
            pushed.push(Record { key: format!("key-{i}"), values: values.to_vec() });
            i += 1;
        }
        assert!(!pushed.is_empty(), "at least one record fits the budget");
        let bytes = builder.finish().expect("non-empty builder finishes");
        assert!(bytes.len() <= 256, "finished datagram within budget: {}", bytes.len());
        assert_eq!(bytes, encode_datagram(&pushed));
        assert!(builder.is_empty(), "finish resets the builder");
        assert!(builder.finish().is_none());
    }

    #[test]
    fn sequenced_builder_stamps_and_advances() {
        let mut builder = DatagramBuilder::with_seq(512, 41);
        assert_eq!(builder.next_seq(), Some(41));
        assert!(builder.push("k", &[1.0, 2.0]));
        let first = builder.finish().expect("finish");
        assert_eq!(peek_seq(&first), Some(41));
        assert_eq!(builder.next_seq(), Some(42));
        assert_eq!(
            first,
            encode_datagram_seq(&[Record { key: "k".into(), values: vec![1.0, 2.0] }], 41)
        );
        let back = decode_datagram(&first).expect("v2 decodes");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].key, "k");

        assert!(builder.push("k", &[3.0]));
        let second = builder.finish().expect("finish again");
        assert_eq!(peek_seq(&second), Some(42), "seq advances per datagram");
    }

    #[test]
    fn sequenced_builder_respects_budget() {
        let max = 256;
        let mut builder = DatagramBuilder::with_seq(max, 0);
        let values = [1.0f64, 2.0, 3.0];
        let mut i = 0;
        while builder.push(&format!("key-{i}"), &values) {
            i += 1;
        }
        assert!(i > 0);
        let bytes = builder.finish().expect("non-empty");
        assert!(bytes.len() <= max, "sequenced datagram within budget: {}", bytes.len());
    }

    #[test]
    fn peek_seq_is_none_for_v1_and_garbage() {
        let v1 = encode_datagram(&[Record { key: "k".into(), values: vec![1.0] }]);
        assert_eq!(peek_seq(&v1), None);
        assert_eq!(peek_seq(b"QCDG"), None);
        assert_eq!(peek_seq(b"nope-nope-nope-nope-nope"), None);
        assert_eq!(peek_seq(&[]), None);
    }

    #[test]
    fn v1_datagrams_still_decode() {
        // A frozen byte image of the v1 layout (legacy sender): decoding
        // must keep working even though the encoder has moved to v2.
        let records = [Record { key: "legacy".into(), values: vec![7.5] }];
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 6);
        buf.extend_from_slice(b"legacy");
        put_varint(&mut buf, 1);
        buf.extend_from_slice(&7.5f64.to_bits().to_le_bytes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        let back = decode_datagram(&buf).expect("v1 decodes");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], records[0]);
    }

    #[test]
    fn truncated_v2_header_is_typed() {
        let full = encode_datagram_seq(&[Record { key: "k".into(), values: vec![] }], 9);
        // Cut inside the sequence field: shorter than any valid v2 frame.
        let cut = &full[..HEADER_LEN + 3];
        assert!(matches!(decode_datagram(cut), Err(DatagramError::Truncated { .. })));
    }

    #[test]
    fn oversized_single_record_declines_on_fresh_builder() {
        let mut builder = DatagramBuilder::new(64);
        let values = vec![0.0f64; 64];
        assert!(!builder.push("k", &values));
        assert!(builder.is_empty());
    }

    #[test]
    fn hostile_record_count_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        put_varint(&mut buf, u64::MAX >> 1); // absurd record count
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        match decode_datagram(&buf) {
            Err(DatagramError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_crc_is_typed() {
        let mut bytes = encode_datagram(&[Record { key: "k".into(), values: vec![1.0] }]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(decode_datagram(&bytes), Err(DatagramError::ChecksumMismatch { .. })));
    }
}
