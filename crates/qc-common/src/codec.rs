//! The one binary codec: a bounds-checked [`Reader`] / [`Writer`] cursor
//! pair, one [`CodecError`], and the one [`crc32`].
//!
//! Four byte formats travel through this workspace — summary frames
//! (`qc_store::wire`), WAL segments and checkpoints
//! (`qc_store::persist`), TCP request/response bodies
//! (`qc_server::proto`) and UDP ingest datagrams
//! (`qc_ingest::datagram`). Their layout tables live in those modules;
//! the conventions they share are stated here, once:
//!
//! * **Integers** are little-endian. `f64`s travel as their IEEE-754 bit
//!   pattern in a `u64`, so NaN payloads and signed zeros survive.
//! * **Varints** are LEB128: 7 bits per byte, low group first, high bit
//!   set on every byte but the last, at most [`MAX_VARINT_LEN`] bytes for
//!   a `u64` (the tenth byte may carry only the final bit).
//! * **Strings and byte blobs** are a varint length followed by that many
//!   bytes; strings must be UTF-8.
//! * **Header**: `magic [u8; 4] ‖ version u16 ‖ flags u16`, [`HEADER_LEN`]
//!   bytes. Flags are reserved and must be zero; the version must be one
//!   the reading build supports.
//! * **Checksum**: CRC-32/IEEE (the zlib/PNG polynomial, reflected,
//!   init and xorout `0xFFFF_FFFF`) stored as a trailing `u32`. Readers
//!   verify it *before* trusting any length or count inside the covered
//!   bytes ([`Reader::split_crc_trailer`]).
//! * **Validate before allocate**: every declared length or count is
//!   checked against the bytes actually present before anything is
//!   reserved for it ([`Reader::count`]) — a 4-byte input claiming 2^60
//!   elements costs nothing.
//!
//! Decoding is **total**: any byte sequence and any sequence of `Reader`
//! calls yields `Ok` or a typed [`CodecError`], never a panic and never
//! a read past the slice. That property is proved once, on the cursor
//! (`tests/codec_proptests.rs`); the format modules inherit it by
//! touching input bytes only through a `Reader`.

use std::ops::RangeInclusive;

/// Fixed header length in bytes (magic + version + flags).
pub const HEADER_LEN: usize = 8;

/// Trailing checksum length in bytes.
pub const CHECKSUM_LEN: usize = 4;

/// Longest LEB128 encoding of a `u64`.
pub const MAX_VARINT_LEN: usize = 10;

/// The failure kinds every format shares. Format-specific errors wrap
/// this via `From`, so decoders propagate it with `?`.
///
/// Offsets count from the start of the outermost buffer the [`Reader`]
/// chain was opened on (a [`Reader::sub`] cursor keeps its parent's
/// origin), so a WAL error names a position in the file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ends before a field, or a declared length/count claims
    /// more bytes than are present (rejected before any allocation).
    Truncated {
        /// Byte offset of the field or claim.
        offset: usize,
        /// Bytes it needs (saturated for absurd claims).
        needed: usize,
        /// Bytes actually available there.
        have: usize,
    },
    /// The first four bytes are not the expected magic.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// A header version this build does not read.
    UnsupportedVersion {
        /// Version in the header.
        found: u16,
        /// Newest version this build reads.
        supported: u16,
    },
    /// Reserved header flag bits were set.
    ReservedFlags {
        /// The flag word found.
        found: u16,
    },
    /// The trailing CRC-32 does not match the bytes it covers.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
    /// A varint ran past 64 bits or past the end of the input.
    MalformedVarint {
        /// Byte offset of the varint's first byte.
        offset: usize,
    },
    /// A string was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the string's first content byte.
        offset: usize,
    },
    /// A well-formed message followed by unexpected extra bytes.
    TrailingBytes {
        /// Number of surplus bytes.
        extra: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { offset, needed, have } => {
                write!(f, "truncated at byte {offset}: need {needed} bytes, have {have}")
            }
            CodecError::BadMagic { found } => write!(f, "bad magic {found:02x?}"),
            CodecError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported format version {found} (newest supported: {supported})")
            }
            CodecError::ReservedFlags { found } => {
                write!(f, "reserved flag bits set: {found:#06x}")
            }
            CodecError::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            CodecError::MalformedVarint { offset } => {
                write!(f, "malformed varint at byte {offset}")
            }
            CodecError::BadUtf8 { offset } => write!(f, "invalid UTF-8 at byte {offset}"),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// One step of the reflected CRC-32/IEEE shift register.
const fn crc_step(crc: u32) -> u32 {
    (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg())
}

/// Slice-by-8 tables: `CRC_TABLES[k][b]` is the register after byte `b`
/// followed by `k` zero bytes, so eight input bytes fold in one round of
/// eight independent lookups instead of 64 dependent shift-xor steps.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = crc_step(crc);
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the same
/// checksum zlib and PNG use, and the only one in this workspace.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Append a LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read a LEB128 varint starting at `*pos`, advancing `*pos` past it.
/// Rejects encodings longer than a `u64` and never reads past `buf`.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut r = Reader { buf, pos: (*pos).min(buf.len()), base: 0 };
    let value = r.varint();
    *pos = r.pos;
    value
}

/// Encoded length of `v` as a varint, without encoding it.
#[inline]
pub const fn varint_len(v: u64) -> usize {
    // ⌈significant bits / 7⌉, with zero taking one byte like one does.
    ((70 - (v | 1).leading_zeros()) / 7) as usize
}

/// A bounds-checked read cursor over a byte slice.
///
/// Every accessor either consumes exactly the bytes it returns or fails
/// with a typed [`CodecError`]; the position never moves backwards and
/// never passes the end of the slice.
///
/// The fixed-width accessors are `#[inline(always)]`: inside a large
/// decoder LLVM otherwise outlines some of them, and a call that returns
/// `Result<_, CodecError>` through memory costs more than the read itself
/// (`proto.decode_query_ns` +12 % with plain `#[inline]`).
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Offset of `buf[0]` in the outermost buffer, for error reporting.
    base: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0, base: 0 }
    }

    /// Offset of the next unread byte, from the outermost buffer's start.
    #[inline(always)]
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes left to read.
    #[inline(always)]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[cold]
    fn truncated(&self, needed: usize) -> CodecError {
        CodecError::Truncated { offset: self.offset(), needed, have: self.remaining() }
    }

    /// The next `n` bytes.
    #[inline(always)]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(self.truncated(n));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Everything left, consumed.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    #[inline(always)]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) returns N bytes"))
    }

    /// One byte.
    #[inline(always)]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    #[inline(always)]
    pub fn u16_le(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    #[inline(always)]
    pub fn u32_le(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    #[inline(always)]
    pub fn u64_le(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` from its little-endian bit pattern.
    #[inline(always)]
    pub fn f64_le(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64_le()?))
    }

    /// `n` little-endian `u64`s, bounds-checked once up front. Pair with
    /// [`Reader::count`]`(8)` so `n` is validated before the caller
    /// collects.
    #[inline]
    pub fn u64s_le(&mut self, n: usize) -> Result<impl Iterator<Item = u64> + 'a, CodecError> {
        let Some(len) = n.checked_mul(8) else { return Err(self.truncated(usize::MAX)) };
        Ok(self
            .bytes(len)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"))))
    }

    /// A LEB128 varint.
    #[inline(always)]
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        // Lengths and counts are mostly below 128: one byte, decided inline.
        match self.buf.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(byte as u64)
            }
            _ => self.varint_multibyte(),
        }
    }

    fn varint_multibyte(&mut self) -> Result<u64, CodecError> {
        let start = self.offset();
        let mut value = 0u64;
        let mut shift = 0;
        while shift < 64 {
            let Some(&byte) = self.buf.get(self.pos) else { break };
            self.pos += 1;
            let group = (byte & 0x7f) as u64;
            // The tenth byte of a u64 varint may only carry the final bit.
            if shift == 63 && group > 1 {
                break;
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
        Err(CodecError::MalformedVarint { offset: start })
    }

    /// A declared element count, validated against the bytes left on the
    /// assumption that each element occupies at least `min_element_bytes`.
    /// This is the allocation guard: no `Vec::with_capacity(count)` may
    /// happen before it.
    #[inline]
    pub fn count(&mut self, min_element_bytes: usize) -> Result<usize, CodecError> {
        let offset = self.offset();
        let raw = self.varint()?;
        let have = self.remaining();
        match raw.checked_mul(min_element_bytes.max(1) as u64) {
            // `raw <= need <= have`, so it fits a usize.
            Some(need) if need <= have as u64 => Ok(raw as usize),
            need => {
                let needed = need.and_then(|n| usize::try_from(n).ok()).unwrap_or(usize::MAX);
                Err(CodecError::Truncated { offset, needed, have })
            }
        }
    }

    /// A varint length followed by that many bytes.
    #[inline]
    pub fn len_prefixed_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.count(1)?;
        self.bytes(len)
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.count(1)?;
        let offset = self.offset();
        std::str::from_utf8(self.bytes(len)?).map_err(|_| CodecError::BadUtf8 { offset })
    }

    /// Split off a cursor over the next `n` bytes (a nested frame). It
    /// reports offsets from this cursor's origin.
    #[inline]
    pub fn sub(&mut self, n: usize) -> Result<Reader<'a>, CodecError> {
        let base = self.offset();
        Ok(Reader { buf: self.bytes(n)?, pos: 0, base })
    }

    /// Read and validate the 8-byte header: `magic`, a version inside
    /// `supported`, zero flags. Returns the version.
    pub fn expect_header(
        &mut self,
        magic: [u8; 4],
        supported: RangeInclusive<u16>,
    ) -> Result<u16, CodecError> {
        if self.remaining() < HEADER_LEN {
            return Err(self.truncated(HEADER_LEN));
        }
        let found: [u8; 4] = self.array()?;
        if found != magic {
            return Err(CodecError::BadMagic { found });
        }
        let version = self.u16_le()?;
        if !supported.contains(&version) {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: *supported.end(),
            });
        }
        let flags = self.u16_le()?;
        if flags != 0 {
            return Err(CodecError::ReservedFlags { found: flags });
        }
        Ok(version)
    }

    /// Verify the CRC-32 in the last four bytes against everything before
    /// it in this cursor's slice (read or not — a header already consumed
    /// is still covered), then strip the trailer so [`Reader::finish`]
    /// and [`Reader::rest`] see only the payload.
    pub fn split_crc_trailer(&mut self) -> Result<(), CodecError> {
        if self.remaining() < CHECKSUM_LEN {
            return Err(self.truncated(CHECKSUM_LEN));
        }
        let (body, trailer) = self.buf.split_at(self.buf.len() - CHECKSUM_LEN);
        let stored = u32::from_le_bytes(trailer.try_into().expect("split_at(len - 4)"));
        let computed = crc32(body);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        self.buf = body;
        Ok(())
    }

    /// The message is over: any unread byte is an error.
    #[inline(always)]
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }
}

/// An append cursor over a caller-owned buffer: the mirror image of
/// [`Reader`]. Encoders take the `Vec` from their caller, so a hot path
/// can reuse one allocation across messages.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Append to `out` (existing contents are kept).
    #[inline]
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Writer { out }
    }

    /// Current end of the buffer — pass it to
    /// [`Writer::finish_with_crc`] to mark where the checksummed region
    /// began.
    #[inline]
    pub fn pos(&self) -> usize {
        self.out.len()
    }

    /// Make room for `additional` more bytes (a batch about to be
    /// written element by element).
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.out.reserve(additional);
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16_le(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32_le(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64_le(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` as its little-endian bit pattern.
    #[inline]
    pub fn f64_le(&mut self, v: f64) {
        self.u64_le(v.to_bits());
    }

    /// A LEB128 varint.
    #[inline]
    pub fn varint(&mut self, v: u64) {
        put_varint(self.out, v);
    }

    /// Raw bytes, no length prefix.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// A varint length followed by the bytes.
    #[inline]
    pub fn len_prefixed_bytes(&mut self, bytes: &[u8]) {
        self.varint(bytes.len() as u64);
        self.bytes(bytes);
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.len_prefixed_bytes(s.as_bytes());
    }

    /// The 8-byte header: `magic`, `version`, zero flags.
    pub fn header(&mut self, magic: [u8; 4], version: u16) {
        self.bytes(&magic);
        self.u16_le(version);
        self.u16_le(0);
    }

    /// Append the CRC-32 of everything written since position `from`.
    pub fn finish_with_crc(&mut self, from: usize) {
        let crc = crc32(&self.out[from..]);
        self.u32_le(crc);
    }

    /// A length-prefixed, CRC-trailed frame: `u32 LE body length ‖ body ‖
    /// CRC-32(body)`, with the body written by `body` straight into this
    /// buffer and the length back-patched.
    ///
    /// # Panics
    /// If the body exceeds `u32::MAX` bytes.
    pub fn frame(&mut self, body: impl FnOnce(&mut Writer<'_>)) {
        let prefix = self.pos();
        self.u32_le(0);
        let start = self.pos();
        body(self);
        let len = u32::try_from(self.pos() - start).expect("frame body exceeds u32::MAX");
        self.out[prefix..start].copy_from_slice(&len.to_le_bytes());
        self.finish_with_crc(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The bitwise definition the table-driven [`crc32`] must equal.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = crc_step(crc);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xcbf43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_equals_the_bitwise_reference() {
        let mut rng = SplitMix64::new(0x5eed);
        let noise: Vec<u8> = (0..9000).map(|_| rng.next_u64() as u8).collect();
        // Every length through several slice-by-8 rounds plus a tail, at
        // every alignment of the start, then the ledger's record sizes.
        for len in 0..=64 {
            for start in 0..8 {
                let buf = &noise[start..start + len];
                assert_eq!(crc32(buf), crc32_reference(buf), "len {len} start {start}");
            }
        }
        for len in [270, 540, 2080, 9000] {
            assert_eq!(crc32(&noise[..len]), crc32_reference(&noise[..len]), "len {len}");
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX / 2, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        // 11 continuation bytes cannot encode a u64.
        let buf = [0xffu8; 11];
        let mut pos = 0;
        assert!(matches!(get_varint(&buf, &mut pos), Err(CodecError::MalformedVarint { .. })));
        // Ten bytes whose last carries more than the 64th bit.
        let mut buf = [0x80u8; 10];
        buf[9] = 0x02;
        assert_eq!(Reader::new(&buf).varint(), Err(CodecError::MalformedVarint { offset: 0 }));
    }

    #[test]
    fn varint_len_matches_put_varint_at_every_bit_width() {
        let mut buf = Vec::new();
        for bits in 0..=64u32 {
            let top = if bits == 0 { 0 } else { 1u64 << (bits - 1) };
            for v in [top, top.wrapping_sub(1), top | (top >> 1), (top << 1).wrapping_sub(1)] {
                buf.clear();
                put_varint(&mut buf, v);
                assert_eq!(varint_len(v), buf.len(), "v = {v:#x}");
                assert!(buf.len() <= MAX_VARINT_LEN);
            }
        }
    }

    #[test]
    fn frame_backpatches_length_and_appends_body_crc() {
        let mut out = vec![0xaa];
        let mut w = Writer::new(&mut out);
        w.frame(|w| {
            w.u8(7);
            w.str("key");
        });
        w.frame(|_| {});
        let mut r = Reader::new(&out[1..]);
        let len = r.u32_le().unwrap() as usize;
        assert_eq!(len, 5);
        let mut body = r.sub(len + CHECKSUM_LEN).unwrap();
        body.split_crc_trailer().unwrap();
        assert_eq!(body.offset(), 4, "sub cursors keep the parent's origin");
        assert_eq!((body.u8(), body.str()), (Ok(7), Ok("key")));
        body.finish().unwrap();
        assert_eq!(r.u32_le(), Ok(0));
        assert_eq!(r.u32_le(), Ok(crc32(b"")));
        r.finish().unwrap();
    }

    #[test]
    fn header_roundtrip_and_each_rejection() {
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        let from = w.pos();
        w.header(*b"TEST", 2);
        w.varint(300);
        w.finish_with_crc(from);

        let mut r = Reader::new(&out);
        assert_eq!(r.expect_header(*b"TEST", 1..=2), Ok(2));
        r.split_crc_trailer().unwrap();
        assert_eq!(r.varint(), Ok(300));
        r.finish().unwrap();

        let open = |bytes: &[u8], versions| Reader::new(bytes).expect_header(*b"TEST", versions);
        assert_eq!(
            open(&out, 1..=1),
            Err(CodecError::UnsupportedVersion { found: 2, supported: 1 })
        );
        assert_eq!(
            open(&out, 3..=4),
            Err(CodecError::UnsupportedVersion { found: 2, supported: 4 })
        );
        assert_eq!(
            open(&out[..7], 1..=2),
            Err(CodecError::Truncated { offset: 0, needed: HEADER_LEN, have: 7 })
        );
        let mut bad = out.clone();
        bad[0] = b'X';
        assert_eq!(open(&bad, 1..=2), Err(CodecError::BadMagic { found: *b"XEST" }));
        let mut flagged = out.clone();
        flagged[6] = 1;
        assert_eq!(open(&flagged, 1..=2), Err(CodecError::ReservedFlags { found: 1 }));
        let mut flipped = out.clone();
        flipped[8] ^= 1;
        let mut r = Reader::new(&flipped);
        r.expect_header(*b"TEST", 1..=2).unwrap();
        assert!(matches!(r.split_crc_trailer(), Err(CodecError::ChecksumMismatch { .. })));
    }

    #[test]
    fn count_rejects_claims_the_bytes_cannot_back() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.extend_from_slice(&[0; 16]);
        for min in [0, 1, 8, usize::MAX] {
            assert_eq!(
                Reader::new(&buf).count(min),
                Err(CodecError::Truncated { offset: 0, needed: usize::MAX, have: 16 })
            );
        }
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&buf).count(8), Ok(2));
        assert_eq!(
            Reader::new(&buf).count(9),
            Err(CodecError::Truncated { offset: 0, needed: 18, have: 16 })
        );
        let mut r = Reader::new(&buf);
        let n = r.count(8).unwrap();
        assert_eq!(r.u64s_le(n).unwrap().collect::<Vec<_>>(), vec![0, 0]);
        assert!(matches!(r.u64s_le(usize::MAX), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn bad_utf8_names_the_content_offset() {
        let mut buf = vec![9];
        Writer::new(&mut buf).len_prefixed_bytes(&[0xff, 0xfe]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(9));
        assert_eq!(r.str(), Err(CodecError::BadUtf8 { offset: 2 }));
    }
}
