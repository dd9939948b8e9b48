//! The codec's safety contract, proved once on the cursor: whatever the
//! bytes and whatever the calls, a [`Reader`] never panics, never reads
//! past its slice, never moves backwards, and never hands out a count
//! the remaining bytes cannot back. Every format module in the workspace
//! touches input only through a `Reader`, so this is the
//! typed-error-never-panic proof for all four of them; their own suites
//! cover what is specific to each layout.

use proptest::prelude::*;
use qc_common::codec::{crc32, CodecError, Reader, Writer, CHECKSUM_LEN};

/// One `Reader` call, with its size argument where it takes one.
#[derive(Clone, Debug)]
enum Op {
    U8,
    U16,
    U32,
    U64,
    F64,
    Varint,
    Count(usize),
    Bytes(usize),
    U64s(usize),
    LenPrefixed,
    Str,
    Rest,
    Header,
    SplitCrc,
    /// Descend into a nested frame of this many bytes.
    Sub(usize),
    /// `finish()` the current cursor and return to its parent.
    Finish,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..16, prop_oneof![0usize..12, 0usize..80, any::<usize>()]).prop_map(
        |(which, n)| match which {
            0 => Op::U8,
            1 => Op::U16,
            2 => Op::U32,
            3 => Op::U64,
            4 => Op::F64,
            5 => Op::Varint,
            6 => Op::Count(n),
            7 => Op::Bytes(n),
            8 => Op::U64s(n),
            9 => Op::LenPrefixed,
            10 => Op::Str,
            11 => Op::Rest,
            12 => Op::Header,
            13 => Op::SplitCrc,
            14 => Op::Sub(n),
            _ => Op::Finish,
        },
    )
}

/// Inputs worth reading: pure noise, and noise dressed as a valid
/// envelope (magic, version, flags, plausible varints, correct CRC) so
/// the success paths run as often as the error paths.
fn input_strategy() -> impl Strategy<Value = Vec<u8>> {
    let noise = || prop::collection::vec(any::<u8>(), 0..96);
    prop_oneof![
        noise(),
        (noise(), prop::collection::vec(0u64..200, 0..8)).prop_map(|(tail, varints)| {
            let mut out = Vec::new();
            let mut w = Writer::new(&mut out);
            let from = w.pos();
            w.header(*b"PROP", 1);
            for v in varints {
                w.varint(v);
            }
            w.bytes(&tail);
            w.finish_with_crc(from);
            out
        }),
    ]
}

/// A returned slice must be a window of the input, not memory beside it.
fn inside(outer: &[u8], inner: &[u8]) -> bool {
    let (lo, hi) = (outer.as_ptr() as usize, outer.as_ptr() as usize + outer.len());
    let at = inner.as_ptr() as usize;
    inner.is_empty() || (lo <= at && at + inner.len() <= hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn reader_is_total_bounded_and_monotone(
        input in input_strategy(),
        ops in prop::collection::vec(op_strategy(), 0..40),
    ) {
        let mut cur = Reader::new(&input);
        let mut parents: Vec<Reader<'_>> = Vec::new();
        for op in ops {
            let before = cur.offset();
            match op {
                Op::U8 => drop(cur.u8()),
                Op::U16 => drop(cur.u16_le()),
                Op::U32 => drop(cur.u32_le()),
                Op::U64 => drop(cur.u64_le()),
                Op::F64 => drop(cur.f64_le()),
                Op::Varint => drop(cur.varint()),
                Op::Count(min) => {
                    if let Ok(n) = cur.count(min) {
                        // The allocation guard: what it admits, the
                        // remaining bytes can actually hold.
                        let need = (n as u128) * (min.max(1) as u128);
                        prop_assert!(need <= cur.remaining() as u128, "count {n} x {min}");
                    }
                }
                Op::Bytes(n) => {
                    if let Ok(slice) = cur.bytes(n) {
                        prop_assert_eq!(slice.len(), n);
                        prop_assert!(inside(&input, slice));
                    }
                }
                Op::U64s(n) => {
                    if let Ok(values) = cur.u64s_le(n) {
                        prop_assert_eq!(values.count(), n);
                    }
                }
                Op::LenPrefixed => {
                    if let Ok(slice) = cur.len_prefixed_bytes() {
                        prop_assert!(inside(&input, slice));
                    }
                }
                Op::Str => {
                    if let Ok(s) = cur.str() {
                        prop_assert!(inside(&input, s.as_bytes()));
                    }
                }
                Op::Rest => {
                    prop_assert!(inside(&input, cur.rest()));
                    prop_assert_eq!(cur.remaining(), 0);
                }
                Op::Header => drop(cur.expect_header(*b"PROP", 1..=2)),
                Op::SplitCrc => {
                    let had = cur.remaining();
                    match cur.split_crc_trailer() {
                        Ok(()) => prop_assert_eq!(cur.remaining(), had - CHECKSUM_LEN),
                        Err(_) => prop_assert_eq!(cur.remaining(), had),
                    }
                }
                Op::Sub(n) => {
                    if let Ok(child) = cur.sub(n) {
                        prop_assert_eq!(child.offset(), before, "a child starts where its parent stood");
                        prop_assert_eq!(child.remaining(), n);
                        parents.push(std::mem::replace(&mut cur, child));
                        continue;
                    }
                }
                Op::Finish => {
                    let Some(parent) = parents.pop() else { continue };
                    let child = std::mem::replace(&mut cur, parent);
                    let left = child.remaining();
                    prop_assert_eq!(child.finish().is_ok(), left == 0);
                    continue;
                }
            }
            // The position only grows, and never passes the input's end.
            prop_assert!(cur.offset() >= before, "{op:?} moved backwards");
            prop_assert!(cur.offset() + cur.remaining() <= input.len(), "{op:?} ran past the slice");
        }
    }

    #[test]
    fn what_a_writer_writes_a_reader_reads(
        version in 1u16..=3,
        a in any::<u8>(),
        b in any::<u16>(),
        c in any::<u32>(),
        d in any::<u64>(),
        bits in any::<u64>(),
        varints in prop::collection::vec(any::<u64>(), 0..6),
        blob in prop::collection::vec(any::<u8>(), 0..40),
        text in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        let text = String::from_utf8_lossy(&text).into_owned();
        let mut out = vec![0xee; 3]; // the Writer appends; it owns nothing
        let mut w = Writer::new(&mut out);
        let from = w.pos();
        w.header(*b"PROP", version);
        w.u8(a);
        w.u16_le(b);
        w.u32_le(c);
        w.u64_le(d);
        w.f64_le(f64::from_bits(bits));
        w.varint(varints.len() as u64);
        for &v in &varints {
            w.varint(v);
        }
        w.frame(|w| {
            w.len_prefixed_bytes(&blob);
            w.str(&text);
        });
        w.finish_with_crc(from);

        let message = &out[3..];
        let mut r = Reader::new(message);
        prop_assert_eq!(r.expect_header(*b"PROP", 1..=3), Ok(version));
        prop_assert_eq!(r.split_crc_trailer(), Ok(()));
        prop_assert_eq!((r.u8(), r.u16_le(), r.u32_le(), r.u64_le()), (Ok(a), Ok(b), Ok(c), Ok(d)));
        prop_assert_eq!(r.f64_le().map(f64::to_bits), Ok(bits));
        let n = r.count(1).unwrap();
        let back: Result<Vec<u64>, CodecError> = (0..n).map(|_| r.varint()).collect();
        prop_assert_eq!(back, Ok(varints));
        let len = r.u32_le().unwrap() as usize;
        let mut body = r.sub(len + CHECKSUM_LEN).unwrap();
        prop_assert_eq!(body.split_crc_trailer(), Ok(()));
        prop_assert_eq!(body.len_prefixed_bytes(), Ok(&blob[..]));
        prop_assert_eq!(body.str(), Ok(&text[..]));
        prop_assert_eq!(body.finish(), Ok(()));
        prop_assert_eq!(r.finish(), Ok(()));

        // Every proper prefix fails the envelope — typed, never a panic.
        for cut in 0..message.len() {
            let mut r = Reader::new(&message[..cut]);
            let opened = r.expect_header(*b"PROP", 1..=3).and_then(|_| r.split_crc_trailer());
            prop_assert!(opened.is_err(), "prefix of {cut} bytes passed the CRC");
        }
        // And the trailer is the plain CRC-32 of what precedes it.
        let (covered, trailer) = message.split_at(message.len() - CHECKSUM_LEN);
        prop_assert_eq!(crc32(covered).to_le_bytes(), trailer);
    }
}
