//! Golden bytes for the ingest datagram format (`QCDG`), versions 1 and
//! 2: the encoders must produce exactly these packets and the decoder
//! must read them back bit-exactly (NaN payload included), so a codec
//! refactor cannot move a byte unnoticed.

use qc_ingest::datagram::{
    decode_datagram, encode_datagram, encode_datagram_seq, peek_seq, DatagramBuilder, Record,
};

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

/// A quiet NaN with a payload — must cross the wire bit for bit.
const NAN_BITS: u64 = 0x7ff8_0000_dead_beef;

fn records() -> Vec<Record> {
    vec![
        Record { key: "lat.api".into(), values: vec![1.5, f64::from_bits(NAN_BITS), -0.0] },
        Record { key: "π".into(), values: vec![3.25] },
    ]
}

fn bits(records: &[Record]) -> Vec<(String, Vec<u64>)> {
    records
        .iter()
        .map(|r| (r.key.clone(), r.values.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// magic, version 1, flags 0, count 2, two records, CRC-32.
const V1: &str = "51434447 0100 0000 02
    076c61742e617069 03 000000000000f83f efbeadde0000f87f 0000000000000080
    02cf80 01 0000000000000a40
    8c791f5a";

/// magic, version 2, flags 0, sequence 0x0102030405060708, count 2, the
/// same two records, CRC-32.
const V2: &str = "51434447 0200 0000 0807060504030201 02
    076c61742e617069 03 000000000000f83f efbeadde0000f87f 0000000000000080
    02cf80 01 0000000000000a40
    1e7f900d";

const SEQ: u64 = 0x0102_0304_0506_0708;

#[test]
fn v1_datagram_is_pinned_both_ways() {
    assert_eq!(hex(&encode_datagram(&records())), hex(&unhex(V1)));
    let mut builder = DatagramBuilder::new(512);
    for r in records() {
        assert!(builder.push(&r.key, &r.values));
    }
    assert_eq!(hex(&builder.finish().unwrap()), hex(&unhex(V1)));
    assert_eq!(peek_seq(&unhex(V1)), None);
    assert_eq!(bits(&decode_datagram(&unhex(V1)).unwrap()), bits(&records()));
}

#[test]
fn v2_datagram_is_pinned_both_ways() {
    assert_eq!(hex(&encode_datagram_seq(&records(), SEQ)), hex(&unhex(V2)));
    let mut builder = DatagramBuilder::with_seq(512, SEQ);
    for r in records() {
        assert!(builder.push(&r.key, &r.values));
    }
    assert_eq!(hex(&builder.finish().unwrap()), hex(&unhex(V2)));
    assert_eq!(peek_seq(&unhex(V2)), Some(SEQ));
    assert_eq!(bits(&decode_datagram(&unhex(V2)).unwrap()), bits(&records()));
}
