//! Golden bytes for the serving protocol: every request and response
//! variant's frame body, pinned. The encoder must produce exactly these
//! bodies and the decoder must read them back, so a codec refactor
//! cannot move a byte unnoticed.

use qc_common::summary::{WeightedItem, WeightedSummary};
use qc_server::proto::{encode_update_many, ErrorCode, Request, Response};
use qc_server::MetricsSnapshot;
use qc_store::StoreStats;

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

fn keys() -> Vec<String> {
    vec!["a".into(), "bé".into()]
}

fn requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Update { key: "k".into(), value: 1.5 }, "01 016b 000000000000f83f"),
        (
            Request::UpdateMany { key: "lat".into(), values: vec![1.0, -2.5, 1e300] },
            "02 036c6174 03 000000000000f03f 00000000000004c0 9c7500883ce4377e",
        ),
        (Request::Query { key: "k".into(), phi: 0.5 }, "03 016b 000000000000e03f"),
        (Request::Rank { key: "k".into(), value: -0.0 }, "04 016b 0000000000000080"),
        (Request::MergedQuery { keys: keys(), phi: 0.99 }, "05 02 0161 0362c3a9 ae47e17a14aeef3f"),
        (Request::Stats, "06"),
        (Request::Remove { key: "k".into() }, "07 016b"),
        (Request::Keys, "08"),
        (Request::Snapshot { key: "k".into() }, "09 016b"),
        (Request::Ingest { key: "k".into(), frame: vec![1, 2, 3] }, "0a 016b 03010203"),
        (Request::Metrics, "0b"),
        (
            Request::UpdateAt { key: "k".into(), ts: 1_700_000_000_000, values: vec![2.0] },
            "0c 016b 80d095ffbc31 01 0000000000000040",
        ),
        (
            Request::QueryRange { key: "k".into(), t0: 0, t1: u64::MAX, phi: 0.5 },
            "0d 016b 00 ffffffffffffffffff01 000000000000e03f",
        ),
        (
            Request::MergedQueryRange { keys: keys(), t0: 60_000, t1: 120_000, phi: 0.99 },
            "0e 02 0161 0362c3a9 e0d403 c0a907 ae47e17a14aeef3f",
        ),
    ]
}

fn metrics() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![("a".into(), 0), ("requests".into(), u64::MAX)],
        gauges: vec![("balance".into(), -3), ("depth".into(), 300)],
        latencies: vec![(
            "req_seconds".into(),
            WeightedSummary::from_items(vec![
                WeightedItem { value_bits: 5, weight: 1 },
                WeightedItem { value_bits: 1000, weight: 2 },
            ]),
        )],
    }
}

fn responses() -> Vec<(Response, &'static str)> {
    let stats = StoreStats {
        keys: 3,
        stripes: 16,
        updates: 700,
        ingests: 2,
        ingest_errors: 1,
        stream_len: 650,
        bytes_out: 4096,
        bytes_in: 128,
        ..Default::default()
    };
    vec![
        (Response::Ok, "80"),
        (Response::MaybeValue(None), "8100"),
        (Response::MaybeValue(Some(42.0)), "8101 0000000000004540"),
        (Response::Count(u64::MAX), "82 ffffffffffffffffff01"),
        (Response::Flag(true), "8301"),
        (Response::Stats(stats), "84 03 10 bc05 02 01 8a05 8020 8001"),
        (Response::Keys(keys()), "85 02 0161 0362c3a9"),
        (Response::MaybeFrame(None), "8600"),
        (Response::MaybeFrame(Some(vec![9, 8, 7])), "8601 03090807"),
        (
            Response::Metrics(metrics()),
            "87 01
           02 0161 00 087265717565737473 ffffffffffffffffff01
           02 0762616c616e6365 05 056465707468 d804
           01 0b7265715f7365636f6e6473 12 51435753 0100 0000 02 05 e307 01 02 944b3d9e",
        ),
        (
            Response::Error { code: ErrorCode::Wire, message: "bad frame".into() },
            "8f 01 09626164206672616d65",
        ),
    ]
}

#[test]
fn every_request_body_is_pinned_both_ways() {
    for (req, fixture) in requests() {
        assert_eq!(hex(&req.encode()), hex(&unhex(fixture)), "{req:?}");
        assert_eq!(Request::decode(&unhex(fixture)).unwrap(), req);
    }
}

#[test]
fn every_response_body_is_pinned_both_ways() {
    for (resp, fixture) in responses() {
        assert_eq!(hex(&resp.encode()), hex(&unhex(fixture)), "{resp:?}");
        assert_eq!(Response::decode(&unhex(fixture)).unwrap(), resp);
    }
}

#[test]
fn borrowed_update_many_matches_the_pinned_body() {
    let (_, fixture) = &requests()[1];
    assert_eq!(hex(&encode_update_many("lat", &[1.0, -2.5, 1e300])), hex(&unhex(fixture)));
}
