//! Protocol property tests: every frame type round-trips bit-exactly
//! through encode/decode, and corrupted frames of every flavour —
//! truncation, bit flips, bad opcodes, oversized length prefixes, random
//! garbage — come back as typed [`ProtoError`]s. Never a panic, never an
//! allocation of attacker-controlled size.

use proptest::prelude::*;
use qc_common::summary::{WeightedItem, WeightedSummary};
use qc_server::proto::{
    read_frame, write_frame, CodecError, ProtoError, RecvError, Request, Response, METRICS_VERSION,
};
use qc_server::{ErrorCode, MetricsSnapshot};
use qc_store::StoreStats;

fn key_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..24).prop_map(|bytes| {
        // Arbitrary (possibly multi-byte) UTF-8 via lossy conversion.
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

fn f64_strategy() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        (key_strategy(), f64_strategy()).prop_map(|(key, value)| Request::Update { key, value }),
        (key_strategy(), prop::collection::vec(f64_strategy(), 0..64))
            .prop_map(|(key, values)| Request::UpdateMany { key, values }),
        (key_strategy(), f64_strategy()).prop_map(|(key, phi)| Request::Query { key, phi }),
        (key_strategy(), f64_strategy()).prop_map(|(key, value)| Request::Rank { key, value }),
        (prop::collection::vec(key_strategy(), 0..8), f64_strategy())
            .prop_map(|(keys, phi)| Request::MergedQuery { keys, phi }),
        Just(Request::Stats),
        key_strategy().prop_map(|key| Request::Remove { key }),
        Just(Request::Keys),
        key_strategy().prop_map(|key| Request::Snapshot { key }),
        (key_strategy(), prop::collection::vec(any::<u8>(), 0..128))
            .prop_map(|(key, frame)| Request::Ingest { key, frame }),
        Just(Request::Metrics),
        (key_strategy(), any::<u64>(), prop::collection::vec(f64_strategy(), 0..64))
            .prop_map(|(key, ts, values)| Request::UpdateAt { key, ts, values }),
        (key_strategy(), any::<u64>(), any::<u64>(), f64_strategy())
            .prop_map(|(key, t0, t1, phi)| Request::QueryRange { key, t0, t1, phi }),
        (prop::collection::vec(key_strategy(), 0..8), any::<u64>(), any::<u64>(), f64_strategy())
            .prop_map(|(keys, t0, t1, phi)| Request::MergedQueryRange { keys, t0, t1, phi }),
    ]
}

fn summary_strategy() -> impl Strategy<Value = WeightedSummary> {
    prop::collection::vec((any::<u64>(), 1u64..16), 0..64).prop_map(|items| {
        WeightedSummary::from_items(
            items
                .into_iter()
                .map(|(value_bits, weight)| WeightedItem { value_bits, weight })
                .collect(),
        )
    })
}

fn metrics_strategy() -> impl Strategy<Value = MetricsSnapshot> {
    (
        prop::collection::vec((key_strategy(), any::<u64>()), 0..6),
        prop::collection::vec((key_strategy(), any::<i64>()), 0..6),
        prop::collection::vec((key_strategy(), summary_strategy()), 0..3),
    )
        .prop_map(|(counters, gauges, latencies)| MetricsSnapshot {
            counters,
            gauges,
            latencies,
        })
}

fn stats_strategy() -> impl Strategy<Value = StoreStats> {
    ((any::<u32>(), any::<u32>()), (any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>()))
        .prop_map(|((keys, stripes), (updates, ingests), (stream_len, bytes))| StoreStats {
            keys: keys as usize,
            stripes: stripes as usize,
            updates,
            ingests,
            ingest_errors: ingests / 2,
            stream_len,
            bytes_out: bytes,
            bytes_in: bytes / 3,
            // Local-only tier fields never cross the wire; a round-trip
            // can only preserve them when they are zero.
            ..Default::default()
        })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        prop_oneof![Just(None), f64_strategy().prop_map(Some)].prop_map(Response::MaybeValue),
        any::<u64>().prop_map(Response::Count),
        any::<bool>().prop_map(Response::Flag),
        stats_strategy().prop_map(Response::Stats),
        prop::collection::vec(key_strategy(), 0..12).prop_map(Response::Keys),
        prop_oneof![Just(None), prop::collection::vec(any::<u8>(), 0..200).prop_map(Some)]
            .prop_map(Response::MaybeFrame),
        metrics_strategy().prop_map(Response::Metrics),
        (
            prop::sample::select(vec![ErrorCode::Wire, ErrorCode::Proto, ErrorCode::Unavailable]),
            key_strategy()
        )
            .prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

/// NaN-tolerant equality: identical re-encodings mean identical messages
/// (f64 payloads travel as raw bit patterns).
fn same_request(a: &Request, b: &Request) -> bool {
    a.encode() == b.encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrip_is_identity(req in request_strategy()) {
        let body = req.encode();
        let back = Request::decode(&body).unwrap();
        prop_assert!(same_request(&req, &back), "{req:?} != {back:?}");
    }

    #[test]
    fn response_roundtrip_is_identity(resp in response_strategy()) {
        let body = resp.encode();
        let back = Response::decode(&body).unwrap();
        prop_assert_eq!(back.encode(), body);
    }

    #[test]
    fn request_truncation_is_typed_never_panics(req in request_strategy(), cut in 0.0f64..1.0) {
        let body = req.encode();
        let len = (body.len() as f64 * cut) as usize;
        if len < body.len() {
            // Shorter prefixes of a valid message may themselves be valid
            // (e.g. UpdateMany cut at a value boundary) — then the decoder
            // must still have consumed exactly the prefix. Any typed error
            // is fine; panics are not.
            if let Ok(shorter) = Request::decode(&body[..len]) {
                prop_assert!(shorter.encode().len() == len);
            }
        }
    }

    #[test]
    fn response_truncation_is_typed_never_panics(resp in response_strategy(), cut in 0.0f64..1.0) {
        let body = resp.encode();
        let len = (body.len() as f64 * cut) as usize;
        if len < body.len() {
            if let Ok(shorter) = Response::decode(&body[..len]) {
                prop_assert!(shorter.encode().len() == len);
            }
        }
    }

    #[test]
    fn bit_flips_never_panic(req in request_strategy(), pos in 0.0f64..1.0, bit in 0u32..8) {
        let mut body = req.encode();
        let idx = ((body.len() - 1) as f64 * pos) as usize;
        body[idx] ^= 1 << bit;
        // A flip may still decode (e.g. a different float); it must never
        // panic, and on success must have consumed the whole body.
        if let Ok(back) = Request::decode(&body) {
            prop_assert_eq!(back.encode(), body);
        }
    }

    #[test]
    fn random_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn unknown_opcodes_are_typed(op in 0x0fu8..0x80, tail in prop::collection::vec(any::<u8>(), 0..16)) {
        let mut body = vec![op];
        body.extend_from_slice(&tail);
        prop_assert_eq!(Request::decode(&body), Err(ProtoError::UnknownOpcode { found: op }));
    }

    #[test]
    fn metrics_roundtrip_is_identity(snap in metrics_strategy()) {
        let resp = Response::Metrics(snap.clone());
        let body = resp.encode();
        match Response::decode(&body).unwrap() {
            Response::Metrics(back) => prop_assert_eq!(back, snap),
            other => prop_assert!(false, "wrong response kind: {other:?}"),
        }
    }

    #[test]
    fn metrics_truncation_is_typed_never_panics(snap in metrics_strategy(), cut in 0.0f64..1.0) {
        let body = Response::Metrics(snap).encode();
        let len = (body.len() as f64 * cut) as usize;
        if len < body.len() {
            // Unlike scalar frames, a truncated metrics body can never be
            // a valid shorter message when entries were dropped mid-list:
            // the decoder must consume exactly what it declared. Any typed
            // error is acceptable; panics and over-reads are not.
            if let Ok(shorter) = Response::decode(&body[..len]) {
                prop_assert!(shorter.encode().len() == len);
            }
        }
    }

    #[test]
    fn metrics_bit_flips_never_panic(snap in metrics_strategy(), pos in 0.0f64..1.0, bit in 0u32..8) {
        let mut body = Response::Metrics(snap).encode();
        let idx = ((body.len() - 1) as f64 * pos) as usize;
        body[idx] ^= 1 << bit;
        // Flips inside an embedded summary frame are caught by its CRC
        // (surfacing as BadSummary); flips elsewhere may still decode.
        // Either way: no panic, and on success the whole body was spoken
        // for.
        if let Ok(back) = Response::decode(&body) {
            prop_assert_eq!(back.encode(), body);
        }
    }

    #[test]
    fn metrics_absurd_counts_are_rejected_without_allocation(count in 1u64 << 20..u64::MAX) {
        // A metrics body declaring `count` counters but carrying none must
        // be rejected by the bounds check before any Vec::with_capacity.
        let mut body = vec![0x87u8, METRICS_VERSION];
        qc_store::wire::put_varint(&mut body, count);
        prop_assert!(matches!(
            Response::decode(&body),
            Err(ProtoError::Codec(CodecError::Truncated { .. }))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation(
        declared in 1024u32..u32::MAX,
        max in 1usize..1024,
    ) {
        // A frame header declaring `declared` bytes against cap `max` must
        // yield FrameTooLarge without ever allocating `declared` bytes —
        // the reader sees only the 4 header bytes, so any attempt to
        // allocate-and-fill would error on EOF instead; getting the typed
        // error proves the check fired first.
        let header = declared.to_le_bytes();
        let mut cursor = &header[..];
        match read_frame(&mut cursor, max) {
            Err(RecvError::Proto(ProtoError::FrameTooLarge { len, max: m })) => {
                prop_assert_eq!(len, declared as u64);
                prop_assert_eq!(m, max);
            }
            other => prop_assert!(false, "expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn absurd_counts_are_rejected_without_allocation(count in 1u64 << 20..u64::MAX) {
        // Hand-build an UpdateMany whose count claims up to u64::MAX
        // values but carries none. Must come back Truncated (checked
        // before Vec::with_capacity), not OOM or panic.
        let mut body = vec![0x02u8, 0x01, b'k']; // opcode + key "k"
        let mut count_bytes = Vec::new();
        qc_store::wire::put_varint(&mut count_bytes, count);
        body.extend_from_slice(&count_bytes);
        prop_assert!(matches!(
            Request::decode(&body),
            Err(ProtoError::Codec(CodecError::Truncated { .. }))
        ));
    }

    #[test]
    fn frame_io_roundtrips_through_a_buffer(reqs in prop::collection::vec(request_strategy(), 1..8)) {
        // Several frames back-to-back through one buffered stream.
        let mut wire = Vec::new();
        for req in &reqs {
            write_frame(&mut wire, &req.encode()).unwrap();
        }
        let mut cursor = &wire[..];
        for req in &reqs {
            let body = read_frame(&mut cursor, 1 << 20).unwrap().expect("frame present");
            let back = Request::decode(&body).unwrap();
            prop_assert!(same_request(req, &back));
        }
        prop_assert!(read_frame(&mut cursor, 1 << 20).unwrap().is_none(), "clean EOF after last frame");
    }
}

#[test]
fn snapshot_frames_survive_the_protocol_unchanged() {
    // The Ingest payload is the qc-store wire format verbatim: a frame
    // encoded by the store layer must pass through Request encoding and
    // back without a byte of difference.
    use qc_common::summary::{WeightedItem, WeightedSummary};
    let summary = WeightedSummary::from_items(
        (0..500).map(|i| WeightedItem { value_bits: i * 17, weight: 1 + (i % 5) }).collect(),
    );
    let frame = qc_store::wire::encode_summary(&summary);
    let req = Request::Ingest { key: "k".into(), frame: frame.clone() };
    match Request::decode(&req.encode()).unwrap() {
        Request::Ingest { frame: back, .. } => {
            assert_eq!(back, frame);
            let decoded = qc_store::wire::decode_summary(&back).unwrap();
            assert_eq!(decoded.items(), summary.items());
        }
        other => panic!("wrong request kind: {other:?}"),
    }
}
