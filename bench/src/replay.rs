//! In-process replay: the bytes a traced run sent, fed through the same
//! layers the server runs them through, with a span at every boundary the
//! public API exposes —
//! `replay.request ⊃ {proto.decode, store.<op>, proto.encode}` and
//! `replay.datagram ⊃ {datagram.decode, store.update_many}`.
//!
//! The out-of-process trace sees the server as one `client.wait`; the
//! replay splits that wait into codec and store time, so self time is
//! defined for each layer. It is single-threaded and socket-free by
//! construction: it prices the layers, not their contention.

use std::time::{Duration, Instant};

use qc_ingest::decode_datagram;
use qc_server::{Request, Response};
use qc_store::SketchStore;

use crate::trace::{self_times, Captured, Span, Tracer};

/// Mirror of the server's request dispatch (`qc_server::server::execute`
/// is private), minus connection leases: one request, one store call.
/// Only what the workloads send is mirrored; `Err` names anything else.
fn execute(store: &SketchStore, request: Request) -> Result<(&'static str, Response), String> {
    Ok(match request {
        Request::UpdateMany { key, values } => {
            store.update_many(&key, &values);
            ("store.update_many", Response::Ok)
        }
        Request::UpdateAt { key, ts, values } => {
            store.update_at(&key, ts, &values);
            ("store.update_at", Response::Ok)
        }
        Request::Query { key, phi } => {
            ("store.query", Response::MaybeValue(store.query(&key, phi)))
        }
        Request::Rank { key, value } => {
            ("store.rank", Response::MaybeValue(store.rank(&key, value)))
        }
        Request::MergedQuery { keys, phi } => {
            ("store.merged_query", Response::MaybeValue(store.merged_query(&keys, phi)))
        }
        Request::QueryRange { key, t0, t1, phi } => {
            ("store.query_range", Response::MaybeValue(store.query_range(&key, t0, t1, phi)))
        }
        Request::MergedQueryRange { keys, t0, t1, phi } => (
            "store.merged_query_range",
            Response::MaybeValue(store.merged_query_range(&keys, t0, t1, phi)),
        ),
        Request::Snapshot { key } => {
            ("store.snapshot", Response::MaybeFrame(store.snapshot_bytes(&key)))
        }
        other => return Err(format!("replay: no workload sends {}", other.op_label())),
    })
}

/// What a replay measured: mean self time per replayed message, by layer.
pub struct Replayed {
    /// Messages replayed.
    pub messages: usize,
    /// Mean codec-in time (`proto.decode` + `datagram.decode`), ns.
    pub decode_ns: f64,
    /// Mean store time (every `store.*` span), ns.
    pub store_ns: f64,
    /// Mean codec-out time (`proto.encode`), ns.
    pub encode_ns: f64,
    /// The spans, for the trace file.
    pub spans: Vec<Span>,
}

/// Replay `captured` against `store` (already holding the workload's
/// preloaded shape) until it is exhausted or `budget` has passed.
pub fn run(
    store: &SketchStore,
    captured: &[Captured],
    budget: Duration,
) -> Result<Replayed, String> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, true);
    let mut messages = 0usize;
    for (rid, message) in captured.iter().enumerate() {
        if epoch.elapsed() > budget {
            break;
        }
        let start = tracer.stamp();
        match message {
            Captured::Request(body) => {
                let request = Request::decode(body).map_err(|e| format!("replay decode: {e}"))?;
                let decoded = tracer.stamp();
                let (store_call, response) = execute(store, request)?;
                let executed = tracer.stamp();
                std::hint::black_box(response.encode());
                let cuts = [start, decoded, executed, tracer.stamp()];
                let names = ["proto.decode", store_call, "proto.encode"];
                tracer.push_chain("replay.request", &names, &cuts, rid as u64);
            }
            Captured::Datagram(bytes) => {
                let records = decode_datagram(bytes).map_err(|e| format!("replay decode: {e}"))?;
                let decoded = tracer.stamp();
                for record in &records {
                    store.update_many(&record.key, &record.values);
                }
                let cuts = [start, decoded, tracer.stamp()];
                tracer.push_chain(
                    "replay.datagram",
                    &["datagram.decode", "store.update_many"],
                    &cuts,
                    rid as u64,
                );
            }
        }
        messages += 1;
    }
    let (spans, _) = tracer.finish();
    let (mut decode, mut store_ns, mut encode) = (0u64, 0u64, 0u64);
    for (name, t) in self_times(&spans) {
        match name {
            "proto.decode" | "datagram.decode" => decode += t.self_ns,
            "proto.encode" => encode += t.self_ns,
            name if name.starts_with("store.") => store_ns += t.self_ns,
            _ => {}
        }
    }
    let per = |total: u64| total as f64 / messages.max(1) as f64;
    Ok(Replayed {
        messages,
        decode_ns: per(decode),
        store_ns: per(store_ns),
        encode_ns: per(encode),
        spans,
    })
}
