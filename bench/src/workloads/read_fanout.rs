//! `read_fanout` — the paper's query-throughput axis.
//!
//! Memory-only, unwindowed server preloaded with 1024 keys × 8192 values.
//! Two **closed-loop** TCP connections run a fixed mix by operation index:
//! 70 % `query`, 10 % `rank` and 5 % `merged_query` over 16 keys on
//! Zipf-skewed keys; 10 % `snapshot_summary` (the summary wire-encoded out
//! and decoded client-side) walking the key space, as a replica pulling
//! every key would; and 5 % `update_many(32)` to the key just read — which
//! invalidates that key's cached summary, so the versioned read cache hits
//! about 96 % of the time and the server, `proto` and the socket path
//! dominate. A WAL or window change must not move this workload; a
//! merge-kernel change moves only its merged slice and its misses.
//!
//! Snapshots do not follow the Zipf because a snapshot of one of the few
//! hottest keys outgrows the server's 8 KiB write buffer, its reply then
//! waits ~40 ms for a delayed ACK (accepted sockets lack `TCP_NODELAY`),
//! and with Zipf snapshots those stalls — a kernel timer, and how often
//! the seed drew a hot key — were the workload's throughput.

use qc_common::summary::Summary;
use qc_server::proto::encode_update_many;
use qc_server::{Request, Response};
use qc_store::decode_summary;

use crate::gen::{key_name, sub_seed, Values, ZipfKeys, PHIS};
use crate::oracle::{Ask, Question, Scope};
use crate::sut::{Sut, SutOptions};
use crate::workload::{
    closed_loop, drive, Class, Context, Drive, Gate, Mix, Plan, Recorder, Stage,
};

const KEYS: usize = 1024;
/// Values per key before the measured phase (past the 4096-update
/// promotion threshold: every key has been hot once).
pub const PRELOAD_VALUES: usize = 8192;
const WRITE_VALUES: usize = 32;
const MERGE_KEYS: usize = 16;
/// The hot head, whose every value is logged for the accuracy gate.
const TRACKED: usize = 16;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Query,
    Rank,
    Snapshot,
    Merged,
    Write,
}

/// The mix, by operation index modulo 20: 14 query, 2 rank, 2 snapshot,
/// 1 merged, 1 write.
const PATTERN: [Op; 20] = {
    use Op::*;
    [
        Query, Query, Query, Rank, Query, Query, Query, Snapshot, Query, Query, Merged, Query,
        Query, Rank, Query, Query, Query, Snapshot, Query, Write,
    ]
};

fn keys() -> Vec<String> {
    (0..KEYS).map(|i| key_name("fan", i)).collect()
}

/// Spawn the server and preload every key.
pub fn setup(ctx: &Context) -> Result<Stage, String> {
    let keys = keys();
    let sut = Sut::spawn(&SutOptions::default()).map_err(|e| format!("spawn: {e}"))?;
    let mut stage = Stage::new(sut);
    stage.preload(|t, client, sent| {
        let mut values = Values::new(sub_seed(ctx.seed, 40 + t as u64));
        let mut buf = vec![0.0; PRELOAD_VALUES];
        for k in (t..KEYS).step_by(2) {
            values.fill(k, 0.0, &mut buf);
            client.update_many(&keys[k], &buf).map_err(|e| e.to_string())?;
            if k < TRACKED {
                sent.record(k, 0, &buf);
            }
        }
        Ok(())
    })?;
    stage.tcp_values_acked = (KEYS * PRELOAD_VALUES) as u64;
    Ok(stage)
}

/// One drive, then the exact-count gate.
pub fn run(ctx: &Context, stage: &mut Stage, plan: Plan) -> Result<(Drive, Vec<Gate>), String> {
    let keys = keys();
    let tcp = stage.sut.tcp;
    let lane = 400 + stage.drives * 10;
    let load = |t: usize| {
        let seed = sub_seed(ctx.seed, lane + t as u64);
        let mut mix = Fanout {
            keys: &keys,
            zipf: ZipfKeys::new(KEYS, seed),
            values: Values::new(sub_seed(seed, 1)),
            last_key: 0,
            thread: t,
            swept: 0,
        };
        Box::new(move |rec: &mut Recorder| closed_loop(rec, tcp, t, &mut mix))
    };
    let drive = drive(stage, plan, load(0), load(1))?;
    stage.tcp_values_acked += drive.count("values_acked");
    let stats = stage.client()?.stats().map_err(|e| format!("stats: {e}"))?;
    let gates = vec![Gate::equal(
        "acked_values_applied",
        "stream_len vs values acked",
        stats.stream_len,
        stage.tcp_values_acked,
    )];
    Ok((drive, gates))
}

/// One load thread's generator state.
struct Fanout<'a> {
    keys: &'a [String],
    zipf: ZipfKeys,
    values: Values,
    last_key: usize,
    thread: usize,
    /// Snapshots issued so far.
    swept: usize,
}

/// A request in flight: what was asked, of which key.
struct Asked {
    k: usize,
    /// Whether a right answer is sampled for the accuracy gate.
    sample: bool,
    what: What,
}

enum What {
    Query(f64),
    Rank(f64),
    Snapshot,
    Merged,
    Write(Vec<f64>),
}

impl Mix for Fanout<'_> {
    type Pending = Asked;

    fn issue(&mut self, i: u64) -> (Vec<u8>, Asked) {
        let op = PATTERN[(i % 20) as usize];
        let k = match op {
            // The write goes to the key just read.
            Op::Write => self.last_key,
            // Snapshots walk the key space, as a replica pulling every
            // key's summary would.
            Op::Snapshot => {
                self.swept += 1;
                (self.swept * 2 + self.thread) % KEYS
            }
            _ => self.zipf.next_key(),
        };
        self.last_key = k;
        let key = self.keys[k].clone();
        let phi = PHIS[(i % 3) as usize];
        let (body, what) = match op {
            Op::Query => (Request::Query { key, phi }.encode(), What::Query(phi)),
            Op::Rank => {
                let probe = k as f64 + 0.25 + 0.5 * (i % 7) as f64 / 7.0;
                (Request::Rank { key, value: probe }.encode(), What::Rank(probe))
            }
            Op::Snapshot => (Request::Snapshot { key }.encode(), What::Snapshot),
            Op::Merged => {
                let mut keys = vec![key];
                keys.extend((1..MERGE_KEYS).map(|_| self.keys[self.zipf.next_key()].clone()));
                (Request::MergedQuery { keys, phi }.encode(), What::Merged)
            }
            Op::Write => {
                let values = self.values.take(k, WRITE_VALUES);
                (encode_update_many(&key, &values), What::Write(values))
            }
        };
        let sample = k < TRACKED && (op != Op::Query || i.is_multiple_of(4));
        (body, Asked { k, sample, what })
    }

    fn settle(
        &mut self,
        rec: &mut Recorder,
        asked: Asked,
        response: Response,
    ) -> Result<Class, String> {
        let Asked { k, sample, what } = asked;
        let mut judge_later = |ask, answer| {
            if sample {
                rec.questions.push(Question { scope: Scope::key(k), ask, answer: Some(answer) });
            }
        };
        // Every key holds values in [k, k+1): anything else is wrong.
        let in_key = |x: f64| (k as f64..k as f64 + 1.0).contains(&x);
        match (what, response) {
            (What::Query(phi), Response::MaybeValue(Some(x))) if in_key(x) => {
                judge_later(Ask::Quantile(phi), x);
                Ok(Class::Query)
            }
            (What::Rank(probe), Response::MaybeValue(Some(r))) if (0.0..=1.0).contains(&r) => {
                judge_later(Ask::Rank(probe), r);
                Ok(Class::Rank)
            }
            (What::Snapshot, Response::MaybeFrame(Some(frame))) => match decode_summary(&frame) {
                // A key's summary never weighs less than its preload.
                Ok(summary) if summary.stream_len() >= PRELOAD_VALUES as u64 => Ok(Class::Snapshot),
                other => {
                    Err(format!("snapshot {}: {:?}", self.keys[k], other.map(|s| s.stream_len())))
                }
            },
            (What::Merged, Response::MaybeValue(Some(x))) if (0.0..KEYS as f64).contains(&x) => {
                Ok(Class::Merged)
            }
            (What::Write(values), Response::Ok) => {
                rec.count("values_acked", WRITE_VALUES as u64);
                if k < TRACKED {
                    rec.sent.record(k, 0, &values);
                }
                Ok(Class::Write)
            }
            (_, other) => Err(format!("{}: {other:?}", self.keys[k])),
        }
    }
}

/// The preloaded shape, in process, for the replay.
pub fn replay_store() -> qc_store::SketchStore {
    super::filled(qc_store::StoreConfig::default(), &keys(), PRELOAD_VALUES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_70_10_10_5_5() {
        let count = |op: Op| PATTERN.iter().filter(|&&p| p == op).count();
        assert_eq!(
            (
                count(Op::Query),
                count(Op::Rank),
                count(Op::Snapshot),
                count(Op::Merged),
                count(Op::Write)
            ),
            (14, 2, 2, 1, 1)
        );
        // The write follows a read, whose key it then invalidates.
        assert!(PATTERN[19] == Op::Write && PATTERN[18] == Op::Query);
    }
}
