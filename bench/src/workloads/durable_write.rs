//! `durable_write` — the WAL on the blocking path.
//!
//! Durable server (`data_dir` under `bench/scratch/`, `FsyncPolicy::Off` —
//! stated, the same on both sides of any comparison; see `sut::FSYNC` for
//! why). Two **closed-loop** TCP connections issue `update_many`
//! of 64 values over 32 keys, a batch size at which WAL encode + append
//! (ROADMAP item 4a) is a large share of server CPU; the 5 s sweep
//! checkpoints under load. Every 64th operation reads back the key just
//! written (`query`, a read-cache miss), so the workload has a read
//! latency and its answers are checked.
//!
//! **Set-up is the recovery scenario**: a fresh directory, sweep off,
//! exactly [`PRELOAD_RECORDS`] `update_many(64)` records, graceful stop,
//! restart; `recovery_s` is spawn → first `stats` reply, and the restored
//! `stream_len` must be exact. The measured phase then runs on the
//! recovered store. `persist` does most of the work; `ingest`, `window`
//! and the read cache do next to none.

use std::time::Instant;

use qc_server::proto::encode_update_many;
use qc_server::{Client, Request, Response};

use crate::gen::{key_name, sub_seed, Values, PHIS};
use crate::oracle::{judge, Ask, Question, Scope};
use crate::sut::{fresh_dir, Sut, SutOptions};
use crate::workload::{
    closed_loop, drive, Class, Context, Drive, Gate, Mix, Plan, Recorder, Stage,
};

const KEYS: usize = 32;
const BATCH: usize = 64;
/// Records written, stopped on, and recovered in set-up.
pub const PRELOAD_RECORDS: usize = 24_000;
const QUERY_EVERY: u64 = 64;
const TRACKED: [usize; 4] = [0, 1, 2, 3];

fn keys() -> Vec<String> {
    (0..KEYS).map(|i| key_name("wal", i)).collect()
}

/// Key of a connection's `i`-th write: the two connections walk the same
/// 32 keys half a lap apart, so both hold leases on every key.
fn key_of(thread: usize, i: u64) -> usize {
    (i as usize + thread * KEYS / 2) % KEYS
}

/// Ask every tracked key every quantile.
fn ask_tracked(client: &mut Client, keys: &[String]) -> Result<Vec<Question>, String> {
    let mut out = Vec::new();
    for &k in &TRACKED {
        for phi in PHIS {
            let answer = client.query(&keys[k], phi).map_err(|e| format!("query: {e}"))?;
            out.push(Question { scope: Scope::key(k), ask: Ask::Quantile(phi), answer });
        }
    }
    Ok(out)
}

/// Write, stop, recover: returns the stage around the recovered server.
pub fn setup(ctx: &Context) -> Result<Stage, String> {
    let keys = keys();
    let dir = fresh_dir(&ctx.scratch, "durable_write").map_err(|e| format!("scratch dir: {e}"))?;
    let durable = SutOptions { data_dir: Some(dir), ..SutOptions::default() };
    let first = Sut::spawn(&SutOptions { no_sweep: true, ..durable.clone() })
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stage = Stage::new(first);
    stage.preload(|t, client, sent| {
        let mut values = Values::new(sub_seed(ctx.seed, 20 + t as u64));
        let mut buf = [0.0; BATCH];
        for i in 0..(PRELOAD_RECORDS / 2) as u64 {
            let k = key_of(t, i);
            values.fill(k, 0.0, &mut buf);
            client.update_many(&keys[k], &buf).map_err(|e| e.to_string())?;
            if TRACKED.contains(&k) {
                sent.record(k, 0, &buf);
            }
        }
        Ok(())
    })?;
    let expected = (PRELOAD_RECORDS * BATCH) as u64;
    stage.tcp_values_acked = expected;

    let mut client = stage.client()?;
    let mut asked = ask_tracked(&mut client, &keys)?;
    drop(client);
    // Graceful stop syncs the log tail; there is no checkpoint (sweep
    // off), so the restart replays every record from the log.
    let Stage { sut, sent, tcp_values_acked, .. } = stage;
    sut.stop().map_err(|e| format!("stop: {e}"))?;

    let spawned = Instant::now();
    let recovered = Sut::spawn(&durable).map_err(|e| format!("respawn: {e}"))?;
    let mut stage = Stage { sent, tcp_values_acked, ..Stage::new(recovered) };
    let mut client = stage.client()?;
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    stage.recovery_s = Some(spawned.elapsed().as_secs_f64());
    // Replay rebuilds each sketch from the log in LSN order, not in the
    // interleaving the two live connections produced, so answers agree
    // within the sketch's error, not bit for bit: both sides of the
    // restart are judged against the same exact oracle.
    asked.extend(ask_tracked(&mut client, &keys)?);
    let mut across_restart = Gate::accuracy(&judge(&stage.sent, &asked));
    across_restart.name = "recovery_answers_within_gate";
    stage.setup_gates = vec![
        Gate::equal(
            "recovery_stream_len",
            "stream_len after restart vs values acked",
            stats.stream_len,
            expected,
        ),
        across_restart,
    ];
    Ok(stage)
}

/// One drive, then the exact-count gates.
pub fn run(ctx: &Context, stage: &mut Stage, plan: Plan) -> Result<(Drive, Vec<Gate>), String> {
    let keys = keys();
    let tcp = stage.sut.tcp;
    let lane = 200 + stage.drives * 10;
    let load = |t: usize| {
        let mut mix = Writes {
            keys: &keys,
            thread: t,
            values: Values::new(sub_seed(ctx.seed, lane + t as u64)),
            buf: [0.0; BATCH],
            writes: 0,
        };
        Box::new(move |rec: &mut Recorder| closed_loop(rec, tcp, t, &mut mix))
    };
    let drive = drive(stage, plan, load(0), load(1))?;
    stage.tcp_values_acked += drive.count("values_acked");
    let stats = stage.client()?.stats().map_err(|e| format!("stats: {e}"))?;
    let gates = vec![Gate::equal(
        "acked_values_applied",
        "stream_len vs values acked (recovered + since)",
        stats.stream_len,
        stage.tcp_values_acked,
    )];
    Ok((drive, gates))
}

/// One load thread's generator state.
struct Writes<'a> {
    keys: &'a [String],
    thread: usize,
    values: Values,
    buf: [f64; BATCH],
    /// Writes issued so far.
    writes: u64,
}

/// A request in flight.
enum Asked {
    /// A read-back of key `k` at quantile `phi`.
    Query { k: usize, phi: f64 },
    /// A write to key `k`; the values, when the key is tracked.
    Write { k: usize, logged: Option<Vec<f64>> },
}

impl Mix for Writes<'_> {
    type Pending = Asked;

    fn issue(&mut self, i: u64) -> (Vec<u8>, Asked) {
        if i % QUERY_EVERY == QUERY_EVERY - 1 {
            // Read back the key written last.
            let k = key_of(self.thread, self.writes.saturating_sub(1));
            let phi = PHIS[(i / QUERY_EVERY % 3) as usize];
            let request = Request::Query { key: self.keys[k].clone(), phi };
            return (request.encode(), Asked::Query { k, phi });
        }
        let k = key_of(self.thread, self.writes);
        self.writes += 1;
        self.values.fill(k, 0.0, &mut self.buf);
        let body = encode_update_many(&self.keys[k], &self.buf);
        (body, Asked::Write { k, logged: TRACKED.contains(&k).then(|| self.buf.to_vec()) })
    }

    fn settle(
        &mut self,
        rec: &mut Recorder,
        asked: Asked,
        response: Response,
    ) -> Result<Class, String> {
        match (asked, response) {
            // Every key holds values in [k, k+1): anything else is wrong.
            (Asked::Query { k, phi }, Response::MaybeValue(Some(x)))
                if (k as f64..k as f64 + 1.0).contains(&x) =>
            {
                if TRACKED.contains(&k) {
                    rec.questions.push(Question {
                        scope: Scope::key(k),
                        ask: Ask::Quantile(phi),
                        answer: Some(x),
                    });
                }
                Ok(Class::Query)
            }
            (Asked::Write { k, logged }, Response::Ok) => {
                rec.count("values_acked", BATCH as u64);
                if let Some(values) = logged {
                    rec.sent.record(k, 0, &values);
                }
                Ok(Class::Write)
            }
            (Asked::Query { k, .. }, other) => Err(format!("query {}: {other:?}", self.keys[k])),
            (Asked::Write { k, .. }, other) => {
                Err(format!("update_many {}: {other:?}", self.keys[k]))
            }
        }
    }
}

/// The preloaded shape, in process, for the replay.
pub fn replay_store() -> qc_store::SketchStore {
    super::filled(qc_store::StoreConfig::default(), &keys(), PRELOAD_RECORDS * BATCH / KEYS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_connections_walk_every_key_half_a_lap_apart() {
        for t in 0..2 {
            let seen: std::collections::BTreeSet<usize> =
                (0..KEYS as u64).map(|i| key_of(t, i)).collect();
            assert_eq!(seen.len(), KEYS);
        }
        assert_eq!(key_of(1, 0), KEYS / 2);
        assert_eq!(PRELOAD_RECORDS % (2 * KEYS), 0, "every key gets the same share of the preload");
    }
}
