//! `windowed_range` — time-range reads beside sealing writes.
//!
//! Memory-only server with time-windowed keys (1 s windows of
//! client-supplied event time, two downsample levels, one hour of
//! retention, 5 s of lateness). Set-up preloads 8 keys × 128 windows ×
//! 256 values through `update_at`. The two **closed-loop** load threads
//! then run a fixed mix by operation index: 45 % `query_range` over the
//! full settled span (120 windows, sliding with the clock), 45 %
//! `query_range` over the last 16 settled windows, 5 %
//! `merged_query_range` over all 8 keys (last 16 windows), and 5 %
//! `update_at` of 256 values. The event clock advances one window every
//! 8 writes — one per key, so every on-time write seals its key's window;
//! 5 % of writes are late within the lateness bound (merged into a sealed
//! window) and 1 % are beyond it — those must be dropped, and counted
//! exactly. A run makes several hundred seals, some fifty late merges and
//! some ten drops.
//!
//! This is ROADMAP item 4b (full-span range reads) and 4c
//! (`merge_summaries`): `window` and `merge` do most of the work. Reads
//! are four orders of magnitude dearer than writes, so a range cache that
//! taxes sealing shows up in `lat.write_p50_us`, not in `ops_per_s`.
//!
//! Reads cover only **settled** windows — at least [`SETTLE_WINDOWS`]
//! behind the clock, out of reach of any late write — so the exact oracle
//! over the generator's per-window log is exact, not approximate.

use std::sync::atomic::{AtomicU64, Ordering};

use qc_server::{Request, Response};

use crate::gen::{key_name, sub_seed, Values, PHIS};
use crate::oracle::{Ask, Question, Scope};
use crate::sut::{Sut, SutOptions, LATENESS_WINDOWS, WINDOW_MS};
use crate::workload::{
    closed_loop, counter, drive, Class, Context, Drive, Gate, Mix, Plan, Recorder, Stage,
};

const KEYS: usize = 8;
/// Sealed windows per key before the measured phase.
pub const PRELOAD_WINDOWS: u64 = 128;
/// Values per preloaded window and per measured write.
pub const WINDOW_VALUES: usize = 256;
/// The event clock advances one window every this many writes: one write
/// per key per window, like the preload.
const WRITES_PER_WINDOW: u64 = KEYS as u64;
/// Windows a full-span read covers: everything settled when the measured
/// phase starts, and as many ever after — the span slides with the clock,
/// so a read costs the same at the end of a run as at its start.
const FULL_WINDOWS: u64 = PRELOAD_WINDOWS - SETTLE_WINDOWS;
const RECENT_WINDOWS: u64 = 16;
/// Reads end this many windows behind the event clock: past the lateness
/// bound (5) plus the one window two racing writers can be apart, so no
/// write can land inside a span being read.
const SETTLE_WINDOWS: u64 = LATENESS_WINDOWS + 3;
/// How far behind the clock a beyond-lateness write aims: far past the
/// bound for every key, whichever key's watermark lags.
const BEYOND_LATENESS: u64 = 50;

// The latest window an admitted late write can target is two behind the
// clock, and a racing writer can be one window ahead: reads must end
// clear of both, drops must aim clear of every admissible window, and the
// first reads need preloaded history to cover.
const _: () = assert!(SETTLE_WINDOWS > LATENESS_WINDOWS + 1);
const _: () = assert!(BEYOND_LATENESS > LATENESS_WINDOWS + SETTLE_WINDOWS);
const _: () = assert!(FULL_WINDOWS > RECENT_WINDOWS);

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Full,
    Recent,
    Merged,
    Write,
}

/// The mix, by operation index modulo 20: 9 full-span, 9 recent, 1
/// merged, 1 write — fixed by index, so the mix is identical run to run.
const PATTERN: [Op; 20] = {
    use Op::*;
    [
        Full, Recent, Full, Recent, Full, Recent, Full, Recent, Full, Merged, Recent, Full, Recent,
        Full, Recent, Full, Recent, Full, Recent, Write,
    ]
};

fn keys() -> Vec<String> {
    (0..KEYS).map(|i| key_name("win", i)).collect()
}

/// Values drift with the window id, so a range's quantiles depend on
/// which windows it covers and a wrong-span answer fails the oracle.
fn drift(window: u64) -> f64 {
    (window % 128) as f64 / 256.0
}

/// Spawn the windowed server and preload every key's sealed history.
pub fn setup(ctx: &Context) -> Result<Stage, String> {
    let keys = keys();
    let sut = Sut::spawn(&SutOptions { windowed: true, ..SutOptions::default() })
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stage = Stage::new(sut);
    stage.preload(|t, client, sent| {
        let mut values = Values::new(sub_seed(ctx.seed, 30 + t as u64));
        let mut buf = [0.0; WINDOW_VALUES];
        for w in 0..PRELOAD_WINDOWS {
            for k in (t..KEYS).step_by(2) {
                values.fill(k, drift(w), &mut buf);
                client.update_at(&keys[k], w * WINDOW_MS, &buf).map_err(|e| e.to_string())?;
                sent.record(k, w, &buf);
            }
        }
        Ok(())
    })?;
    stage.tcp_values_acked = KEYS as u64 * PRELOAD_WINDOWS * WINDOW_VALUES as u64;
    // The event clock counts writes; the measured phase continues right
    // after the preloaded history.
    stage.clock.store(PRELOAD_WINDOWS * WRITES_PER_WINDOW, Ordering::Relaxed);
    Ok(stage)
}

/// One drive, then the exact-count gates.
pub fn run(ctx: &Context, stage: &mut Stage, plan: Plan) -> Result<(Drive, Vec<Gate>), String> {
    let keys = keys();
    let tcp = stage.sut.tcp;
    let clock = std::sync::Arc::clone(&stage.clock);
    let lane = 300 + stage.drives * 10;
    let load = |t: usize| {
        let mut mix = Ranges {
            keys: &keys,
            clock: &clock,
            thread: t,
            values: Values::new(sub_seed(ctx.seed, lane + t as u64)),
        };
        Box::new(move |rec: &mut Recorder| closed_loop(rec, tcp, t, &mut mix))
    };
    let drive = drive(stage, plan, load(0), load(1))?;
    stage.tcp_values_acked += drive.count("values_applied");
    stage.late_drops_expected += drive.count("late_drops_expected");
    let snap = stage.client()?.metrics().map_err(|e| format!("metrics: {e}"))?;
    let gates = vec![
        Gate::equal(
            "late_drops_counted",
            "store_window_late_drops vs writes sent beyond the lateness bound",
            counter(&snap, "store_window_late_drops"),
            stage.late_drops_expected,
        ),
        Gate::equal(
            "admitted_values_applied",
            "store_updates vs values sent within the lateness bound",
            counter(&snap, "store_updates"),
            stage.tcp_values_acked,
        ),
    ];
    Ok((drive, gates))
}

/// One load thread's generator state.
struct Ranges<'a> {
    keys: &'a [String],
    clock: &'a AtomicU64,
    thread: usize,
    values: Values,
}

/// A request in flight.
enum Asked {
    /// A range read of `class` over `scope`; `sampled` answers are judged.
    Read { class: Class, scope: Scope, phi: f64, sampled: bool },
    /// A write of `values` to key `k`'s `window`; `dropped` when it was
    /// aimed beyond the lateness bound.
    Write { k: usize, window: u64, values: Vec<f64>, dropped: bool },
}

impl Ranges<'_> {
    fn write(&mut self) -> (Vec<u8>, Asked) {
        let n = self.clock.fetch_add(1, Ordering::Relaxed);
        let now = n / WRITES_PER_WINDOW;
        let k = (n % KEYS as u64) as usize;
        // 1 % beyond the lateness bound, 5 % late within it, the rest on time.
        let (window, dropped) = match n {
            n if n % 100 == 99 => (now - BEYOND_LATENESS, true),
            n if n % 20 == 7 => (now - 2, false),
            _ => (now, false),
        };
        let mut values = vec![0.0; WINDOW_VALUES];
        self.values.fill(k, drift(window), &mut values);
        let ts = window * WINDOW_MS + n % WINDOW_MS;
        let request = Request::UpdateAt { key: self.keys[k].clone(), ts, values: values.clone() };
        (request.encode(), Asked::Write { k, window, values, dropped })
    }
}

impl Mix for Ranges<'_> {
    type Pending = Asked;

    fn issue(&mut self, i: u64) -> (Vec<u8>, Asked) {
        let op = PATTERN[(i % 20) as usize];
        if op == Op::Write {
            return self.write();
        }
        // Reads end at the settled horizon as this thread sees it now.
        let horizon = self.clock.load(Ordering::Relaxed) / WRITES_PER_WINDOW - SETTLE_WINDOWS;
        let k = ((i / 20 + i + self.thread as u64) % KEYS as u64) as usize;
        let phi = PHIS[(i % 3) as usize];
        let recent = (horizon - RECENT_WINDOWS, horizon);
        // Judging a full-span answer sorts every value the span was sent,
        // so full spans are sampled most sparsely.
        let block = i / 20;
        let (class, windows, keys, sampled) = match op {
            Op::Full => (
                Class::Query,
                (horizon - FULL_WINDOWS, horizon),
                vec![k],
                i.is_multiple_of(20) && block.is_multiple_of(10),
            ),
            Op::Recent => (Class::Range16, recent, vec![k], i % 20 == 1 && block.is_multiple_of(2)),
            _ => (Class::MergedRange, recent, (0..KEYS).collect(), block.is_multiple_of(4)),
        };
        let (t0, t1) = (windows.0 * WINDOW_MS, windows.1 * WINDOW_MS);
        let request = match op {
            Op::Merged => Request::MergedQueryRange { keys: self.keys.to_vec(), t0, t1, phi },
            _ => Request::QueryRange { key: self.keys[k].clone(), t0, t1, phi },
        };
        let scope =
            Scope { keys: keys.into_iter().map(|k| k as u32).collect(), windows: Some(windows) };
        (request.encode(), Asked::Read { class, scope, phi, sampled })
    }

    fn settle(
        &mut self,
        rec: &mut Recorder,
        asked: Asked,
        response: Response,
    ) -> Result<Class, String> {
        match (asked, response) {
            (Asked::Read { class, scope, phi, sampled }, Response::MaybeValue(Some(x))) => {
                if sampled {
                    rec.questions.push(Question {
                        scope,
                        ask: Ask::Quantile(phi),
                        answer: Some(x),
                    });
                }
                Ok(class)
            }
            (Asked::Write { k, window, values, dropped }, Response::Ok) => {
                if dropped {
                    rec.count("late_drops_expected", 1);
                } else {
                    rec.count("values_applied", WINDOW_VALUES as u64);
                    rec.sent.record(k, window, &values);
                }
                Ok(Class::Write)
            }
            (Asked::Read { class, scope, .. }, other) => {
                Err(format!("{} over {:?}: {other:?}", class.name(), scope.windows))
            }
            (Asked::Write { k, .. }, other) => {
                Err(format!("update_at {}: {other:?}", self.keys[k]))
            }
        }
    }
}

/// The preloaded shape, in process, for the replay.
pub fn replay_store() -> qc_store::SketchStore {
    let cfg = qc_store::StoreConfig::default().window(crate::sut::window_config());
    let store = qc_store::SketchStore::new(cfg);
    let keys = keys();
    let mut values = Values::new(0x5EED);
    let mut buf = [0.0; WINDOW_VALUES];
    for w in 0..PRELOAD_WINDOWS {
        for (k, key) in keys.iter().enumerate() {
            values.fill(k, drift(w), &mut buf);
            store.update_at(key, w * WINDOW_MS, &buf);
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_45_45_5_5() {
        let count = |op: Op| PATTERN.iter().filter(|&&p| p == op).count();
        assert_eq!(
            (count(Op::Full), count(Op::Recent), count(Op::Merged), count(Op::Write)),
            (9, 9, 1, 1)
        );
    }
}
