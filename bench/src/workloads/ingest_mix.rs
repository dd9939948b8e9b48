//! `ingest_mix` — the paper's scenario: queries concurrent with updates.
//!
//! Memory-only, unwindowed server with the UDP front end. Thread A is an
//! **open-loop** UDP writer: 5 000 datagrams/s × 4 records × 32 values
//! (640 k values/s, about a quarter of what the server's one core
//! sustains) over 4096 Zipf-skewed keys, sized so the head promotes to the
//! `quancurrent` engine and takes the shared-lock lease path while ranks
//! beyond ~600 stay under the 4096-update promotion threshold on
//! `qc-sequential`. Thread B is an **open-loop** TCP querier:
//! 2 000 `query`/s on the same key schedule, timed **from due time**;
//! every 50th slot is a *visibility probe* — one datagram to a fresh key,
//! `query` polled until it answers, then `remove`.
//!
//! UDP has no back-pressure: what arrives while the server's socket buffer
//! is full is dropped by the kernel, silently. So the writer keeps a **send
//! window** ([`SEND_WINDOW`]): it never has more datagrams unapplied than
//! the buffer holds, and waits — late against its schedule, and recorded
//! as late — when a stalled server would otherwise lose them. With the
//! server keeping up (it runs at a quarter of capacity) the window never
//! binds and the schedule is the open loop's; no datagram is ever lost.
//! What the window costs the server is a fifth, one-value record on every
//! 16th datagram and ~160 queries a second of the small cold key those go
//! to. (A `stats` request would say as much, but sweeps the whole key
//! space, and at that rate took a ninth of the server's CPU time.)
//!
//! Every query on a hot key is a read-cache miss (the key was just
//! written). `qc-ingest` and `qc-store::{store,engine}` do most of the
//! work; `persist` and `window` do none.

use std::net::UdpSocket;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qc_ingest::DatagramBuilder;
use qc_server::{Request, Response};

use crate::conn::Conn;
use crate::gen::{key_name, sub_seed, Values, ZipfKeys, PHIS};
use crate::oracle::{Ask, Question, Scope};
use crate::sched::{wait_until, OpenLoop, Poll};
use crate::sut::{Sut, SutOptions};
use crate::trace::Captured;
use crate::workload::{counter, drive, Class, Context, Drive, Gate, Plan, Recorder, Stage};

const KEYS: usize = 4096;
const DATAGRAMS_PER_S: u64 = 5_000;
const RECORDS_PER_DATAGRAM: usize = 4;
const VALUES_PER_RECORD: usize = 32;
const QUERIES_PER_S: u64 = 2_000;
const PROBE_EVERY: u64 = 50;
/// How fast the writer catches up after falling behind its schedule (a
/// descheduled generator, a stalled VM), as a multiple of the offered
/// rate. Missed slots are all still sent, and their lateness recorded —
/// but a 50 ms hiccup of the sandbox must not become a 250-datagram
/// back-to-back burst: it would run into the send window at once, and the
/// writer would then ask the server how far it has got every few
/// datagrams, just when the server is busiest. At twice the rate the
/// server stays ahead of the window.
const CATCH_UP_FACTOR: u64 = 2;
/// Most datagrams the writer has sent but not yet seen applied. The
/// server's socket buffer (208 KiB, the kernel's default) holds 92 of this
/// workload's datagrams (2304 bytes of skb each, measured against a stopped
/// server) and its ingest queue 1024; anything sent beyond that while the
/// server is descheduled (the sandbox stalls a vCPU for 20-70 ms several
/// times a minute: 100-350 datagrams) the kernel drops. Seven tenths of
/// the buffer, so the probes' datagrams fit beside them with room to spare.
const SEND_WINDOW: u64 = 64;
/// How many datagrams before the window closes the writer asks the server
/// how far it has got: 4.8 ms at the offered rate, so neither the round
/// trip nor a stall of the server of a few milliseconds holds the writer.
const ASK_AHEAD: u64 = 24;
/// Every how many datagrams one carries a mark (see [`Window`]): what the
/// writer learns is this coarse, so it asks about every
/// `SEND_WINDOW - ASK_AHEAD - MARK_EVERY / 2` = 32 datagrams, ~160 small
/// queries a second.
const MARK_EVERY: u64 = 16;
/// Marks per mark key, after which the writer moves on to a fresh one: a
/// mark key stays a cold key (promotion is at 4096 values) of a few
/// hundred retained items, cheap to query, however long the run.
const MARKS_PER_KEY: u64 = 1024;
/// Datagram size budget: under one Ethernet MTU.
const DATAGRAM_BUDGET: usize = 1400;
/// Keys whose every value is logged for the accuracy gate: the hottest
/// key, two warm ones, and two of the cold tail.
const TRACKED: [usize; 5] = [0, 3, 40, 400, 3000];
/// A mid-run answer is judged only once its key has been sent this many
/// values: the oracle covers everything the key was sent by run end, and a
/// prefix this long is within ~0.006 rank error of that (values are
/// independent draws). Younger keys are judged by the quiesced read after
/// the run, which is exact.
const MIN_JUDGED: u64 = 8192;
/// A probe that is not answerable after this long has failed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(1);

fn keys() -> Vec<String> {
    (0..KEYS).map(|i| key_name("mix", i)).collect()
}

/// Spawn the server and give every key one record, so no query of the
/// measured mix can meet an absent key.
pub fn setup(ctx: &Context) -> Result<Stage, String> {
    let sut = Sut::spawn(&SutOptions { ingest: true, ..SutOptions::default() })
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stage = Stage::new(sut);
    let mut client = stage.client()?;
    let mut values = Values::new(sub_seed(ctx.seed, 10));
    let mut buf = [0.0; VALUES_PER_RECORD];
    for (i, key) in keys().iter().enumerate() {
        values.fill(i, 0.0, &mut buf);
        client.update_many(key, &buf).map_err(|e| format!("preload: {e}"))?;
        if TRACKED.contains(&i) {
            stage.sent.record(i, 0, &buf);
        }
    }
    stage.tcp_values_acked += (KEYS * VALUES_PER_RECORD) as u64;
    Ok(stage)
}

/// One drive, then settle and check the conservation identities.
pub fn run(ctx: &Context, stage: &mut Stage, plan: Plan) -> Result<(Drive, Vec<Gate>), String> {
    let keys = keys();
    let tcp = stage.sut.tcp;
    let udp = stage.sut.udp.ok_or("server has no UDP ingest address")?;
    let lane = 100 + stage.drives * 10;
    let (seed_a, seed_b) = (sub_seed(ctx.seed, lane), sub_seed(ctx.seed, lane + 1));
    let drive_no = stage.drives;
    // Values sent so far to each tracked key, shared from writer to querier.
    let sent_so_far: Vec<AtomicU64> =
        TRACKED.iter().map(|&k| AtomicU64::new(stage.sent.count(k))).collect();
    let mut drive = drive(
        stage,
        plan,
        Box::new(|rec| writer(rec, tcp, udp, &keys, seed_a, drive_no, &sent_so_far)),
        Box::new(|rec| querier(rec, tcp, udp, &keys, seed_b, drive_no, &sent_so_far)),
    )?;
    stage.datagrams_sent += drive.count("datagrams_sent");

    // Settle: every received datagram classified, queue empty. Then the
    // identities are exact, over the server's whole life.
    let mut client = stage.client()?;
    let mut snap = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    for _ in 0..250 {
        let classified = counter(&snap, "ingest_applied_datagrams") + drops(&snap);
        if snap.gauge("ingest_queue_depth") == Some(0)
            && counter(&snap, "ingest_datagrams") == classified
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        snap = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    }
    // Quiesced: every tracked key, every quantile, against exactly what
    // it was sent (valid when nothing was lost; a lost datagram in ~10^5
    // moves a rank by far less than the gate).
    for &k in &TRACKED {
        for phi in PHIS {
            let answer = client.query(&keys[k], phi).map_err(|e| format!("query: {e}"))?;
            drive.questions.push(Question {
                scope: Scope::key(k),
                ask: Ask::Quantile(phi),
                answer,
            });
        }
    }
    let c = |name| counter(&snap, name);
    let gates = vec![
        Gate::equal(
            "ingest_conservation",
            "received vs applied + every drop class",
            c("ingest_datagrams"),
            c("ingest_applied_datagrams") + drops(&snap),
        ),
        Gate::equal(
            "store_conservation",
            "store_updates vs ingest_applied_values + TCP-acked values",
            c("store_updates"),
            c("ingest_applied_values") + stage.tcp_values_acked,
        ),
    ];
    Ok((drive, gates))
}

/// Datagrams the daemon received and dropped, every class.
fn drops(snap: &qc_server::MetricsSnapshot) -> u64 {
    counter(snap, "ingest_dropped_queue")
        + counter(snap, "ingest_dropped_decode")
        + counter(snap, "ingest_dropped_oversized")
}

/// Datagrams sent over the stage's life that the store never applied
/// (kernel drops and every daemon drop class). Call after [`run`].
pub fn datagrams_lost(stage: &Stage) -> Result<u64, String> {
    let snap = stage.client()?.metrics().map_err(|e| format!("metrics: {e}"))?;
    Ok(stage.datagrams_sent.saturating_sub(counter(&snap, "ingest_applied_datagrams")))
}

/// The key that carries the mark of the writer's `n`-th datagram.
fn mark_key(drive_no: u64, n: u64) -> String {
    format!("mark-{drive_no}-{}", n / (MARK_EVERY * MARKS_PER_KEY))
}

/// The writer's send window: how many of its datagrams the store has
/// applied, as far as the writer knows. Every [`MARK_EVERY`]th datagram
/// ends with one more record: the number of datagrams sent so far, as the
/// one value, to a *mark key*. The socket and the ingest queue are first
/// in, first out, so once the store holds the mark `n` the first `n`
/// datagrams have left both; and `query(mark key, 1.0)` is the largest
/// mark the key's sketch retains — a mark the store does hold, and the
/// latest or, just after the sketch compacted, the one before it.
struct Window {
    conn: Conn,
    drive_no: u64,
    /// Writer datagrams known applied (a lower bound).
    applied: u64,
    /// A question is on its way and its answer not yet read.
    asked: bool,
}

impl Window {
    fn open(tcp: std::net::SocketAddr, drive_no: u64) -> Result<Window, String> {
        Ok(Window { conn: Conn::connect(tcp)?, drive_no, applied: 0, asked: false })
    }

    /// Ask for the largest mark in the key that holds the latest one sent.
    fn ask(&mut self, sent: u64) -> Result<(), String> {
        self.asked = true;
        let key = mark_key(self.drive_no, sent.saturating_sub(MARK_EVERY));
        self.conn.post(&Request::Query { key, phi: 1.0 }.encode())
    }

    /// Hold the writer, which has sent `sent` datagrams, until fewer than
    /// [`SEND_WINDOW`] of them are unapplied. The question goes out
    /// [`ASK_AHEAD`] datagrams before its answer is needed, so with the
    /// server keeping up the reply is already there and the schedule is
    /// undisturbed. With the server stalled the writer waits here, and its
    /// sends are late.
    fn admit(&mut self, sent: u64) -> Result<(), String> {
        if sent.saturating_sub(self.applied) + ASK_AHEAD >= SEND_WINDOW && !self.asked {
            self.ask(sent)?;
        }
        while sent.saturating_sub(self.applied) >= SEND_WINDOW {
            if !self.asked {
                // Answered, and still no room: alive but not draining.
                std::thread::sleep(Duration::from_micros(100));
                self.ask(sent)?;
            }
            self.asked = false;
            match self.conn.take()? {
                // A key whose first mark is still on its way.
                Response::MaybeValue(None) => {}
                Response::MaybeValue(Some(mark)) => self.applied = self.applied.max(mark as u64),
                other => return Err(format!("mark query: {other:?}")),
            }
        }
        Ok(())
    }
}

fn writer(
    rec: &mut Recorder,
    tcp: std::net::SocketAddr,
    udp: std::net::SocketAddr,
    keys: &[String],
    seed: u64,
    drive_no: u64,
    sent_so_far: &[AtomicU64],
) -> Result<(), String> {
    let mut window = Window::open(tcp, drive_no)?;
    let mut sent = 0u64;
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("udp bind: {e}"))?;
    socket.connect(udp).map_err(|e| format!("udp connect: {e}"))?;
    // Sequenced datagrams: the daemon attributes pre-socket loss per peer.
    let mut builder = DatagramBuilder::with_seq(DATAGRAM_BUDGET, 0);
    let mut zipf = ZipfKeys::new(KEYS, seed);
    let mut values = Values::new(sub_seed(seed, 1));
    let mut sched = OpenLoop::new(0, DATAGRAMS_PER_S);
    let min_gap_ns = 1_000_000_000 / (DATAGRAMS_PER_S * CATCH_UP_FACTOR);
    let mut buf = [0.0; VALUES_PER_RECORD];
    let mut last_send_ns = 0u64;
    loop {
        let mut now_ns = rec.now_ns();
        if now_ns >= rec.measure_ns.1 {
            return Ok(());
        }
        let (slot, due_ns) = match sched.poll(now_ns) {
            Poll::Wait(ns) => {
                wait_until(rec.epoch, (now_ns + ns).min(rec.measure_ns.1));
                continue;
            }
            Poll::Due { slot, due_ns } => (slot, due_ns),
        };
        window.admit(sent)?;
        now_ns = rec.now_ns();
        if now_ns < last_send_ns + min_gap_ns {
            // Behind schedule: catch up, but no faster than the cap.
            wait_until(rec.epoch, last_send_ns + min_gap_ns);
            now_ns = rec.now_ns();
        }
        last_send_ns = now_ns;
        for _ in 0..RECORDS_PER_DATAGRAM {
            let k = zipf.next_key();
            values.fill(k, 0.0, &mut buf);
            if !builder.push(&keys[k], &buf) {
                return Err("datagram budget too small for the fixed record shape".into());
            }
            if let Some(t) = TRACKED.iter().position(|&tracked| tracked == k) {
                rec.sent.record(k, 0, &buf);
                sent_so_far[t].fetch_add(VALUES_PER_RECORD as u64, Ordering::Relaxed);
            }
        }
        if (sent + 1).is_multiple_of(MARK_EVERY)
            && !builder.push(&mark_key(drive_no, sent), &[(sent + 1) as f64])
        {
            return Err("datagram budget too small for the mark".into());
        }
        let bytes = builder.finish().ok_or("empty datagram")?;
        let built = rec.tracer.stamp();
        rec.tracer.capture(|| Captured::Datagram(bytes.clone()));
        rec.attempted += 1;
        match socket.send(&bytes) {
            Ok(_) => {
                let sent_at = rec.tracer.stamp();
                sent += 1;
                rec.count("datagrams_sent", 1);
                rec.sent_open_loop(due_ns, now_ns);
                if rec.tracer.is_on() {
                    let cuts = [now_ns, built, sent_at];
                    rec.tracer.push_chain("datagram", &["gen.build", "udp.send"], &cuts, slot);
                }
            }
            Err(e) => rec.fail(|| format!("udp send: {e}")),
        }
    }
}

fn querier(
    rec: &mut Recorder,
    tcp: std::net::SocketAddr,
    udp: std::net::SocketAddr,
    keys: &[String],
    seed: u64,
    drive_no: u64,
    sent_so_far: &[AtomicU64],
) -> Result<(), String> {
    let mut conn = Conn::connect(tcp)?;
    let probe_socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("udp bind: {e}"))?;
    probe_socket.connect(udp).map_err(|e| format!("udp connect: {e}"))?;
    let mut probe_builder = DatagramBuilder::with_seq(DATAGRAM_BUDGET, 0);
    let mut zipf = ZipfKeys::new(KEYS, seed);
    let mut sched = OpenLoop::new(0, QUERIES_PER_S);
    // Request ids: thread B's slots, offset clear of thread A's.
    const RID_BASE: u64 = 1 << 40;
    loop {
        let now_ns = rec.now_ns();
        if now_ns >= rec.measure_ns.1 {
            return Ok(());
        }
        let (slot, due_ns) = match sched.poll(now_ns) {
            Poll::Wait(ns) => {
                wait_until(rec.epoch, (now_ns + ns).min(rec.measure_ns.1));
                continue;
            }
            Poll::Due { slot, due_ns } => (slot, due_ns),
        };
        // No lateness sample here: this thread blocks on each reply, so a
        // slow answer delays the next send — that wait is charged to the
        // query's latency (timed from due), not to the generator.
        let t0 = Instant::now();
        if slot % PROBE_EVERY == PROBE_EVERY - 1 {
            let key = format!("probe-{drive_no}-{slot}");
            probe(rec, &mut conn, &probe_socket, &mut probe_builder, &key, RID_BASE + slot)?;
            continue;
        }
        let k = zipf.next_key();
        rec.attempted += 1;
        let phi = PHIS[(slot % 3) as usize];
        let request = Request::Query { key: keys[k].clone(), phi };
        match conn.call(&mut rec.tracer, RID_BASE + slot, t0, request.encode())? {
            // Every key holds values in [k, k+1): anything else is wrong.
            Response::MaybeValue(Some(x)) if (k as f64..k as f64 + 1.0).contains(&x) => {
                // Open loop: latency counts from when the query was due.
                rec.complete(Class::Query, due_ns, Instant::now());
                let tracked = TRACKED.iter().position(|&tracked| tracked == k);
                if tracked.is_some_and(|t| sent_so_far[t].load(Ordering::Relaxed) >= MIN_JUDGED) {
                    rec.questions.push(Question {
                        scope: Scope::key(k),
                        ask: Ask::Quantile(phi),
                        answer: Some(x),
                    });
                }
            }
            other => rec.fail(|| format!("query {} phi {phi}: {other:?}", keys[k])),
        }
    }
}

/// One visibility probe: a datagram to a fresh key, `query` polled until
/// it answers, then `remove`. The lag — send → answerable, queue wait
/// included — is the `Visible` class: the system's freshness.
fn probe(
    rec: &mut Recorder,
    conn: &mut Conn,
    socket: &UdpSocket,
    builder: &mut DatagramBuilder,
    key: &str,
    rid: u64,
) -> Result<(), String> {
    let value = rid as f64;
    builder.push(key, &[value]);
    let bytes = builder.finish().ok_or("empty probe datagram")?;
    rec.attempted += 1;
    let send_at = Instant::now();
    if let Err(e) = socket.send(&bytes) {
        rec.fail(|| format!("probe send: {e}"));
        return Ok(());
    }
    let sent = Instant::now();
    rec.count("datagrams_sent", 1);
    // Poll without tracing: the probe is one span pair, not a request.
    let mut quiet = crate::trace::Tracer::new(rec.epoch, false);
    let query = Request::Query { key: key.to_string(), phi: 0.5 };
    let visible = loop {
        let answer = conn.call(&mut quiet, rid, sent, query.encode())?;
        let now = Instant::now();
        match answer {
            Response::MaybeValue(Some(x)) if x == value => break Some(now),
            Response::MaybeValue(None) if now - send_at < PROBE_TIMEOUT => continue,
            other => {
                rec.fail(|| format!("probe {key} not answerable: {other:?}"));
                break None;
            }
        }
    };
    if let Some(end) = visible {
        let send_ns = rec.tracer.at(send_at);
        rec.complete(Class::Visible, send_ns, end);
        if rec.tracer.is_on() {
            let cuts = [send_ns, rec.tracer.at(sent), rec.tracer.at(end)];
            rec.tracer.push_chain("probe", &["probe.send", "probe.visible"], &cuts, rid);
        }
    }
    let remove = Request::Remove { key: key.to_string() };
    conn.call(&mut quiet, rid, Instant::now(), remove.encode())?;
    Ok(())
}

/// The preloaded shape, in process, for the replay.
pub fn replay_store() -> qc_store::SketchStore {
    super::filled(qc_store::StoreConfig::default(), &keys(), VALUES_PER_RECORD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_writer_asks_the_key_that_holds_the_latest_mark_sent() {
        let per_key = MARK_EVERY * MARKS_PER_KEY;
        for sent in (MARK_EVERY..MARK_EVERY * 3).chain(per_key - 40..per_key + 40) {
            // The latest mark rode on the last datagram whose count was a
            // multiple of MARK_EVERY; datagram n (from 0) makes the count n + 1.
            let latest = sent / MARK_EVERY * MARK_EVERY - 1;
            let asked = mark_key(0, sent.saturating_sub(MARK_EVERY));
            assert_eq!(asked, mark_key(0, latest), "after {sent} datagrams");
        }
        assert_ne!(mark_key(0, per_key - 1), mark_key(0, per_key));
        assert_ne!(mark_key(0, 0), mark_key(1, 0), "each drive has its own mark keys");
    }
}
