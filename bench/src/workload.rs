//! What the four workloads share: latency classes, the per-thread
//! recorder, the closed loop, and the two-thread drive with its
//! outside-in measurements.
//!
//! **Load sizing is fixed, not a knob.** The generator is one process with
//! exactly two load threads in every workload (a third, idle but for a
//! `/proc` read per slice, two `Metrics` reads and — on traced runs — a
//! 10 Hz gauge sampler, holds the control connection); generator and
//! server each have a core to themselves (`sut::separate_cores`).
//!
//! **Everything timed is reported per slice.** The measured interval is cut
//! into slices of about [`SLICE`]; each rate, CPU cost and latency median
//! is computed per slice, and the run reports the median over slices. A
//! stall of the sandbox (a vCPU descheduled for tens of milliseconds)
//! spoils the slice it falls in, not the run.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qc_server::{Client, MetricsSnapshot, Response};

use crate::conn::Conn;
use crate::oracle::{judge, Question, Sent, Verdict};
use crate::stats::{median, percentile};
use crate::sut::{Sut, Usage};
use crate::trace::{Captured, Span, Tracer};

/// Latency classes. `Query` and `Write` are every workload's primary
/// read and write; the rest are the secondary reads of one workload's mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Primary read: `query`; on `windowed_range`, full-span `query_range`.
    Query,
    /// Acked write round trip (`update_many` / `update_at`; the store
    /// applies before it acks, so an acked write is answerable).
    Write,
    /// Datagram send → value answerable by `query` (`ingest_mix`): the
    /// fire-and-forget path's freshness, queue wait included.
    Visible,
    /// `rank` (`read_fanout`).
    Rank,
    /// `snapshot_summary`, decoded client-side (`read_fanout`).
    Snapshot,
    /// `merged_query` over 16 keys (`read_fanout`).
    Merged,
    /// `query_range` over the last 16 settled windows (`windowed_range`).
    Range16,
    /// `merged_query_range` over 8 keys (`windowed_range`).
    MergedRange,
}

impl Class {
    /// Every class, in reporting order.
    pub const ALL: [Class; 8] = [
        Class::Query,
        Class::Write,
        Class::Visible,
        Class::Rank,
        Class::Snapshot,
        Class::Merged,
        Class::Range16,
        Class::MergedRange,
    ];

    /// Reporting name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Query => "query",
            Class::Write => "write",
            Class::Visible => "visible",
            Class::Rank => "rank",
            Class::Snapshot => "snapshot",
            Class::Merged => "merged",
            Class::Range16 => "range16",
            Class::MergedRange => "merged_range",
        }
    }
}

/// Nominal length of one slice of the measured interval. Long enough that
/// the server's CPU time, which `/proc` counts in 10 ms ticks, resolves to
/// a percent or two per slice.
pub const SLICE: Duration = Duration::from_secs(1);

/// How long one drive warms up and measures, and whether it is traced.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Discarded lead-in: caches fill, hot keys promote, leases mint.
    pub warmup: Duration,
    /// The measured interval.
    pub measure: Duration,
    /// Record spans and sample gauges.
    pub trace: bool,
}

impl Plan {
    /// Slices the measured interval is cut into: as many whole [`SLICE`]s
    /// as fit, at least one.
    pub fn slices(&self) -> usize {
        ((self.measure.as_nanos() / SLICE.as_nanos()) as usize).max(1)
    }
}

/// One latency sample: the slice its operation started (or was due) in,
/// and how long it took.
#[derive(Clone, Copy, Debug)]
struct Sample {
    slice: u32,
    ns: u64,
}

/// What one load thread records. Everything is thread-local; the drive
/// folds the two recorders together afterwards.
pub struct Recorder {
    /// Clock origin shared by both threads and the tracer.
    pub epoch: Instant,
    /// Measured interval, as nanoseconds since `epoch`.
    pub measure_ns: (u64, u64),
    slice_ns: u64,
    samples: BTreeMap<Class, Vec<Sample>>,
    /// Operations completed, by the slice they started (or were due) in.
    ops: Vec<u64>,
    /// Open-loop send lateness (ns past due), by slice.
    late: Vec<Sample>,
    /// Operations issued (warm-up included).
    pub attempted: u64,
    /// Operations that errored, were refused, or answered nonsense.
    pub failed: u64,
    /// Sampled answers for the accuracy gate.
    pub questions: Vec<Question>,
    /// Values sent to tracked keys (warm-up included).
    pub sent: Sent,
    /// Free-form exact counts the workload's gates need.
    pub counts: BTreeMap<&'static str, u64>,
    /// Span recorder.
    pub tracer: Tracer,
    /// First few failure descriptions, for the report.
    pub failure_notes: Vec<String>,
}

impl Recorder {
    fn new(epoch: Instant, plan: Plan) -> Self {
        let m0 = plan.warmup.as_nanos() as u64;
        let measure = plan.measure.as_nanos() as u64;
        Recorder {
            epoch,
            measure_ns: (m0, m0 + measure),
            slice_ns: (measure / plan.slices() as u64).max(1),
            samples: BTreeMap::new(),
            ops: vec![0; plan.slices()],
            late: Vec::new(),
            attempted: 0,
            failed: 0,
            questions: Vec::new(),
            sent: Sent::default(),
            counts: BTreeMap::new(),
            tracer: Tracer::new(epoch, plan.trace),
            failure_notes: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The slice an operation starting (or due) at `start_ns` counts in;
    /// `None` outside the measured interval.
    fn slice_of(&self, start_ns: u64) -> Option<usize> {
        (self.measure_ns.0..self.measure_ns.1).contains(&start_ns).then(|| {
            (((start_ns - self.measure_ns.0) / self.slice_ns) as usize).min(self.ops.len() - 1)
        })
    }

    /// A completed operation of `class` that started (or was due) at
    /// `start_ns` and ended at `end`.
    pub fn complete(&mut self, class: Class, start_ns: u64, end: Instant) {
        if let Some(slice) = self.slice_of(start_ns) {
            let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
            let sample = Sample { slice: slice as u32, ns: end_ns.saturating_sub(start_ns) };
            self.samples.entry(class).or_default().push(sample);
            self.ops[slice] += 1;
        }
    }

    /// A fire-and-forget send that was due at `due_ns` and went out at
    /// `sent_ns`: one operation, and one lateness sample.
    pub fn sent_open_loop(&mut self, due_ns: u64, sent_ns: u64) {
        if let Some(slice) = self.slice_of(due_ns) {
            self.late.push(Sample { slice: slice as u32, ns: sent_ns.saturating_sub(due_ns) });
            self.ops[slice] += 1;
        }
    }

    /// A failed operation.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failure_notes.len() < 5 {
            self.failure_notes.push(what());
        }
    }

    /// Add to a named exact count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }
}

/// A closed-loop traffic mix: what a load thread sends, by operation
/// index, and how it checks what comes back.
pub trait Mix {
    /// What [`Mix::settle`] needs to know about the request in flight.
    type Pending;

    /// The body of the thread's `i`-th request.
    fn issue(&mut self, i: u64) -> (Vec<u8>, Self::Pending);

    /// Check the reply to a request: the class it completed as, or what
    /// was wrong with it (a failed operation).
    fn settle(
        &mut self,
        rec: &mut Recorder,
        pending: Self::Pending,
        response: Response,
    ) -> Result<Class, String>;
}

/// A closed-loop load thread: one connection, the next request sent only
/// once the previous reply has been read and checked, until the
/// recorder's measured interval ends.
pub fn closed_loop<M: Mix>(
    rec: &mut Recorder,
    tcp: SocketAddr,
    thread: usize,
    mix: &mut M,
) -> Result<(), String> {
    let mut conn = Conn::connect(tcp)?;
    let rid_base = (thread as u64) << 40;
    for i in 0u64.. {
        let t0 = Instant::now();
        let start_ns = rec.tracer.at(t0);
        if start_ns >= rec.measure_ns.1 {
            break;
        }
        rec.attempted += 1;
        let (body, pending) = mix.issue(i);
        let response = conn.call(&mut rec.tracer, rid_base + i, t0, body)?;
        match mix.settle(rec, pending, response) {
            Ok(class) => rec.complete(class, start_ns, Instant::now()),
            Err(note) => rec.fail(|| note),
        }
    }
    Ok(())
}

/// A running server with everything the generator knows about what it
/// has sent it so far. Lives from set-up to teardown, across drives.
pub struct Stage {
    /// The server process.
    pub sut: Sut,
    /// Values sent to tracked keys so far.
    pub sent: Sent,
    /// Values the server acknowledged over TCP so far (exact).
    pub tcp_values_acked: u64,
    /// Datagrams sent so far.
    pub datagrams_sent: u64,
    /// Writes the generator sent beyond the lateness bound so far.
    pub late_drops_expected: u64,
    /// The windowed workload's event clock (writes issued so far).
    pub clock: Arc<AtomicU64>,
    /// Drives run on this stage (seeds each drive's generators apart).
    pub drives: u64,
    /// Restart → first `stats` reply, when set-up recovered the store.
    pub recovery_s: Option<f64>,
    /// Gate results from set-up.
    pub setup_gates: Vec<Gate>,
}

impl Stage {
    /// A stage around a freshly spawned server.
    pub fn new(sut: Sut) -> Stage {
        Stage {
            sut,
            sent: Sent::default(),
            tcp_values_acked: 0,
            datagrams_sent: 0,
            late_drops_expected: 0,
            clock: Arc::new(AtomicU64::new(0)),
            drives: 0,
            recovery_s: None,
            setup_gates: Vec::new(),
        }
    }

    /// A `qc_server::Client` to the stage's server (control path).
    pub fn client(&self) -> Result<Client, String> {
        Client::connect(self.sut.tcp).map_err(|e| format!("connect: {e}"))
    }

    /// Preload from two connections at once: `load(thread, client, log)`
    /// runs on thread 0 and thread 1, each with its own connection and its
    /// own log of values sent to tracked keys, folded into the stage's.
    pub fn preload<F>(&mut self, load: F) -> Result<(), String>
    where
        F: Fn(usize, &mut Client, &mut Sent) -> Result<(), String> + Sync,
    {
        let logs = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|thread| {
                    let (stage, load) = (&*self, &load);
                    s.spawn(move || -> Result<Sent, String> {
                        let mut client = stage.client()?;
                        let mut sent = Sent::default();
                        load(thread, &mut client, &mut sent)
                            .map_err(|e| format!("preload: {e}"))?;
                        Ok(sent)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "preload thread panicked".to_string())?)
                .collect::<Result<Vec<_>, String>>()
        })?;
        logs.into_iter().for_each(|log| self.sent.absorb(log));
        Ok(())
    }

    /// Judge a drive's sampled answers against everything the tracked keys
    /// have been sent **so far**. Call it when the drive ends, before the
    /// next one sends anything: an answer is only right about the log it
    /// was computed over.
    pub fn judge(&self, drive: &Drive) -> Verdict {
        judge(&self.sent, &drive.questions)
    }
}

/// One correctness gate's outcome.
#[derive(Clone, Debug)]
pub struct Gate {
    /// Gate name.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Gate {
    /// An equality gate over exact counts.
    pub fn equal(name: &'static str, what: &str, left: u64, right: u64) -> Gate {
        Gate { name, pass: left == right, detail: format!("{what}: {left} vs {right}") }
    }

    /// The accuracy gate.
    pub fn accuracy(verdict: &Verdict) -> Gate {
        Gate {
            name: "rank_error_within_gate",
            pass: verdict.failures.is_empty() && verdict.checked > 0,
            detail: format!(
                "{} answers judged, worst rank error {:.5} (gate {:.5}){}",
                verdict.checked,
                verdict.worst,
                crate::oracle::gate(),
                verdict.failures.first().map_or(String::new(), |f| format!("; first: {f}"))
            ),
        }
    }
}

/// What the control thread measured of one slice, from outside, and what
/// the load threads completed in it.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Operations completed that started (or were due) in the slice.
    pub ops: u64,
    /// Server CPU time per second of wall time between the control
    /// thread's two `/proc` reads around the slice, µs/s. (The reads land
    /// up to a few ms off the slice's edges; the ratio does not care.)
    pub cpu_us_per_s: f64,
    /// The server's resident set at the end of the slice, MiB.
    pub rss_mib: f64,
}

/// The measurements of one drive (warm-up + measured interval).
pub struct Drive {
    /// Length of the measured interval as bracketed by the two `Metrics`
    /// reads, seconds.
    pub elapsed_s: f64,
    /// The slices of the measured interval.
    pub slices: Slices,
    /// Sorted latency samples (ns) per class, whole measured interval.
    samples: BTreeMap<Class, Vec<u64>>,
    /// Per class, the median latency (µs) of each slice that has samples.
    slice_p50_us: BTreeMap<Class, Vec<f64>>,
    /// p99 open-loop send lateness (µs) of each slice that has samples.
    pub slice_late_p99_us: Vec<f64>,
    /// Operations issued (warm-up included).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Sampled answers.
    pub questions: Vec<Question>,
    /// Worst rank error among them (set when the drive is judged).
    pub rank_err_max: f64,
    /// Exact counts from both threads, summed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Spans of both threads.
    pub spans: Vec<Span>,
    /// What both threads sent (traced drives only), interleaved.
    pub captured: Vec<Captured>,
    /// `Metrics` frame at the start of the measured interval.
    pub before: MetricsSnapshot,
    /// `Metrics` frame at its end.
    pub after: MetricsSnapshot,
    /// Largest `ingest_queue_depth` the 10 Hz sampler saw (traced only).
    pub queue_depth_max: u64,
    /// Failure descriptions.
    pub failure_notes: Vec<String>,
}

/// A counter of a `Metrics` frame (absent reads as 0).
pub fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

impl Drive {
    /// Counter delta across the measured interval.
    pub fn delta(&self, name: &str) -> u64 {
        counter(&self.after, name).saturating_sub(counter(&self.before, name))
    }

    /// A named exact count, summed over both threads (0 if never counted).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Sorted samples of one class (empty if the workload has none).
    pub fn class(&self, class: Class) -> &[u64] {
        self.samples.get(&class).map_or(&[], Vec::as_slice)
    }

    /// Median over slices of a class's per-slice median latency, µs (0 if
    /// the workload has none).
    pub fn p50_us(&self, class: Class) -> f64 {
        self.slice_p50_us.get(&class).and_then(|v| median(v)).unwrap_or(0.0)
    }

    /// Median over slices of the open-loop generator's p99 send lateness,
    /// µs (0 on closed loops): how late the generator *usually* ran. One
    /// stalled slice does not make a run late; a generator that cannot
    /// keep its schedule is late in most of them.
    pub fn late_p99_us(&self) -> f64 {
        median(&self.slice_late_p99_us).unwrap_or(0.0)
    }
}

/// The slices of one measured interval, in order, and the run's figures
/// over them.
pub struct Slices {
    /// Nominal slice length, seconds.
    pub slice_s: f64,
    /// The server's resident set when the interval began, MiB.
    pub rss_mib_at_start: f64,
    /// The slices.
    pub each: Vec<Slice>,
}

impl Slices {
    fn median_of(&self, figure: impl Fn(&Slice) -> Option<f64>) -> f64 {
        median(&self.each.iter().filter_map(figure).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    /// Median over slices of operations completed per second.
    pub fn ops_per_s(&self) -> f64 {
        self.median_of(|s| Some(s.ops as f64 / self.slice_s))
    }

    /// Median over slices of server CPU time per completed operation, µs.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.median_of(|s| (s.ops > 0).then(|| s.cpu_us_per_s * self.slice_s / s.ops as f64))
    }

    /// Median over slices of the server's busy share of its wall time.
    pub fn cpu_utilization(&self) -> f64 {
        self.median_of(|s| Some(s.cpu_us_per_s / 1e6))
    }

    /// The server's resident set once it had completed `ops` operations of
    /// the interval, MiB (interpolated between slice edges; at the end of
    /// the interval if it never got that far). Memory at a fixed amount of
    /// work: on a closed loop, memory at a fixed *time* would charge a
    /// faster server for the extra work it got done.
    pub fn rss_mib_after(&self, ops: u64) -> f64 {
        let (mut done, mut rss) = (0u64, self.rss_mib_at_start);
        for slice in &self.each {
            if slice.ops > 0 && done + slice.ops >= ops {
                let share = ops.saturating_sub(done) as f64 / slice.ops as f64;
                return rss + (slice.rss_mib - rss) * share;
            }
            done += slice.ops;
            rss = slice.rss_mib;
        }
        rss
    }
}

/// Per-slice `p`-quantiles (µs) of samples, skipping empty slices.
fn per_slice(samples: &[Sample], slices: usize, p: f64) -> Vec<f64> {
    let mut by_slice = vec![Vec::new(); slices];
    for s in samples {
        by_slice[s.slice as usize].push(s.ns);
    }
    by_slice
        .iter_mut()
        .filter_map(|v| {
            v.sort_unstable();
            percentile(v, p).map(|ns| ns as f64 / 1e3)
        })
        .collect()
}

/// A load thread: runs until the recorder's measured interval ends.
pub type LoadFn<'a> = Box<dyn FnOnce(&mut Recorder) -> Result<(), String> + Send + 'a>;

/// Run two load threads against the stage's server for `plan`, measuring
/// the server from outside: `/proc` CPU time at every slice edge,
/// `Metrics` frames at both ends of the measured interval.
pub fn drive(stage: &mut Stage, plan: Plan, a: LoadFn<'_>, b: LoadFn<'_>) -> Result<Drive, String> {
    let mut control = stage.client()?;
    let sut = &stage.sut;
    let epoch = Instant::now();
    let mut rec_a = Recorder::new(epoch, plan);
    let mut rec_b = Recorder::new(epoch, plan);
    let slices = plan.slices();
    let m0 = epoch + plan.warmup;
    let edge = |i: usize| m0 + plan.measure.mul_f64(i as f64 / slices as f64);

    struct Control {
        /// The server's resource use, and when it was read, at each slice
        /// edge.
        edges: Vec<(Usage, Instant)>,
        before: MetricsSnapshot,
        after: MetricsSnapshot,
        queue_depth_max: u64,
    }
    let (thread_a, thread_b, measured) = std::thread::scope(|s| {
        let ha = s.spawn(|| a(&mut rec_a));
        let hb = s.spawn(|| b(&mut rec_b));
        let measured = (|| -> Result<Control, String> {
            let mut metrics = || control.metrics().map_err(|e| format!("metrics: {e}"));
            let mut edges = Vec::with_capacity(slices + 1);
            let mut before = None;
            let mut queue_depth_max = 0u64;
            for i in 0..=slices {
                if plan.trace && i > 0 {
                    // 10 Hz gauge sampler: queue depth is a gauge, so only
                    // sampling sees its excursions.
                    let mut next = edge(i - 1) + Duration::from_millis(100);
                    while next < edge(i) {
                        sleep_to(next);
                        let depth = metrics()?.gauge("ingest_queue_depth").unwrap_or(0);
                        queue_depth_max = queue_depth_max.max(depth.max(0) as u64);
                        next += Duration::from_millis(100);
                    }
                }
                sleep_to(edge(i));
                let usage = sut.usage().map_err(|e| format!("server usage: {e}"))?;
                edges.push((usage, Instant::now()));
                if i == 0 {
                    before = Some(metrics()?);
                }
            }
            let before = before.expect("the first edge read it");
            Ok(Control { edges, before, after: metrics()?, queue_depth_max })
        })();
        (ha.join(), hb.join(), measured)
    });
    thread_a.map_err(|_| "load thread A panicked")??;
    thread_b.map_err(|_| "load thread B panicked")??;
    let Control { edges, before, after, queue_depth_max } = measured?;

    let mut samples: BTreeMap<Class, Vec<Sample>> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut ops = vec![0u64; slices];
    let mut late = Vec::new();
    let mut questions = Vec::new();
    let mut failure_notes = Vec::new();
    let mut spans = Vec::new();
    let mut captured: Vec<Vec<Captured>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for rec in [rec_a, rec_b] {
        for (class, mut v) in rec.samples {
            samples.entry(class).or_default().append(&mut v);
        }
        for (name, n) in rec.counts {
            *counts.entry(name).or_default() += n;
        }
        ops.iter_mut().zip(&rec.ops).for_each(|(sum, n)| *sum += n);
        attempted += rec.attempted;
        failed += rec.failed;
        late.extend(rec.late);
        questions.extend(rec.questions);
        failure_notes.extend(rec.failure_notes);
        stage.sent.absorb(rec.sent);
        let (thread_spans, thread_captured) = rec.tracer.finish();
        spans.push(thread_spans);
        captured.push(thread_captured);
    }
    // Interleave the two threads' captures, as the server saw them.
    let mut lanes: Vec<_> = captured.into_iter().map(Vec::into_iter).collect();
    let mut captured = Vec::new();
    while lanes.iter().any(|lane| lane.len() > 0) {
        captured.extend(lanes.iter_mut().filter_map(Iterator::next));
    }
    let slice_p50_us = samples.iter().map(|(&c, v)| (c, per_slice(v, slices, 0.5))).collect();
    let sorted = |v: Vec<Sample>| {
        let mut ns: Vec<u64> = v.into_iter().map(|s| s.ns).collect();
        ns.sort_unstable();
        ns
    };
    stage.drives += 1;
    Ok(Drive {
        elapsed_s: edges[slices].1.duration_since(edges[0].1).as_secs_f64(),
        slices: Slices {
            slice_s: plan.measure.as_secs_f64() / slices as f64,
            rss_mib_at_start: edges[0].0.rss_mib,
            each: edges
                .windows(2)
                .zip(ops)
                .map(|(e, ops)| Slice {
                    ops,
                    cpu_us_per_s: (e[1].0.cpu_us - e[0].0.cpu_us)
                        / e[1].1.duration_since(e[0].1).as_secs_f64(),
                    rss_mib: e[1].0.rss_mib,
                })
                .collect(),
        },
        slice_late_p99_us: per_slice(&late, slices, 0.99),
        slice_p50_us,
        samples: samples.into_iter().map(|(c, v)| (c, sorted(v))).collect(),
        attempted,
        failed,
        questions,
        rank_err_max: 0.0,
        counts,
        spans: crate::trace::merge(spans),
        captured,
        before,
        after,
        queue_depth_max,
        failure_notes,
    })
}

fn sleep_to(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Where a run keeps its files and which seed it generates from.
#[derive(Clone, Debug)]
pub struct Context {
    /// `--seed`.
    pub seed: u64,
    /// Scratch directory for server data (under `bench/scratch/`).
    pub scratch: PathBuf,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(measure_ms: u64) -> Plan {
        Plan {
            warmup: Duration::from_millis(500),
            measure: Duration::from_millis(measure_ms),
            trace: false,
        }
    }

    fn slice(ops: u64, cpu_us_per_s: f64, rss_mib: f64) -> Slice {
        Slice { ops, cpu_us_per_s, rss_mib }
    }

    #[test]
    fn resident_set_is_read_at_a_fixed_amount_of_work() {
        let slices = Slices {
            slice_s: 1.0,
            rss_mib_at_start: 10.0,
            each: vec![slice(100, 0.0, 20.0), slice(0, 0.0, 21.0), slice(300, 0.0, 51.0)],
        };
        assert_eq!(slices.rss_mib_after(0), 10.0);
        assert_eq!(slices.rss_mib_after(50), 15.0);
        assert_eq!(slices.rss_mib_after(100), 20.0);
        // 150 ops fall half-way through the third slice's 300.
        assert_eq!(slices.rss_mib_after(250), 36.0);
        // A server that never got that far is read at the end.
        assert_eq!(slices.rss_mib_after(1_000), 51.0);
    }

    #[test]
    fn a_stalled_slice_does_not_move_the_runs_figures() {
        // Five half-second slices at 1000 ops and 40 % of a core each; the
        // VM stalls through most of the third, and nothing completes in
        // the fourth.
        let busy = slice(1000, 400_000.0, 0.0);
        let slices = Slices {
            slice_s: 0.5,
            rss_mib_at_start: 0.0,
            each: vec![busy, busy, slice(120, 90_000.0, 0.0), slice(0, 1_000.0, 0.0), busy],
        };
        assert_eq!(slices.ops_per_s(), 2000.0);
        assert_eq!(slices.cpu_us_per_op(), 200.0);
        assert_eq!(slices.cpu_utilization(), 0.4);
    }

    #[test]
    fn operations_count_in_the_slice_they_started_in() {
        assert_eq!(plan(20_000).slices(), 20);
        assert_eq!(plan(600).slices(), 1, "a short interval is one slice");
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, plan(3_000));
        let at = |ms: u64| ms * 1_000_000;
        let end = |ms: u64| epoch + Duration::from_millis(ms);
        rec.complete(Class::Query, at(100), end(101)); // warm-up: dropped
        rec.complete(Class::Query, at(500), end(502)); // slice 0
        rec.complete(Class::Query, at(1499), end(1800)); // slice 0, ends in 1
        rec.complete(Class::Write, at(3499), end(3600)); // slice 2
        rec.complete(Class::Query, at(3500), end(3501)); // past the end
        rec.sent_open_loop(at(1500), at(1503)); // slice 1, 3 ms late
        assert_eq!(rec.ops, [2, 1, 1]);
        assert_eq!(per_slice(&rec.samples[&Class::Query], 3, 0.5), [2000.0]);
        assert_eq!(per_slice(&rec.late, 3, 0.99), [3000.0]);
    }
}
