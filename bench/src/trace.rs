//! Driver-side spans: `{name, start_ns, end_ns, parent, request_id}`.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer the public API exposes; they stay in memory until the
//! run ends. A layer's **self time** is its span's duration minus the part
//! of that interval its child spans cover. What happens *inside* a store
//! call (stripe-lock wait, WAL encode vs append, group-commit park) is not
//! separable from outside — that is a later change to the program itself.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::report::Json;

/// One recorded span. `parent` indexes the same span list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name, e.g. `client.wait`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Shared by every span of one request.
    pub request_id: u64,
}

/// A per-thread span recorder. When off, [`Tracer::stamp`] and
/// [`Tracer::push`] do nothing — the untraced run pays one branch.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    captured: Vec<Captured>,
}

/// What a traced generator thread sent, kept so the in-process replay
/// (`replay.rs`) can feed the very same bytes through the layers.
#[derive(Clone, Debug)]
pub enum Captured {
    /// A TCP request body.
    Request(Vec<u8>),
    /// A UDP datagram.
    Datagram(Vec<u8>),
}

/// Bodies a thread keeps for the replay; later ones are not captured.
pub const MAX_CAPTURED: usize = 4000;

impl Tracer {
    /// A recorder measuring from `epoch` (shared by all threads of a run
    /// so their spans are on one clock).
    pub fn new(epoch: Instant, on: bool) -> Self {
        Tracer { epoch, on, spans: Vec::new(), captured: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch — `0` when off, so an untraced run
    /// reads the clock only where it times a request anyway.
    pub fn stamp(&self) -> u64 {
        if self.on {
            self.at(Instant::now())
        } else {
            0
        }
    }

    /// `t` on this tracer's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request_id: u64,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, request_id });
        Some((self.spans.len() - 1) as u32)
    }

    /// Record `parent ⊃ children`, the children laid end to end between
    /// consecutive `cuts` (`cuts[0]` is the parent's start, the last cut
    /// its end; `names[i]` spans `cuts[i]..cuts[i+1]`).
    pub fn push_chain(
        &mut self,
        parent: &'static str,
        names: &[&'static str],
        cuts: &[u64],
        request_id: u64,
    ) {
        debug_assert_eq!(names.len() + 1, cuts.len());
        let root = self.push(parent, cuts[0], cuts[cuts.len() - 1], None, request_id);
        for (i, name) in names.iter().enumerate() {
            self.push(name, cuts[i], cuts[i + 1], root, request_id);
        }
    }

    /// Keep what was sent, for the replay (traced runs only, and only
    /// the first [`MAX_CAPTURED`] per thread).
    pub fn capture(&mut self, sent: impl FnOnce() -> Captured) {
        if self.on && self.captured.len() < MAX_CAPTURED {
            self.captured.push(sent());
        }
    }

    /// The recorded spans and captured bodies.
    pub fn finish(self) -> (Vec<Span>, Vec<Captured>) {
        (self.spans, self.captured)
    }
}

/// Concatenate per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = all.len() as u32;
        all.extend(list.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }));
    }
    all
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the part their children cover.
    pub self_ns: u64,
}

/// Self time per span name. Children never overlap and never leave their
/// parent — [`Tracer::push_chain`], the only recorder, lays them end to
/// end inside it — so a parent's covered time is the sum of its
/// children's durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let duration = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent as usize] += duration(span);
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += duration(span);
        entry.self_ns += duration(span).saturating_sub(covered);
    }
    out
}

/// Most spans a trace file holds; a longer run's file is its prefix
/// (`truncated: true`), while self times are always over every span.
pub const MAX_SPANS_WRITTEN: usize = 50_000;

/// Write a trace file: the self-time table, then the spans.
pub fn write_file(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut table = Json::object();
    for (name, t) in self_times(spans) {
        table = table.field(
            name,
            Json::object()
                .field("count", t.count)
                .field("total_ns", t.total_ns)
                .field("self_ns", t.self_ns),
        );
    }
    let written = &spans[..spans.len().min(MAX_SPANS_WRITTEN)];
    let head = Json::object()
        .field("workload", workload)
        .field("spans_recorded", spans.len())
        .field("truncated", written.len() < spans.len())
        .field("self_time", table);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    // One span per line so a multi-megabyte file stays greppable.
    write!(out, "{{\"meta\": {},\n\"spans\": [\n", head.render())?;
    for (i, s) in written.iter().enumerate() {
        let line = Json::object()
            .field("name", s.name)
            .field("start_ns", s.start_ns)
            .field("end_ns", s.end_ns)
            .field("parent", s.parent.map_or(Json::Null, |p| Json::from(p as u64)))
            .field("request_id", s.request_id)
            .render();
        writeln!(out, "{line}{}", if i + 1 < written.len() { "," } else { "" })?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request_id: 1 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("request", 0, 100, None),
            span("send", 10, 30, Some(0)),
            span("wait", 30, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], SelfTime { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(t["send"].self_ns, 20);
        assert_eq!(t["wait"].self_ns, 60);
    }

    #[test]
    fn grandchildren_reduce_only_their_own_parent() {
        let spans = [
            span("request", 0, 100, None),
            span("store", 20, 80, Some(0)),
            span("wal", 30, 50, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"].self_ns, 40);
        assert_eq!(t["store"].self_ns, 40);
        assert_eq!(t["wal"].self_ns, 20);
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("request", 0, 10, None), span("send", 1, 2, Some(0))];
        let b = vec![span("request", 5, 9, None), span("wait", 6, 8, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(self_times(&all)["request"].self_ns, 9 + 2);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.stamp(), 0);
        t.push_chain("request", &["a"], &[0, 5], 1);
        t.capture(|| Captured::Request(vec![1]));
        let (spans, captured) = t.finish();
        assert!(spans.is_empty() && captured.is_empty());
    }

    #[test]
    fn push_chain_lays_children_end_to_end() {
        let mut t = Tracer::new(Instant::now(), true);
        t.push_chain("request", &["a", "b"], &[10, 15, 40], 7);
        let (spans, _) = t.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (10, 40));
        assert_eq!((spans[2].start_ns, spans[2].end_ns, spans[2].parent), (15, 40, Some(0)));
        assert_eq!(self_times(&spans)["request"].self_ns, 0);
    }
}
