//! The instrument registry and its snapshot/exposition formats.

use std::collections::BTreeMap;
use std::sync::Mutex;

use qc_common::bits::OrderedBits;
use qc_common::summary::{Summary, WeightedSummary};

use crate::events::{EventKind, EventRing};
use crate::instrument::{Counter, Gauge};
use crate::latency::{LatencyRecorder, DEFAULT_K};

/// Default event-ring capacity for [`Registry::new`].
const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Quantiles rendered in text exposition (`render_text`).
const RENDERED_QUANTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    latencies: BTreeMap<String, LatencyRecorder>,
}

/// A named collection of instruments plus one event ring.
///
/// `counter`/`gauge`/`latency` are get-or-register: the first call for a
/// name creates the instrument, later calls hand out another handle to
/// the same one, so independent subsystems can share an instrument by
/// name. Registration takes a mutex; the returned handles do not (keep
/// handles, don't re-look-up on hot paths).
///
/// [`Registry::disabled`] is the no-op mode: every instrument it hands
/// out is inert and nothing is registered, which is what the overhead
/// benchmark compares against.
pub struct Registry {
    enabled: bool,
    instruments: Mutex<Instruments>,
    events: EventRing,
}

impl Registry {
    /// A live registry with the default event-ring capacity.
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A live registry whose event ring keeps the newest `capacity` events.
    fn with_event_capacity(capacity: usize) -> Self {
        Self {
            enabled: true,
            instruments: Mutex::new(Instruments::default()),
            events: EventRing::new(capacity),
        }
    }

    /// The no-op registry: instruments are inert, events vanish,
    /// snapshots are empty.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            instruments: Mutex::new(Instruments::default()),
            events: EventRing::disabled(),
        }
    }

    /// Whether instruments from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Get or register the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter::disabled();
        }
        let mut inner = lock_recovering(&self.instruments);
        // NOT `or_default()`: the Default handle is the *disabled* no-op,
        // `new()` is the live instrument.
        #[allow(clippy::unwrap_or_default)]
        inner.counters.entry(name.to_owned()).or_insert_with(Counter::new).clone()
    }

    /// Get or register the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge::disabled();
        }
        let mut inner = lock_recovering(&self.instruments);
        // NOT `or_default()`: the Default handle is the *disabled* no-op.
        #[allow(clippy::unwrap_or_default)]
        inner.gauges.entry(name.to_owned()).or_insert_with(Gauge::new).clone()
    }

    /// Get or register the latency recorder named `name` (default k).
    pub fn latency(&self, name: &str) -> LatencyRecorder {
        self.latency_with_k(name, DEFAULT_K)
    }

    /// Get or register a latency recorder with an explicit accuracy
    /// parameter. If the name already exists the existing recorder is
    /// returned and `k` is ignored.
    fn latency_with_k(&self, name: &str, k: usize) -> LatencyRecorder {
        if !self.enabled {
            return LatencyRecorder::disabled();
        }
        let mut inner = lock_recovering(&self.instruments);
        inner.latencies.entry(name.to_owned()).or_insert_with(|| LatencyRecorder::new(k)).clone()
    }

    /// Record a structured event (never blocks).
    pub fn event(&self, kind: EventKind, detail: impl Into<String>) {
        self.events.push(kind, detail);
    }

    /// The event ring (drain it to inspect recent events).
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Point-in-time copy of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = lock_recovering(&self.instruments);
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            gauges: inner.gauges.iter().map(|(n, g)| (n.clone(), g.get())).collect(),
            latencies: inner.latencies.iter().map(|(n, l)| (n.clone(), l.summary())).collect(),
        }
    }

    /// Prometheus-style text exposition of a fresh snapshot.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_recovering(&self.instruments);
        f.debug_struct("Registry")
            .field("enabled", &self.enabled)
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("latencies", &inner.latencies.len())
            .field("events", &self.events)
            .finish()
    }
}

fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A point-in-time copy of a registry: counter values, gauge values, and
/// one [`WeightedSummary`] per latency recorder.
///
/// Entries are sorted by name. This is the payload of the server's
/// `Metrics` protocol frame; the latency summaries travel in the store's
/// CRC-checked wire format and merge with `merge_summaries` on the far
/// side, so snapshots from several servers federate into one quantile
/// estimate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, cumulative value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, current value)`, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, merged stripe summary)`, sorted by name.
    pub latencies: Vec<(String, WeightedSummary)>,
}

impl MetricsSnapshot {
    /// Value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Value of the gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Latency summary named `name`, if present.
    pub fn latency(&self, name: &str) -> Option<&WeightedSummary> {
        self.latencies.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// φ-quantile of the latency summary named `name` (None if the name
    /// is unknown or the summary is empty).
    pub fn quantile(&self, name: &str, phi: f64) -> Option<f64> {
        self.latency(name)?.quantile_bits(phi).map(f64::from_ordered_bits)
    }

    /// Prometheus-style text exposition:
    ///
    /// ```text
    /// # TYPE requests counter
    /// requests 42
    /// # TYPE queue_depth gauge
    /// queue_depth 3
    /// # TYPE request_seconds summary
    /// request_seconds{quantile="0.5"} 0.0042
    /// request_seconds_count 42
    /// ```
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
        }
        for (name, summary) in &self.latencies {
            let _ = writeln!(out, "# TYPE {name} summary");
            for phi in RENDERED_QUANTILES {
                if let Some(v) = summary.quantile_bits(phi).map(f64::from_ordered_bits) {
                    let _ = writeln!(out, "{name}{{quantile=\"{phi}\"}} {v}");
                }
            }
            let _ = writeln!(out, "{name}_count {}", summary.stream_len());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_shares_instruments() {
        let registry = Registry::new();
        let a = registry.counter("hits");
        let b = registry.counter("hits");
        a.incr();
        b.add(2);
        assert!(a.same_instrument(&b));
        assert_eq!(registry.snapshot().counter("hits"), Some(3));

        let l1 = registry.latency("lat");
        let l2 = registry.latency_with_k("lat", 999); // k ignored: exists
        assert!(l1.same_instrument(&l2));
        assert_eq!(l1.k(), l2.k());
    }

    #[test]
    fn snapshot_contains_all_instrument_kinds_sorted() {
        let registry = Registry::new();
        registry.counter("b_counter").add(7);
        registry.counter("a_counter").add(1);
        registry.gauge("depth").set(-2);
        registry.latency("lat").record(0.5);

        let snap = registry.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a_counter", "b_counter"]);
        assert_eq!(snap.gauge("depth"), Some(-2));
        assert_eq!(snap.latency("lat").unwrap().stream_len(), 1);
        assert_eq!(snap.quantile("lat", 0.5), Some(0.5));
        assert_eq!(snap.quantile("missing", 0.5), None);
    }

    #[test]
    fn disabled_registry_registers_nothing() {
        let registry = Registry::disabled();
        assert!(!registry.is_enabled());
        let c = registry.counter("hits");
        c.add(10);
        registry.gauge("g").set(5);
        registry.latency("l").record(1.0);
        registry.event(EventKind::ConnOpen, "peer=x");
        let snap = registry.snapshot();
        assert_eq!(snap, MetricsSnapshot::default());
        assert_eq!(registry.render_text(), "");
        assert!(registry.events().drain().is_empty());
    }

    #[test]
    fn render_text_has_prometheus_shape() {
        let registry = Registry::new();
        registry.counter("reqs").add(3);
        registry.gauge("depth").set(2);
        let lat = registry.latency("lat_seconds");
        for i in 0..100 {
            lat.record(i as f64 / 100.0);
        }
        let text = registry.render_text();
        assert!(text.contains("# TYPE reqs counter"));
        assert!(text.contains("reqs 3"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth 2"));
        assert!(text.contains("# TYPE lat_seconds summary"));
        assert!(text.contains("lat_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("lat_seconds_count 100"));
    }

    #[test]
    fn events_flow_through_registry() {
        let registry = Registry::new();
        registry.event(EventKind::Demotion, "key=k1");
        let events = registry.events().drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Demotion);
    }
}
