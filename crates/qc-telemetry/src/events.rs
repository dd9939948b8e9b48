//! A fixed-size, lock-free-for-writers ring of structured events.
//!
//! Replaces ad-hoc silent drops (swallowed protocol errors, invisible
//! promotions) with a bounded buffer a debugging session can drain. The
//! contract writers get:
//!
//! - **push never blocks**: one relaxed `fetch_add` to claim a sequence
//!   number, then a single `try_lock` on the target slot. If the slot is
//!   busy the event is dropped — and *counted*.
//! - **oldest-first drop**: the ring keeps the newest `capacity` events.
//! - **exact accounting**: every claimed sequence number is eventually
//!   classified by [`EventRing::drain`] as returned or dropped, exactly
//!   once, so `pushed()` equals the events drains returned plus the
//!   dropped count whenever the ring is quiescent and fully drained.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, TryLockError};
use std::time::Instant;

/// What happened. Labels are stable snake_case strings used in events
/// exposition and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A connection was accepted.
    ConnOpen,
    /// A connection closed cleanly (EOF).
    ConnClose,
    /// A connection terminated on an I/O error.
    IoError,
    /// A frame failed to decode (malformed, oversized, unknown opcode).
    ProtoError,
    /// A request exceeded the server's slow-request threshold.
    SlowRequest,
    /// A key's engine was promoted to the hot tier.
    Promotion,
    /// A key's engine was demoted back to the cold tier.
    Demotion,
    /// A key was removed from the store.
    Eviction,
    /// A store recovered its state from a durable data directory.
    Recovery,
    /// The store wrote a checkpoint and pruned the log behind it.
    Checkpoint,
    /// An append or sync of the durable log failed; the store keeps
    /// serving from memory but durability has degraded.
    WalError,
    /// The ingest processor queue saturated and datagrams were dropped
    /// (queue-full shedding began).
    Overload,
    /// The ingest circuit breaker opened: datagrams shed on arrival for a
    /// backoff window.
    CircuitOpen,
    /// The ingest circuit breaker closed: a probe datagram got through
    /// and normal admission resumed.
    CircuitClose,
}

impl EventKind {
    /// Stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::ConnOpen => "conn_open",
            EventKind::ConnClose => "conn_close",
            EventKind::IoError => "io_error",
            EventKind::ProtoError => "proto_error",
            EventKind::SlowRequest => "slow_request",
            EventKind::Promotion => "promotion",
            EventKind::Demotion => "demotion",
            EventKind::Eviction => "eviction",
            EventKind::Recovery => "recovery",
            EventKind::Checkpoint => "checkpoint",
            EventKind::WalError => "wal_error",
            EventKind::Overload => "overload",
            EventKind::CircuitOpen => "circuit_open",
            EventKind::CircuitClose => "circuit_close",
        }
    }
}

/// One structured event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (dense across pushed events, including
    /// dropped ones).
    pub seq: u64,
    /// Microseconds since the ring was created.
    pub at_micros: u64,
    /// Category.
    pub kind: EventKind,
    /// Free-form context (`peer=… op=…`), kept short by callers.
    pub detail: String,
}

/// A slot holds the event for sequence `seq`, or an older/poisoned state
/// that drain classifies. `seq == u64::MAX` marks a never-written slot.
struct Slot {
    seq: u64,
    event: Option<Event>,
}

/// See the module docs for the writer contract.
pub struct EventRing {
    /// `None` for the disabled ring (pushes are no-ops).
    slots: Option<Box<[Mutex<Slot>]>>,
    /// `slots.len() - 1`; capacity is a power of two.
    mask: u64,
    /// Next sequence number to claim.
    head: AtomicU64,
    /// Cumulative events classified as dropped.
    dropped: AtomicU64,
    /// Serializes drainers; holds the next undrained sequence number.
    cursor: Mutex<u64>,
    epoch: Instant,
}

impl EventRing {
    /// A live ring holding the newest `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        let slots = (0..capacity)
            .map(|_| Mutex::new(Slot { seq: u64::MAX, event: None }))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots: Some(slots),
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cursor: Mutex::new(0),
            epoch: Instant::now(),
        }
    }

    /// A ring that records nothing.
    pub fn disabled() -> Self {
        Self {
            slots: None,
            mask: 0,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cursor: Mutex::new(0),
            epoch: Instant::now(),
        }
    }

    /// Whether pushes record anything.
    pub fn is_enabled(&self) -> bool {
        self.slots.is_some()
    }

    /// Slot count (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.slots.as_ref().map_or(0, |s| s.len())
    }

    /// Record an event. Never blocks: a busy slot drops the event (it is
    /// counted as dropped when drain reaches its sequence number).
    pub fn push(&self, kind: EventKind, detail: impl Into<String>) {
        let Some(slots) = &self.slots else { return };
        let seq = self.head.fetch_add(1, Relaxed);
        let slot = &slots[(seq & self.mask) as usize];
        let written = Slot {
            seq,
            event: Some(Event {
                seq,
                at_micros: self.epoch.elapsed().as_micros() as u64,
                kind,
                detail: detail.into(),
            }),
        };
        match slot.try_lock() {
            Ok(mut guard) => *guard = written,
            Err(TryLockError::Poisoned(poisoned)) => *poisoned.into_inner() = written,
            // Busy (a drain or a lapped writer holds it): drop the event.
            Err(TryLockError::WouldBlock) => {}
        }
    }

    /// Total events ever pushed (including dropped ones).
    pub fn pushed(&self) -> u64 {
        self.head.load(Relaxed)
    }

    /// Cumulative events classified as dropped (lapped before drain, or
    /// lost a `try_lock` race). Only advances during `drain`.
    fn dropped_events(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Remove and return all undrained events, in sequence order.
    ///
    /// Every sequence number between the drain cursor and the current head
    /// is classified exactly once: returned, or counted as dropped.
    pub fn drain(&self) -> Vec<Event> {
        let Some(slots) = &self.slots else { return Vec::new() };
        let mut cursor = match self.cursor.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let head = self.head.load(Relaxed);
        let capacity = slots.len() as u64;
        // Sequences older than head - capacity were overwritten (oldest
        // dropped first); count them without touching their slots.
        let start = (*cursor).max(head.saturating_sub(capacity));
        let mut dropped = start - *cursor;
        let mut out = Vec::with_capacity((head - start) as usize);
        for seq in start..head {
            let mut slot = match slots[(seq & self.mask) as usize].lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            if slot.seq == seq {
                match slot.event.take() {
                    Some(event) => out.push(event),
                    None => dropped += 1,
                }
            } else {
                // Either a newer event lapped this one, or the push for
                // `seq` lost its try_lock race and never wrote.
                dropped += 1;
            }
        }
        *cursor = head;
        self.dropped.fetch_add(dropped, Relaxed);
        out
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.capacity())
            .field("pushed", &self.pushed())
            .field("dropped", &self.dropped_events())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_newest_and_counts_drops_exactly() {
        let ring = EventRing::new(8);
        for i in 0..100 {
            ring.push(EventKind::ConnOpen, format!("n={i}"));
        }
        let events = ring.drain();
        // Oldest-first drop: exactly the newest `capacity` survive.
        assert_eq!(events.len(), 8);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (92..100).collect::<Vec<u64>>());
        assert_eq!(ring.dropped_events(), 92);
        assert_eq!(ring.pushed(), events.len() as u64 + ring.dropped_events());
    }

    #[test]
    fn drain_is_incremental() {
        let ring = EventRing::new(16);
        ring.push(EventKind::Promotion, "key=a");
        ring.push(EventKind::Demotion, "key=a");
        assert_eq!(ring.drain().len(), 2);
        assert_eq!(ring.drain().len(), 0);
        ring.push(EventKind::Eviction, "key=b");
        let next = ring.drain();
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].kind, EventKind::Eviction);
        assert_eq!(next[0].detail, "key=b");
        assert_eq!(ring.dropped_events(), 0);
    }

    /// Concurrency conservation law: after the writers quiesce and a final
    /// drain runs, every pushed event was either drained or dropped.
    #[test]
    fn concurrent_pushes_never_block_and_conserve_counts() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 2_000;
        let ring = EventRing::new(64);
        let mut drained_total = 0u64;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        ring.push(EventKind::SlowRequest, format!("t={t} i={i}"));
                    }
                });
            }
            // A concurrent drainer exercising the try_lock contention path.
            drained_total += ring.drain().len() as u64;
        });
        drained_total += ring.drain().len() as u64;
        assert_eq!(ring.pushed(), (THREADS * PER_THREAD) as u64);
        assert_eq!(
            ring.pushed(),
            drained_total + ring.dropped_events(),
            "conservation: pushed = drained + dropped"
        );
    }

    #[test]
    fn events_carry_ordered_timestamps() {
        let ring = EventRing::new(8);
        ring.push(EventKind::ConnOpen, "peer=a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        ring.push(EventKind::ConnClose, "peer=a");
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        assert!(events[0].at_micros <= events[1].at_micros);
        assert_eq!(events[0].kind.label(), "conn_open");
    }

    #[test]
    fn disabled_ring_is_inert() {
        let ring = EventRing::disabled();
        ring.push(EventKind::ProtoError, "x");
        assert_eq!(ring.pushed(), 0);
        assert!(ring.drain().is_empty());
        assert_eq!(ring.capacity(), 0);
        assert!(!ring.is_enabled());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::new(0).capacity(), 8);
        assert_eq!(EventRing::new(9).capacity(), 16);
        assert_eq!(EventRing::new(64).capacity(), 64);
    }
}
