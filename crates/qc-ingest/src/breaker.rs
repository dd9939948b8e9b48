//! The overload circuit breaker: shed load cheaply when the processor
//! queue stays saturated.
//!
//! One full `try_push` is noise; a long run of them means the processors
//! are behind and every further enqueue attempt just burns the socket
//! thread's budget (lock, refusal, accounting) without helping. The
//! breaker watches *consecutive* queue-full refusals and, past a
//! threshold, **opens**: incoming datagrams are dropped on arrival for a
//! backoff window, without touching the queue at all. At the window's end
//! it goes **half-open** and lets exactly one probe datagram try the
//! queue: success closes the circuit, another refusal re-opens it with
//! the backoff doubled (capped). This is the classic AIMD-flavoured
//! breaker, deterministic and clock-injected so the state machine is unit
//! testable without sleeping.
//!
//! All sheds are *counted* — the breaker changes where an overloaded
//! datagram is dropped (before the queue instead of at it), never whether
//! the drop is visible in the accounting.

use std::time::{Duration, Instant};

/// Breaker tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive queue-full refusals that open the circuit.
    pub open_after: u32,
    /// First open window; doubles on each failed probe.
    pub initial_backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            open_after: 64,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }
}

/// What the breaker tells the socket thread to do with one datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Try the queue (normal operation, or a half-open probe).
    Try,
    /// Drop immediately; the circuit is open.
    Shed,
}

/// Observable state transitions, surfaced as telemetry events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// The circuit just opened with this backoff window.
    Opened(Duration),
    /// The circuit just closed (a probe got through).
    Closed,
}

#[derive(Clone, Copy, Debug)]
enum State {
    Closed { consecutive_full: u32 },
    Open { until: Instant, backoff: Duration },
    HalfOpen { backoff: Duration },
}

/// The breaker state machine. Owned by the socket thread; all methods
/// take the caller's clock so tests drive time explicitly.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: State,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        let cfg = BreakerConfig {
            open_after: cfg.open_after.max(1),
            initial_backoff: cfg.initial_backoff.max(Duration::from_micros(1)),
            max_backoff: cfg.max_backoff.max(cfg.initial_backoff),
        };
        CircuitBreaker { cfg, state: State::Closed { consecutive_full: 0 } }
    }

    /// Decide one datagram's fate. `Admit::Try` means attempt the queue
    /// and report the outcome back via [`CircuitBreaker::on_enqueued`] or
    /// [`CircuitBreaker::on_queue_full`]; `Admit::Shed` means drop it now.
    pub fn admit(&mut self, now: Instant) -> Admit {
        match self.state {
            State::Closed { .. } => Admit::Try,
            State::Open { until, backoff } => {
                if now >= until {
                    // Window elapsed: the next datagram is the probe.
                    self.state = State::HalfOpen { backoff };
                    Admit::Try
                } else {
                    Admit::Shed
                }
            }
            State::HalfOpen { .. } => {
                // Only one probe per window: until its outcome arrives,
                // further datagrams shed. (The socket thread reports the
                // outcome immediately after `try_push`, so in practice
                // this arm is not reached between probe and verdict.)
                Admit::Shed
            }
        }
    }

    /// The queue accepted a datagram.
    pub fn on_enqueued(&mut self) -> Option<Transition> {
        match self.state {
            State::Closed { consecutive_full: 0 } => None,
            State::Closed { .. } => {
                self.state = State::Closed { consecutive_full: 0 };
                None
            }
            State::HalfOpen { .. } | State::Open { .. } => {
                // Probe success: service restored.
                self.state = State::Closed { consecutive_full: 0 };
                Some(Transition::Closed)
            }
        }
    }

    /// The queue refused a datagram (full).
    pub fn on_queue_full(&mut self, now: Instant) -> Option<Transition> {
        match self.state {
            State::Closed { consecutive_full } => {
                let consecutive_full = consecutive_full + 1;
                if consecutive_full >= self.cfg.open_after {
                    let backoff = self.cfg.initial_backoff;
                    self.state = State::Open { until: now + backoff, backoff };
                    Some(Transition::Opened(backoff))
                } else {
                    self.state = State::Closed { consecutive_full };
                    None
                }
            }
            State::HalfOpen { backoff } | State::Open { backoff, .. } => {
                // Failed probe: double the window, stay open.
                let backoff = (backoff * 2).min(self.cfg.max_backoff);
                self.state = State::Open { until: now + backoff, backoff };
                Some(Transition::Opened(backoff))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            open_after: 3,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
        }
    }

    #[test]
    fn opens_after_consecutive_fulls_only() {
        let mut b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        assert_eq!(b.on_queue_full(t0), None);
        assert_eq!(b.on_queue_full(t0), None);
        // A success resets the run.
        assert_eq!(b.on_enqueued(), None);
        assert_eq!(b.on_queue_full(t0), None);
        assert_eq!(b.on_queue_full(t0), None);
        assert_eq!(b.on_queue_full(t0), Some(Transition::Opened(Duration::from_millis(10))));
        assert!(matches!(b.state, State::Open { .. }));
    }

    #[test]
    fn sheds_while_open_then_probes() {
        let mut b = CircuitBreaker::new(cfg());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.on_queue_full(t0);
        }
        assert_eq!(b.admit(t0 + Duration::from_millis(5)), Admit::Shed);
        // Window over: one probe allowed, followers shed until a verdict.
        assert_eq!(b.admit(t0 + Duration::from_millis(10)), Admit::Try);
        assert_eq!(b.admit(t0 + Duration::from_millis(10)), Admit::Shed);
    }

    #[test]
    fn failed_probe_doubles_backoff_to_cap_and_success_closes() {
        let mut b = CircuitBreaker::new(cfg());
        let mut now = Instant::now();
        for _ in 0..3 {
            b.on_queue_full(now);
        }
        // 10 -> 20 -> 40 -> 40 (cap)
        for expect_ms in [20u64, 40, 40] {
            now += Duration::from_millis(500);
            assert_eq!(b.admit(now), Admit::Try);
            assert_eq!(
                b.on_queue_full(now),
                Some(Transition::Opened(Duration::from_millis(expect_ms)))
            );
        }
        now += Duration::from_millis(500);
        assert_eq!(b.admit(now), Admit::Try);
        assert_eq!(b.on_enqueued(), Some(Transition::Closed));
        assert!(matches!(b.state, State::Closed { .. }));
        assert_eq!(b.admit(now), Admit::Try);
    }
}
