//! Open-loop scheduling: requests are due on a fixed grid, whatever the
//! system under test is doing.
//!
//! Slot `i` is due at `start + i·period`. A generator that falls behind
//! (its previous request stalled, or it was descheduled) still sends every
//! missed slot, and each is timed **from its due time** — so a stall
//! charges every request it delayed, the way independent users would
//! experience it. (`qc_load::TokenBucket` paces but forgets missed
//! slots beyond its burst, which is why it is not what times requests
//! here.)
//!
//! The arithmetic is clock-injected (nanoseconds in, nanoseconds out) so
//! it is testable without sleeping.

use std::time::{Duration, Instant};

/// What the schedule says at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Poll {
    /// Slot `slot`, due at `due_ns`, is ready to send (`due_ns ≤ now`).
    Due {
        /// Slot index.
        slot: u64,
        /// Its due time.
        due_ns: u64,
    },
    /// Nothing is due for this long.
    Wait(u64),
}

/// A fixed-rate schedule of slots.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    start_ns: u64,
    period_ns: u64,
    next: u64,
}

impl OpenLoop {
    /// `rate_per_s` slots per second, the first due at `start_ns`.
    pub fn new(start_ns: u64, rate_per_s: u64) -> Self {
        OpenLoop { start_ns, period_ns: 1_000_000_000 / rate_per_s.max(1), next: 0 }
    }

    /// Due time of slot `slot`.
    pub fn due_ns(&self, slot: u64) -> u64 {
        self.start_ns + slot * self.period_ns
    }

    /// Take the next slot if it is due at `now_ns`.
    pub fn poll(&mut self, now_ns: u64) -> Poll {
        let due_ns = self.due_ns(self.next);
        if due_ns > now_ns {
            return Poll::Wait(due_ns - now_ns);
        }
        let slot = self.next;
        self.next += 1;
        Poll::Due { slot, due_ns }
    }
}

/// How close to a deadline the waiter stops sleeping and starts yielding:
/// a timed sleep on this sandbox overshoots by 60–70 µs, more than half a
/// 100 µs send period.
const SPIN_WITHIN: Duration = Duration::from_micros(150);

/// Wait until `epoch + at_ns`: sleep while the deadline is far, then
/// `yield_now` until it arrives. The generator has a core to itself (see
/// `sut::separate_cores`), so the yield loop takes nothing from the server
/// — and a yielding thread gives way at once to the generator's other
/// thread when a reply wakes it.
pub fn wait_until(epoch: Instant, at_ns: u64) {
    let target = epoch + Duration::from_nanos(at_ns);
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        if target - now > SPIN_WITHIN {
            std::thread::sleep(target - now - SPIN_WITHIN);
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn slots_fall_on_the_grid() {
        let mut s = OpenLoop::new(5 * MS, 1000);
        assert_eq!(s.poll(0), Poll::Wait(5 * MS));
        assert_eq!(s.poll(5 * MS), Poll::Due { slot: 0, due_ns: 5 * MS });
        assert_eq!(s.poll(5 * MS), Poll::Wait(MS));
        assert_eq!(s.poll(6 * MS + 1), Poll::Due { slot: 1, due_ns: 6 * MS });
    }

    #[test]
    fn a_stalled_send_charges_later_requests() {
        // 1000 slots/s, each request served in 0.1 ms — except slot 3,
        // which stalls for 5 ms. Latency is completion − due time.
        let mut s = OpenLoop::new(0, 1000);
        let mut now = 0u64;
        let mut latency = Vec::new();
        while latency.len() < 12 {
            match s.poll(now) {
                Poll::Wait(ns) => now += ns,
                Poll::Due { slot, due_ns } => {
                    now += if slot == 3 { 5 * MS } else { MS / 10 };
                    latency.push(now - due_ns);
                }
            }
        }
        // Before the stall: service time only.
        assert_eq!(&latency[..3], &[MS / 10; 3]);
        assert_eq!(latency[3], 5 * MS);
        // Slots 4..=7 came due during the stall and are sent back to
        // back: each is charged the wait the stall imposed on it.
        assert_eq!(latency[4], 4 * MS + MS / 10);
        assert_eq!(latency[5], 3 * MS + 2 * (MS / 10));
        assert!(latency[7] > MS);
        // The backlog drains and latency returns to service time.
        assert_eq!(latency[11], MS / 10);
        // No slot was skipped: 12 sends cover slots 0..12.
        assert_eq!(s.poll(now), Poll::Wait(s.due_ns(12) - now));
    }
}
