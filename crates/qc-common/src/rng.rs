//! Small deterministic PRNGs for sampling coin flips.
//!
//! Every propagation step of a Quantiles sketch flips a fair coin to retain
//! either the odd- or even-indexed elements (§2.2 of the paper). The
//! concurrent sketch flips these coins on *owner* threads, so each handle
//! carries its own generator:
//!
//! * reproducible experiments need per-sketch seeding, and
//! * the hot path must not contend on a shared RNG or take a lock.
//!
//! [`SplitMix64`] is used for seeding/stream-splitting; [`Xoshiro256`]
//! (xoshiro256\*\*) is the workhorse generator. Both match the published
//! reference outputs (tested below), so streams are stable across releases.

/// SplitMix64 — Sebastiano Vigna's 64-bit mixer.
///
/// Primarily used to derive well-distributed seeds for [`Xoshiro256`] from a
/// single user seed (possibly 0). Passes into each call advance an internal
/// counter by the golden-ratio increment.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from an arbitrary seed (0 is fine).
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* — a fast, high-quality 256-bit-state generator
/// (Blackman & Vigna). Used for all sampling decisions and synthetic
/// streams that do not go through the `rand` crate.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 as recommended by the xoshiro authors, so any
    /// `u64` (including 0) yields a healthy state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A fair coin flip: `true` with probability 1/2.
    ///
    /// Uses the top bit, which has the best equidistribution properties in
    /// the xoshiro family.
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Uniform value in `[0, bound)` via Lemire's multiply-shift reduction
    /// (bias is negligible for the bounds used here and the method is
    /// branch-light on the hot path).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Split off an independent generator (jump-free stream splitting via
    /// SplitMix64 reseeding — adequate for test/bench stream derivation).
    pub fn split(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from the public-domain `splitmix64.c` (Vigna),
    /// seed = 1234567.
    #[test]
    fn splitmix64_matches_reference() {
        let mut g = SplitMix64::new(1234567);
        let expected = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for e in expected {
            assert_eq!(g.next_u64(), e);
        }
    }

    /// Reference values from the public-domain `xoshiro256starstar.c`
    /// with state {1, 2, 3, 4}.
    #[test]
    fn xoshiro_matches_reference() {
        let mut g = Xoshiro256 { s: [1, 2, 3, 4] };
        let expected =
            [11520u64, 0, 1509978240, 1215971899390074240, 1216172134540287360, 607988272756665600];
        for e in expected {
            assert_eq!(g.next_u64(), e);
        }
    }

    #[test]
    fn zero_seed_is_healthy() {
        let mut g = Xoshiro256::seed_from_u64(0);
        let a = g.next_u64();
        let b = g.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut g = Xoshiro256::seed_from_u64(42);
        let n = 100_000;
        let heads = (0..n).filter(|_| g.coin()).count();
        let frac = heads as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "biased coin: {frac}");
    }

    #[test]
    fn next_below_respects_bound_and_covers_range() {
        let mut g = Xoshiro256::seed_from_u64(7);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            let v = g.next_below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residues never produced");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = Xoshiro256::seed_from_u64(99);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "unexpected mean {mean}");
    }

    #[test]
    fn split_streams_are_decorrelated() {
        let mut g = Xoshiro256::seed_from_u64(5);
        let mut a = g.split();
        let mut b = g.split();
        let matches = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = Xoshiro256::seed_from_u64(11);
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
