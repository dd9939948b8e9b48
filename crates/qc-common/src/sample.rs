//! Odd-or-even subsampling.
//!
//! The propagation step of the Agarwal et al. sketch (§2.2) compacts a
//! sorted array of `2k` elements into `k` by keeping either the elements at
//! odd indices or the ones at even indices, chosen by a fair coin flip. The
//! retained elements double their weight. Quancurrent performs exactly the
//! same compaction concurrently (Algorithm 4, line 39: `sampleOddOrEven`).

use crate::rng::Xoshiro256;

/// Which half of a sorted array a compaction retains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parity {
    /// Keep indices 0, 2, 4, …
    Even,
    /// Keep indices 1, 3, 5, …
    Odd,
}

impl Parity {
    /// Flip a fair coin.
    #[inline]
    pub fn flip(rng: &mut Xoshiro256) -> Self {
        if rng.coin() {
            Parity::Odd
        } else {
            Parity::Even
        }
    }
}

/// Keep every other element of `src` starting from the parity's offset.
///
/// `src` must be sorted; the result is sorted too. For an input of length
/// `2k` both parities yield exactly `k` elements. Odd-length inputs (which
/// occur only in the quiescent-drain extension, never in paper propagation)
/// give `ceil(n/2)` for `Even` and `floor(n/2)` for `Odd`.
pub fn sample_with_parity(src: &[u64], parity: Parity) -> Vec<u64> {
    let offset = match parity {
        Parity::Even => 0,
        Parity::Odd => 1,
    };
    src.iter().skip(offset).step_by(2).copied().collect()
}

/// `sampleOddOrEven` of the paper: flip a fair coin and compact.
#[inline]
pub fn sample_odd_or_even(src: &[u64], rng: &mut Xoshiro256) -> Vec<u64> {
    sample_with_parity(src, Parity::flip(rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_keeps_first_of_each_pair() {
        assert_eq!(sample_with_parity(&[1, 2, 3, 4], Parity::Even), vec![1, 3]);
    }

    #[test]
    fn odd_keeps_second_of_each_pair() {
        assert_eq!(sample_with_parity(&[1, 2, 3, 4], Parity::Odd), vec![2, 4]);
    }

    #[test]
    fn empty_input_yields_empty() {
        assert!(sample_with_parity(&[], Parity::Even).is_empty());
        assert!(sample_with_parity(&[], Parity::Odd).is_empty());
    }

    #[test]
    fn two_k_input_always_halves() {
        let src: Vec<u64> = (0..256).collect();
        assert_eq!(sample_with_parity(&src, Parity::Even).len(), 128);
        assert_eq!(sample_with_parity(&src, Parity::Odd).len(), 128);
    }

    #[test]
    fn odd_length_input_sizes() {
        let src: Vec<u64> = (0..7).collect();
        assert_eq!(sample_with_parity(&src, Parity::Even).len(), 4);
        assert_eq!(sample_with_parity(&src, Parity::Odd).len(), 3);
    }

    #[test]
    fn output_stays_sorted() {
        let src: Vec<u64> = (0..100).map(|i| i * 3).collect();
        for p in [Parity::Even, Parity::Odd] {
            let out = sample_with_parity(&src, p);
            assert!(crate::merge::is_sorted(&out));
        }
    }

    #[test]
    fn coin_chooses_both_parities() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let src = [10u64, 20];
        let mut saw_even = false;
        let mut saw_odd = false;
        for _ in 0..100 {
            match sample_odd_or_even(&src, &mut rng)[0] {
                10 => saw_even = true,
                20 => saw_odd = true,
                _ => unreachable!(),
            }
        }
        assert!(saw_even && saw_odd);
    }

    /// Each element must survive a single compaction with probability 1/2 —
    /// this is the property the sketch's unbiasedness rests on.
    #[test]
    fn survival_probability_is_half() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        let src: Vec<u64> = (0..2).collect();
        let trials = 20_000;
        let mut survived_0 = 0u32;
        for _ in 0..trials {
            if sample_odd_or_even(&src, &mut rng)[0] == 0 {
                survived_0 += 1;
            }
        }
        let p = survived_0 as f64 / trials as f64;
        assert!((p - 0.5).abs() < 0.02, "survival probability {p}");
    }
}
