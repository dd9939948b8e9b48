//! Exact order statistics over raw samples.
//!
//! Latencies are kept as raw nanosecond samples and sorted once; no
//! sketch stands between a measurement and its percentile (the system
//! under test is a quantile sketch — measuring it with itself would hide
//! exactly the error this benchmark exists to bound).

/// Exact `p`-quantile (nearest rank) of an ascending slice: the smallest
/// sample with at least `p·n` samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_index(sorted.len(), p)])
}

fn rank_index(n: usize, p: f64) -> usize {
    let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// How many samples lie strictly beyond the `p`-quantile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// A tail percentile the sample count supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (0.99 or 0.999).
    pub p: f64,
    /// Its exact value.
    pub value: u64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest of p99.9 / p99 with at least [`MIN_BEYOND`] samples beyond
/// it; `None` when even p99 is not supported by the sample count.
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    [0.999, 0.99].into_iter().find_map(|p| {
        let beyond = samples_beyond(sorted.len(), p);
        (beyond >= MIN_BEYOND).then(|| Tail {
            p,
            value: sorted[rank_index(sorted.len(), p)],
            beyond,
        })
    })
}

/// Median of unsorted values (mean of the middle pair when even).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// `|a − b| / min(a, b)` — the A/A disagreement measure. Two zeros agree.
pub fn relative_gap(a: f64, b: f64) -> f64 {
    let low = a.min(b);
    if a == b {
        0.0
    } else if low <= 0.0 {
        f64::INFINITY
    } else {
        (a - b).abs() / low
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Some(50));
        assert_eq!(percentile(&s, 0.99), Some(99));
        assert_eq!(percentile(&s, 1.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.999), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_on_odd_and_tiny_counts() {
        assert_eq!(percentile(&[1, 2, 3], 0.5), Some(2));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), Some(2));
        assert_eq!(percentile(&[1, 2, 3, 4], 0.51), Some(3));
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990, 10 beyond; p99.9 has none.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&s), Some(Tail { p: 0.99, value: 990, beyond: 10 }));
        // One fewer sample and p99 has only 9 beyond.
        assert_eq!(tail(&s[..999]), None);
        // 10_000 samples: p99.9 is rank 9990 with exactly 10 beyond.
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&s), Some(Tail { p: 0.999, value: 9990, beyond: 10 }));
        // Just under: falls back to p99.
        let t = tail(&s[..9_999]).unwrap();
        assert_eq!(t.p, 0.99);
        assert!(t.beyond >= MIN_BEYOND);
    }

    #[test]
    fn median_and_gap() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(relative_gap(10.0, 11.0), 0.1);
        assert_eq!(relative_gap(11.0, 10.0), 0.1);
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert!(relative_gap(0.0, 1.0).is_infinite());
    }
}
