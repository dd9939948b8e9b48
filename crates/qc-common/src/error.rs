//! Error-bound arithmetic for the sketch family.
//!
//! Three error sources compose in the paper (§4.2):
//!
//! 1. **Sub-sampling error** of the underlying sequential sketch, a function
//!    ε_c(k) of the level size `k`. We use the empirical rank-error fit of
//!    the Apache DataSketches *classic* Quantiles sketch (the very
//!    implementation the paper builds on): ε_c(k) ≈ 1.76 / k^0.93.
//! 2. **Relaxation error**: an r-relaxed sketch may miss up to `r` of the
//!    most recent updates. Rinberg et al. show a query then returns a value
//!    whose rank error grows to ε_r = ε_c + (r/n)(1 − ε_c).
//! 3. **Staleness error** from answering queries out of a cached snapshot
//!    bounded by freshness ρ = 1 + ε′: ε = ε_r + ε′.

/// Normalized rank error ε_c(k) of the classic Quantiles sketch.
///
/// This is the single-sided rank-error fit published with Apache
/// DataSketches for the Agarwal et al. sketch (`getNormalizedRankError`,
/// non-PMF case): `1.76 / k^0.93`. For k = 128 it gives ≈ 1.93%, matching
/// the library's documented table.
pub fn sequential_epsilon(k: usize) -> f64 {
    assert!(k >= 2, "k must be at least 2");
    1.76 / (k as f64).powf(0.93)
}

/// Relaxation error ε_r = ε_c + (r/n)(1 − ε_c) for a stream of size `n`
/// processed by an `r`-relaxed sketch (Rinberg et al., quoted in §4.2).
///
/// For n = 0 (or r ≥ n) every answer is vacuously within the full range, so
/// the bound saturates at 1.
pub fn relaxed_epsilon(eps_c: f64, r: u64, n: u64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let frac = (r as f64 / n as f64).min(1.0);
    (eps_c + frac * (1.0 - eps_c)).min(1.0)
}

/// Total error with snapshot caching: ε = ε_r + ε′ where ρ = 1 + ε′ (§4.2).
pub fn cached_epsilon(eps_r: f64, rho: f64) -> f64 {
    assert!(rho >= 1.0 || rho == 0.0, "rho is a ratio bound ≥ 1 (or 0 = no caching)");
    let eps_prime = if rho == 0.0 { 0.0 } else { rho - 1.0 };
    (eps_r + eps_prime).min(1.0)
}

/// Quancurrent's relaxation r = 4kS + (N − S)·b (§3.1/§4.2), where `S` is
/// the number of NUMA nodes, `N` the number of update threads, `b` the
/// local-buffer size and `k` the level size.
pub fn quancurrent_relaxation(k: usize, b: usize, num_threads: usize, numa_nodes: usize) -> u64 {
    let s = numa_nodes.min(num_threads).max(1) as u64;
    let n = num_threads as u64;
    4 * k as u64 * s + n.saturating_sub(s) * b as u64
}

/// FCDS relaxation 2·N·B (§5.5): N worker threads with double buffers of
/// size B each.
pub fn fcds_relaxation(buffer_size: usize, num_threads: usize) -> u64 {
    2 * num_threads as u64 * buffer_size as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_decreases_with_k() {
        let mut prev = f64::INFINITY;
        for k in [16, 64, 128, 256, 1024, 4096] {
            let e = sequential_epsilon(k);
            assert!(e < prev, "eps not decreasing at k={k}");
            prev = e;
        }
    }

    #[test]
    fn epsilon_matches_datasketches_table_point() {
        // DataSketches documents ≈1.93% at k=128 for the classic sketch.
        let e = sequential_epsilon(128);
        assert!((e - 0.0193).abs() < 0.002, "eps(128) = {e}");
    }

    #[test]
    fn relaxed_epsilon_reduces_to_eps_c_when_r_zero() {
        assert_eq!(relaxed_epsilon(0.01, 0, 1_000_000), 0.01);
    }

    #[test]
    fn relaxed_epsilon_grows_with_r_and_saturates() {
        let e1 = relaxed_epsilon(0.01, 1000, 1_000_000);
        let e2 = relaxed_epsilon(0.01, 100_000, 1_000_000);
        assert!(e1 < e2);
        assert_eq!(relaxed_epsilon(0.01, 2_000_000, 1_000_000), 1.0);
        assert_eq!(relaxed_epsilon(0.01, 0, 0), 1.0);
    }

    #[test]
    fn cached_epsilon_adds_staleness() {
        assert_eq!(cached_epsilon(0.01, 1.0), 0.01);
        assert!((cached_epsilon(0.01, 1.05) - 0.06).abs() < 1e-12);
        assert_eq!(cached_epsilon(0.01, 0.0), 0.01); // ρ=0 ⇒ no caching ⇒ no extra error
    }

    #[test]
    fn quancurrent_relaxation_matches_paper_examples() {
        // §5.5: 8 update threads, S = 1, b = 2048 → r ≈ 30K with k = 4096.
        let r = quancurrent_relaxation(4096, 2048, 8, 1);
        assert_eq!(r, 4 * 4096 + 7 * 2048); // 16384 + 14336 = 30720 ≈ 30K
                                            // §5.5: 32 threads, S = 4, b = 2048, k = 4096 → r ≈ 122K.
        let r32 = quancurrent_relaxation(4096, 2048, 32, 4);
        assert_eq!(r32, 4 * 4096 * 4 + 28 * 2048); // 65536 + 57344 = 122880 ≈ 122K
    }

    #[test]
    fn fcds_relaxation_matches_paper_examples() {
        // §5.5: B = 1920 with 8 threads gives 2·8·1920 = 30720 ≈ 30K.
        assert_eq!(fcds_relaxation(1920, 8), 30720);
    }

    #[test]
    fn quancurrent_relaxation_clamps_nodes_to_threads() {
        // 2 threads on a "4-node" machine occupy at most 2 nodes.
        let r = quancurrent_relaxation(64, 8, 2, 4);
        assert_eq!(r, (4 * 64 * 2));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_k_rejected() {
        sequential_epsilon(1);
    }
}
