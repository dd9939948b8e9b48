//! Run statistics: every paper data point is "an average of 15 runs, to
//! minimize measurement noise" (§5.1).

/// Summary statistics over repeated measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Number of samples.
    pub runs: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_err: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl RunStats {
    /// Compute statistics over `samples`.
    fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        Self {
            runs: samples.len(),
            mean,
            std_dev,
            std_err: std_dev / n.sqrt(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Run `measure` `runs` times and summarize.
    pub fn measure(runs: usize, mut measure: impl FnMut(usize) -> f64) -> Self {
        let samples: Vec<f64> = (0..runs).map(&mut measure).collect();
        Self::from_samples(&samples)
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} (n={}, min {:.4}, max {:.4})",
            self.mean, self.std_err, self.runs, self.min, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_are_zero() {
        let s = RunStats::from_samples(&[]);
        assert_eq!(s.runs, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = RunStats::from_samples(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn known_values() {
        let s = RunStats::from_samples(&[2.0, 4.0, 6.0]);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert!((s.std_err - 2.0 / 3f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
    }

    #[test]
    fn measure_invokes_n_times() {
        let mut calls = 0;
        let s = RunStats::measure(7, |i| {
            calls += 1;
            i as f64
        });
        assert_eq!(calls, 7);
        assert_eq!(s.runs, 7);
        assert!((s.mean - 3.0).abs() < 1e-12);
    }
}
