//! Multi-run aggregation: mean, standard deviation, confidence interval.
//!
//! Every data point in the paper averages 30 seeded runs. [`Summary`]
//! collapses a sample of per-run values into the statistics the harness
//! prints.

/// Summary statistics of a sample of per-run values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of runs.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Half-width of the 95 % confidence interval (normal approximation;
    /// 0 for n < 2).
    pub ci95: f64,
}

impl Summary {
    /// Computes statistics over `values`.
    ///
    /// ```
    /// use airguard_metrics::Summary;
    ///
    /// let s = Summary::of(&[10.0, 12.0, 14.0]);
    /// assert_eq!(s.mean, 12.0);
    /// assert_eq!(s.n, 3);
    /// assert!((s.std_dev - 2.0).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        let n = values.len();
        if n == 0 {
            return Summary {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                ci95: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return Summary {
                n,
                mean,
                std_dev: 0.0,
                ci95: 0.0,
            };
        }
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        let std_dev = var.sqrt();
        let ci95 = 1.96 * std_dev / (n as f64).sqrt();
        Summary {
            n,
            mean,
            std_dev,
            ci95,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ± {:.2} (n={})", self.mean, self.ci95, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_sample() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_value_has_no_spread() {
        let s = Summary::of(&[7.5]);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev with n−1 = 7: sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn display_is_compact() {
        let s = Summary::of(&[1.0, 3.0]);
        // std = √2, ci95 = 1.96·√2/√2 = 1.96.
        assert_eq!(format!("{s}"), "2.00 ± 1.96 (n=2)");
    }

    proptest! {
        #[test]
        fn mean_within_min_max(values in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
            let s = Summary::of(&values);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(s.mean >= min - 1e-6 && s.mean <= max + 1e-6);
            prop_assert!(s.std_dev >= 0.0);
        }

        #[test]
        fn constant_sample_has_zero_spread(v in -1e3f64..1e3, n in 2usize..20) {
            let s = Summary::of(&vec![v; n]);
            prop_assert!(s.std_dev < 1e-9);
            prop_assert!((s.mean - v).abs() < 1e-9);
        }
    }
}
