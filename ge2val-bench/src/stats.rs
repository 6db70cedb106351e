//! Order statistics of a sample of timings.
//!
//! Every quantile uses the "exclusive" rule of Python's
//! `statistics.quantiles` (position `q * (n + 1)`, clamped to the data, with
//! linear interpolation), so a spread computed here equals the one an
//! outside checker computes from the same values with that function.

/// Quantile `q` (in `0..=1`) of an ascending-sorted, non-empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of an empty sample");
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n as f64 + 1.0);
    let j = (h.floor() as usize).clamp(1, n - 1);
    let delta = h - j as f64;
    sorted[j - 1] * (1.0 - delta) + sorted[j] * delta
}

/// Median, quartiles, 10th and 90th percentiles and extremes of one sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// 10th percentile.
    pub p10: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize a non-empty sample (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            min: s[0],
            p10: quantile_sorted(&s, 0.1),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            p90: quantile_sorted(&s, 0.9),
            max: s[s.len() - 1],
        }
    }

    /// Inter-quartile distance as a share of the median — the run-to-run
    /// "spread" every bound in `BENCHMARK.json` is compared against.
    pub fn iqr_over_median(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of a non-empty sample (any order): the estimator for samples
/// taken over *different* work items (the problems of one pass).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The estimator for repeated timings of the *same* work (the blocks of an
/// untraced run, the set-up repetitions, the cycles of a traced run): the
/// fastest repetition.  Interference on a shared host only ever adds time.
/// Here it comes in bursts of milliseconds whose density stays high for
/// tens of seconds at a time, which moved the per-run median by 10-25 %
/// and the 10th percentile by up to 25 % between runs of the same code;
/// the minimum stays put as long as one repetition of the run was left
/// alone.
pub fn best_time(samples: &[f64]) -> f64 {
    Summary::of(samples).min
}

/// [`best_time`] for rates (work per second): the highest.
pub fn best_rate(samples: &[f64]) -> f64 {
    Summary::of(samples).max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert!((s.iqr_over_median() - 1.0).abs() < 1e-15);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
    }

    #[test]
    fn small_samples_clamp_like_python() {
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.p90), (7.0, 7.0, 7.0, 7.0));
        assert_eq!(one.iqr_over_median(), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!((best_time(&v), best_rate(&v)), (1.0, 10.0));
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).iqr_over_median(), 0.0);
    }

    #[test]
    fn p90_interpolates_inside_the_top_decile() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        // position 0.9 * 20 = 18 -> the 18th smallest value.
        assert_eq!(Summary::of(&v).p90, 18.0);
        assert_eq!(Summary::of(&v).p10, 2.0);
    }
}
