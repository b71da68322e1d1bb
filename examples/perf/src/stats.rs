//! Order statistics for repeated measurements.
//!
//! Quantiles use the "exclusive" method of Python's
//! `statistics.quantiles`, so the quartiles printed here are the ones a
//! reader recomputes from the raw values with the standard library.

/// Median and quartiles of one metric over `n` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `xs`; `None` when there are no samples. With a single
    /// sample all three statistics are that sample.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let n = xs.len();
        match n {
            0 => None,
            1 => Some(Summary {
                median: xs[0],
                q1: xs[0],
                q3: xs[0],
                n,
            }),
            _ => Some(Summary {
                median: quantile(xs, 0.5)?,
                q1: quantile(xs, 0.25)?,
                q3: quantile(xs, 0.75)?,
                n,
            }),
        }
    }
}

/// The `p`-quantile of `xs` (0 < p < 1) by the exclusive method: the
/// order statistic at rank `p * (n + 1)`, linearly interpolated, with the
/// rank clamped to the second and second-to-last samples exactly as
/// Python does. `None` for fewer than two samples.
pub fn quantile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = p * (n + 1) as f64;
    let j = (h.floor() as usize).clamp(1, n - 1);
    let delta = h - j as f64;
    Some(sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta)
}

/// The median of `xs`, or the single sample when there is one.
pub fn median(xs: &[f64]) -> Option<f64> {
    Summary::of(xs).map(|s| s.median)
}

/// The `pct`-th percentile (0 < pct < 100), reported only when at least
/// ten samples lie beyond it: fewer than that and the tail is a handful
/// of outliers, not a percentile. Integer percentages keep the sample
/// count exact.
pub fn percentile(xs: &[f64], pct: usize) -> Option<f64> {
    if xs.len() < samples_for(pct) {
        return None;
    }
    quantile(xs, pct as f64 / 100.0)
}

/// Samples the `pct`-th percentile needs before it may be reported.
pub fn samples_for(pct: usize) -> usize {
    (1000_usize).div_ceil(100 - pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamped rank extrapolates past the samples.
        assert!(close(quantile(&[2.0, 1.0], 0.25).unwrap(), 0.75));
        assert!(close(quantile(&[2.0, 1.0], 0.75).unwrap(), 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert!(close(s.q1, 1.5) && close(s.median, 3.0) && close(s.q3, 4.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(
            percentile(&xs[..99], 90),
            None,
            "99 samples leave 9 beyond p90"
        );
        assert!(close(percentile(&xs, 90).unwrap(), 89.9));
        assert_eq!(samples_for(90), 100);
        assert_eq!(samples_for(50), 20);
        assert_eq!(samples_for(99), 1000);
        assert_eq!(percentile(&xs[..19], 50), None);
        assert!(close(percentile(&xs[..20], 50).unwrap(), 9.5));
    }
}
