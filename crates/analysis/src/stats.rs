//! Summary statistics for Monte-Carlo samples.

use serde::{Deserialize, Serialize};

/// Five-number-plus summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Compute a summary. Returns `None` for an empty sample.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        Some(Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            p10: percentile_sorted(&sorted, 0.10),
            median: percentile_sorted(&sorted, 0.50),
            p90: percentile_sorted(&sorted, 0.90),
            p99: percentile_sorted(&sorted, 0.99),
            max: sorted[count - 1],
        })
    }
}

/// Linear-interpolated percentile of an already-sorted sample.
///
/// `q` is clamped to `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let (lo, hi, frac) = interpolation_ranks(sorted.len(), q);
    interpolate(sorted[lo], sorted[hi], frac)
}

/// The two order statistics (0-based ranks) and the weight of the upper
/// one that [`percentile_sorted`] interpolates between for a sample of
/// `len ≥ 2` values. `q` is clamped to `[0, 1]`.
pub(crate) fn interpolation_ranks(len: usize, q: f64) -> (usize, usize, f64) {
    let pos = q.clamp(0.0, 1.0) * (len - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

/// Linear interpolation between two order statistics, in exactly the
/// floating-point operations [`percentile_sorted`] performs.
pub(crate) fn interpolate(lo: f64, hi: f64, frac: f64) -> f64 {
    lo * (1.0 - frac) + hi * frac
}

/// Percentile of an unsorted sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p99, 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.0), 0.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&xs, 2.0), 10.0, "q clamped");
    }

    #[test]
    fn percentile_order_invariant() {
        let a = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for q in [0.1, 0.25, 0.5, 0.9] {
            assert_eq!(percentile(&a, q), percentile(&b, q));
        }
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_empty_panics() {
        percentile(&[], 0.5);
    }
}
