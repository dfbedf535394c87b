//! Bootstrap confidence intervals for Monte-Carlo summaries.
//!
//! Experiments report medians over a few dozen trials; the percentile
//! bootstrap quantifies how trustworthy those medians are without
//! distributional assumptions. Deterministic given the seed, like
//! everything else in this workspace.

use crate::stats::{interpolate, interpolation_ranks, percentile, percentile_sorted};

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfInterval {
    /// Point estimate (the statistic on the full sample).
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Confidence level, e.g. 0.95.
    pub level: f64,
}

impl ConfInterval {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether a value lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }
}

/// Simple xorshift generator so the module needs no external RNG
/// plumbing (bootstrap resampling does not need cryptographic quality).
struct XorShift(u64);

impl XorShift {
    fn next_index(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x % n as u64) as usize
    }
}

/// Percentile-bootstrap confidence interval for an arbitrary statistic.
///
/// Returns `None` for an empty sample. `resamples` is clamped to ≥ 100.
pub fn bootstrap_ci(
    xs: &[f64],
    statistic: impl Fn(&[f64]) -> f64,
    level: f64,
    resamples: usize,
    seed: u64,
) -> Option<ConfInterval> {
    if xs.is_empty() {
        return None;
    }
    let level = level.clamp(0.5, 0.999);
    let resamples = resamples.max(100);
    let mut rng = XorShift(seed | 1);
    let mut stats = Vec::with_capacity(resamples);
    let mut resample = vec![0.0; xs.len()];
    for _ in 0..resamples {
        for slot in resample.iter_mut() {
            *slot = xs[rng.next_index(xs.len())];
        }
        stats.push(statistic(&resample));
    }
    let alpha = 1.0 - level;
    Some(ConfInterval {
        estimate: statistic(xs),
        lo: percentile(&stats, alpha / 2.0),
        hi: percentile(&stats, 1.0 - alpha / 2.0),
        level,
    })
}

/// Bootstrap CI for the median (the statistic experiments report).
///
/// Bit-identical to `bootstrap_ci(xs, |s| percentile(s, 0.5), level,
/// 1000, seed)`, but a resample is never materialised: `xs` is sorted
/// once, and each resample draws the same index sequence, counts hits per
/// rank, and reads the two interpolated order statistics off a cumulative
/// scan — O(n) per resample with one reused counting buffer.
pub fn median_ci(xs: &[f64], level: f64, seed: u64) -> Option<ConfInterval> {
    const RESAMPLES: usize = 1000;
    if xs.is_empty() {
        return None;
    }
    let n = xs.len();
    let level = level.clamp(0.5, 0.999);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let sorted: Vec<f64> = order.iter().map(|&i| xs[i]).collect();
    // rank[i] is the sorted position of xs[i]. Values that compare equal
    // under total_cmp are bit-identical, so how ties are ordered among
    // themselves cannot change a result.
    let mut rank = vec![0u32; n];
    for (pos, &i) in order.iter().enumerate() {
        rank[i] = pos as u32;
    }
    let (lo_rank, hi_rank, frac) = if n == 1 { (0, 0, 0.0) } else { interpolation_ranks(n, 0.5) };
    let mut rng = XorShift(seed | 1);
    let mut hits = vec![0u32; n];
    let mut stats = Vec::with_capacity(RESAMPLES);
    for _ in 0..RESAMPLES {
        hits.fill(0);
        for _ in 0..n {
            hits[rank[rng.next_index(n)] as usize] += 1;
        }
        if n == 1 {
            stats.push(sorted[0]);
            continue;
        }
        // The resample's sorted order is `sorted` with each position
        // repeated hits[pos] times: walk it to ranks lo and hi.
        let (mut seen, mut pos) = (0usize, 0usize);
        while seen + hits[pos] as usize <= lo_rank {
            seen += hits[pos] as usize;
            pos += 1;
        }
        let lo = sorted[pos];
        while seen + hits[pos] as usize <= hi_rank {
            seen += hits[pos] as usize;
            pos += 1;
        }
        stats.push(interpolate(lo, sorted[pos], frac));
    }
    stats.sort_by(f64::total_cmp);
    let alpha = 1.0 - level;
    Some(ConfInterval {
        estimate: percentile_sorted(&sorted, 0.5),
        lo: percentile_sorted(&stats, alpha / 2.0),
        hi: percentile_sorted(&stats, 1.0 - alpha / 2.0),
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_brackets_the_estimate() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ci = median_ci(&xs, 0.95, 7).unwrap();
        assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
        assert!(ci.contains(ci.estimate));
        assert!((ci.estimate - 49.5).abs() < 1.0);
        assert!(ci.width() > 0.0 && ci.width() < 30.0);
    }

    #[test]
    fn tighter_with_more_data() {
        let small: Vec<f64> = (0..20).map(|i| (i % 10) as f64).collect();
        let large: Vec<f64> = (0..2000).map(|i| (i % 10) as f64).collect();
        let ci_s = median_ci(&small, 0.95, 3).unwrap();
        let ci_l = median_ci(&large, 0.95, 3).unwrap();
        assert!(ci_l.width() <= ci_s.width());
    }

    #[test]
    fn deterministic_given_seed() {
        let xs: Vec<f64> = (0..50).map(|i| (i * i % 17) as f64).collect();
        let a = median_ci(&xs, 0.9, 42).unwrap();
        let b = median_ci(&xs, 0.9, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(median_ci(&[], 0.95, 1).is_none());
        let one = median_ci(&[5.0], 0.95, 1).unwrap();
        assert_eq!((one.lo, one.hi, one.estimate), (5.0, 5.0, 5.0));
    }

    #[test]
    fn custom_statistic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ci =
            bootstrap_ci(&xs, |s| s.iter().sum::<f64>() / s.len() as f64, 0.95, 500, 9).unwrap();
        assert!((ci.estimate - 2.5).abs() < 1e-12);
        assert!(ci.lo >= 1.0 && ci.hi <= 4.0);
    }
}
