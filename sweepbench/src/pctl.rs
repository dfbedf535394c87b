//! Percentiles that carry their sample count and refuse to exist on too
//! little data.
//!
//! A percentile read off a sample with only one or two values beyond it
//! is a reading of those one or two values, and moves run to run with
//! them. [`percentile`] therefore refuses any percentile with fewer than
//! [`MIN_BEYOND`] samples above it, and reports the count it used.

/// Fewest samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile with the sample it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile asked for, in `(0, 1)`.
    pub q: f64,
    /// The nearest-rank value.
    pub value: f64,
    /// Sample size.
    pub samples: usize,
    /// Samples ranked above the value.
    pub beyond: usize,
}

impl std::fmt::Display for Percentile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} = {:.4} (n = {}, {} beyond)",
            (self.q * 100.0).round(),
            self.value,
            self.samples,
            self.beyond
        )
    }
}

/// The nearest-rank `q`-percentile of `xs`, or an error naming how many
/// samples it would need.
pub fn percentile(xs: &[f64], q: f64) -> Result<Percentile, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("quantile {q} is outside (0, 1)"));
    }
    let n = xs.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it. The epsilon keeps exact products (0.99 · 1000) exact.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        let needed = ((MIN_BEYOND as f64) / (1.0 - q)).ceil() as usize;
        return Err(format!(
            "p{} needs at least {MIN_BEYOND} samples beyond it (about {needed} samples); got {n}",
            (q * 100.0).round()
        ));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile { q, value: sorted[rank - 1], samples: n, beyond })
}

/// Median of a log₂-bucketed histogram (bucket 0 holds zeros, bucket
/// `i ≥ 1` holds `[2^(i−1), 2^i − 1]`, as `jle_telemetry::Histogram`
/// counts), interpolated linearly inside the bucket that holds it.
pub fn histogram_median(buckets: &[u64]) -> Option<f64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let target = total as f64 / 2.0;
    let mut below = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        if count > 0 && (below + count) as f64 >= target {
            if i == 0 {
                return Some(0.0);
            }
            let lo = (1u64 << (i - 1)) as f64;
            let hi = if i >= 64 { u64::MAX as f64 } else { ((1u64 << i) - 1) as f64 };
            return Some(lo + (hi - lo) * (target - below as f64) / count as f64);
        }
        below += count;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_median_interpolates_inside_its_bucket() {
        // 3 zeros, then 5 observations in [8, 15]: the median is the
        // first fifth of the way into that bucket.
        let mut b = vec![0u64; 65];
        b[0] = 3;
        b[4] = 5;
        assert_eq!(histogram_median(&b), Some(8.0 + 7.0 * 0.2));
        b[4] = 4;
        b[0] = 0;
        assert_eq!(histogram_median(&b), Some(11.5));
        assert_eq!(histogram_median(&[0; 65]), None);
    }

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helper has to sort.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let ok = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!((ok.samples, ok.beyond, ok.value), (1000, 10, 989.0));
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert!(percentile(&ramp(196), 0.99).is_err(), "the sample behind a p99 of two values");
    }

    #[test]
    fn median_reports_its_count() {
        let p = percentile(&ramp(21), 0.5).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (10.0, 21, 10));
        assert!(percentile(&ramp(19), 0.5).is_err());
    }

    #[test]
    fn rejects_empty_and_bad_quantiles() {
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&ramp(100), 0.0).is_err());
        assert!(percentile(&ramp(100), 1.0).is_err());
    }

    #[test]
    fn display_names_the_count() {
        let p = percentile(&ramp(2000), 0.99).unwrap();
        assert_eq!(p.to_string(), "p99 = 1979.0000 (n = 2000, 20 beyond)");
    }
}
