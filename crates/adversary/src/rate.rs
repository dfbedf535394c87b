//! Exact fixed-point representation of the paper's ε parameter.
//!
//! The `(T, 1−ε)`-bounded adversary may jam at most `(1−ε)·w` slots out of
//! any `w ≥ T` contiguous slots. Budget enforcement must be *exact* — a
//! floating-point allowance that is off by one slot in a multi-million-slot
//! window would silently change the adversary class — so ε is stored as a
//! rational `num / 2^32` and all allowance arithmetic is integer-only.

use serde::{Deserialize, Serialize};

/// A probability-like quantity in `(0, 1)`, stored exactly as `num / 2^32`.
///
/// # Examples
///
/// ```
/// use jle_adversary::Rate;
///
/// let eps = Rate::from_ratio(1, 3);
/// // Allowance of a window is floor((1 - eps) * w), computed exactly.
/// assert_eq!(eps.allowance(9), 6);
/// assert_eq!(eps.allowance(10), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Rate {
    num: u64,
}

impl Rate {
    /// Fixed-point denominator: `2^32`.
    pub const SCALE: u64 = 1 << 32;

    /// Exact rate from a numerator over [`Rate::SCALE`]. Clamped to
    /// `[1, SCALE − 1]` so the rate is a valid ε ∈ (0, 1).
    #[inline]
    pub fn from_num(num: u64) -> Self {
        Rate { num: num.clamp(1, Self::SCALE - 1) }
    }

    /// Nearest representable rate to an `f64` in `(0, 1)`.
    ///
    /// Values outside `(0, 1)` are clamped to the smallest/largest
    /// representable positive rate.
    #[inline]
    pub fn from_f64(eps: f64) -> Self {
        let num = (eps * Self::SCALE as f64).round();
        if num.is_nan() {
            return Rate { num: Self::SCALE / 2 };
        }
        Rate::from_num(num.clamp(1.0, (Self::SCALE - 1) as f64) as u64)
    }

    /// Exact rate `p/q`.
    ///
    /// # Panics
    /// Panics if `q == 0`.
    #[inline]
    pub fn from_ratio(p: u64, q: u64) -> Self {
        assert!(q > 0, "denominator must be positive");
        Rate::from_num(((p as u128 * Self::SCALE as u128) / q as u128) as u64)
    }

    /// The raw numerator over [`Rate::SCALE`].
    #[inline]
    pub fn num(&self) -> u64 {
        self.num
    }

    /// The rate as an `f64` (for protocol arithmetic, not for budgets).
    #[inline]
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / Self::SCALE as f64
    }

    /// Numerator of the complement `1 − ε` over [`Rate::SCALE`].
    #[inline]
    pub fn complement_num(&self) -> u64 {
        Self::SCALE - self.num
    }

    /// Exact jamming allowance of a window of `w` slots:
    /// `⌊(1 − ε) · w⌋`, computed in integer arithmetic.
    #[inline]
    pub fn allowance(&self, w: u64) -> u64 {
        ((self.complement_num() as u128 * w as u128) / Self::SCALE as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_allowances() {
        let eps = Rate::from_f64(0.5);
        assert_eq!(eps.allowance(0), 0);
        assert_eq!(eps.allowance(1), 0);
        assert_eq!(eps.allowance(2), 1);
        assert_eq!(eps.allowance(3), 1);
        assert_eq!(eps.allowance(4), 2);
        assert_eq!(eps.allowance(1001), 500);
    }

    #[test]
    fn ratio_exactness() {
        // eps = 1/3: allowance(w) = floor(2w/3)
        let eps = Rate::from_ratio(1, 3);
        for w in 0u64..10_000 {
            // from_ratio floors eps, so 1-eps is rounded *up* by at most
            // 2^-32; allowance can exceed floor(2w/3) only for w > 2^32.
            assert_eq!(eps.allowance(w), 2 * w / 3, "w={w}");
        }
    }

    #[test]
    fn tiny_and_huge_eps() {
        let tiny = Rate::from_f64(1e-12); // clamps to 1/2^32
        assert_eq!(tiny.num(), 1);
        assert!(tiny.allowance(100) <= 100);
        let huge = Rate::from_f64(1.5); // clamps below 1
        assert_eq!(huge.num(), Rate::SCALE - 1);
        // eps ≈ 1 − 2^-32: allowance of any laptop-scale window is 0.
        assert_eq!(huge.allowance(1 << 20), 0);
    }

    #[test]
    fn f64_roundtrip_close() {
        for &e in &[0.05, 0.1, 0.25, 0.5, 0.75, 0.9] {
            let r = Rate::from_f64(e);
            assert!((r.as_f64() - e).abs() < 1e-9, "eps={e}");
        }
    }

    #[test]
    fn allowance_monotone_in_window() {
        let eps = Rate::from_ratio(3, 10);
        let mut prev = 0;
        for w in 0u64..5_000 {
            let a = eps.allowance(w);
            assert!(a >= prev);
            assert!(a <= w);
            prev = a;
        }
    }

    #[test]
    fn nan_defaults_to_half() {
        assert_eq!(Rate::from_f64(f64::NAN).num(), Rate::SCALE / 2);
    }
}
