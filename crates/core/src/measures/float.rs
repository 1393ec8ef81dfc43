//! Epsilon comparisons and audited float→integer conversions for the
//! measure layer.
//!
//! # Why an epsilon, and why this one
//!
//! Every quantity the unfairness definitions compare is built by
//! accumulating f64 terms: EMD operates on unit-mass histograms (paper
//! §3.3.1, Eq. 1 context), exposure sums position discounts over a
//! ranking (Eq. 2, §3.3.2), and Kendall/Jaccard denominators are sums of
//! pair counts. A histogram total that is *mathematically* zero can
//! therefore surface as `1e-17`-ish noise, and a raw `== 0.0` test
//! misclassifies it — silently corrupting every cube cell derived from
//! it.
//!
//! [`EPS`] is `1e-9`, chosen against those formulas:
//!
//! - **Below it is noise.** Summing `n ≤ 10⁶` unit-scale terms (a
//!   large-city group's histogram mass, an exposure total over a full
//!   ranking) accumulates at most `n · ε_machine ≈ 10⁶ · 2.2·10⁻¹⁶ ≈
//!   2.2·10⁻¹⁰` of rounding error — safely under `EPS`.
//! - **Above it is signal.** The smallest meaningful mass difference is
//!   one observation out of `n`: at least `10⁻⁶` of a unit-mass
//!   histogram for `n ≤ 10⁶`, and the smallest exposure discount
//!   (`1/log₂(1+k)` at `k ≤ 10³`) is ≈ `0.1`. Both sit more than three
//!   orders of magnitude above `EPS`.
//!
//! # Why the conversion helpers
//!
//! `expr as usize` on a float truncates toward zero, saturates on
//! overflow, and maps NaN to 0 — all silently. Quota allocation and EMD
//! mass scaling are exactly the places where that skews counts, so the
//! casts live here, once, behind debug assertions. fbox-lint's interval
//! analysis owns every float→int cast: `cast-truncating-unproven`
//! proves these three lossless from the assertions (finite,
//! non-negative, and integer-valued after `floor`/`round`) and denies
//! any cast elsewhere it cannot prove the same way.

/// Absolute tolerance for unit-scale measure arithmetic (see module
/// docs for the derivation).
pub const EPS: f64 = 1e-9;

/// Whether `x` is zero up to accumulated f64 rounding noise.
#[must_use]
pub fn approx_zero(x: f64) -> bool {
    x.abs() <= EPS
}

/// Whether `a` and `b` are equal up to [`EPS`], scaled by magnitude for
/// values above 1 so the tolerance stays relative where sums grow large.
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS * a.abs().max(b.abs()).max(1.0)
}

/// Floors a non-negative finite float to a `usize` index or count
/// (quota seats, bin indices).
#[must_use]
pub fn floor_index(x: f64) -> usize {
    debug_assert!(x.is_finite() && x >= 0.0, "floor_index needs a non-negative finite value");
    x.max(0.0).floor() as usize
}

/// Floors a non-negative finite float to `u64` units (time buckets,
/// hash material).
#[must_use]
pub fn floor_units(x: f64) -> u64 {
    debug_assert!(x.is_finite() && x >= 0.0, "floor_units needs a non-negative finite value");
    x.max(0.0).floor() as u64
}

/// Rounds a non-negative finite float to the nearest `u64` unit count
/// (EMD integer mass scaling).
#[must_use]
pub fn round_units(x: f64) -> u64 {
    debug_assert!(x.is_finite() && x >= 0.0, "round_units needs a non-negative finite value");
    x.max(0.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_zero_separates_noise_from_signal() {
        assert!(approx_zero(0.0));
        assert!(approx_zero(2.2e-10)); // worst-case accumulation noise
        assert!(approx_zero(-2.2e-10));
        assert!(!approx_zero(1e-6)); // one observation in a million
        assert!(!approx_zero(f64::NAN));
    }

    #[test]
    fn approx_eq_is_absolute_below_one_and_relative_above() {
        assert!(approx_eq(0.5, 0.5 + 1e-12));
        assert!(!approx_eq(0.5, 0.5 + 1e-6));
        // At magnitude 1e6 the tolerance scales up accordingly.
        assert!(approx_eq(1e6, 1e6 + 1e-4));
        assert!(!approx_eq(1e6, 1e6 + 1.0));
        assert!(!approx_eq(f64::NAN, f64::NAN));
    }

    #[test]
    fn conversions_floor_round_and_clamp() {
        assert_eq!(floor_index(3.9), 3);
        assert_eq!(floor_index(0.0), 0);
        assert_eq!(floor_units(61.5), 61);
        assert_eq!(round_units(2.5), 3);
        assert_eq!(round_units(2.4), 2);
    }
}
