//! Score histograms for EMD-based unfairness (paper §3.3.1).
//!
//! The EMD notion of unfairness compares the *distribution* of scores (or
//! rank-derived relevances) of a group against each comparable group. A
//! [`Histogram`] bins values from a closed range into equal-width bins and
//! can be normalized to a unit-mass distribution so that two groups of
//! different sizes are comparable.

/// Binning configuration shared by the histograms being compared.
///
/// EMD between histograms is only meaningful when both use the same range
/// and bin count; bundling the configuration makes that explicit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinConfig {
    /// Inclusive lower bound of the value range.
    pub lo: f64,
    /// Inclusive upper bound of the value range.
    pub hi: f64,
    /// Number of equal-width bins (≥ 1).
    pub bins: usize,
}

impl BinConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`, `bins == 0`, or either bound is not finite.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo.is_finite() && hi.is_finite(), "histogram bounds must be finite");
        assert!(lo < hi, "histogram range must be non-empty (lo < hi)");
        assert!(bins > 0, "histogram needs at least one bin");
        Self { lo, hi, bins }
    }

    /// The canonical configuration for scores and relevances in `[0, 1]`
    /// with ten bins — what the framework uses by default.
    pub fn unit(bins: usize) -> Self {
        let n_bins = bins;
        assert!(n_bins > 0, "histogram needs at least one bin");
        Self::new(0.0, 1.0, n_bins)
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        // `new` asserts `bins > 0`; the clamp keeps that visible here.
        (self.hi - self.lo) / self.bins.max(1) as f64
    }

    /// Index of the bin containing `v`. Values are clamped into the range,
    /// so out-of-range values land in the first/last bin; `hi` itself lands
    /// in the last bin.
    pub fn bin_of(&self, v: f64) -> usize {
        assert!(!v.is_nan(), "cannot bin NaN");
        let clamped = v.clamp(self.lo, self.hi);
        // `new` asserts `lo < hi`, so the width is positive and the
        // quotient finite and non-negative; the guards make that
        // invariant local instead of a whole-struct argument.
        let width = self.bin_width();
        let scaled = if width > 0.0 { (clamped - self.lo) / width } else { 0.0 };
        let scaled = if scaled.is_finite() && scaled >= 0.0 { scaled } else { 0.0 };
        let raw = super::float::floor_index(scaled);
        raw.min(self.bins - 1)
    }

    /// Center value of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.bins);
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }
}

/// A histogram of values over a [`BinConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    config: BinConfig,
    counts: Vec<f64>,
    total: f64,
}

impl Histogram {
    /// An empty histogram over `config`.
    pub fn empty(config: BinConfig) -> Self {
        Self { counts: vec![0.0; config.bins], config, total: 0.0 }
    }

    /// Builds a histogram from raw values.
    #[must_use]
    pub fn from_values(config: BinConfig, values: impl IntoIterator<Item = f64>) -> Self {
        let mut h = Self::empty(config);
        for v in values {
            h.add(v);
        }
        h
    }

    /// Adds one observation.
    pub fn add(&mut self, v: f64) {
        let b = self.config.bin_of(v);
        self.counts[b] += 1.0;
        self.total += 1.0;
    }

    /// Adds a weighted observation (used when aggregating pre-counted
    /// data).
    pub fn add_weighted(&mut self, v: f64, w: f64) {
        assert!(w >= 0.0 && w.is_finite(), "weight must be non-negative and finite");
        let b = self.config.bin_of(v);
        self.counts[b] += w;
        self.total += w;
    }

    /// The binning configuration.
    pub fn config(&self) -> BinConfig {
        self.config
    }

    /// Raw per-bin masses.
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Total mass.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Whether the histogram holds no mass (up to accumulated f64
    /// rounding noise — see [`crate::measures::float`]).
    pub fn is_empty(&self) -> bool {
        crate::measures::float::approx_zero(self.total)
    }

    /// Unit-mass copy: each bin holds its *fraction* of the total.
    ///
    /// Returns `None` for an empty histogram — an empty group has no score
    /// distribution, and the unfairness drivers skip such groups rather
    /// than invent one.
    pub fn normalized(&self) -> Option<Histogram> {
        if self.is_empty() {
            return None;
        }
        Some(Histogram {
            config: self.config,
            counts: self.counts.iter().map(|c| c / self.total).collect(),
            total: 1.0,
        })
    }

    /// Cumulative distribution over bins (prefix sums of `counts`).
    pub fn cumulative(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.counts
            .iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_assignment_covers_range() {
        let c = BinConfig::unit(10);
        assert_eq!(c.bin_of(0.0), 0);
        assert_eq!(c.bin_of(0.05), 0);
        assert_eq!(c.bin_of(0.1), 1);
        assert_eq!(c.bin_of(0.95), 9);
        // hi lands in the last bin, not one past it.
        assert_eq!(c.bin_of(1.0), 9);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let c = BinConfig::unit(4);
        assert_eq!(c.bin_of(-3.0), 0);
        assert_eq!(c.bin_of(42.0), 3);
    }

    #[test]
    fn bin_centers() {
        let c = BinConfig::unit(4);
        assert!((c.bin_center(0) - 0.125).abs() < 1e-12);
        assert!((c.bin_center(3) - 0.875).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn rejects_empty_range() {
        let _ = BinConfig::new(1.0, 1.0, 4);
    }

    #[test]
    fn from_values_and_totals() {
        let c = BinConfig::unit(2);
        let h = Histogram::from_values(c, [0.1, 0.2, 0.8]);
        assert_eq!(h.counts(), &[2.0, 1.0]);
        assert_eq!(h.total(), 3.0);
        assert!(!h.is_empty());
    }

    #[test]
    fn normalization() {
        let c = BinConfig::unit(2);
        let h = Histogram::from_values(c, [0.1, 0.2, 0.8, 0.9]);
        let n = h.normalized().unwrap();
        assert_eq!(n.counts(), &[0.5, 0.5]);
        assert!((n.total() - 1.0).abs() < 1e-12);
        // Empty histograms do not normalize.
        assert!(Histogram::empty(c).normalized().is_none());
    }

    #[test]
    fn cumulative_prefix_sums() {
        let c = BinConfig::unit(3);
        let h = Histogram::from_values(c, [0.1, 0.5, 0.9, 0.95]);
        assert_eq!(h.cumulative(), vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn weighted_adds() {
        let c = BinConfig::unit(2);
        let mut h = Histogram::empty(c);
        h.add_weighted(0.2, 2.5);
        h.add_weighted(0.8, 0.5);
        assert_eq!(h.counts(), &[2.5, 0.5]);
        assert_eq!(h.total(), 3.0);
    }
}
