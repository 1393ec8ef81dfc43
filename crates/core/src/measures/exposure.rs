//! Exposure-based unfairness (paper §3.3.2, after Singh & Joachims 2018 and
//! Biega et al. 2018).
//!
//! Higher-ranked workers receive more attention, so each worker gets an
//! *exposure* inversely proportional to her rank: the paper uses
//! `exp(w) = 1 / ln(1 + rank(w))` (the Figure 5 worked example pins the
//! logarithm to base *e*). A group's exposure share should match its
//! relevance share; the deviation `|exp_share(g) − rel_share(g)|` is the
//! group's unfairness. Shares are normalized over `g ∪ comparables(g)`.

/// Position-discount model mapping a 1-based rank to an exposure weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiscountModel {
    /// `1 / ln(1 + rank)` — the paper's model (Figure 5).
    #[default]
    NaturalLog,
    /// `1 / log₂(1 + rank)` — the DCG convention.
    Log2,
    /// `1 / rank` — the reciprocal-rank convention.
    Reciprocal,
}

impl DiscountModel {
    /// Exposure of the worker at `rank` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0`; ranks are 1-based throughout the framework.
    pub fn exposure(self, rank: usize) -> f64 {
        assert!(rank >= 1, "ranks are 1-based");
        match self {
            // ln(1 + 1) = ln 2 ≈ 0.693 → top rank gets exposure ≈ 1.44.
            DiscountModel::NaturalLog => 1.0 / ((1 + rank) as f64).ln(),
            DiscountModel::Log2 => 1.0 / ((1 + rank) as f64).log2(),
            DiscountModel::Reciprocal => 1.0 / rank as f64,
        }
    }
}

/// Sum of exposures of a set of ranks under a discount model.
pub fn total_exposure(model: DiscountModel, ranks: impl IntoIterator<Item = usize>) -> f64 {
    ranks.into_iter().map(|r| model.exposure(r)).sum()
}

/// The exposure-vs-relevance unfairness of one group against the pooled
/// comparable population:
///
/// `| group_exposure / pool_exposure − group_relevance / pool_relevance |`
///
/// where the pool is `g ∪ comparables(g)`. Returns `None` when either pool
/// total is zero (no exposure or no relevance mass to apportion), or when a
/// group total exceeds its pool total beyond [`EPS`](super::float::EPS) —
/// a group is a subset of its pool, so such inputs are inconsistent and
/// any "share" computed from them would be meaningless (> 1). The check is
/// a real branch, not a `debug_assert`, so debug and release builds agree.
pub fn exposure_unfairness(
    group_exposure: f64,
    pool_exposure: f64,
    group_relevance: f64,
    pool_relevance: f64,
) -> Option<f64> {
    if pool_exposure <= 0.0 || pool_relevance <= 0.0 {
        return None;
    }
    if group_exposure > pool_exposure + super::float::EPS
        || group_relevance > pool_relevance + super::float::EPS
    {
        return None;
    }
    Some((group_exposure / pool_exposure - group_relevance / pool_relevance).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_log_matches_figure5() {
        // Figure 5 / Table 3: Black Females at ranks 7 and 8 have total
        // exposure 1/ln 8 + 1/ln 9 ≈ 0.94.
        let m = DiscountModel::NaturalLog;
        let bf = total_exposure(m, [7, 8]);
        assert!((bf - 0.94).abs() < 0.005, "got {bf}");
        // Comparable-group workers at ranks 3, 2, 5, 1, 10 have total ≈ 4.0.
        let cmp = total_exposure(m, [3, 2, 5, 1, 10]);
        assert!((cmp - 4.05).abs() < 0.01, "got {cmp}");
    }

    #[test]
    fn figure5_share_computation() {
        // exposure share 0.94/(0.94+4.05) ≈ 0.19; relevance share
        // 0.5/(0.5+2.9) ≈ 0.147; unfairness ≈ 0.04.
        let m = DiscountModel::NaturalLog;
        let g_exp = total_exposure(m, [7, 8]);
        let pool_exp = g_exp + total_exposure(m, [3, 2, 5, 1, 10]);
        let g_rel = 0.3 + 0.2;
        let pool_rel = g_rel + (0.7 + 0.8 + 0.5 + 0.9 + 0.0);
        let d = exposure_unfairness(g_exp, pool_exp, g_rel, pool_rel).unwrap();
        assert!((g_exp / pool_exp - 0.19).abs() < 0.005);
        assert!((g_rel / pool_rel - 0.147).abs() < 0.001);
        assert!((d - 0.04).abs() < 0.005, "got {d}");
    }

    #[test]
    fn exposure_decreases_with_rank() {
        for m in [DiscountModel::NaturalLog, DiscountModel::Log2, DiscountModel::Reciprocal] {
            let e: Vec<f64> = (1..=10).map(|r| m.exposure(r)).collect();
            for w in e.windows(2) {
                assert!(w[0] > w[1], "{m:?} not strictly decreasing");
            }
            assert!(e.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn reciprocal_and_log2_values() {
        assert_eq!(DiscountModel::Reciprocal.exposure(4), 0.25);
        assert!((DiscountModel::Log2.exposure(1) - 1.0).abs() < 1e-12);
        assert!((DiscountModel::Log2.exposure(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn rank_zero_rejected() {
        DiscountModel::NaturalLog.exposure(0);
    }

    #[test]
    fn unfairness_zero_when_shares_match() {
        // Group holds half the exposure and half the relevance.
        let d = exposure_unfairness(1.0, 2.0, 3.0, 6.0).unwrap();
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn unfairness_none_for_empty_pools() {
        assert_eq!(exposure_unfairness(0.0, 0.0, 1.0, 2.0), None);
        assert_eq!(exposure_unfairness(1.0, 2.0, 0.0, 0.0), None);
    }

    #[test]
    fn unfairness_none_on_inconsistent_inputs_in_every_build() {
        // A group total above its pool total is impossible for a subset;
        // the old code only debug_asserted, so release builds silently
        // returned shares > 1. Pinned: both build profiles return None.
        assert_eq!(exposure_unfairness(3.0, 2.0, 1.0, 2.0), None, "exposure exceeds pool");
        assert_eq!(exposure_unfairness(1.0, 2.0, 5.0, 2.0), None, "relevance exceeds pool");
        // Accumulated float noise within EPS is still tolerated.
        let d = exposure_unfairness(2.0 + 1e-10, 2.0, 1.0, 2.0).unwrap();
        assert!((d - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unfairness_bounded_by_one() {
        // Group has all the exposure and none of the relevance.
        let d = exposure_unfairness(2.0, 2.0, 0.0, 5.0).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
    }
}
