//! Problem formulations and algorithms (paper §4).
//!
//! - [`topk`]: the Fagin-Threshold-Algorithm adaptation of Algorithm 1
//!   solving **Problem 1 (Fairness Quantification)** for any dimension;
//! - [`naive`]: the full-scan baseline and oracle it is benchmarked and
//!   tested against, and [`marginal_top_k`], the same answer read from
//!   the index's per-entity means when no aggregated dimension is
//!   restricted;
//! - [`compare`](mod@compare): Algorithms 2–3 solving **Problem 2 (Fairness
//!   Comparison)**.
//!
//! [`FBox::top_k`](crate::FBox::top_k) picks among the three Problem 1
//! plans; every plan ends in the same ranking step, so they order ties
//! alike.

pub mod compare;
pub mod naive;
mod sums;
pub mod topk;

pub use compare::{compare, compare_sets, BreakdownRow, ComparisonOutcome, Entity};
pub use naive::{marginal_top_k, naive_top_k};
pub use topk::{top_k, RankOrder, TopKResult, TopKStats};

use crate::index::Dimension;

/// Optional subsets of each dimension to restrict a problem to (e.g. "the
/// 2 queries black males are most likely to get *in the West Coast*",
/// §4.1).
///
/// `None` means the whole dimension. Ids are raw `u32`s of the respective
/// dimension.
#[derive(Debug, Clone, Default)]
pub struct Restriction {
    /// Subset of group ids, or all groups.
    pub groups: Option<Vec<u32>>,
    /// Subset of query ids, or all queries.
    pub queries: Option<Vec<u32>>,
    /// Subset of location ids, or all locations.
    pub locations: Option<Vec<u32>>,
}

impl Restriction {
    /// No restriction: aggregate over everything.
    pub fn none() -> Self {
        Self::default()
    }

    /// Restricts one dimension, leaving the others unrestricted.
    pub fn on(dim: Dimension, ids: Vec<u32>) -> Self {
        let mut r = Self::default();
        match dim {
            Dimension::Group => r.groups = Some(ids),
            Dimension::Query => r.queries = Some(ids),
            Dimension::Location => r.locations = Some(ids),
        }
        r
    }

    /// The subset for a dimension, if restricted.
    pub fn subset(&self, dim: Dimension) -> Option<&[u32]> {
        match dim {
            Dimension::Group => self.groups.as_deref(),
            Dimension::Query => self.queries.as_deref(),
            Dimension::Location => self.locations.as_deref(),
        }
    }

    /// Resolves a dimension to the concrete id list: the subset if
    /// restricted, else `0..total`. Duplicate ids in the subset are
    /// dropped (first occurrence wins): a repeated id would otherwise
    /// enter the same posting lists twice into the aggregation, skewing
    /// averages and double-counting accesses.
    pub fn resolve(&self, dim: Dimension, total: usize) -> Vec<u32> {
        resolve_ids(dim, self.subset(dim), total)
    }
}

/// [`Restriction::resolve`] for one dimension's optional subset.
pub(crate) fn resolve_ids(dim: Dimension, subset: Option<&[u32]>, total: usize) -> Vec<u32> {
    match subset {
        Some(ids) => {
            let mut seen = vec![false; total];
            let mut out = Vec::with_capacity(ids.len());
            for &id in ids {
                assert!((id as usize) < total, "{dim:?} id {id} out of range (< {total})");
                if !seen[id as usize] {
                    seen[id as usize] = true;
                    out.push(id);
                }
            }
            out
        }
        None => {
            debug_assert!(total <= u32::MAX as usize, "dimension size must fit u32 ids");
            (0..total as u32).collect()
        }
    }
}

/// The ranking step every Problem 1 plan ends in: orders `(entity,
/// aggregate)` pairs best-first for `order`, ties by ascending id, and
/// keeps the first `k`.
pub(crate) fn rank(mut entries: Vec<(u32, f64)>, k: usize, order: RankOrder) -> Vec<(u32, f64)> {
    match order {
        RankOrder::MostUnfair => {
            entries.sort_by(|x, y| OrdF64(y.1).cmp(&OrdF64(x.1)).then(x.0.cmp(&y.0)))
        }
        RankOrder::LeastUnfair => {
            entries.sort_by(|x, y| OrdF64(x.1).cmp(&OrdF64(y.1)).then(x.0.cmp(&y.0)))
        }
    }
    entries.truncate(k);
    entries
}

/// Total-order wrapper for the non-NaN `f64` unfairness values, so they can
/// live in heaps and be sorted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // IEEE 754 total order: agrees with `<` on the non-NaN values the
        // cube stores, and keeps heaps/sorts well-defined even for NaN.
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restriction_resolution() {
        let r = Restriction::on(Dimension::Query, vec![2, 0]);
        assert_eq!(r.resolve(Dimension::Query, 3), vec![2, 0]);
        assert_eq!(r.resolve(Dimension::Group, 2), vec![0, 1]);
        assert_eq!(r.subset(Dimension::Location), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn restriction_rejects_out_of_range() {
        Restriction::on(Dimension::Group, vec![5]).resolve(Dimension::Group, 3);
    }

    #[test]
    fn resolve_dedups_preserving_first_occurrence_order() {
        let r = Restriction::on(Dimension::Query, vec![2, 0, 2, 2, 1, 0]);
        assert_eq!(r.resolve(Dimension::Query, 3), vec![2, 0, 1]);
    }

    /// Regression: duplicated ids in a restriction used to enter the same
    /// posting lists twice into the aggregation, skewing every algorithm's
    /// averages. A duplicated restriction must yield exactly the deduped
    /// restriction's answers — for TA and the naive scan alike.
    #[test]
    fn duplicated_restriction_matches_deduped_across_algorithms() {
        use crate::cube::UnfairnessCube;
        use crate::model::{GroupId, LocationId, QueryId};

        let mut c = UnfairnessCube::with_dims(4, 3, 3);
        let mut state = 0xDEAD_BEEFu64;
        for g in 0..4u32 {
            for q in 0..3u32 {
                for l in 0..3u32 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let v = (state >> 11) as f64 / (1u64 << 53) as f64;
                    c.set(GroupId(g), QueryId(q), LocationId(l), v);
                }
            }
        }
        let idx = crate::index::IndexSet::build(&c);

        let dup = Restriction { queries: Some(vec![2, 0, 2, 2]), ..Restriction::none() };
        let dedup = Restriction { queries: Some(vec![2, 0]), ..Restriction::none() };
        type Run<'a> = Box<dyn Fn(&Restriction) -> TopKResult + 'a>;
        for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
            let runs: [(&str, Run); 2] = [
                ("ta", Box::new(|r| top_k(&idx, Dimension::Group, 4, order, r))),
                ("naive", Box::new(|r| naive_top_k(&c, Dimension::Group, 4, order, r))),
            ];
            for (name, run) in runs {
                let a = run(&dup).entries;
                let b = run(&dedup).entries;
                assert_eq!(a, b, "{name} {order:?}: duplicated restriction changed the answer");
            }
        }
    }

    #[test]
    fn ordf64_orders() {
        let mut v = vec![OrdF64(0.3), OrdF64(0.1), OrdF64(0.2)];
        v.sort();
        assert_eq!(v, vec![OrdF64(0.1), OrdF64(0.2), OrdF64(0.3)]);
    }
}
