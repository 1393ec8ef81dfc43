//! The unfairness cube: `d⟨g,q,l⟩` for every (group, query, location)
//! triple of a study, plus the aggregations of §3.4.
//!
//! Cells can be *missing* (`None`): the paper's crawls do not cover every
//! job at every location (Table 7), and a group absent from a result set
//! has no unfairness value there. Aggregations average over the present
//! cells only, exactly as `d⟨g,Q,L⟩ = avg_{q∈Q,l∈L} d⟨g,q,l⟩` does over the
//! cells that exist.

use crate::model::{GroupId, LocationId, QueryId, Universe};

/// Dense 3-D array of unfairness values over a [`Universe`]'s dimensions.
///
/// Each cell is one `f64`, and NaN marks a missing cell. The marker is
/// unambiguous because [`Self::set`] and [`Self::set_opt`] admit only
/// finite values in `[0, 1]`, so NaN is never a value. Every public read
/// ([`Self::get`], [`Self::raw_data`], [`Self::raw_cells`]) hands out
/// `Option<f64>`. The cube also counts its present cells, so
/// [`Self::is_complete`] and [`Self::coverage`] are O(1).
#[derive(Debug, Clone)]
pub struct UnfairnessCube {
    n_groups: usize,
    n_queries: usize,
    n_locations: usize,
    /// Cell values in `(g * n_queries + q) * n_locations + l` order; NaN
    /// where a cell is missing.
    values: Vec<f64>,
    /// Number of non-NaN entries of `values`.
    n_present: usize,
}

impl UnfairnessCube {
    /// An all-missing cube with the universe's dimensions.
    pub fn empty(universe: &Universe) -> Self {
        Self::with_dims(universe.n_groups(), universe.n_queries(), universe.n_locations())
    }

    /// An all-missing cube with explicit dimensions.
    pub fn with_dims(n_groups: usize, n_queries: usize, n_locations: usize) -> Self {
        Self {
            n_groups,
            n_queries,
            n_locations,
            values: vec![f64::NAN; n_groups * n_queries * n_locations],
            n_present: 0,
        }
    }

    fn offset(&self, g: GroupId, q: QueryId, l: LocationId) -> usize {
        let (g, q, l) = (g.0 as usize, q.0 as usize, l.0 as usize);
        assert!(g < self.n_groups, "group id {g} out of range");
        assert!(q < self.n_queries, "query id {q} out of range");
        assert!(l < self.n_locations, "location id {l} out of range");
        (g * self.n_queries + q) * self.n_locations + l
    }

    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Number of queries.
    pub fn n_queries(&self) -> usize {
        self.n_queries
    }

    /// Number of locations.
    pub fn n_locations(&self) -> usize {
        self.n_locations
    }

    /// Sets `d⟨g,q,l⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite or not in `[0, 1]` — every measure
    /// in this framework is normalized, so anything else is a bug upstream.
    pub fn set(&mut self, g: GroupId, q: QueryId, l: LocationId, value: f64) {
        assert!(
            value.is_finite() && (0.0..=1.0).contains(&value),
            "unfairness value {value} out of [0,1]"
        );
        let o = self.offset(g, q, l);
        if self.values[o].is_nan() {
            self.n_present += 1;
        }
        self.values[o] = value;
    }

    /// Sets or clears a cell from an optional measure result.
    ///
    /// # Panics
    ///
    /// Panics as [`Self::set`] does on a value outside `[0, 1]`.
    pub fn set_opt(&mut self, g: GroupId, q: QueryId, l: LocationId, value: Option<f64>) {
        match value {
            Some(v) => {
                assert!(
                    v.is_finite() && (0.0..=1.0).contains(&v),
                    "unfairness value {v} out of [0,1]"
                );
                self.set(g, q, l, v);
            }
            None => {
                let o = self.offset(g, q, l);
                if !self.values[o].is_nan() {
                    self.n_present -= 1;
                }
                self.values[o] = f64::NAN;
            }
        }
    }

    /// Reads `d⟨g,q,l⟩`, `None` if missing.
    pub fn get(&self, g: GroupId, q: QueryId, l: LocationId) -> Option<f64> {
        present(self.values[self.offset(g, q, l)])
    }

    /// Whether every cell holds a value. O(1). The threshold algorithm
    /// ([`crate::algo::topk`]) requires a complete cube.
    pub fn is_complete(&self) -> bool {
        self.n_present == self.values.len()
    }

    /// Fraction of cells with a value. O(1).
    pub fn coverage(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.n_present as f64 / self.values.len() as f64
    }

    /// `d⟨g,Q,L⟩` (§3.4): mean over the present cells of `g` across the
    /// given query and location sets. `None` if no cell is present.
    pub fn avg_group(
        &self,
        g: GroupId,
        queries: &[QueryId],
        locations: &[LocationId],
    ) -> Option<f64> {
        self.mean(queries.iter().flat_map(|&q| locations.iter().map(move |&l| self.get(g, q, l))))
    }

    /// `d⟨G,q,L⟩` (§3.4): mean for one query across group and location sets.
    pub fn avg_query(
        &self,
        q: QueryId,
        groups: &[GroupId],
        locations: &[LocationId],
    ) -> Option<f64> {
        self.mean(groups.iter().flat_map(|&g| locations.iter().map(move |&l| self.get(g, q, l))))
    }

    /// `d⟨G,Q,l⟩` (§3.4): mean for one location across group and query sets.
    pub fn avg_location(
        &self,
        l: LocationId,
        groups: &[GroupId],
        queries: &[QueryId],
    ) -> Option<f64> {
        self.mean(groups.iter().flat_map(|&g| queries.iter().map(move |&q| self.get(g, q, l))))
    }

    fn mean(&self, cells: impl Iterator<Item = Option<f64>>) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for c in cells.flatten() {
            sum += c;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Every cell, `None` where missing, in `(g * n_queries + q) *
    /// n_locations + l` offset order, as an owned copy. This is the order
    /// the `fbox-store` snapshot codec writes and the view bit-equality
    /// tests compare, so it is part of the crate's stability surface.
    /// Each call allocates; [`Self::raw_cells`] walks the same sequence
    /// without allocating.
    pub fn raw_data(&self) -> Vec<Option<f64>> {
        self.raw_cells().collect()
    }

    /// [`Self::raw_data`]'s sequence as an iterator.
    pub fn raw_cells(&self) -> impl ExactSizeIterator<Item = Option<f64>> + '_ {
        self.values.iter().map(|&v| present(v))
    }

    /// The cell array itself, NaN where a cell is missing, in
    /// [`Self::raw_data`]'s order: the input of the scan kernels.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over all present cells.
    pub fn cells(&self) -> impl Iterator<Item = (GroupId, QueryId, LocationId, f64)> + '_ {
        self.raw_cells().enumerate().filter_map(move |(o, v)| {
            let v = v?;
            let l = o % self.n_locations;
            let q = (o / self.n_locations) % self.n_queries;
            let g = o / (self.n_locations * self.n_queries);
            Some((GroupId(g as u32), QueryId(q as u32), LocationId(l as u32), v))
        })
    }
}

/// A stored cell as an `Option`: NaN, the missing marker, is `None`.
fn present(v: f64) -> Option<f64> {
    (!v.is_nan()).then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> (Vec<GroupId>, Vec<QueryId>, Vec<LocationId>) {
        (
            (0..n).map(GroupId).collect(),
            (0..n).map(QueryId).collect(),
            (0..n).map(LocationId).collect(),
        )
    }

    #[test]
    fn set_get_roundtrip() {
        let mut c = UnfairnessCube::with_dims(2, 3, 4);
        assert_eq!(c.get(GroupId(0), QueryId(0), LocationId(0)), None);
        c.set(GroupId(1), QueryId(2), LocationId(3), 0.5);
        assert_eq!(c.get(GroupId(1), QueryId(2), LocationId(3)), Some(0.5));
        // Neighbours untouched.
        assert_eq!(c.get(GroupId(1), QueryId(2), LocationId(2)), None);
        assert_eq!(c.get(GroupId(0), QueryId(2), LocationId(3)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_ids_rejected() {
        let c = UnfairnessCube::with_dims(2, 2, 2);
        c.get(GroupId(2), QueryId(0), LocationId(0));
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn out_of_range_values_rejected() {
        let mut c = UnfairnessCube::with_dims(1, 1, 1);
        c.set(GroupId(0), QueryId(0), LocationId(0), 1.5);
    }

    #[test]
    fn averages_skip_missing_cells() {
        let mut c = UnfairnessCube::with_dims(1, 2, 2);
        let g = GroupId(0);
        c.set(g, QueryId(0), LocationId(0), 0.2);
        c.set(g, QueryId(1), LocationId(1), 0.6);
        // Two of four cells missing → mean of the present two.
        let (_, qs, ls) = ids(2);
        let avg = c.avg_group(g, &qs[..2], &ls[..2]).unwrap();
        assert!((avg - 0.4).abs() < 1e-12);
    }

    #[test]
    fn averages_none_when_all_missing() {
        let c = UnfairnessCube::with_dims(1, 1, 1);
        assert_eq!(c.avg_group(GroupId(0), &[QueryId(0)], &[LocationId(0)]), None);
    }

    #[test]
    fn restricted_aggregation() {
        let mut c = UnfairnessCube::with_dims(2, 2, 2);
        for g in 0..2 {
            for q in 0..2 {
                for l in 0..2 {
                    c.set(GroupId(g), QueryId(q), LocationId(l), (g + q + l) as f64 / 10.0);
                }
            }
        }
        // Restrict to q=1, l∈{0,1} for g=0: cells 0.1 and 0.2.
        let avg = c.avg_group(GroupId(0), &[QueryId(1)], &[LocationId(0), LocationId(1)]).unwrap();
        assert!((avg - 0.15).abs() < 1e-12);
        // avg_query over both groups at l=0, q=1: (0.1 + 0.2)/2.
        let avg_q = c.avg_query(QueryId(1), &[GroupId(0), GroupId(1)], &[LocationId(0)]).unwrap();
        assert!((avg_q - 0.15).abs() < 1e-12);
        // avg_location over both groups, both queries at l=1.
        let avg_l = c
            .avg_location(LocationId(1), &[GroupId(0), GroupId(1)], &[QueryId(0), QueryId(1)])
            .unwrap();
        assert!((avg_l - (0.1 + 0.2 + 0.2 + 0.3) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn completeness_and_coverage() {
        let mut c = UnfairnessCube::with_dims(1, 1, 2);
        assert!(!c.is_complete());
        assert_eq!(c.coverage(), 0.0);
        c.set(GroupId(0), QueryId(0), LocationId(0), 0.5);
        assert!((c.coverage() - 0.5).abs() < 1e-12);
        c.set(GroupId(0), QueryId(0), LocationId(1), 0.7);
        assert!(c.is_complete());
    }

    #[test]
    fn present_count_follows_every_write() {
        let mut c = UnfairnessCube::with_dims(1, 2, 2);
        let (g, q) = (GroupId(0), QueryId(1));
        c.set(g, q, LocationId(0), -0.0);
        c.set(g, q, LocationId(0), 1.0); // overwrite: still one cell
        c.set_opt(g, q, LocationId(1), None); // clearing a missing cell
        assert_eq!(c.coverage(), 0.25);
        c.set_opt(g, q, LocationId(0), None);
        assert_eq!(c.coverage(), 0.0);
        for (q, l) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            c.set(g, QueryId(q), LocationId(l), -0.0);
        }
        assert!(c.is_complete());
        assert_eq!(c.get(g, q, LocationId(1)).map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(c.raw_data(), c.raw_cells().collect::<Vec<_>>());
        c.set_opt(g, QueryId(0), LocationId(1), None);
        assert!(!c.is_complete());
        assert_eq!(c.raw_data()[1], None);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn nan_is_never_a_value() {
        let mut c = UnfairnessCube::with_dims(1, 1, 1);
        c.set_opt(GroupId(0), QueryId(0), LocationId(0), Some(f64::NAN));
    }

    #[test]
    fn cells_iterator_roundtrips() {
        let mut c = UnfairnessCube::with_dims(2, 3, 4);
        c.set(GroupId(1), QueryId(2), LocationId(3), 0.25);
        c.set(GroupId(0), QueryId(0), LocationId(0), 0.75);
        let cells: Vec<_> = c.cells().collect();
        assert_eq!(cells.len(), 2);
        assert!(cells.contains(&(GroupId(1), QueryId(2), LocationId(3), 0.25)));
        assert!(cells.contains(&(GroupId(0), QueryId(0), LocationId(0), 0.75)));
    }

    #[test]
    fn set_opt_clears() {
        let mut c = UnfairnessCube::with_dims(1, 1, 1);
        c.set(GroupId(0), QueryId(0), LocationId(0), 0.5);
        c.set_opt(GroupId(0), QueryId(0), LocationId(0), None);
        assert_eq!(c.get(GroupId(0), QueryId(0), LocationId(0)), None);
    }
}
