//! Full-scan baseline for Fairness Quantification.
//!
//! Computes every candidate entity's aggregate by scanning the cube, then
//! partially sorts. This is the O(|G|·|Q|·|L|) comparator the paper's
//! threshold algorithm is designed to beat; it also handles *incomplete*
//! cubes (averaging over present cells). [`marginal_top_k`] returns the
//! same answer from precomputed per-entity means when the aggregated
//! dimensions are unrestricted.

use super::sums::{slot_sums, Axis};
use super::{rank, resolve_ids, topk::RankOrder, Restriction, TopKResult, TopKStats};
use crate::cube::UnfairnessCube;
use crate::index::{Dimension, IndexSet};

/// Full-scan top-k over a cube: the `k` entities of `dim` with the highest
/// (or lowest) average unfairness over the other two (restricted)
/// dimensions. Entities with no present cells are omitted. Ties are broken
/// by ascending entity id.
///
/// Each entity's sum adds its present cells in `(a, b)` order, `a` and
/// `b` the other two dimensions in `(Group, Query, Location)` order, as a
/// per-entity double loop would. Several entities are summed at once
/// by the scan kernel `compare` shares (DESIGN.md §8, "Cell layout and
/// scan kernels"), which changes no bit of any aggregate and no count.
pub fn naive_top_k(
    cube: &UnfairnessCube,
    dim: Dimension,
    k: usize,
    order: RankOrder,
    restrict: &Restriction,
) -> TopKResult {
    let _span = fbox_telemetry::span("algo.naive");
    let entities = restrict.resolve(dim, dim_len(cube, dim));
    let (da, db) = dim.others();
    let ents_a = restrict.resolve(da, dim_len(cube, da));
    let ents_b = restrict.resolve(db, dim_len(cube, db));
    let sums = slot_sums(
        cube.values(),
        Axis::new(cube, dim, &entities),
        Axis::new(cube, da, &ents_a),
        Axis::new(cube, db, &ents_b),
    );
    let mut aggregates = Vec::with_capacity(entities.len());
    for (&e, (sum, n)) in entities.iter().zip(sums) {
        if n > 0 {
            aggregates.push((e, sum / n as f64));
        }
    }

    let cells = (entities.len() * ents_a.len() * ents_b.len()) as u64;
    let stats = TopKStats { random_accesses: cells, cells_scanned: cells, ..TopKStats::default() };
    stats.publish("naive");
    TopKResult { entries: rank(aggregates, k, order), stats }
}

/// [`naive_top_k`] with both aggregated dimensions unrestricted, read from
/// the index's per-entity means ([`IndexSet::marginal`]) instead of the
/// cells. `candidates` restricts the ranked dimension as
/// [`Restriction::subset`]`(dim)` does. The answer is bit-identical to the
/// scan's: the means are summed in the scan's order and ranked by the same
/// step. The stats count one random access per candidate mean and no
/// cell.
pub fn marginal_top_k(
    indices: &IndexSet,
    dim: Dimension,
    k: usize,
    order: RankOrder,
    candidates: Option<&[u32]>,
) -> TopKResult {
    let _span = fbox_telemetry::span("algo.marginal");
    let means = indices.marginal(dim);
    let entities = resolve_ids(dim, candidates, means.len());
    let stats = TopKStats { random_accesses: entities.len() as u64, ..TopKStats::default() };
    let aggregates =
        entities.into_iter().filter_map(|e| means[e as usize].map(|m| (e, m))).collect();
    stats.publish("marginal");
    TopKResult { entries: rank(aggregates, k, order), stats }
}

fn dim_len(cube: &UnfairnessCube, dim: Dimension) -> usize {
    match dim {
        Dimension::Group => cube.n_groups(),
        Dimension::Query => cube.n_queries(),
        Dimension::Location => cube.n_locations(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::sums::testing::Draws;
    use super::*;
    use crate::model::{GroupId, LocationId, QueryId};

    /// The scan one cell at a time, through the `Option` view: each
    /// entity's sum over `(a, b)` in order.
    fn oracle(
        cube: &UnfairnessCube,
        dim: Dimension,
        k: usize,
        order: RankOrder,
        restrict: &Restriction,
    ) -> TopKResult {
        let mut stats = TopKStats::default();
        let entities = restrict.resolve(dim, dim_len(cube, dim));
        let (da, db) = dim.others();
        let ents_a = restrict.resolve(da, dim_len(cube, da));
        let ents_b = restrict.resolve(db, dim_len(cube, db));
        let (nq, nl) = (cube.n_queries(), cube.n_locations());
        let (se, sa, sb) = match dim {
            Dimension::Group => (nq * nl, nl, 1),
            Dimension::Query => (nl, nq * nl, 1),
            Dimension::Location => (1, nq * nl, nl),
        };
        let data = cube.raw_data();
        let per_entity = (ents_a.len() * ents_b.len()) as u64;
        let mut aggregates: Vec<(u32, f64)> = Vec::with_capacity(entities.len());
        for &e in &entities {
            let mut sum = 0.0;
            let mut n = 0usize;
            for &a in &ents_a {
                let row = e as usize * se + a as usize * sa;
                for &b in &ents_b {
                    if let Some(v) = data[row + b as usize * sb] {
                        sum += v;
                        n += 1;
                    }
                }
            }
            stats.random_accesses += per_entity;
            stats.cells_scanned += per_entity;
            if n > 0 {
                aggregates.push((e, sum / n as f64));
            }
        }
        TopKResult { entries: rank(aggregates, k, order), stats }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The kernel scan against the per-cell oracle: ids, value bits
        /// and cell counts, on random holed cubes, every dimension, and
        /// candidate and aggregated subsets with repeats.
        #[test]
        fn scan_matches_per_cell_oracle(seed in 0u64..u64::MAX) {
            let mut draws = Draws::new(seed);
            let cube = draws.holed_cube();
            let mut pick = |dim| (draws.below(2) == 0).then(|| draws.ids(dim_len(&cube, dim)));
            let restrict = Restriction {
                groups: pick(Dimension::Group),
                queries: pick(Dimension::Query),
                locations: pick(Dimension::Location),
            };
            let bits = |r: &TopKResult| -> Vec<(u32, u64)> {
                r.entries.iter().map(|&(e, v)| (e, v.to_bits())).collect()
            };
            for dim in [Dimension::Group, Dimension::Query, Dimension::Location] {
                for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
                    let k = dim_len(&cube, dim);
                    let got = naive_top_k(&cube, dim, k, order, &restrict);
                    let want = oracle(&cube, dim, k, order, &restrict);
                    proptest::prop_assert_eq!(bits(&got), bits(&want), "{:?} {:?}", dim, restrict);
                    proptest::prop_assert_eq!(got.stats.cells_scanned, want.stats.cells_scanned);
                    proptest::prop_assert_eq!(got.stats.random_accesses, want.stats.random_accesses);
                }
            }
        }
    }

    fn cube() -> UnfairnessCube {
        let mut c = UnfairnessCube::with_dims(3, 2, 2);
        for g in 0..3u32 {
            for q in 0..2u32 {
                for l in 0..2u32 {
                    let v = (g as f64 + 1.0) / 10.0 + (q as f64) * 0.01 + (l as f64) * 0.001;
                    c.set(GroupId(g), QueryId(q), LocationId(l), v);
                }
            }
        }
        c
    }

    #[test]
    fn orders_both_ways() {
        let c = cube();
        let most =
            naive_top_k(&c, Dimension::Group, 3, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(most.entries[0].0, 2);
        assert_eq!(most.entries[2].0, 0);
        let least =
            naive_top_k(&c, Dimension::Group, 3, RankOrder::LeastUnfair, &Restriction::none());
        assert_eq!(least.entries[0].0, 0);
        assert_eq!(least.entries[2].0, 2);
    }

    #[test]
    fn handles_missing_cells() {
        let mut c = UnfairnessCube::with_dims(2, 2, 1);
        c.set(GroupId(0), QueryId(0), LocationId(0), 0.9);
        // Group 0 has one present cell (0.9); group 1 none.
        let r = naive_top_k(&c, Dimension::Group, 5, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(r.entries, vec![(0, 0.9)]);
    }

    #[test]
    fn ties_break_by_id() {
        let mut c = UnfairnessCube::with_dims(3, 1, 1);
        for g in 0..3u32 {
            c.set(GroupId(g), QueryId(0), LocationId(0), 0.5);
        }
        let r = naive_top_k(&c, Dimension::Group, 2, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(r.entries[0].0, 0);
        assert_eq!(r.entries[1].0, 1);
    }

    #[test]
    fn respects_restrictions() {
        let c = cube();
        let restrict =
            Restriction { groups: Some(vec![0, 1]), queries: Some(vec![1]), locations: None };
        let r = naive_top_k(&c, Dimension::Group, 5, RankOrder::MostUnfair, &restrict);
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[0].0, 1);
        // Aggregate = mean over q=1, l∈{0,1}.
        let expected = (0.2 + 0.01 + 0.2 + 0.011) / 2.0;
        assert!((r.entries[0].1 - expected).abs() < 1e-12);
    }
}
