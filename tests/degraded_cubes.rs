//! Property tests over *degraded* cubes — random missing-cell patterns,
//! including entire rows knocked out along each dimension.
//!
//! Graceful degradation turns failed, quarantined, and breaker-skipped
//! crawl cells into missing cube cells. These properties pin the query
//! layer's contract on such cubes:
//!
//! - TA ([`top_k`]) and the naive scan agree on any missing-cell pattern,
//!   under random restrictions;
//! - the aggregate for an entity is the average over its *present* cells
//!   (checked against a hand-rolled computation), and entities with no
//!   present cells are omitted, not scored 0;
//! - [`UnfairnessCube::coverage`] reports exactly the injected mask rate.

use fbox::core::algo::{naive_top_k, top_k, RankOrder, Restriction};
use fbox::core::model::{GroupId, LocationId, QueryId};
use fbox::core::{IndexSet, UnfairnessCube};
use fbox::Dimension;
use proptest::prelude::*;

/// A cube with random values, ~1/4 of cells knocked out by a random mask,
/// and optionally one full row knocked out along each dimension (the
/// selector value `== dim size` means "knock out nothing").
struct MaskedCube {
    cube: UnfairnessCube,
    present: usize,
    total: usize,
}

#[allow(clippy::too_many_arguments)]
fn build_masked(
    ng: usize,
    nq: usize,
    nl: usize,
    vals: Vec<f64>,
    mask: Vec<u8>,
    kg: u32,
    kq: u32,
    kl: u32,
) -> MaskedCube {
    let mut cube = UnfairnessCube::with_dims(ng, nq, nl);
    let mut present = 0usize;
    let mut i = 0usize;
    for g in 0..ng as u32 {
        for q in 0..nq as u32 {
            for l in 0..nl as u32 {
                let knocked = mask[i] == 0 || g == kg || q == kq || l == kl;
                if !knocked {
                    cube.set(GroupId(g), QueryId(q), LocationId(l), vals[i]);
                    present += 1;
                }
                i += 1;
            }
        }
    }
    MaskedCube { cube, present, total: ng * nq * nl }
}

fn masked_cube(max_g: usize, max_q: usize, max_l: usize) -> impl Strategy<Value = MaskedCube> {
    (2..=max_g, 2..=max_q, 2..=max_l).prop_flat_map(|(ng, nq, nl)| {
        let n = ng * nq * nl;
        (
            proptest::collection::vec(0.0f64..=1.0, n),
            proptest::collection::vec(0u8..4, n),
            0..=ng as u32, // == ng: no group row knocked out
            0..=nq as u32,
            0..=nl as u32,
        )
            .prop_map(move |(vals, mask, kg, kq, kl)| {
                build_masked(ng, nq, nl, vals, mask, kg, kq, kl)
            })
    })
}

/// Hand-rolled reference: for each entity along `dim`, the average of its
/// present cells over the full (unrestricted) slice; entities with no
/// present cells yield `None`.
fn hand_averages(cube: &UnfairnessCube, dim: Dimension) -> Vec<Option<f64>> {
    let (ng, nq, nl) = (cube.n_groups(), cube.n_queries(), cube.n_locations());
    let n_entities = match dim {
        Dimension::Group => ng,
        Dimension::Query => nq,
        Dimension::Location => nl,
    };
    let mut sums = vec![(0.0f64, 0usize); n_entities];
    for g in 0..ng as u32 {
        for q in 0..nq as u32 {
            for l in 0..nl as u32 {
                if let Some(v) = cube.get(GroupId(g), QueryId(q), LocationId(l)) {
                    let e = match dim {
                        Dimension::Group => g,
                        Dimension::Query => q,
                        Dimension::Location => l,
                    } as usize;
                    sums[e].0 += v;
                    sums[e].1 += 1;
                }
            }
        }
    }
    sums.into_iter().map(|(s, n)| if n == 0 { None } else { Some(s / n as f64) }).collect()
}

fn assert_same_values(a: &[(u32, f64)], b: &[(u32, f64)], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: lengths differ: {a:?} vs {b:?}");
    for (x, y) in a.iter().zip(b) {
        assert!((x.1 - y.1).abs() < 1e-9, "{context}: {a:?} vs {b:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// TA and the naive scan agree on degraded cubes under random
    /// restrictions, for every dimension and both rank orders.
    #[test]
    fn algorithms_agree_on_degraded_cubes(
        masked in masked_cube(6, 4, 4),
        raw_q in proptest::collection::vec(0u32..4, 1..9),
        raw_l in proptest::collection::vec(0u32..4, 1..9),
        k in 1usize..6,
    ) {
        prop_assume!(masked.present > 0);
        let cube = &masked.cube;
        let queries: Vec<u32> =
            raw_q.into_iter().filter(|&q| (q as usize) < cube.n_queries()).collect();
        let locations: Vec<u32> =
            raw_l.into_iter().filter(|&l| (l as usize) < cube.n_locations()).collect();
        prop_assume!(!queries.is_empty() && !locations.is_empty());
        let restrict =
            Restriction { groups: None, queries: Some(queries), locations: Some(locations) };
        let idx = IndexSet::build(cube);
        for dim in [Dimension::Group, Dimension::Query, Dimension::Location] {
            for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
                let ta = top_k(&idx, dim, k, order, &restrict);
                let nv = naive_top_k(cube, dim, k, order, &restrict);
                assert_same_values(&ta.entries, &nv.entries, &format!("ta vs naive, {dim:?} {order:?}"));
            }
        }
    }

    /// The unrestricted ranking scores each entity by the average of its
    /// *present* cells, and omits entities with none — checked against a
    /// from-scratch computation, full ranking (k = number of entities).
    #[test]
    fn aggregates_average_present_cells_only(masked in masked_cube(6, 4, 4)) {
        prop_assume!(masked.present > 0);
        let cube = &masked.cube;
        let idx = IndexSet::build(cube);
        for dim in [Dimension::Group, Dimension::Query, Dimension::Location] {
            let expected = hand_averages(cube, dim);
            let n_scored = expected.iter().filter(|e| e.is_some()).count();
            let k = expected.len();
            for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
                for (name, result) in [
                    ("naive", naive_top_k(cube, dim, k, order, &Restriction::none())),
                    ("ta", top_k(&idx, dim, k, order, &Restriction::none())),
                ] {
                    prop_assert_eq!(
                        result.entries.len(),
                        n_scored,
                        "{} {:?} {:?}: entities with no present cells must be omitted",
                        name, dim, order
                    );
                    for &(e, v) in &result.entries {
                        let want = expected[e as usize].unwrap_or_else(|| {
                            panic!("{name} {dim:?} {order:?}: ranked cell-less entity {e}")
                        });
                        prop_assert!(
                            (v - want).abs() < 1e-9,
                            "{} {:?} {:?}: entity {} scored {} want {}",
                            name, dim, order, e, v, want
                        );
                    }
                    // Ranked order must follow the sign of the order.
                    for w in result.entries.windows(2) {
                        match order {
                            RankOrder::MostUnfair => prop_assert!(w[0].1 >= w[1].1 - 1e-9),
                            RankOrder::LeastUnfair => prop_assert!(w[0].1 <= w[1].1 + 1e-9),
                        }
                    }
                }
            }
        }
    }

    /// `coverage` is exactly present / total for the injected mask.
    #[test]
    fn coverage_matches_injected_mask_rate(masked in masked_cube(6, 4, 4)) {
        let expected = masked.present as f64 / masked.total as f64;
        prop_assert!(
            (masked.cube.coverage() - expected).abs() < 1e-12,
            "coverage {} vs mask rate {} ({} of {} present)",
            masked.cube.coverage(), expected, masked.present, masked.total
        );
        prop_assert_eq!(masked.cube.is_complete(), masked.present == masked.total);
    }
}
