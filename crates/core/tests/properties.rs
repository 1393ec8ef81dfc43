//! Property-based tests for the core invariants.
//!
//! The load-bearing one is `ta_equals_naive_*`: on any complete cube the
//! threshold algorithm must return exactly the same top-k values as the
//! full scan — that is the correctness claim behind the paper's §4.2.
//! `fbox_top_k_equals_naive_bit_for_bit_*` holds `FBox::top_k`'s
//! marginal path to the scan's exact bits on holed cubes.

use fbox_core::algo::{compare, naive_top_k, top_k, Entity, RankOrder, Restriction};
use fbox_core::index::{Dimension, IndexSet};
use fbox_core::measures::{self, BinConfig, DiscountModel, Histogram};
use fbox_core::model::{AttrId, Attribute, GroupId, GroupLabel, LocationId, QueryId, ValueId};
use fbox_core::observations::{MarketRanking, RankedWorker, UserList};
use fbox_core::unfairness::reference::{market_cell_unfairness, search_cell_unfairness};
use fbox_core::unfairness::{CellEval, CellMeasure, MarketMeasure, MeasureContext, SearchMeasure};
use fbox_core::{FBox, Schema, UnfairnessCube, Universe};
use proptest::prelude::*;

/// Strategy: a complete cube with the given dimension bounds and values in
/// [0, 1].
fn complete_cube(
    max_g: usize,
    max_q: usize,
    max_l: usize,
) -> impl Strategy<Value = UnfairnessCube> {
    (1..=max_g, 1..=max_q, 1..=max_l).prop_flat_map(|(ng, nq, nl)| {
        proptest::collection::vec(0.0f64..=1.0, ng * nq * nl).prop_map(move |vals| {
            let mut c = UnfairnessCube::with_dims(ng, nq, nl);
            let mut it = vals.into_iter();
            for g in 0..ng as u32 {
                for q in 0..nq as u32 {
                    for l in 0..nl as u32 {
                        c.set(GroupId(g), QueryId(q), LocationId(l), it.next().unwrap());
                    }
                }
            }
            c
        })
    })
}

/// Strategy: a cube with holes. Each cell is missing with probability
/// 1/4, and each entity of each dimension has all of its cells missing
/// with probability 1/5 (fully empty rows). Values lie in [0, 1].
fn holed_cube(max_g: usize, max_q: usize, max_l: usize) -> impl Strategy<Value = UnfairnessCube> {
    (1..=max_g, 1..=max_q, 1..=max_l).prop_flat_map(|(ng, nq, nl)| {
        let n = ng * nq * nl;
        (
            proptest::collection::vec(0.0f64..=1.0, n),
            proptest::collection::vec(0u8..4, n),
            proptest::collection::vec(0u8..5, ng + nq + nl),
        )
            .prop_map(move |(vals, holes, blank)| {
                let mut c = UnfairnessCube::with_dims(ng, nq, nl);
                let mut o = 0;
                for g in 0..ng {
                    for q in 0..nq {
                        for l in 0..nl {
                            let empty = holes[o] == 0
                                || blank[g] == 0
                                || blank[ng + q] == 0
                                || blank[ng + nq + l] == 0;
                            let v = (!empty).then_some(vals[o]);
                            c.set_opt(
                                GroupId(g as u32),
                                QueryId(q as u32),
                                LocationId(l as u32),
                                v,
                            );
                            o += 1;
                        }
                    }
                }
                c
            })
    })
}

/// An F-Box over `cube`: one group per value of a single attribute, and
/// as many queries and locations as the cube has.
fn fbox_over(cube: &UnfairnessCube) -> FBox {
    let ng = cube.n_groups() as u16;
    let schema = Schema::new(vec![Attribute::new("a", (0..ng).map(|v| format!("v{v}")))]);
    let mut u = Universe::new(schema);
    for v in 0..ng {
        u.add_group(GroupLabel::new(vec![(AttrId(0), ValueId(v))]));
    }
    for q in 0..cube.n_queries() {
        u.add_query(format!("q{q}"), None);
    }
    for l in 0..cube.n_locations() {
        u.add_location(format!("l{l}"), None);
    }
    FBox::from_cube(u, cube.clone())
}

/// `FBox::top_k` against `naive_top_k` on the F-Box's own cube, ids and
/// value bits, over every dimension, both orders, every `k` from 0 to past
/// the dimension size, unrestricted and with `raw` (taken modulo the
/// dimension size, duplicates kept) as the ranked dimension's candidates.
fn assert_top_k_matches_scan(fb: &FBox, raw: &[u32]) {
    let bits = |e: &[(u32, f64)]| e.iter().map(|&(id, v)| (id, v.to_bits())).collect::<Vec<_>>();
    for dim in [Dimension::Group, Dimension::Query, Dimension::Location] {
        let n = fb.indices().dim_len(dim);
        let candidates: Vec<u32> = raw.iter().map(|&id| id % n as u32).collect();
        for restrict in [Restriction::none(), Restriction::on(dim, candidates)] {
            for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
                for k in 0..=n + 1 {
                    let got = fb.top_k(dim, k, order, &restrict);
                    let want = naive_top_k(fb.cube(), dim, k, order, &restrict);
                    assert_eq!(
                        bits(&got.entries),
                        bits(&want.entries),
                        "{dim:?} {order:?} k={k} {restrict:?}"
                    );
                }
            }
        }
    }
}

/// Values of a top-k result (the comparable part under ties).
fn values(entries: &[(u32, f64)]) -> Vec<f64> {
    entries.iter().map(|&(_, v)| v).collect()
}

/// A universe over attributes of the given cardinalities: the full group
/// lattice when `lattice` is set, plus `extra` labels. An extra label's
/// attribute indices wrap into the schema (a label naming an attribute
/// the schema lacks has no comparable groups to resolve), while its values
/// may lie outside the attribute's domain; repeated attributes keep their
/// first value, and an empty label matches everyone.
fn universe(cards: &[u16], lattice: bool, extra: &[Vec<(u16, u16)>]) -> Universe {
    let schema = Schema::new(
        cards
            .iter()
            .enumerate()
            .map(|(a, &n)| Attribute::new(format!("a{a}"), (0..n).map(|v| format!("v{v}"))))
            .collect(),
    );
    let mut u = if lattice { Universe::with_all_groups(schema) } else { Universe::new(schema) };
    for raw in extra {
        let mut predicates: Vec<(AttrId, ValueId)> = Vec::new();
        for &(a, v) in raw {
            let a = AttrId(a % cards.len() as u16);
            if predicates.iter().all(|&(b, _)| b != a) {
                predicates.push((a, ValueId(v)));
            }
        }
        u.add_group(GroupLabel::new(predicates));
    }
    u
}

fn assignment(raw: &[u16]) -> Vec<ValueId> {
    raw.iter().map(|&v| ValueId(v)).collect()
}

/// A ranking of the given workers in order; a worker's score is dropped
/// (rank-derived relevance) when its flag is 0.
fn ranking(workers: &[(Vec<u16>, f64, u8)]) -> MarketRanking {
    MarketRanking::new(
        workers
            .iter()
            .enumerate()
            .map(|(i, (a, score, flag))| RankedWorker {
                assignment: assignment(a),
                rank: i + 1,
                score: (*flag != 0).then_some(*score),
            })
            .collect(),
    )
}

fn user_lists(lists: &[(Vec<u16>, Vec<u64>)]) -> Vec<UserList> {
    lists
        .iter()
        .map(|(a, results)| UserList { assignment: assignment(a), results: results.clone() })
        .collect()
}

/// Every group of every measure, through the context's group sets,
/// against the per-group reference oracles, bit for bit.
fn assert_evaluators_match_reference(u: &Universe, ranking: &MarketRanking, lists: &[UserList]) {
    let ctx = MeasureContext::new(u);
    for m in [MarketMeasure::emd(), MarketMeasure::Emd { bins: 1 }, MarketMeasure::exposure()] {
        let mut eval = m.evaluator(&ctx, ranking);
        for g in u.group_ids() {
            let want = market_cell_unfairness(u, ranking, g, m).map(f64::to_bits);
            assert_eq!(eval.group(g).map(f64::to_bits), want, "{m:?} group {g:?}");
        }
    }
    for m in [SearchMeasure::kendall(), SearchMeasure::JaccardDistance] {
        let mut eval = m.evaluator(&ctx, lists);
        for g in u.group_ids() {
            let want = search_cell_unfairness(u, lists, g, m).map(f64::to_bits);
            assert_eq!(eval.group(g).map(f64::to_bits), want, "{m:?} group {g:?}");
        }
    }
}

fn assert_close(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "result lengths differ: {a:?} vs {b:?}");
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ta_equals_naive_most_unfair(cube in complete_cube(12, 5, 5), k in 1usize..8) {
        let idx = IndexSet::build(&cube);
        for dim in [Dimension::Group, Dimension::Query, Dimension::Location] {
            let ta = top_k(&idx, dim, k, RankOrder::MostUnfair, &Restriction::none());
            let nv = naive_top_k(&cube, dim, k, RankOrder::MostUnfair, &Restriction::none());
            assert_close(&values(&ta.entries), &values(&nv.entries));
        }
    }

    #[test]
    fn ta_equals_naive_least_unfair(cube in complete_cube(12, 5, 5), k in 1usize..8) {
        let idx = IndexSet::build(&cube);
        for dim in [Dimension::Group, Dimension::Query, Dimension::Location] {
            let ta = top_k(&idx, dim, k, RankOrder::LeastUnfair, &Restriction::none());
            let nv = naive_top_k(&cube, dim, k, RankOrder::LeastUnfair, &Restriction::none());
            assert_close(&values(&ta.entries), &values(&nv.entries));
        }
    }

    #[test]
    fn ta_equals_naive_under_restriction(cube in complete_cube(8, 4, 4), k in 1usize..5) {
        let idx = IndexSet::build(&cube);
        // Restrict the aggregated dimensions to a prefix subset.
        let restrict = Restriction {
            groups: None,
            queries: Some((0..cube.n_queries().max(1) as u32 / 2 + 1).collect()),
            locations: Some((0..cube.n_locations().max(1) as u32 / 2 + 1).collect()),
        };
        let ta = top_k(&idx, Dimension::Group, k, RankOrder::MostUnfair, &restrict);
        let nv = naive_top_k(&cube, Dimension::Group, k, RankOrder::MostUnfair, &restrict);
        assert_close(&values(&ta.entries), &values(&nv.entries));
    }

    #[test]
    fn fbox_top_k_equals_naive_bit_for_bit_on_holed_cubes(
        cube in holed_cube(9, 6, 6),
        raw in proptest::collection::vec(0u32..64, 0..12),
    ) {
        assert_top_k_matches_scan(&fbox_over(&cube), &raw);
    }

    /// Each update sets, keeps, changes or clears every group of one
    /// `(q, l)` cell; the answers must track the new cube after every
    /// update, and a clone taken before them must keep the old answers.
    #[test]
    fn fbox_top_k_equals_naive_bit_for_bit_through_cell_updates(
        cube in holed_cube(7, 5, 5),
        raw in proptest::collection::vec(0u32..64, 0..8),
        updates in proptest::collection::vec(
            (0u32..64, 0u32..64, proptest::collection::vec((0u8..3, 0.0f64..=1.0), 7)),
            1..6,
        ),
    ) {
        let mut fb = fbox_over(&cube);
        assert_top_k_matches_scan(&fb, &raw);
        let before = fb.clone();
        for (q, l, ops) in &updates {
            let q = QueryId(q % cube.n_queries() as u32);
            let l = LocationId(l % cube.n_locations() as u32);
            let values: Vec<Option<f64>> = fb
                .universe()
                .group_ids()
                .zip(ops)
                .map(|(g, &(op, v))| match op {
                    0 => None,
                    1 => fb.unfairness(g, q, l),
                    _ => Some(v),
                })
                .collect();
            fb.apply_cell(q, l, &values);
            assert_top_k_matches_scan(&fb, &raw);
        }
        prop_assert_eq!(before.cube().raw_data(), cube.raw_data());
        assert_top_k_matches_scan(&before, &raw);
    }

    #[test]
    fn topk_reported_aggregates_are_correct(cube in complete_cube(10, 4, 4), k in 1usize..6) {
        let idx = IndexSet::build(&cube);
        let queries: Vec<QueryId> = (0..cube.n_queries() as u32).map(QueryId).collect();
        let locations: Vec<LocationId> = (0..cube.n_locations() as u32).map(LocationId).collect();
        let ta = top_k(&idx, Dimension::Group, k, RankOrder::MostUnfair, &Restriction::none());
        for (id, v) in &ta.entries {
            let expected = cube.avg_group(GroupId(*id), &queries, &locations).unwrap();
            prop_assert!((v - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn comparison_rows_consistent_with_cube(cube in complete_cube(6, 4, 4)) {
        prop_assume!(cube.n_groups() >= 2);
        let idx = IndexSet::build(&cube);
        let out = compare(
            &idx,
            Entity::Group(GroupId(0)),
            Entity::Group(GroupId(1)),
            Dimension::Location,
            None,
            &Restriction::none(),
        ).unwrap();
        let queries: Vec<QueryId> = (0..cube.n_queries() as u32).map(QueryId).collect();
        let overall_order = out.overall1.partial_cmp(&out.overall2).unwrap();
        for row in &out.rows {
            // Row values match direct cube aggregation.
            let d1 = cube.avg_group(GroupId(0), &queries, &[LocationId(row.entity)]).unwrap();
            let d2 = cube.avg_group(GroupId(1), &queries, &[LocationId(row.entity)]).unwrap();
            prop_assert!((row.d1 - d1).abs() < 1e-9);
            prop_assert!((row.d2 - d2).abs() < 1e-9);
            // The reversal flag is exactly "strict order differs".
            let row_order = row.d1.partial_cmp(&row.d2).unwrap();
            prop_assert_eq!(row.reversed, row_order != overall_order);
        }
    }

    #[test]
    fn cell_evaluators_match_reference_on_arbitrary_groups(
        cards in proptest::collection::vec(1u16..=4, 1..=3),
        lattice in 0u8..2,
        extra in proptest::collection::vec(proptest::collection::vec((0u16..4, 0u16..6), 0..=3), 0..10),
        workers in proptest::collection::vec((proptest::collection::vec(0u16..6, 0..=4), 0.0f64..=1.0, 0u8..3), 0..24),
        lists in proptest::collection::vec((proptest::collection::vec(0u16..6, 0..=4), proptest::sample::subsequence((0u64..12).collect::<Vec<_>>(), 0..8).prop_shuffle()), 0..10),
    ) {
        // Assignments run shorter and longer than the schema and carry
        // values outside its domains, as do the extra labels.
        let u = universe(&cards, lattice == 1, &extra);
        assert_evaluators_match_reference(&u, &ranking(&workers), &user_lists(&lists));
    }

    #[test]
    fn cell_evaluators_match_reference_past_one_word_of_groups(
        cards in proptest::collection::vec(4u16..=5, 3),
        extra in proptest::collection::vec(proptest::collection::vec((0u16..3, 0u16..7), 0..=3), 0..6),
        workers in proptest::collection::vec((proptest::collection::vec(0u16..7, 0..=4), 0.0f64..=1.0, 0u8..3), 0..40),
        lists in proptest::collection::vec((proptest::collection::vec(0u16..7, 0..=4), proptest::sample::subsequence((0u64..12).collect::<Vec<_>>(), 0..8).prop_shuffle()), 0..12),
    ) {
        // Three attributes of 4–5 values: a lattice of at least 124
        // groups, so every group set spans two or more words.
        let u = universe(&cards, true, &extra);
        prop_assert!(u.n_groups() > 64);
        assert_evaluators_match_reference(&u, &ranking(&workers), &user_lists(&lists));
    }

    #[test]
    fn kendall_top_k_is_a_bounded_symmetric_distance(
        a in proptest::collection::vec(0u64..30, 0..10),
        b in proptest::collection::vec(0u64..30, 0..10),
        p in 0.0f64..=1.0,
    ) {
        let mut da = a.clone();
        da.sort_unstable();
        da.dedup();
        let mut db = b.clone();
        db.sort_unstable();
        db.dedup();
        let d_ab = measures::kendall::top_k_distance(&da, &db, p);
        let d_ba = measures::kendall::top_k_distance(&db, &da, p);
        prop_assert!((0.0..=1.0).contains(&d_ab));
        prop_assert!((d_ab - d_ba).abs() < 1e-12);
        prop_assert!(measures::kendall::top_k_distance(&da, &da, p).abs() < 1e-12);
    }

    #[test]
    fn jaccard_is_a_bounded_symmetric_distance(
        a in proptest::collection::vec(0u64..20, 0..12),
        b in proptest::collection::vec(0u64..20, 0..12),
    ) {
        let d_ab = measures::jaccard::distance(&a, &b);
        let d_ba = measures::jaccard::distance(&b, &a);
        prop_assert!((0.0..=1.0).contains(&d_ab));
        prop_assert!((d_ab - d_ba).abs() < 1e-12);
        prop_assert!(measures::jaccard::distance(&a, &a).abs() < 1e-12);
    }

    #[test]
    fn kendall_top_k_is_bitwise_symmetric(
        a in proptest::sample::subsequence((0u64..30).collect::<Vec<_>>(), 0..10).prop_shuffle(),
        b in proptest::sample::subsequence((0u64..30).collect::<Vec<_>>(), 0..10).prop_shuffle(),
        p in 0.0f64..=1.0,
    ) {
        // `SearchCellEval` caches one distance per unordered user pair;
        // that is exact only if swapping the lists keeps every bit, at any p.
        let d_ab = measures::kendall::top_k_distance(&a, &b, p);
        let d_ba = measures::kendall::top_k_distance(&b, &a, p);
        prop_assert_eq!(d_ab.to_bits(), d_ba.to_bits(), "d(a,b) {d_ab} vs d(b,a) {d_ba} at p={p}");
    }

    #[test]
    fn jaccard_is_bitwise_symmetric(
        a in proptest::collection::vec(0u64..20, 0..12),
        b in proptest::collection::vec(0u64..20, 0..12),
    ) {
        let d_ab = measures::jaccard::distance(&a, &b);
        let d_ba = measures::jaccard::distance(&b, &a);
        prop_assert_eq!(d_ab.to_bits(), d_ba.to_bits(), "d(a,b) {d_ab} vs d(b,a) {d_ba}");
    }

    #[test]
    fn emd_metric_properties(
        va in proptest::collection::vec(0.0f64..=1.0, 1..20),
        vb in proptest::collection::vec(0.0f64..=1.0, 1..20),
        vc in proptest::collection::vec(0.0f64..=1.0, 1..20),
    ) {
        let cfg = BinConfig::unit(8);
        let a = Histogram::from_values(cfg, va.iter().copied());
        let b = Histogram::from_values(cfg, vb.iter().copied());
        let c = Histogram::from_values(cfg, vc.iter().copied());
        let ab = measures::emd_1d(&a, &b).unwrap();
        let ba = measures::emd_1d(&b, &a).unwrap();
        let bc = measures::emd_1d(&b, &c).unwrap();
        let ac = measures::emd_1d(&a, &c).unwrap();
        // Non-negativity, symmetry, identity, triangle inequality.
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!(measures::emd_1d(&a, &a).unwrap().abs() < 1e-12);
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn emd_general_matches_closed_form(
        va in proptest::collection::vec(0.0f64..=1.0, 1..16),
        vb in proptest::collection::vec(0.0f64..=1.0, 1..16),
    ) {
        let cfg = BinConfig::unit(6);
        let a = Histogram::from_values(cfg, va.iter().copied());
        let b = Histogram::from_values(cfg, vb.iter().copied());
        let closed = measures::emd_1d(&a, &b).unwrap();
        let general = measures::emd_general_1d(&a, &b).unwrap();
        prop_assert!((closed - general).abs() < 1e-6, "closed={closed}, general={general}");
    }

    #[test]
    fn exposure_shares_sum_to_one(ranks in proptest::collection::vec(1usize..100, 1..30)) {
        // Split arbitrary ranks into two pools; shares must sum to 1.
        let model = DiscountModel::NaturalLog;
        let mid = ranks.len() / 2;
        let g: f64 = measures::total_exposure(model, ranks[..mid].iter().copied());
        let rest: f64 = measures::total_exposure(model, ranks[mid..].iter().copied());
        let pool = g + rest;
        prop_assume!(pool > 0.0);
        let share_g = g / pool;
        let share_rest = rest / pool;
        prop_assert!((share_g + share_rest - 1.0).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&share_g));
    }

    #[test]
    fn tau_distance_bounds_and_symmetry(perm in proptest::sample::subsequence((0u32..12).collect::<Vec<_>>(), 2..12).prop_shuffle()) {
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        let d = measures::kendall::tau_distance(&sorted, &perm);
        prop_assert!((0.0..=1.0).contains(&d));
        let d_rev = measures::kendall::tau_distance(&perm, &sorted);
        prop_assert!((d - d_rev).abs() < 1e-12);
    }
}
