//! Determinism contracts of the parallel pipeline (`fbox-par`), plus
//! property tests over random cubes and restrictions.
//!
//! The load-bearing guarantee: every parallelized stage — marketplace
//! crawl, search study, cube construction, index build — produces output
//! *byte-identical* to its serial reference at any thread count. Speed
//! may vary with `FBOX_THREADS`; answers may not.

use fbox::core::algo::{naive_top_k, nra_top_k, top_k, RankOrder, Restriction};
use fbox::core::model::{GroupId, LocationId, QueryId};
use fbox::core::observations::{MarketObservations, SearchObservations};
use fbox::core::unfairness::{search_cell_unfairness, MeasureContext, SearchCellEval};
use fbox::core::{IndexSet, UnfairnessCube};
use fbox::marketplace::{crawl, BiasProfile, Marketplace, Population, ScoringModel};
use fbox::par::with_threads;
use fbox::repro::calibrate;
use fbox::search::extension::ExtensionRunner;
use fbox::search::noise::NoiseModel;
use fbox::search::personalize::PersonalizationProfile;
use fbox::search::study::{run_study, StudyDesign};
use fbox::search::SearchEngine;
use fbox::{Dimension, FBox, MarketMeasure, SearchMeasure, Universe};
use proptest::prelude::*;

/// Asserts two cubes are equal cell-for-cell at the bit level — not
/// within an epsilon: the parallel build must apply the exact same float
/// operations in the exact same order as the serial one.
fn assert_cubes_bit_identical(a: &UnfairnessCube, b: &UnfairnessCube, context: &str) {
    assert_eq!(a.n_groups(), b.n_groups(), "{context}: group dim");
    assert_eq!(a.n_queries(), b.n_queries(), "{context}: query dim");
    assert_eq!(a.n_locations(), b.n_locations(), "{context}: location dim");
    for g in 0..a.n_groups() as u32 {
        for q in 0..a.n_queries() as u32 {
            for l in 0..a.n_locations() as u32 {
                let (g, q, l) = (GroupId(g), QueryId(q), LocationId(l));
                let (x, y) = (a.get(g, q, l), b.get(g, q, l));
                match (x, y) {
                    (Some(x), Some(y)) => assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{context}: d⟨{g:?},{q:?},{l:?}⟩ differs: {x} vs {y}"
                    ),
                    (None, None) => {}
                    _ => {
                        panic!("{context}: presence differs at ⟨{g:?},{q:?},{l:?}⟩: {x:?} vs {y:?}")
                    }
                }
            }
        }
    }
}

fn market_fixture() -> (Universe, MarketObservations) {
    let m =
        Marketplace::new(Population::paper(7), ScoringModel::default(), BiasProfile::neutral(), 10);
    let (universe, obs, _) = crawl(&m);
    (universe, obs)
}

fn search_fixture() -> (Universe, SearchObservations) {
    let design = StudyDesign { participants_per_group: 2, seed: 0xF0CA };
    let engine = SearchEngine::new(PersonalizationProfile::uniform(0.2), NoiseModel::none(), 3);
    let runner = ExtensionRunner { repeats: 1, max_extra_runs: 0, ..Default::default() };
    let (universe, obs, _) = run_study(&design, &engine, &runner);
    (universe, obs)
}

#[test]
fn market_build_is_bit_identical_across_thread_counts() {
    let (universe, obs) = market_fixture();
    for measure in [MarketMeasure::emd(), MarketMeasure::exposure()] {
        let reference = FBox::from_market_serial(universe.clone(), &obs, measure);
        for threads in [1usize, 2, 8] {
            let parallel =
                with_threads(threads, || FBox::from_market(universe.clone(), &obs, measure));
            assert_cubes_bit_identical(
                reference.cube(),
                parallel.cube(),
                &format!("market {measure:?} FBOX_THREADS={threads}"),
            );
        }
    }
}

#[test]
fn search_build_is_bit_identical_across_thread_counts() {
    let (universe, obs) = search_fixture();
    for measure in [SearchMeasure::kendall(), SearchMeasure::JaccardDistance] {
        let reference = FBox::from_search_serial(universe.clone(), &obs, measure);
        for threads in [1usize, 2, 8] {
            let parallel =
                with_threads(threads, || FBox::from_search(universe.clone(), &obs, measure));
            assert_cubes_bit_identical(
                reference.cube(),
                parallel.cube(),
                &format!("search {measure:?} FBOX_THREADS={threads}"),
            );
        }
    }
}

#[test]
fn search_cell_eval_matches_reference_on_a_study_cell() {
    // The repro study: three participants in each of the six full
    // demographic groups, so every cell holds 18 lists and the 11 Google
    // groups (genders, ethnicities, their crossings) overlap. The
    // evaluator memoizes one distance per unordered user pair; each
    // group must still get the reference's exact bits.
    let engine = SearchEngine::new(
        calibrate::google_personalization(),
        NoiseModel::default(),
        calibrate::SEED,
    );
    let design = StudyDesign { participants_per_group: 3, seed: calibrate::SEED };
    let (universe, obs, _) = run_study(&design, &engine, &ExtensionRunner::default());
    assert_eq!(universe.group_ids().count(), 11);
    let ctx = MeasureContext::new(&universe);
    let ((q, l), lists) = obs.cells().next().expect("the study fills every cell");
    assert_eq!(lists.len(), 18, "cell ({q:?}, {l:?})");
    for measure in [SearchMeasure::kendall(), SearchMeasure::JaccardDistance] {
        let mut eval = SearchCellEval::new(&ctx, lists, measure);
        for g in universe.group_ids() {
            let fast = eval.group(g);
            let reference = search_cell_unfairness(&universe, lists, g, measure);
            assert!(reference.is_some(), "{measure:?} group {g:?}: every group is present");
            assert_eq!(
                fast.map(f64::to_bits),
                reference.map(f64::to_bits),
                "{measure:?} group {g:?} in cell ({q:?}, {l:?})"
            );
        }
    }
}

#[test]
fn crawl_observations_are_identical_across_thread_counts() {
    let m =
        Marketplace::new(Population::paper(5), ScoringModel::default(), BiasProfile::neutral(), 5);
    let (universe, reference, ref_stats) = with_threads(1, || crawl(&m));
    for threads in [2usize, 8] {
        let (_, obs, stats) = with_threads(threads, || crawl(&m));
        assert_eq!(stats, ref_stats, "FBOX_THREADS={threads}");
        assert_eq!(obs.n_cells(), reference.n_cells(), "FBOX_THREADS={threads}");
        for ((q, l), ranking) in reference.cells() {
            assert_eq!(
                obs.get(q, l),
                Some(ranking),
                "FBOX_THREADS={threads}: cell ({q:?}, {l:?}) of {}",
                universe.query(q).name
            );
        }
    }
}

#[test]
fn study_observations_are_identical_across_thread_counts() {
    let design = StudyDesign { participants_per_group: 1, seed: 42 };
    let engine = SearchEngine::new(PersonalizationProfile::uniform(0.3), NoiseModel::default(), 3);
    let runner = ExtensionRunner { repeats: 1, max_extra_runs: 0, ..Default::default() };
    let (_, reference, ref_stats) = with_threads(1, || run_study(&design, &engine, &runner));
    for threads in [2usize, 8] {
        let (_, obs, stats) = with_threads(threads, || run_study(&design, &engine, &runner));
        assert_eq!(stats, ref_stats, "FBOX_THREADS={threads}");
        assert_eq!(obs.n_cells(), reference.n_cells(), "FBOX_THREADS={threads}");
        for ((q, l), lists) in reference.cells() {
            // Per-cell list *order* matters too: it is recruitment order,
            // independent of scheduling.
            assert_eq!(obs.get(q, l), Some(lists), "FBOX_THREADS={threads}: cell ({q:?}, {l:?})");
        }
    }
}

/// Strategy: a complete cube with values in [0, 1].
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

fn assert_same_values(a: &[(u32, f64)], b: &[(u32, f64)], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: lengths differ: {a:?} vs {b:?}");
    for (x, y) in a.iter().zip(b) {
        assert!((x.1 - y.1).abs() < 1e-9, "{context}: {a:?} vs {b:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// TA, NRA, and the naive scan agree on random cubes under random
    /// restrictions — including restrictions with duplicated ids, which
    /// `Restriction::resolve` now dedups.
    #[test]
    fn algorithms_agree_under_random_restrictions(
        cube in complete_cube(8, 4, 4),
        raw_q in proptest::collection::vec(0u32..4, 1..9),
        raw_l in proptest::collection::vec(0u32..4, 1..9),
        k in 1usize..6,
    ) {
        let queries: Vec<u32> = raw_q.into_iter().filter(|&q| (q as usize) < cube.n_queries()).collect();
        let locations: Vec<u32> = raw_l.into_iter().filter(|&l| (l as usize) < cube.n_locations()).collect();
        prop_assume!(!queries.is_empty() && !locations.is_empty());
        let restrict = Restriction { groups: None, queries: Some(queries), locations: Some(locations) };
        let idx = IndexSet::build(&cube);
        for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
            let ta = top_k(&idx, Dimension::Group, k, order, &restrict);
            let nra = nra_top_k(&idx, Dimension::Group, k, order, &restrict);
            let nv = naive_top_k(&cube, Dimension::Group, k, order, &restrict);
            assert_same_values(&ta.entries, &nv.entries, &format!("ta vs naive, {order:?}"));
            assert_same_values(&nra.entries, &nv.entries, &format!("nra vs naive, {order:?}"));
        }
    }

    /// The index build is deterministic across thread counts on random
    /// cubes: same posting lists, hence same TA answers, at 1/2/8 threads.
    #[test]
    fn index_build_is_deterministic_across_thread_counts(cube in complete_cube(10, 4, 4), k in 1usize..5) {
        let reference = with_threads(1, || IndexSet::build(&cube));
        for threads in [2usize, 8] {
            let idx = with_threads(threads, || IndexSet::build(&cube));
            for dim in [Dimension::Group, Dimension::Query, Dimension::Location] {
                let a = top_k(&reference, dim, k, RankOrder::MostUnfair, &Restriction::none());
                let b = top_k(&idx, dim, k, RankOrder::MostUnfair, &Restriction::none());
                prop_assert_eq!(&a.entries, &b.entries);
            }
        }
    }
}
