//! Determinism contracts of the parallel pipeline (`fbox-par`), plus
//! property tests over random cubes and restrictions.
//!
//! The load-bearing guarantee: every parallelized stage — marketplace
//! crawl, search study, cube construction, index build — produces output
//! *byte-identical* to its serial reference at any thread count. Speed
//! may vary with `FBOX_THREADS`; answers may not.

use fbox::core::algo::{naive_top_k, top_k, RankOrder, Restriction};
use fbox::core::model::{GroupId, LocationId, QueryId};
use fbox::core::observations::{MarketObservations, SearchObservations};
use fbox::core::unfairness::reference::{market_cube, search_cell_unfairness, search_cube};
use fbox::core::unfairness::{CellEval, CellMeasure, MeasureContext, SearchCellEval};
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
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
        let reference = market_cube(&universe, &obs, measure);
        for threads in [1usize, 2, 8] {
            let parallel =
                with_threads(threads, || FBox::from_market(universe.clone(), &obs, measure));
            assert_cubes_bit_identical(
                &reference,
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
        let reference = search_cube(&universe, &obs, measure);
        for threads in [1usize, 2, 8] {
            let parallel =
                with_threads(threads, || FBox::from_search(universe.clone(), &obs, measure));
            assert_cubes_bit_identical(
                &reference,
                parallel.cube(),
                &format!("search {measure:?} FBOX_THREADS={threads}"),
            );
        }
    }
}

/// Streams `cells` into an empty F-Box through [`FBox::update_cell`] in a
/// seeded shuffled order. Halfway through, the first cell streamed is
/// cleared with `cleared` (and checked empty); it is refilled last.
fn stream_cells<M: CellMeasure>(
    universe: &Universe,
    mut cells: Vec<((QueryId, LocationId), &M::Cell)>,
    cleared: Option<&M::Cell>,
    measure: M,
    seed: u64,
) -> FBox {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.random_range(0..=i));
    }
    let mut fb = FBox::empty(universe.clone());
    let ((q0, l0), first) = cells[0];
    for (i, &((q, l), cell)) in cells.iter().enumerate() {
        fb.update_cell(q, l, Some(cell), measure);
        if i == cells.len() / 2 {
            fb.update_cell(q0, l0, cleared, measure);
            assert!(
                universe.group_ids().all(|g| fb.unfairness(g, q0, l0).is_none()),
                "cleared cell ({q0:?}, {l0:?}) kept a value"
            );
        }
    }
    fb.update_cell(q0, l0, Some(first), measure);
    fb
}

/// Asserts an incrementally streamed F-Box equals the batch build: cube
/// bits, index completeness, and the TA answer on every dimension.
fn assert_matches_batch(incremental: &FBox, batch: &FBox, context: &str) {
    assert_cubes_bit_identical(batch.cube(), incremental.cube(), context);
    assert_eq!(
        incremental.indices().is_complete(),
        batch.indices().is_complete(),
        "{context}: index completeness"
    );
    for dim in [Dimension::Group, Dimension::Query, Dimension::Location] {
        for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
            let none = Restriction::none();
            assert_eq!(
                top_k(incremental.indices(), dim, 5, order, &none).entries,
                top_k(batch.indices(), dim, 5, order, &none).entries,
                "{context}: TA {dim:?} {order:?}"
            );
        }
    }
}

#[test]
fn incremental_cells_match_batch_build() {
    let (market_universe, market_obs) = market_fixture();
    let (search_universe, search_obs) = search_fixture();
    for (seed, measure) in [(11, MarketMeasure::emd()), (12, MarketMeasure::exposure())] {
        let cells = market_obs.cells().collect();
        let incremental = stream_cells(&market_universe, cells, None, measure, seed);
        for threads in [1usize, 4] {
            let batch = with_threads(threads, || {
                FBox::from_market(market_universe.clone(), &market_obs, measure)
            });
            let context = format!("market {measure:?} FBOX_THREADS={threads}");
            assert_matches_batch(&incremental, &batch, &context);
        }
    }
    for (seed, measure) in [(13, SearchMeasure::kendall()), (14, SearchMeasure::JaccardDistance)] {
        let cells = search_obs.cells().collect();
        let incremental = stream_cells(&search_universe, cells, Some(&[][..]), measure, seed);
        for threads in [1usize, 4] {
            let batch = with_threads(threads, || {
                FBox::from_search(search_universe.clone(), &search_obs, measure)
            });
            let context = format!("search {measure:?} FBOX_THREADS={threads}");
            assert_matches_batch(&incremental, &batch, &context);
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

    /// TA and the naive scan agree on random cubes under random
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
            let nv = naive_top_k(&cube, Dimension::Group, k, order, &restrict);
            assert_same_values(&ta.entries, &nv.entries, &format!("ta vs naive, {order:?}"));
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
