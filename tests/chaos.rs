//! Chaos contracts of the resilient ingestion pipeline (`fbox-resilience`).
//!
//! The load-bearing guarantee extends the one in `parallel_determinism`:
//! a *fault-injected* crawl or study — retries, rate-limit backoff,
//! truncated pages, quarantined pages, tripped breakers and all — must
//! still produce observations and cubes *byte-identical* at any
//! `FBOX_THREADS`, and an interrupted crawl resumed from its journal must
//! land on the same bytes as one that never stopped.
//!
//! The CI chaos job drives this binary under `FBOX_FAULTS=<seed>:<profile>`
//! at several thread counts; when the flag is set the tests exercise that
//! exact plan instead of the built-in seeds, so any seed can be replayed
//! locally with e.g. `FBOX_FAULTS=42:heavy cargo test --test chaos`.

use fbox::core::algo::{naive_top_k, top_k, RankOrder, Restriction};
use fbox::core::model::{GroupId, LocationId, QueryId};
use fbox::core::{IndexSet, UnfairnessCube};
use fbox::marketplace::{
    crawl_resilient, BiasProfile, CellOutcome, CrawlJournal, CrawlRun, Marketplace, Population,
    ScoringModel,
};
use fbox::par::with_threads;
use fbox::resilience::{FaultPlan, FaultProfile, Resilience, FAULTS_ENV};
use fbox::search::extension::ExtensionRunner;
use fbox::search::noise::NoiseModel;
use fbox::search::personalize::PersonalizationProfile;
use fbox::search::study::{run_study_resilient, StudyDesign};
use fbox::search::SearchEngine;
use fbox::{Dimension, FBox, MarketMeasure, SearchMeasure};

/// The fault plans under test: the `FBOX_FAULTS` spec when the chaos job
/// sets one, otherwise two built-in seeds spanning a recoverable and a
/// lossy regime.
fn chaos_plans() -> Vec<(String, Resilience)> {
    if std::env::var(FAULTS_ENV).is_ok() {
        return vec![(format!("${FAULTS_ENV}"), Resilience::from_env())];
    }
    vec![
        ("mild/11".to_string(), Resilience::with_plan(FaultPlan::new(11, FaultProfile::mild()))),
        (
            "heavy/0xC0FFEE".to_string(),
            Resilience::with_plan(FaultPlan::new(0xC0FFEE, FaultProfile::heavy())),
        ),
    ]
}

fn marketplace() -> Marketplace {
    Marketplace::new(Population::paper(5), ScoringModel::default(), BiasProfile::neutral(), 5)
}

/// Cell-for-cell bit equality — not an epsilon: the degraded pipeline
/// must apply the exact same float operations in the exact same order
/// regardless of schedule.
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

/// Rank positions may swap between algorithms on exact ties; the ranked
/// *values* may not differ.
fn assert_same_values(a: &[(u32, f64)], b: &[(u32, f64)], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: lengths differ: {a:?} vs {b:?}");
    for (x, y) in a.iter().zip(b) {
        assert!((x.1 - y.1).abs() < 1e-9, "{context}: {a:?} vs {b:?}");
    }
}

fn assert_runs_identical(run: &CrawlRun, reference: &CrawlRun, context: &str) {
    assert_eq!(run.stats, reference.stats, "{context}: stats");
    assert_eq!(
        run.observations.n_cells(),
        reference.observations.n_cells(),
        "{context}: cell count"
    );
    for ((q, l), ranking) in reference.observations.cells() {
        assert_eq!(
            run.observations.get(q, l),
            Some(ranking),
            "{context}: cell ({q:?}, {l:?}) diverged"
        );
    }
}

#[test]
fn degraded_crawl_is_bit_identical_across_thread_counts() {
    for (label, resilience) in chaos_plans() {
        let m = marketplace();
        let reference =
            with_threads(1, || crawl_resilient(&m, &resilience, &mut CrawlJournal::new()));
        assert!(reference.complete, "{label}: uninterrupted crawl must complete");
        let ref_box = FBox::from_market(
            reference.universe.clone(),
            &reference.observations,
            MarketMeasure::emd(),
        );
        for threads in [2usize, 4, 8] {
            let run = with_threads(threads, || {
                crawl_resilient(&m, &resilience, &mut CrawlJournal::new())
            });
            let context = format!("{label} FBOX_THREADS={threads}");
            assert_runs_identical(&run, &reference, &context);
            let fb =
                FBox::from_market(run.universe.clone(), &run.observations, MarketMeasure::emd());
            assert_cubes_bit_identical(ref_box.cube(), fb.cube(), &context);
        }
    }
}

#[test]
fn degraded_study_is_bit_identical_across_thread_counts() {
    let design = StudyDesign { participants_per_group: 2, seed: 0xF0CA };
    let engine = SearchEngine::new(PersonalizationProfile::uniform(0.2), NoiseModel::default(), 3);
    let runner = ExtensionRunner { repeats: 1, max_extra_runs: 0, ..Default::default() };
    for (label, resilience) in chaos_plans() {
        let (universe, reference, ref_stats) =
            with_threads(1, || run_study_resilient(&design, &engine, &runner, &resilience));
        let ref_box = FBox::from_search(universe.clone(), &reference, SearchMeasure::kendall());
        for threads in [2usize, 4, 8] {
            let (u, obs, stats) = with_threads(threads, || {
                run_study_resilient(&design, &engine, &runner, &resilience)
            });
            let context = format!("{label} FBOX_THREADS={threads}");
            assert_eq!(stats, ref_stats, "{context}: stats");
            assert_eq!(obs.n_cells(), reference.n_cells(), "{context}: cell count");
            for ((q, l), lists) in reference.cells() {
                // Per-cell list *order* matters too: it is recruitment
                // order, independent of scheduling and of which lists the
                // fault plan dropped.
                assert_eq!(obs.get(q, l), Some(lists), "{context}: cell ({q:?}, {l:?})");
            }
            let fb = FBox::from_search(u, &obs, SearchMeasure::kendall());
            assert_cubes_bit_identical(ref_box.cube(), fb.cube(), &context);
        }
    }
}

#[test]
fn interrupted_crawl_resumes_byte_identically_at_any_thread_count() {
    for (label, mut resilience) in chaos_plans() {
        resilience.interrupt_after = None;
        let m = marketplace();
        let reference = crawl_resilient(&m, &resilience, &mut CrawlJournal::new());
        let ref_box = FBox::from_market(
            reference.universe.clone(),
            &reference.observations,
            MarketMeasure::emd(),
        );
        for interrupt_after in [37usize, 2500] {
            for threads in [1usize, 4] {
                let mut journal = CrawlJournal::new();
                let mut interrupted = resilience;
                interrupted.interrupt_after = Some(interrupt_after);
                let partial =
                    with_threads(threads, || crawl_resilient(&m, &interrupted, &mut journal));
                let context =
                    format!("{label} interrupt_after={interrupt_after} FBOX_THREADS={threads}");
                assert!(!partial.complete, "{context}: interrupted run must report incomplete");
                assert!(
                    partial.observations.n_cells() < reference.observations.n_cells(),
                    "{context}: interrupted run should hold fewer cells"
                );
                let resumed =
                    with_threads(threads, || crawl_resilient(&m, &resilience, &mut journal));
                assert!(resumed.complete, "{context}: resumed run must complete");
                assert_runs_identical(&resumed, &reference, &context);
                let fb = FBox::from_market(
                    resumed.universe.clone(),
                    &resumed.observations,
                    MarketMeasure::emd(),
                );
                assert_cubes_bit_identical(ref_box.cube(), fb.cube(), &context);
            }
        }
    }
}

#[test]
fn quarantine_is_counted_and_topk_agrees_on_the_degraded_cube() {
    // Corruption-only profile: every fault is a mangled rank sequence, so
    // every degraded cell must flow through the quarantine path (and, via
    // breaker accounting, possibly the skip path) — never a panic.
    let profile =
        FaultProfile { transient_pm: 0, rate_limited_pm: 0, truncated_pm: 0, corrupted_pm: 150 };
    let resilience = Resilience::with_plan(FaultPlan::new(7, profile));
    let m = marketplace();
    let mut journal = CrawlJournal::new();
    let run = crawl_resilient(&m, &resilience, &mut journal);
    assert!(run.complete);
    assert!(run.stats.n_quarantined > 0, "corruption profile must quarantine pages");
    assert_eq!(
        run.stats.n_queries,
        run.observations.n_cells(),
        "only delivered pages may become observations"
    );
    assert!(
        run.stats.coverage > 0.0 && run.stats.coverage < 1.0,
        "coverage must reflect the loss: {}",
        run.stats.coverage
    );
    let journaled_quarantines = journal
        .iter()
        .filter(|(_, record)| matches!(record.outcome, CellOutcome::Quarantined(_)))
        .count();
    assert_eq!(journaled_quarantines, run.stats.n_quarantined, "stats must mirror the journal");

    // The degraded cube is still fully queryable: TA and the naive scan
    // agree on every dimension.
    let fb = FBox::from_market(run.universe.clone(), &run.observations, MarketMeasure::emd());
    assert!(!fb.cube().is_complete(), "quarantines must leave holes in the cube");
    let idx = IndexSet::build(fb.cube());
    let restrict = Restriction::none();
    for dim in [Dimension::Group, Dimension::Query, Dimension::Location] {
        for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
            let nv = naive_top_k(fb.cube(), dim, 5, order, &restrict);
            let ta = top_k(&idx, dim, 5, order, &restrict);
            assert_same_values(&ta.entries, &nv.entries, &format!("{dim:?} {order:?}: ta"));
        }
    }
}
