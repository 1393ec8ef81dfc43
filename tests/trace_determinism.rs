//! Determinism contracts of `fbox-trace`.
//!
//! In logical-clock mode a trace is part of the pipeline's deterministic
//! output: the canonical Chrome JSON must be *byte-identical* at any
//! `FBOX_THREADS`, because span identity and ordering derive from causal
//! position (parent id + fan-out slot), never from scheduling or time.
//!
//! The tracer is a process-wide singleton, so every test here serializes
//! on [`SESSION_LOCK`] and this file must contain only such tests.

use std::sync::Mutex;

use fbox::core::algo::{Entity, RankOrder, Restriction};
use fbox::core::model::GroupId;
use fbox::marketplace::{
    crawl_resilient, BiasProfile, CrawlJournal, Marketplace, Population, ScoringModel,
};
use fbox::par::with_threads;
use fbox::resilience::{FaultPlan, FaultProfile, Resilience};
use fbox::search::extension::ExtensionRunner;
use fbox::search::noise::NoiseModel;
use fbox::search::personalize::PersonalizationProfile;
use fbox::search::study::{run_study, StudyDesign};
use fbox::search::SearchEngine;
use fbox::store::{CubeSnapshot, EpochStore};
use fbox::trace;
use fbox::{Dimension, FBox, SearchMeasure};

/// One tracer per process: tests take this lock around start()/finish().
static SESSION_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    SESSION_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` under a fresh logical-clock trace session and returns the
/// canonical Chrome JSON.
fn logical_trace_of(f: impl FnOnce()) -> String {
    trace::start(trace::Clock::Logical);
    f();
    trace::finish().to_chrome_json()
}

#[test]
fn cube_build_logical_trace_is_identical_across_thread_counts() {
    let _lock = locked();
    let design = StudyDesign { participants_per_group: 2, seed: 0xF0CA };
    let engine = SearchEngine::new(PersonalizationProfile::uniform(0.2), NoiseModel::none(), 3);
    let runner = ExtensionRunner { repeats: 1, max_extra_runs: 0, ..Default::default() };
    let (universe, obs, _) = run_study(&design, &engine, &runner);

    let reference = logical_trace_of(|| {
        with_threads(1, || {
            let _ = FBox::from_search(universe.clone(), &obs, SearchMeasure::kendall());
        })
    });
    assert!(reference.contains("\"cube.cell\""), "cell spans recorded");
    assert!(reference.contains("\"index.build\""), "index span recorded");
    for threads in [2usize, 8] {
        let json = logical_trace_of(|| {
            with_threads(threads, || {
                let _ = FBox::from_search(universe.clone(), &obs, SearchMeasure::kendall());
            })
        });
        assert_eq!(reference, json, "FBOX_THREADS={threads}: logical trace must be bit-identical");
    }
}

#[test]
fn faulted_crawl_logical_trace_is_identical_and_round_trips() {
    let _lock = locked();
    let m =
        Marketplace::new(Population::paper(5), ScoringModel::default(), BiasProfile::neutral(), 5);
    let resilience = Resilience::with_plan(FaultPlan::new(7, FaultProfile::mild()));

    let run_crawl = || {
        let mut journal = CrawlJournal::new();
        let _ = crawl_resilient(&m, &resilience, &mut journal);
    };

    let reference = logical_trace_of(|| with_threads(1, run_crawl));
    for threads in [2usize, 8] {
        let json = logical_trace_of(|| with_threads(threads, run_crawl));
        assert_eq!(reference, json, "FBOX_THREADS={threads}: logical trace must be bit-identical");
    }

    // Round-trip through the serde shim: the export is well-formed JSON
    // whose resilience instants nest under the owning cell spans.
    let doc = serde::json::parse(&reference).expect("chrome export parses");
    let serde::Value::Array(events) = doc else { panic!("chrome export is a JSON array") };
    let text = |v: &serde::Value, key: &str| match v.get(key) {
        Some(serde::Value::String(s)) => s.clone(),
        other => panic!("event field {key} missing or not a string: {other:?}"),
    };
    let mut cell_spans = std::collections::BTreeSet::new();
    let mut fault_parents = Vec::new();
    let mut phases = std::collections::BTreeMap::<(String, String), usize>::new();
    for ev in &events {
        let name = text(ev, "name");
        let ph = text(ev, "ph");
        *phases.entry((ph.clone(), name.clone())).or_default() += 1;
        let Some(args) = ev.get("args") else { continue };
        if name == "crawl.cell" && ph == "B" {
            cell_spans.insert(text(args, "span"));
        }
        if name == "resilience.fault" || name == "resilience.retry" {
            assert_eq!(ph, "i", "resilience events are instants");
            fault_parents.push(text(args, "parent"));
        }
    }
    assert!(!fault_parents.is_empty(), "seed 7 mild injects faults");
    for parent in &fault_parents {
        assert!(
            cell_spans.contains(parent),
            "resilience instant must nest under a crawl.cell span, got parent {parent}"
        );
    }
    // Every Begin has a matching End in a canonical logical trace.
    for ((ph, name), n) in &phases {
        if ph == "B" {
            assert_eq!(
                phases.get(&("E".to_string(), name.clone())),
                Some(n),
                "unbalanced span {name}"
            );
        }
    }
}

#[test]
fn top_k_trace_records_threshold_and_early_termination() {
    let _lock = locked();
    let design = StudyDesign { participants_per_group: 2, seed: 0xF0CA };
    let engine = SearchEngine::new(PersonalizationProfile::uniform(0.2), NoiseModel::none(), 3);
    let runner = ExtensionRunner { repeats: 1, max_extra_runs: 0, ..Default::default() };
    let (universe, obs, _) = run_study(&design, &engine, &runner);
    let fb = FBox::from_search(universe, &obs, SearchMeasure::kendall());
    // An unrestricted query reads the index's marginals; restricting an
    // aggregated dimension (to all of it) sends the query through TA.
    let every_query =
        Restriction::on(Dimension::Query, (0..fb.universe().n_queries() as u32).collect());

    let reference = logical_trace_of(|| {
        let _ = fb.top_k(Dimension::Group, 2, RankOrder::MostUnfair, &every_query);
    });
    assert!(reference.contains("\"algo.ta\""), "TA span recorded");
    assert!(reference.contains("\"ta.threshold\""), "threshold instants recorded");
    for threads in [2usize, 8] {
        let json = logical_trace_of(|| {
            with_threads(threads, || {
                let _ = fb.top_k(Dimension::Group, 2, RankOrder::MostUnfair, &every_query);
            })
        });
        assert_eq!(reference, json, "FBOX_THREADS={threads}: top-k trace must be bit-identical");
    }
}

/// One span feeds both sinks: with metrics and a logical trace both on,
/// every span name in the trace has a duration histogram whose call
/// count equals that name's Begin events, across the study, cube build,
/// top-k (TA and marginals), compare, store publish and snapshot
/// save/load.
#[test]
fn every_traced_span_has_a_histogram_with_matching_count() {
    let _lock = locked();
    let metrics = fbox_telemetry::global();
    let path = std::env::temp_dir().join(format!("fbox-span-parity-{}.fbxs", std::process::id()));
    for threads in [1usize, 2, 8] {
        metrics.reset();
        metrics.set_enabled(true);
        trace::start(trace::Clock::Logical);
        let loaded = with_threads(threads, || {
            let design = StudyDesign { participants_per_group: 2, seed: 0xF0CA };
            let engine =
                SearchEngine::new(PersonalizationProfile::uniform(0.2), NoiseModel::none(), 3);
            let runner = ExtensionRunner { repeats: 1, max_extra_runs: 0, ..Default::default() };
            let (universe, obs, _) = run_study(&design, &engine, &runner);
            let fb = FBox::from_search(universe.clone(), &obs, SearchMeasure::kendall());
            let every_query =
                Restriction::on(Dimension::Query, (0..universe.n_queries() as u32).collect());
            let _ = fb.top_k(Dimension::Group, 2, RankOrder::MostUnfair, &every_query);
            let _ = fb.top_k(Dimension::Group, 2, RankOrder::MostUnfair, &Restriction::none());
            let _ = fb.compare(
                Entity::Group(GroupId(0)),
                Entity::Group(GroupId(1)),
                Dimension::Location,
                None,
                &Restriction::none(),
            );
            let mut snapshot = CubeSnapshot::new(universe);
            snapshot.insert_cube("search:kendall", fb.cube().clone());
            let _ = EpochStore::with_fbox(fb).publish();
            snapshot.save(&path).expect("snapshot saves");
            CubeSnapshot::load(&path).expect("snapshot loads")
        });
        assert_eq!(loaded.cubes().len(), 1, "the saved cube loads back");
        let events = trace::finish().events;
        metrics.set_enabled(false);
        let histograms = metrics.snapshot();

        let mut begins = std::collections::BTreeMap::<&str, u64>::new();
        for e in events.iter().filter(|e| e.phase == trace::Phase::Begin) {
            *begins.entry(e.name).or_default() += 1;
        }
        // `par.task` is the fan-out branch `fbox-par` opens through
        // `trace::Fork`; it is trace structure, not a pipeline stage.
        begins.remove("par.task");
        for name in [
            "search.run_study",
            "study.participant",
            "fbox.from_search",
            "cube.cell",
            "index.build",
            "index.family",
            "fbox.top_k",
            "algo.ta",
            "algo.marginal",
            "index.marginals",
            "algo.compare",
            "store.epoch.publish",
            "store.snapshot.save",
            "store.snapshot.load",
        ] {
            assert!(begins.contains_key(name), "FBOX_THREADS={threads}: {name} traced");
        }
        for (name, n) in &begins {
            assert_eq!(
                histograms.histogram(name).map(|h| h.count),
                Some(*n),
                "FBOX_THREADS={threads}: histogram {name} counts every traced span"
            );
        }
    }
    std::fs::remove_file(&path).expect("snapshot file removed");
    metrics.reset();
}
