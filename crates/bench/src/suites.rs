//! The measured benchmark suites behind both the `cargo bench` wrappers
//! and the `fbox-bench` trend gate. Each suite runs its workload under a
//! scoped telemetry registry and returns the resulting [`Snapshot`] plus
//! the headline ratios the wrappers assert on — so a CI `--check` run and
//! a local `cargo bench -p fbox-bench` measure exactly the same thing.

use std::hint::black_box;

use fbox_core::observations::{MarketObservations, SearchObservations};
use fbox_core::unfairness::reference;
use fbox_core::{FBox, MarketMeasure, SearchMeasure, Universe};
use fbox_marketplace::{
    crawl, crawl_resilient, BiasProfile, CrawlJournal, Marketplace, Population, ScoringModel,
};
use fbox_mitigate::{rerank_market, rerank_search, Intervention, RerankConfig};
use fbox_par::with_threads;
use fbox_resilience::{FaultPlan, FaultProfile, Resilience};
use fbox_search::extension::ExtensionRunner;
use fbox_search::noise::NoiseModel;
use fbox_search::personalize::PersonalizationProfile;
use fbox_search::study::{run_study, StudyDesign};
use fbox_search::SearchEngine;
use fbox_store::{CubeSnapshot, EpochStore, SegmentLog};
use fbox_telemetry::Snapshot;

/// Timed iterations per suite (after one untimed warm-up).
pub const ITERATIONS: usize = 5;
/// Worker count the parallel suite pins via [`with_threads`].
pub const THREADS: usize = 4;

/// Outcome of [`parallel_suite`]: serial vs parallel cube construction.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// The suite's metrics (`cube.build.*`).
    pub snapshot: Snapshot,
    /// Mean serial build time, milliseconds.
    pub serial_ms: f64,
    /// Mean parallel build time, milliseconds.
    pub parallel_ms: f64,
    /// serial / parallel mean ratio.
    pub speedup: f64,
}

/// Outcome of [`resilience_suite`]: inert vs fault-injected crawl.
#[derive(Debug, Clone)]
pub struct ResilienceOutcome {
    /// The suite's metrics (`crawl.*`).
    pub snapshot: Snapshot,
    /// Mean inert crawl time, milliseconds.
    pub inert_ms: f64,
    /// Mean mild-faults crawl time, milliseconds.
    pub mild_ms: f64,
    /// mild / inert mean ratio.
    pub overhead: f64,
    /// Coverage of the mild-faults crawl.
    pub coverage: f64,
    /// Retries absorbed by the mild-faults crawl.
    pub retries: u64,
}

/// Outcome of [`lint_suite`]: static analysis of this workspace, timed
/// at two worker counts.
#[derive(Debug, Clone)]
pub struct LintOutcome {
    /// The suite's metrics (`lint.*`).
    pub snapshot: Snapshot,
    /// Mean single-worker lint time, milliseconds.
    pub serial_ms: f64,
    /// Mean multi-worker lint time, milliseconds.
    pub parallel_ms: f64,
    /// serial / parallel mean ratio.
    pub speedup: f64,
    /// Mean interval-fixpoint (fourth pass) time, milliseconds.
    pub absint_ms: f64,
    /// Findings reported (identical across worker counts).
    pub findings: usize,
}

/// Outcome of [`mitigate_suite`]: serial vs parallel re-ranking of the
/// full marketplace crawl and search study under every intervention.
#[derive(Debug, Clone)]
pub struct MitigateOutcome {
    /// The suite's metrics (`mitigate.*`).
    pub snapshot: Snapshot,
    /// Mean single-worker sweep time, milliseconds.
    pub serial_ms: f64,
    /// Mean multi-worker sweep time, milliseconds.
    pub parallel_ms: f64,
    /// serial / parallel mean ratio.
    pub speedup: f64,
    /// Whether the serial and parallel sweeps produced identical
    /// observations and stats for every intervention.
    pub parity: bool,
    /// Largest NDCG loss any intervention inflicted on either platform.
    pub worst_ndcg_loss: f64,
}

/// Outcome of [`store_suite`]: incremental cube maintenance vs rebuild,
/// and snapshot load vs rebuild.
#[derive(Debug, Clone)]
pub struct StoreOutcome {
    /// The suite's metrics (`store.*`).
    pub snapshot: Snapshot,
    /// Mean full serial rebuild time (`reference::market_cube` plus the
    /// index build), milliseconds.
    pub rebuild_ms: f64,
    /// Mean time to ingest [`DIRTY_BATCH`] cells into a fully populated
    /// store and publish them, milliseconds.
    pub delta_ms: f64,
    /// rebuild / delta-batch mean ratio.
    pub delta_speedup: f64,
    /// delta cost on a full cube / delta cost on a quarter-full cube:
    /// ≈1 when update cost tracks dirty cells, not cube size.
    pub delta_scaling: f64,
    /// Mean `CubeSnapshot::load` time, milliseconds.
    pub load_ms: f64,
    /// rebuild / snapshot-load mean ratio.
    pub load_speedup: f64,
    /// Records the segment-log replay probe reads back each open.
    pub log_records: u64,
}

fn market_fixture() -> (Universe, MarketObservations) {
    let m =
        Marketplace::new(Population::paper(7), ScoringModel::default(), BiasProfile::neutral(), 20);
    let (universe, obs, _) = crawl(&m);
    (universe, obs)
}

fn search_fixture() -> (Universe, SearchObservations) {
    let design = StudyDesign { participants_per_group: 3, seed: 0xF0CA };
    let engine = SearchEngine::new(PersonalizationProfile::uniform(0.2), NoiseModel::none(), 10);
    let runner = ExtensionRunner { repeats: 1, max_extra_runs: 0, ..Default::default() };
    let (universe, obs, _) = run_study(&design, &engine, &runner);
    (universe, obs)
}

/// `ratio × scale` as an integer gauge value, truncated toward zero as
/// an `as` cast would; a non-finite value (a ratio over an empty timing
/// histogram) records 0.
fn gauge_units(ratio: f64, scale: f64) -> i64 {
    let scaled = (ratio * scale).trunc();
    if !scaled.is_finite() {
        return 0;
    }
    scaled as i64
}

fn mean_ns(h: &fbox_telemetry::Histogram) -> f64 {
    h.sum().as_nanos() as f64 / h.count().max(1) as f64
}

/// Serial vs parallel cube construction (`FBox::from_*` against
/// `reference::*_cube` plus the same index build). The parallel path wins
/// twice: cells are fanned out across workers, and each worker evaluates
/// all groups of a cell through the shared-work evaluators instead of
/// recomputing per `(cell, group)` call.
pub fn parallel_suite() -> ParallelOutcome {
    let registry = fbox_telemetry::Registry::new();
    let serial = registry.histogram("cube.build.serial");
    let parallel = registry.histogram("cube.build.parallel");

    let (market_universe, market_obs) = market_fixture();
    let (search_universe, search_obs) = search_fixture();

    // Warm-up: touch both paths once so allocator and caches settle.
    let serial_market = || {
        let cube = reference::market_cube(&market_universe, &market_obs, MarketMeasure::emd());
        FBox::from_cube(market_universe.clone(), cube)
    };
    let serial_search = || {
        let cube = reference::search_cube(&search_universe, &search_obs, SearchMeasure::kendall());
        FBox::from_cube(search_universe.clone(), cube)
    };
    black_box(serial_market());
    black_box(with_threads(THREADS, || {
        FBox::from_market(market_universe.clone(), &market_obs, MarketMeasure::emd())
    }));

    for _ in 0..ITERATIONS {
        let t = serial.timer();
        black_box(serial_market());
        black_box(serial_search());
        t.observe();

        let t = parallel.timer();
        let built = with_threads(THREADS, || {
            (
                FBox::from_market(market_universe.clone(), &market_obs, MarketMeasure::emd()),
                FBox::from_search(search_universe.clone(), &search_obs, SearchMeasure::kendall()),
            )
        });
        t.observe();
        black_box(built);
    }

    let speedup = mean_ns(&serial) / mean_ns(&parallel);
    // Gauges are integers; store the ratio ×100 (e.g. 2.37× → 237).
    registry.gauge("cube.build.speedup_x100").set(gauge_units(speedup, 100.0));
    registry.gauge("cube.build.threads").set(THREADS as i64);

    ParallelOutcome {
        snapshot: registry.snapshot(),
        serial_ms: mean_ns(&serial) / 1e6,
        parallel_ms: mean_ns(&parallel) / 1e6,
        speedup,
    }
}

/// Resilience-layer overhead: the full marketplace crawl under the inert
/// configuration (`Resilience::none()`) vs a mild fault plan. Faults are
/// plan-determined — a failed attempt consumes virtual time, not a query
/// execution — so what this bounds is the fixed cost the layer adds:
/// planning pass, breaker bookkeeping, journaling, and the journal fold.
pub fn resilience_suite() -> ResilienceOutcome {
    let registry = fbox_telemetry::Registry::new();
    let inert_h = registry.histogram("crawl.inert");
    let mild_h = registry.histogram("crawl.mild");

    let m =
        Marketplace::new(Population::paper(5), ScoringModel::default(), BiasProfile::neutral(), 10);
    let inert = Resilience::none();
    let mild = Resilience::with_plan(FaultPlan::new(11, FaultProfile::mild()));

    // Warm-up: touch both paths once so allocator and caches settle.
    black_box(crawl_resilient(&m, &inert, &mut CrawlJournal::new()));
    black_box(crawl_resilient(&m, &mild, &mut CrawlJournal::new()));

    let mut mild_stats = None;
    for _ in 0..ITERATIONS {
        let t = inert_h.timer();
        black_box(crawl_resilient(&m, &inert, &mut CrawlJournal::new()));
        t.observe();

        let t = mild_h.timer();
        let run = crawl_resilient(&m, &mild, &mut CrawlJournal::new());
        t.observe();
        mild_stats = Some(run.stats.clone());
        black_box(run);
    }
    let stats = mild_stats.expect("at least one iteration ran");

    registry.gauge("crawl.mild.retries").set(stats.n_retries as i64);
    registry.gauge("crawl.mild.failed").set(stats.n_failed as i64);
    registry.gauge("crawl.mild.quarantined").set(stats.n_quarantined as i64);
    registry.gauge("crawl.mild.truncated").set(stats.n_truncated as i64);
    registry.gauge("crawl.mild.backoff_virtual_ms").set(stats.backoff_virtual_ms as i64);
    // Gauges are integers; store the ratio ×1000 (e.g. 0.973 → 973).
    registry.gauge("crawl.mild.coverage_x1000").set(gauge_units(stats.coverage, 1000.0));
    let overhead = mean_ns(&mild_h) / mean_ns(&inert_h);
    registry.gauge("crawl.resilience.overhead_x100").set(gauge_units(overhead, 100.0));

    ResilienceOutcome {
        snapshot: registry.snapshot(),
        inert_ms: mean_ns(&inert_h) / 1e6,
        mild_ms: mean_ns(&mild_h) / 1e6,
        overhead,
        coverage: stats.coverage,
        retries: stats.n_retries,
    }
}

/// Static-analysis throughput: `fbox-lint`'s full run over this very
/// workspace, timed under `FBOX_THREADS` 1 and [`THREADS`]. The engine
/// is single-threaded, so both configurations run the same code and
/// `lint.speedup_x100` reads about 100; the parity gauge pins that the
/// worker count has no effect on the report.
pub fn lint_suite() -> LintOutcome {
    let registry = fbox_telemetry::Registry::new();
    let serial_h = registry.histogram("lint.serial");
    let parallel_h = registry.histogram("lint.parallel");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = std::fs::read_to_string(root.join("Lint.toml"))
        .ok()
        .and_then(|text| fbox_lint::config::Config::parse(&text).ok())
        .unwrap_or_default();
    let baseline = fbox_lint::baseline::Baseline::default();
    // Each run gets a throwaway registry so the suite snapshot holds only
    // the suite's own metrics, not repo-size-dependent scan counters.
    let run =
        || fbox_lint::engine::run(&root, &config, &baseline, &fbox_telemetry::Registry::new());

    // Warm-up: one run per configuration so the page cache holds the tree.
    let first = with_threads(1, run);
    let wide = with_threads(THREADS, run);
    let identical = first.findings == wide.findings
        && first.files_scanned == wide.files_scanned
        && first.lines_scanned == wide.lines_scanned;
    let findings = first.findings.len();

    for _ in 0..ITERATIONS {
        let t = serial_h.timer();
        black_box(with_threads(1, run));
        t.observe();

        let t = parallel_h.timer();
        black_box(with_threads(THREADS, run));
        t.observe();
    }

    // Isolate the fourth pass: the interprocedural interval fixpoint,
    // re-run on an already-built model so the metric moves with the
    // abstract interpreter alone, not lexing/parsing/rule time.
    let absint_h = registry.histogram("lint.absint");
    let sources: Vec<_> = fbox_lint::engine::walk(&root, &config)
        .iter()
        .filter_map(|rel| fbox_lint::source::load(&root, rel))
        .collect();
    let model = fbox_lint::sema::Model::build(&sources, &config);
    let plain: Vec<Vec<usize>> =
        model.graph.iter().map(|es| es.iter().map(|&(callee, _)| callee).collect()).collect();
    for _ in 0..ITERATIONS {
        let t = absint_h.timer();
        black_box(with_threads(THREADS, || {
            fbox_lint::absint::analyze(
                &sources,
                &model.nodes,
                &plain,
                &model.flows,
                &model.call_sites,
            )
        }));
        t.observe();
    }

    let speedup = mean_ns(&serial_h) / mean_ns(&parallel_h);
    // Gauges are integers; store the ratio ×100 (e.g. 1.84× → 184).
    registry.gauge("lint.speedup_x100").set(gauge_units(speedup, 100.0));
    registry.gauge("lint.threads").set(THREADS as i64);
    registry.gauge("lint.parity").set(i64::from(identical));

    LintOutcome {
        snapshot: registry.snapshot(),
        serial_ms: mean_ns(&serial_h) / 1e6,
        parallel_ms: mean_ns(&parallel_h) / 1e6,
        speedup,
        absint_ms: mean_ns(&absint_h) / 1e6,
        findings,
    }
}

/// Fairness-intervention throughput: every [`Intervention`] re-ranks the
/// full marketplace crawl and the full search study, single-worker vs
/// [`THREADS`] workers. The per-cell fan-out in `rerank_market` /
/// `rerank_search` is the parallel surface; a parity gauge pins the
/// mitigation determinism contract (identical observations and stats at
/// any worker count), and the worst NDCG loss across the sweep gates
/// exactly — it only moves when intervention semantics move.
pub fn mitigate_suite() -> MitigateOutcome {
    let registry = fbox_telemetry::Registry::new();
    let serial_h = registry.histogram("mitigate.serial");
    let parallel_h = registry.histogram("mitigate.parallel");

    let (market_universe, market_obs) = market_fixture();
    let (search_universe, search_obs) = search_fixture();
    let config = RerankConfig::default();

    let sweep = || {
        Intervention::ALL
            .iter()
            .map(|&iv| {
                (
                    rerank_market(&market_universe, &market_obs, iv, &config),
                    rerank_search(&search_universe, &search_obs, iv, &config),
                )
            })
            .collect::<Vec<_>>()
    };

    // Warm-up doubles as the parity probe: the single-worker and
    // fanned-out sweeps must agree on every cell of every intervention.
    let narrow = with_threads(1, sweep);
    let wide = with_threads(THREADS, sweep);
    let parity = narrow.iter().zip(&wide).all(|((ma, sa), (mb, sb))| {
        ma.stats == mb.stats
            && sa.stats == sb.stats
            && market_obs_eq(&ma.observations, &mb.observations)
            && search_obs_eq(&sa.observations, &sb.observations)
    });
    let worst_ndcg_loss = narrow
        .iter()
        .flat_map(|(m, s)| [m.stats.ndcg_loss(), s.stats.ndcg_loss()])
        .fold(0.0f64, f64::max);
    let (market_cells, search_lists) = (narrow[0].0.stats.cells, narrow[0].1.stats.lists);

    for _ in 0..ITERATIONS {
        let t = serial_h.timer();
        black_box(with_threads(1, sweep));
        t.observe();

        let t = parallel_h.timer();
        black_box(with_threads(THREADS, sweep));
        t.observe();
    }

    let speedup = mean_ns(&serial_h) / mean_ns(&parallel_h);
    // Gauges are integers; store ratios ×100 and the loss ×10000.
    registry.gauge("mitigate.speedup_x100").set(gauge_units(speedup, 100.0));
    registry.gauge("mitigate.threads").set(THREADS as i64);
    registry.gauge("mitigate.parity").set(i64::from(parity));
    registry.gauge("mitigate.market.cells").set(market_cells as i64);
    registry.gauge("mitigate.search.lists").set(search_lists as i64);
    registry.gauge("mitigate.worst_ndcg_loss_x10000").set(gauge_units(worst_ndcg_loss, 10_000.0));

    MitigateOutcome {
        snapshot: registry.snapshot(),
        serial_ms: mean_ns(&serial_h) / 1e6,
        parallel_ms: mean_ns(&parallel_h) / 1e6,
        speedup,
        parity,
        worst_ndcg_loss,
    }
}

/// Dirty cells re-ingested per timed delta batch in [`store_suite`].
pub const DIRTY_BATCH: usize = 128;

/// Incremental cube maintenance: delta-updating [`DIRTY_BATCH`] cells of
/// an [`EpochStore`] vs rebuilding the whole cube, the same delta batch
/// against a quarter-full and a fully populated cube (update cost must
/// track dirty cells, not cube size), snapshot load vs rebuild, and the
/// segment log's replay throughput.
pub fn store_suite() -> StoreOutcome {
    let registry = fbox_telemetry::Registry::new();
    let rebuild_h = registry.histogram("store.rebuild");
    let quarter_h = registry.histogram("store.delta.quarter");
    let full_h = registry.histogram("store.delta.full");
    let load_h = registry.histogram("store.snapshot.load");
    let replay_h = registry.histogram("store.log.replay");

    let (universe, obs) = market_fixture();
    let cells: Vec<_> = obs.cells().map(|((q, l), r)| (q, l, r.clone())).collect();
    let dirty: Vec<_> = cells.iter().take(DIRTY_BATCH).cloned().collect();
    let measure = MarketMeasure::exposure();

    // Two pre-populated stores: the same dirty batch hits both, so the
    // quarter/full ratio isolates cube-size dependence of one update.
    let quarter_store = EpochStore::new(universe.clone());
    for (q, l, r) in &cells[..cells.len() / 4] {
        quarter_store.ingest_market(*q, *l, Some(r), measure);
    }
    let full_store = EpochStore::new(universe.clone());
    for (q, l, r) in &cells {
        full_store.ingest_market(*q, *l, Some(r), measure);
    }
    // Ingests are applied at publish: apply the pre-population untimed,
    // so each timed batch below covers its own cells only.
    quarter_store.publish();
    full_store.publish();

    // On-disk fixtures for the load and replay probes.
    let dir = std::env::temp_dir().join(format!("fbox-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let snap_path = dir.join("suite.fbxs");
    {
        let mut snap = CubeSnapshot::new(universe.clone());
        snap.insert_cube("market:exposure", reference::market_cube(&universe, &obs, measure));
        snap.save(&snap_path).expect("snapshot saved");
    }
    let log_path = dir.join("suite.fbxlog");
    let log_records = {
        let (mut log, _, _) = SegmentLog::open(&log_path).expect("log opened");
        for i in 0..2048u64 {
            // Deterministic payloads spanning the record sizes ingest sees.
            let payload = vec![i as u8; 16 + (i % 251) as usize];
            let _ = log.append(&payload).expect("append");
        }
        2048u64
    };

    // Warm-up: touch every timed path once.
    let rebuild =
        || FBox::from_cube(universe.clone(), reference::market_cube(&universe, &obs, measure));
    black_box(rebuild());
    black_box(CubeSnapshot::load(&snap_path).expect("snapshot loaded"));
    black_box(SegmentLog::open(&log_path).expect("log opened"));

    for _ in 0..ITERATIONS {
        let t = rebuild_h.timer();
        black_box(rebuild());
        t.observe();

        // One dirty batch plus the publish that applies it to the indices.
        let t = quarter_h.timer();
        for (q, l, r) in &dirty {
            quarter_store.ingest_market(*q, *l, Some(r), measure);
        }
        black_box(quarter_store.publish());
        t.observe();

        let t = full_h.timer();
        for (q, l, r) in &dirty {
            full_store.ingest_market(*q, *l, Some(r), measure);
        }
        black_box(full_store.publish());
        t.observe();

        let t = load_h.timer();
        black_box(CubeSnapshot::load(&snap_path).expect("snapshot loaded"));
        t.observe();

        let t = replay_h.timer();
        let (_, payloads, stats) = SegmentLog::open(&log_path).expect("log opened");
        t.observe();
        assert_eq!(payloads.len() as u64, log_records, "replay must read every record");
        assert_eq!(stats.quarantined, 0, "clean log must replay clean");
        black_box(payloads);
    }
    std::fs::remove_dir_all(&dir).ok();

    let delta_speedup = mean_ns(&rebuild_h) / mean_ns(&full_h);
    let delta_scaling = mean_ns(&full_h) / mean_ns(&quarter_h);
    let load_speedup = mean_ns(&rebuild_h) / mean_ns(&load_h);
    // Gauges are integers; store ratios ×100.
    registry.gauge("store.delta.speedup_x100").set(gauge_units(delta_speedup, 100.0));
    registry.gauge("store.delta.scaling_x100").set(gauge_units(delta_scaling, 100.0));
    registry.gauge("store.snapshot.load_speedup_x100").set(gauge_units(load_speedup, 100.0));
    registry.gauge("store.dirty_batch").set(DIRTY_BATCH as i64);
    registry.gauge("store.cube.cells").set(cells.len() as i64);
    registry.gauge("store.log.records").set(log_records as i64);

    StoreOutcome {
        snapshot: registry.snapshot(),
        rebuild_ms: mean_ns(&rebuild_h) / 1e6,
        delta_ms: mean_ns(&full_h) / 1e6,
        delta_speedup,
        delta_scaling,
        load_ms: mean_ns(&load_h) / 1e6,
        load_speedup,
        log_records,
    }
}

fn market_obs_eq(a: &MarketObservations, b: &MarketObservations) -> bool {
    let mut ca: Vec<_> = a.cells().collect();
    let mut cb: Vec<_> = b.cells().collect();
    ca.sort_unstable_by_key(|&((q, l), _)| (q.0, l.0));
    cb.sort_unstable_by_key(|&((q, l), _)| (q.0, l.0));
    ca == cb
}

fn search_obs_eq(a: &SearchObservations, b: &SearchObservations) -> bool {
    let mut ca: Vec<_> = a.cells().collect();
    let mut cb: Vec<_> = b.cells().collect();
    ca.sort_unstable_by_key(|&((q, l), _)| (q.0, l.0));
    cb.sort_unstable_by_key(|&((q, l), _)| (q.0, l.0));
    ca == cb
}

/// The suite registered under `label`, or `None` for unknown labels.
pub fn run_suite(label: &str) -> Option<Snapshot> {
    match label {
        "parallel" => Some(parallel_suite().snapshot),
        "resilience" => Some(resilience_suite().snapshot),
        "lint" => Some(lint_suite().snapshot),
        "mitigate" => Some(mitigate_suite().snapshot),
        "store" => Some(store_suite().snapshot),
        _ => None,
    }
}

/// Labels `run_suite` understands, in canonical order.
pub const SUITE_LABELS: [&str; 5] = ["parallel", "resilience", "lint", "mitigate", "store"];
