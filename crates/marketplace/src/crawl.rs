//! The crawl of Figure 6: run every offered (sub-query, city) pair, record
//! the ranked pages, and assemble the F-Box inputs.
//!
//! # Resilience
//!
//! A live crawl of 5,361 queries does not complete unscathed, so the crawl
//! is built over [`fbox_resilience`]: a seeded [`FaultPlan`] injects
//! transient errors, rate-limit bursts, truncated pages, and corrupted
//! rank sequences; a [`RetryPolicy`] retries transport failures with
//! capped exponential backoff over a *virtual* clock; a per-city
//! [`CircuitBreaker`] stops hammering a city that keeps failing; and every
//! cell's final disposition lands in a [`CrawlJournal`], from which an
//! interrupted crawl resumes without re-running completed cells.
//!
//! Determinism is preserved end to end. Faults are *plan-injected* — a
//! pure function of `(seed, cell, attempt)` — so each cell's whole
//! trajectory is computable before its query runs. The breaker, the only
//! order-sensitive piece, is driven in canonical grid order during a
//! sequential planning pass; only then do the admitted cells fan out
//! across `FBOX_THREADS` workers. The result: byte-identical universe,
//! observations, statistics, and cube at any thread count, any fault
//! seed, and any interrupt/resume point (`tests/chaos.rs`).
//!
//! [`FaultPlan`]: fbox_resilience::FaultPlan
//! [`RetryPolicy`]: fbox_resilience::RetryPolicy
//! [`CircuitBreaker`]: fbox_resilience::CircuitBreaker

use crate::engine::Marketplace;
use crate::{city, jobs};
use fbox_core::model::{Schema, Universe};
use fbox_core::observations::{MarketObservations, MarketRanking, RankingError};
use fbox_resilience::{hash, CircuitBreaker, Disposition, Journal, PayloadFault, Resilience};

/// Summary statistics of a crawl — the data behind the paper's setup
/// figures (Figures 7–8), the 5,361-query count of §5.1.1, and the
/// degradation accounting of a faulted run.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlStats {
    /// Number of (sub-query, city) result pages retrieved (clean or
    /// truncated).
    pub n_queries: usize,
    /// Number of workers in the population.
    pub n_workers: usize,
    /// Share of male workers (Figure 7).
    pub male_share: f64,
    /// Shares per ethnicity in `[Asian, Black, White]` order (Figure 8).
    pub ethnicity_shares: [f64; 3],
    /// Cells whose retry budget was exhausted by transport failures.
    pub n_failed: usize,
    /// Cells whose page failed rank validation and was quarantined.
    pub n_quarantined: usize,
    /// Retrieved pages that arrived truncated (counted in `n_queries`
    /// too — their valid prefix is used).
    pub n_truncated: usize,
    /// Cells skipped because the city's circuit breaker was open.
    pub n_skipped_breaker: usize,
    /// Total retries across all cells.
    pub n_retries: u64,
    /// Times any city's circuit breaker tripped open.
    pub n_breaker_trips: u64,
    /// Total virtual backoff time spent in retries, in milliseconds.
    pub backoff_virtual_ms: u64,
    /// Fraction of degradable cells that produced a page:
    /// `n_queries / (n_queries + n_failed + n_quarantined +
    /// n_skipped_breaker)`. Not-offered cells are structurally missing,
    /// not degraded, so they count in neither side; a fault-free crawl
    /// has coverage exactly 1.0.
    pub coverage: f64,
}

serde::object!(CrawlStats {
    n_queries,
    n_workers,
    male_share,
    ethnicity_shares,
    n_failed,
    n_quarantined,
    n_truncated,
    n_skipped_breaker,
    n_retries,
    n_breaker_trips,
    backoff_virtual_ms,
    coverage
});

/// The final disposition of one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// A full page was retrieved.
    Clean(MarketRanking),
    /// A page was retrieved but only its top half rendered; the valid
    /// prefix is kept as a degraded observation.
    Truncated(MarketRanking),
    /// The query is not offered in the city (structural, not a fault).
    NotOffered,
    /// Every attempt failed at the transport level; the cell is a missing
    /// observation.
    Exhausted,
    /// The page arrived with a mangled rank sequence and was quarantined.
    Quarantined(RankingError),
    /// The city's circuit breaker was open; the cell was never attempted.
    SkippedByBreaker,
}

/// One journal entry: how a cell resolved and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Retries consumed before resolution.
    pub retries: u32,
    /// Virtual backoff accumulated across those retries, in milliseconds.
    pub backoff_ms: u64,
    /// How the cell resolved.
    pub outcome: CellOutcome,
}

/// The crawl's write-ahead journal, keyed by flat grid index
/// (`query-major × 56 cities`). Feed the journal of an interrupted run
/// back into [`crawl_resilient`] to resume it; the finished journal folds
/// into byte-identical observations regardless of how many runs it took.
pub type CrawlJournal = Journal<CellRecord>;

/// Everything a (possibly degraded, possibly partial) crawl produced.
#[derive(Debug, Clone)]
pub struct CrawlRun {
    /// The TaskRabbit universe ([`taskrabbit_universe`]).
    pub universe: Universe,
    /// Observations for every retrieved page journaled so far.
    pub observations: MarketObservations,
    /// Statistics folded over the journal.
    pub stats: CrawlStats,
    /// Whether every grid cell has been resolved. `false` after an
    /// interrupted run — resume by calling [`crawl_resilient`] again with
    /// the same journal.
    pub complete: bool,
}

/// The universe of a TaskRabbit study: the 11-group lattice over
/// gender × ethnicity, all 96 sub-queries (tagged with their categories),
/// and all 56 cities (tagged with regions).
pub fn taskrabbit_universe() -> Universe {
    let mut u = Universe::with_all_groups(Schema::gender_ethnicity());
    for (_, _, name) in jobs::all_queries() {
        u.add_query(
            name,
            Some(
                jobs::category_of(
                    jobs::query_index(name).expect("all_queries() names resolve to an index"),
                )
                .name,
            ),
        );
    }
    for c in city::CITIES.iter() {
        u.add_location(c.name, Some(c.region));
    }
    u
}

/// Crawls the whole grid: every offered (sub-query, city) pair once,
/// under the resilience configuration from the environment
/// ([`Resilience::from_env`]; inert unless `FBOX_FAULTS` is set).
///
/// The (sub-query, city) pairs are fanned out across `FBOX_THREADS`
/// workers ([`fbox_par::par_map`]); results are merged back in grid order,
/// so the observations are identical to a serial crawl at any thread
/// count.
///
/// Returns the universe, the observations keyed by the universe's ids, and
/// summary statistics.
pub fn crawl(marketplace: &Marketplace) -> (Universe, MarketObservations, CrawlStats) {
    let mut journal = CrawlJournal::new();
    let run = crawl_resilient(marketplace, &Resilience::from_env(), &mut journal);
    (run.universe, run.observations, run.stats)
}

/// The **platform's** view of a finished crawl: the same observation
/// cells with the internal scores `f_q^l` attached to every ranked
/// worker.
///
/// A crawler never sees these ([`Marketplace::run_query`] hides them, as
/// live marketplaces do), but a platform re-ranking its *own* results
/// does — mitigation experiments use this view so the F-Box measures can
/// judge an intervened ranking against true relevance instead of
/// re-deriving relevance from the very positions the intervention chose.
///
/// Truncated pages keep their surviving prefix; the scores re-run is
/// fault-free by construction (scoring is a pure function of the seed),
/// so every observed worker gets her score back.
///
/// # Panics
///
/// Panics if a cell of `observations` names a query or city the
/// marketplace does not offer, or holds more workers than the platform's
/// own page — both impossible for observations crawled from the same
/// marketplace.
pub fn attach_platform_scores(
    marketplace: &Marketplace,
    universe: &Universe,
    observations: &MarketObservations,
) -> MarketObservations {
    let _span = fbox_telemetry::span("marketplace.attach_scores");
    let mut cells: Vec<(
        (fbox_core::model::QueryId, fbox_core::model::LocationId),
        &MarketRanking,
    )> = observations.cells().collect();
    cells.sort_unstable_by_key(|&((q, l), _)| (q.0, l.0));

    let rescored = fbox_par::par_map(&cells, |&((q, l), ranking)| {
        let query_name = &universe.query(q).name;
        let city_name = &universe.location(l).name;
        let flat_q = jobs::query_index(query_name).expect("crawled query exists in the catalog");
        let ci = city::CITIES
            .iter()
            .position(|c| c.name == city_name)
            .expect("crawled city exists in the catalog");
        let scored =
            marketplace.run_query_with_scores(flat_q, ci).expect("crawled cells are offered cells");
        assert!(
            ranking.len() <= scored.len(),
            "a crawled page cannot outgrow the platform's own page"
        );
        MarketRanking::new(
            ranking
                .workers()
                .iter()
                .zip(&scored)
                .map(|(w, &(_, score))| fbox_core::observations::RankedWorker {
                    assignment: w.assignment.clone(),
                    rank: w.rank,
                    score: Some(score),
                })
                .collect(),
        )
    });

    let mut out = MarketObservations::new();
    for (&((q, l), _), ranking) in cells.iter().zip(rescored) {
        let displaced = out.insert_new(q, l, ranking);
        assert!(displaced.is_none(), "source observations hold one ranking per cell");
    }
    out
}

/// One planned grid cell: its coordinates and its precomputed trajectory.
struct PlannedCell {
    flat_q: usize,
    ci: usize,
    admitted: bool,
    plan: fbox_resilience::CellPlan,
}

/// Planning pass, sequential and in grid order: computes each cell's
/// fault trajectory and drives the per-city breakers. No query runs
/// here — every decision is plan-determined, which is what makes the
/// breaker's order-sensitivity compatible with the parallel fan-out
/// of [`crawl_with_sink`]. Returns the plan and the breakers' end state.
fn plan_crawl(
    resilience: &Resilience,
    queries: &[&str],
) -> (Vec<PlannedCell>, Vec<CircuitBreaker>) {
    let _span = fbox_telemetry::span("crawl.plan");
    let mut breakers: Vec<CircuitBreaker> = city::CITIES
        .iter()
        .map(|c| CircuitBreaker::with_label(resilience.breaker, c.name))
        .collect();
    let mut planned = Vec::with_capacity(queries.len() * city::CITIES.len());
    for (flat_q, query_name) in queries.iter().enumerate() {
        for (ci, c) in city::CITIES.iter().enumerate() {
            let key = hash::cell_key("marketplace.crawl", query_name, c.name);
            let admitted = breakers[ci].admit();
            let plan = resilience.plan_cell(key);
            if admitted {
                breakers[ci].record(!plan.is_failure());
            }
            planned.push(PlannedCell { flat_q, ci, admitted, plan });
        }
    }
    (planned, breakers)
}

/// Crawls the grid under an explicit [`Resilience`] configuration,
/// recording every resolved cell in `journal`.
///
/// Cells already present in `journal` are **replayed**, not re-run — pass
/// the journal of an interrupted crawl to resume it. The finished product
/// is byte-identical however the work was split across runs, threads, or
/// interrupts, because every cell's outcome is a pure function of the
/// marketplace seed and the resilience plan.
pub fn crawl_resilient(
    marketplace: &Marketplace,
    resilience: &Resilience,
    journal: &mut CrawlJournal,
) -> CrawlRun {
    crawl_with_sink(marketplace, resilience, journal, &mut |_, _| {})
}

/// [`crawl_resilient`] with a durable sink: `sink(grid_index, record)` is
/// invoked for every *newly resolved* cell, immediately after its record
/// is journaled, in the sequential merge pass — so sink calls arrive in
/// grid order regardless of `FBOX_THREADS`, and a sink that persists
/// records (the `fbox-store` segment log) assigns every record the same
/// on-disk index at any thread count. Replayed journal entries are not
/// re-emitted: they are already durable.
pub fn crawl_with_sink(
    marketplace: &Marketplace,
    resilience: &Resilience,
    journal: &mut CrawlJournal,
    sink: &mut dyn FnMut(u64, &CellRecord),
) -> CrawlRun {
    let _span = fbox_telemetry::span("marketplace.crawl");
    let universe = taskrabbit_universe();

    // Canonical grid: sub-query-major over the 56 cities.
    let queries: Vec<&str> = jobs::all_queries().map(|(_, _, name)| name).collect();

    let (planned, breakers) = plan_crawl(resilience, &queries);

    // Work list: unresolved cells in grid order, truncated at the
    // configured interrupt point (counting only cells that execute a
    // query — replays, skips, and exhausted budgets are free).
    let mut work: Vec<(usize, &PlannedCell)> = Vec::new();
    let mut executed = 0usize;
    let mut interrupted = false;
    for (gi, cell) in planned.iter().enumerate() {
        if journal.contains(gi as u64) {
            continue;
        }
        let executes = cell.admitted && matches!(cell.plan.disposition, Disposition::Run(_));
        if executes {
            if let Some(cap) = resilience.interrupt_after {
                if executed >= cap {
                    interrupted = true;
                    break;
                }
            }
            executed += 1;
        }
        work.push((gi, cell));
    }

    // Execution pass: fan the query-running cells out across FBOX_THREADS
    // workers. Results merge back by work-list index, so completion order
    // cannot matter.
    let pages: Vec<Option<MarketRanking>> = fbox_par::par_map(&work, |&(_, cell)| {
        let _cell_span = fbox_telemetry::span_args("crawl.cell", |a| {
            a.str("query", queries[cell.flat_q]);
            a.str("city", city::CITIES[cell.ci].name);
        });
        // Narrate the cell's planned fault episode (retries, backoff,
        // exhaustion) under its own span. The plan is a pure function of
        // the key, so replaying it here changes nothing downstream.
        if fbox_trace::enabled() && cell.admitted {
            let key = hash::cell_key(
                "marketplace.crawl",
                queries[cell.flat_q],
                city::CITIES[cell.ci].name,
            );
            let _ = resilience.plan_cell_traced(key);
        }
        if cell.admitted && matches!(cell.plan.disposition, Disposition::Run(_)) {
            marketplace.run_query(cell.flat_q, cell.ci)
        } else {
            None
        }
    });

    // Merge pass, sequential in grid order: apply payload faults, validate,
    // and journal each cell's final disposition.
    let mut new_retries = 0u64;
    let mut new_backoff_ms = 0u64;
    for (&(gi, cell), page) in work.iter().zip(pages) {
        let outcome = if !cell.admitted {
            CellOutcome::SkippedByBreaker
        } else {
            match cell.plan.disposition {
                Disposition::Exhausted => CellOutcome::Exhausted,
                Disposition::Run(payload) => match page {
                    None => CellOutcome::NotOffered,
                    Some(ranking) => apply_payload_fault(ranking, payload),
                },
            }
        };
        if matches!(outcome, CellOutcome::Quarantined(_)) {
            fbox_trace::instant_args("crawl.quarantine", |a| {
                a.str("query", queries[cell.flat_q]);
                a.str("city", city::CITIES[cell.ci].name);
            });
        }
        let (retries, backoff_ms) =
            if cell.admitted { (cell.plan.retries, cell.plan.backoff_ms) } else { (0, 0) };
        new_retries += u64::from(retries);
        new_backoff_ms += backoff_ms;
        let record = CellRecord { retries, backoff_ms, outcome };
        let rejected = journal.append(gi as u64, record);
        assert!(rejected.is_none(), "work list never contains journaled cells (grid index {gi})");
        sink(gi as u64, journal.get(gi as u64).expect("record was just appended"));
    }

    // Fold pass: rebuild observations and statistics from the *whole*
    // journal (replayed and new cells alike), in grid order — the reason
    // an interrupted-and-resumed crawl is byte-identical to an
    // uninterrupted one.
    let mut observations = MarketObservations::new();
    let mut n_queries = 0usize;
    let mut n_not_offered = 0usize;
    let mut n_failed = 0usize;
    let mut n_quarantined = 0usize;
    let mut n_truncated = 0usize;
    let mut n_skipped_breaker = 0usize;
    let mut n_retries = 0u64;
    let mut backoff_virtual_ms = 0u64;
    for (gi, cell) in planned.iter().enumerate() {
        let Some(record) = journal.get(gi as u64) else { continue };
        n_retries += u64::from(record.retries);
        backoff_virtual_ms += record.backoff_ms;
        let q =
            universe.query_id(queries[cell.flat_q]).expect("universe registered all sub-queries");
        let l = universe
            .location_id(city::CITIES[cell.ci].name)
            .expect("universe registered all cities");
        match &record.outcome {
            CellOutcome::Clean(ranking) => {
                let displaced = observations.insert_new(q, l, ranking.clone());
                assert!(
                    displaced.is_none(),
                    "journal holds one record per grid cell ({q:?}, {l:?})"
                );
                n_queries += 1;
            }
            CellOutcome::Truncated(ranking) => {
                let displaced = observations.insert_new(q, l, ranking.clone());
                assert!(
                    displaced.is_none(),
                    "journal holds one record per grid cell ({q:?}, {l:?})"
                );
                n_queries += 1;
                n_truncated += 1;
            }
            CellOutcome::NotOffered => n_not_offered += 1,
            CellOutcome::Exhausted => n_failed += 1,
            CellOutcome::Quarantined(_) => n_quarantined += 1,
            CellOutcome::SkippedByBreaker => n_skipped_breaker += 1,
        }
    }
    let n_breaker_trips: u64 = breakers.iter().map(|b| u64::from(b.trips())).sum();
    let degradable = n_queries + n_failed + n_quarantined + n_skipped_breaker;
    let coverage = if degradable == 0 { 0.0 } else { n_queries as f64 / degradable as f64 };

    let t = fbox_telemetry::global();
    if t.enabled() {
        t.counter("crawl.queries_run").add(n_queries as u64);
        t.counter("crawl.queries_not_offered").add(n_not_offered as u64);
        t.counter("crawl.retries").add(new_retries);
        t.counter("crawl.cells_failed").add(n_failed as u64);
        t.counter("crawl.cells_quarantined").add(n_quarantined as u64);
        t.counter("crawl.cells_truncated").add(n_truncated as u64);
        t.counter("crawl.cells_skipped_breaker").add(n_skipped_breaker as u64);
        t.counter("crawl.breaker_trips").add(n_breaker_trips);
        // Population size is a property of the crawl, not an accumulating
        // event stream: a gauge, set once per crawl.
        t.gauge("crawl.workers_observed").set(marketplace.population().len() as i64);
        t.gauge("crawl.breaker_open_cities")
            .set(breakers.iter().filter(|b| b.is_open()).count() as i64);
        if new_backoff_ms > 0 {
            t.histogram("crawl.backoff_virtual_ms")
                .record(std::time::Duration::from_millis(new_backoff_ms));
        }
    }

    let (male_share, ethnicity_shares) = marketplace.population().breakdown();
    let stats = CrawlStats {
        n_queries,
        n_workers: marketplace.population().len(),
        male_share,
        ethnicity_shares,
        n_failed,
        n_quarantined,
        n_truncated,
        n_skipped_breaker,
        n_retries,
        n_breaker_trips,
        backoff_virtual_ms,
        coverage,
    };
    let complete = !interrupted && journal.len() == planned.len();
    CrawlRun { universe, observations, stats, complete }
}

/// Applies a planned payload fault to a fetched page.
///
/// - `Truncate` keeps the top half (rounded up, so a one-result page
///   survives); the prefix is still a contiguous `1..=k` ranking and is
///   used as a degraded observation.
/// - `Corrupt` mangles the rank sequence the way broken scrapes do
///   (a duplicated rank) and runs it through [`MarketRanking::try_new`] —
///   validation must reject it, and the cell is quarantined with the
///   typed [`RankingError`].
fn apply_payload_fault(ranking: MarketRanking, payload: Option<PayloadFault>) -> CellOutcome {
    match payload {
        None => CellOutcome::Clean(ranking),
        Some(PayloadFault::Truncate) => {
            let mut workers = ranking.into_workers();
            let keep = workers.len().div_ceil(2);
            workers.truncate(keep);
            match MarketRanking::try_new(workers) {
                Ok(r) => CellOutcome::Truncated(r),
                Err(e) => CellOutcome::Quarantined(e),
            }
        }
        Some(PayloadFault::Corrupt) => {
            let mut workers = ranking.into_workers();
            let n = workers.len();
            if n == 0 {
                // Nothing to mangle on an empty page; it reads back clean.
                return CellOutcome::Clean(MarketRanking::default());
            }
            let last = n - 1;
            workers[last].rank = if last > 0 { workers[last - 1].rank } else { 2 };
            match MarketRanking::try_new(workers) {
                Ok(_) => unreachable!("a mangled rank sequence cannot validate"),
                Err(e) => CellOutcome::Quarantined(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias::BiasProfile;
    use crate::population::Population;
    use crate::scoring::ScoringModel;
    use fbox_resilience::{FaultPlan, FaultProfile};

    fn market() -> Marketplace {
        Marketplace::new(Population::paper(5), ScoringModel::default(), BiasProfile::neutral(), 5)
    }

    #[test]
    fn stats_json_bytes_are_pinned() {
        let stats = CrawlStats {
            n_queries: 5361,
            n_workers: 3311,
            male_share: 0.625,
            ethnicity_shares: [0.1, 0.25, 0.65],
            n_failed: 1,
            n_quarantined: 2,
            n_truncated: 3,
            n_skipped_breaker: 4,
            n_retries: 5,
            n_breaker_trips: 6,
            backoff_virtual_ms: 7,
            coverage: 0.99,
        };
        let json = serde::json::to_string(&stats);
        assert_eq!(
            json,
            r#"{"n_queries":5361,"n_workers":3311,"male_share":0.625,"ethnicity_shares":[0.1,0.25,0.65],"n_failed":1,"n_quarantined":2,"n_truncated":3,"n_skipped_breaker":4,"n_retries":5,"n_breaker_trips":6,"backoff_virtual_ms":7,"coverage":0.99}"#
        );
        assert_eq!(serde::json::from_str::<CrawlStats>(&json).expect("pinned JSON parses"), stats);
    }

    #[test]
    fn universe_dimensions() {
        let u = taskrabbit_universe();
        assert_eq!(u.n_groups(), 11);
        assert_eq!(u.n_queries(), 96);
        assert_eq!(u.n_locations(), 56);
        // Category tags flow through.
        let q = u.query_id("Lawn Mowing").unwrap();
        assert_eq!(u.query(q).category.as_deref(), Some("Yard Work"));
        assert_eq!(u.queries_in_category("General Cleaning").len(), 12);
        // Region tags flow through.
        assert!(!u.locations_in_region("UK").is_empty());
    }

    #[test]
    fn crawl_covers_the_paper_grid() {
        let (_, obs, stats) = crawl(&market());
        assert_eq!(stats.n_queries, 5361, "paper §5.1.1 query count");
        assert_eq!(obs.n_cells(), 5361);
        assert_eq!(stats.n_workers, 3311);
        assert!((stats.male_share - 0.72).abs() < 0.03);
        assert!((stats.ethnicity_shares[2] - 0.66).abs() < 0.03);
        // Fault-free run: nothing degraded, full coverage.
        assert_eq!(stats.n_failed, 0);
        assert_eq!(stats.n_quarantined, 0);
        assert_eq!(stats.n_truncated, 0);
        assert_eq!(stats.n_skipped_breaker, 0);
        assert_eq!(stats.n_retries, 0);
        assert_eq!(stats.backoff_virtual_ms, 0);
        assert_eq!(stats.coverage, 1.0);
    }

    #[test]
    fn faulted_crawl_degrades_gracefully() {
        let m = market();
        let r = Resilience::with_plan(FaultPlan::new(42, FaultProfile::heavy()));
        let mut journal = CrawlJournal::new();
        let run = crawl_resilient(&m, &r, &mut journal);
        assert!(run.complete);
        let s = &run.stats;
        // Heavy faults lose cells in every failure mode…
        assert!(s.n_failed > 0, "some retry budgets must exhaust");
        assert!(s.n_quarantined > 0, "some pages must be quarantined");
        assert!(s.n_truncated > 0, "some pages must truncate");
        assert!(s.n_retries > 0);
        assert!(s.backoff_virtual_ms > 0);
        // …but the crawl still recovers most of the grid.
        assert!(s.coverage > 0.5 && s.coverage < 1.0, "coverage {}", s.coverage);
        assert_eq!(run.observations.n_cells(), s.n_queries);
        assert!(s.n_queries < 5361);
    }

    #[test]
    fn corrupted_pages_are_quarantined_not_panicking() {
        // All-corrupt plan: every offered cell's page mangles its rank
        // sequence; every one must land in quarantine via try_new.
        let profile = FaultProfile {
            transient_pm: 0,
            rate_limited_pm: 0,
            truncated_pm: 0,
            corrupted_pm: 1000,
        };
        let m = market();
        let r = Resilience::with_plan(FaultPlan::new(7, profile));
        let mut journal = CrawlJournal::new();
        let run = crawl_resilient(&m, &r, &mut journal);
        assert_eq!(run.stats.n_queries, 0, "no page may survive validation");
        assert_eq!(run.stats.coverage, 0.0);
        // Corruption counts as failure, so city breakers trip and skip
        // most of the grid; every *attempted* offered page quarantines.
        assert!(run.stats.n_quarantined > 0);
        assert!(run.stats.n_skipped_breaker > 0);
        let quarantined_errors = journal
            .iter()
            .filter(|(_, rec)| matches!(rec.outcome, CellOutcome::Quarantined(_)))
            .count();
        assert_eq!(quarantined_errors, run.stats.n_quarantined);
    }

    #[test]
    fn breaker_trips_under_sustained_failure() {
        // Transport failure on every attempt: every admitted cell
        // exhausts, so each city's breaker trips after `threshold`
        // consecutive cells and then alternates cooldown skips with
        // failed half-open probes.
        let profile = FaultProfile {
            transient_pm: 1000,
            rate_limited_pm: 0,
            truncated_pm: 0,
            corrupted_pm: 0,
        };
        let m = market();
        let r = Resilience::with_plan(FaultPlan::new(3, profile));
        let mut journal = CrawlJournal::new();
        let run = crawl_resilient(&m, &r, &mut journal);
        assert_eq!(run.stats.n_queries, 0);
        assert!(run.stats.n_breaker_trips >= 56, "every city should trip at least once");
        assert!(run.stats.n_skipped_breaker > 0, "open breakers must skip cells");
        // Skipped cells never spent retries.
        assert!(journal
            .iter()
            .all(|(_, rec)| !matches!(rec.outcome, CellOutcome::SkippedByBreaker)
                || rec.retries == 0));
    }

    #[test]
    fn resumed_fold_never_double_inserts() {
        // Regression for the resumed-crawl double-write case: the fold
        // pass rebuilds observations from the *whole* journal on every
        // run, so a resumed (and even a fully-replayed) journal feeds
        // each cell through `insert_new` again. That call now returns
        // the displaced page and the fold hard-asserts it is `None` —
        // in the old code a double-ingested cell would panic only in
        // debug builds and silently keep the last write in release.
        let m = market();
        let plan = FaultPlan::new(11, FaultProfile::mild());
        let mut journal = CrawlJournal::new();
        let first = crawl_resilient(
            &m,
            &Resilience { interrupt_after: Some(1000), ..Resilience::with_plan(plan) },
            &mut journal,
        );
        assert!(!first.complete);
        let resumed = crawl_resilient(&m, &Resilience::with_plan(plan), &mut journal);
        assert!(resumed.complete);
        // Replay the finished journal once more: every cell is folded a
        // second time from the same records, and each must still insert
        // exactly once into the fresh observation set.
        let replayed = crawl_resilient(&m, &Resilience::with_plan(plan), &mut journal);
        assert!(replayed.complete);
        assert_eq!(replayed.observations.n_cells(), resumed.observations.n_cells());
    }

    #[test]
    fn interrupted_crawl_resumes_byte_identically() {
        let m = market();
        let plan = FaultPlan::new(11, FaultProfile::mild());

        // Uninterrupted reference run.
        let mut ref_journal = CrawlJournal::new();
        let reference = crawl_resilient(&m, &Resilience::with_plan(plan), &mut ref_journal);
        assert!(reference.complete);

        // Interrupt after 1000 executed cells, then resume.
        let mut journal = CrawlJournal::new();
        let first = crawl_resilient(
            &m,
            &Resilience { interrupt_after: Some(1000), ..Resilience::with_plan(plan) },
            &mut journal,
        );
        assert!(!first.complete);
        assert!(first.observations.n_cells() < reference.observations.n_cells());
        let resumed = crawl_resilient(&m, &Resilience::with_plan(plan), &mut journal);
        assert!(resumed.complete);

        assert_eq!(resumed.stats, reference.stats);
        assert_eq!(resumed.observations.n_cells(), reference.observations.n_cells());
        for ((q, l), ranking) in reference.observations.cells() {
            assert_eq!(resumed.observations.get(q, l), Some(ranking), "cell ({q:?}, {l:?})");
        }
    }
}
