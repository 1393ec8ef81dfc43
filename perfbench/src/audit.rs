//! `audit`: one op runs the whole paper pipeline in-process on the
//! calibrated seed, as `repro-all` does — marketplace crawl, search
//! study, the four cubes with their indices, and every experiment
//! section. Set-up is the first, cold pipeline run.

use crate::metrics::Values;
use crate::rng::Digest;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{self, put_median_ms, Workload};
use fbox_core::observations::{MarketObservations, SearchObservations};
use fbox_core::{FBox, MarketMeasure, SearchMeasure, Universe};
use fbox_marketplace::crawl;
use fbox_repro::calibrate;
use fbox_repro::experiments::{
    figures, google_compare, google_quant, hypotheses, taskrabbit_compare, taskrabbit_quant,
};
use fbox_repro::scenario::{GoogleScenario, TaskRabbitScenario};
use fbox_search::run_study;
use std::path::Path;
use std::time::Instant;

/// Shape checks the calibrated seed passes.
pub const SHAPE_CHECKS: usize = 49;

/// What one pipeline run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pipeline {
    /// Digest of every section's report and check verdicts.
    pub digest: u64,
    pub passed: usize,
    pub total: usize,
}

pub struct Audit {
    reference: Pipeline,
    /// `(q, l)` cells × groups each TaskRabbit / Google cube computes.
    cells: (usize, usize),
}

/// The simulator outputs of one pipeline run: each platform's universe
/// and observations.
struct Studies {
    market: (Universe, MarketObservations),
    search: (Universe, SearchObservations),
}

fn simulate(tr: &mut Tracer) -> (Studies, fbox_marketplace::CrawlStats, fbox_search::StudyStats) {
    let m = tr.span("marketplace.build", || workload::marketplace(calibrate::SEED));
    let (mu, mobs, mstats) = tr.span("marketplace.crawl", || crawl(&m));
    let (engine, design, runner) = workload::study();
    let (su, sobs, sstats) = tr.span("search.study", || run_study(&design, &engine, &runner));
    (Studies { market: (mu, mobs), search: (su, sobs) }, mstats, sstats)
}

/// Builds the four cubes, each under its own span.
fn cubes(s: &Studies, tr: &mut Tracer) -> [FBox; 4] {
    let (mu, mobs) = &s.market;
    let (su, sobs) = &s.search;
    [
        tr.span("core.cube.emd", || FBox::from_market(mu.clone(), mobs, MarketMeasure::emd())),
        tr.span("core.cube.exposure", || {
            FBox::from_market(mu.clone(), mobs, MarketMeasure::exposure())
        }),
        tr.span("core.cube.kendall", || {
            FBox::from_search(su.clone(), sobs, SearchMeasure::kendall())
        }),
        tr.span("core.cube.jaccard", || {
            FBox::from_search(su.clone(), sobs, SearchMeasure::JaccardDistance)
        }),
    ]
}

/// The whole pipeline, as `repro-all` runs it.
fn pipeline(tr: &mut Tracer) -> (Pipeline, Studies) {
    let (studies, mstats, sstats) = simulate(tr);
    let [emd, exposure, kendall, jaccard] = cubes(&studies, tr);
    let trs = TaskRabbitScenario { emd, exposure, stats: mstats };
    let gg = GoogleScenario { kendall, jaccard, stats: sstats };
    let sections = tr.span("repro.tables", || {
        [
            figures::run(&trs),
            taskrabbit_quant::run(&trs),
            taskrabbit_compare::run(&trs),
            google_quant::run(&gg),
            google_compare::run(&gg),
            hypotheses::run(&trs, &gg),
        ]
    });
    let mut d = Digest::default();
    let (mut passed, mut total) = (0, 0);
    for r in &sections {
        d.bytes(r.report.as_bytes());
        for (claim, ok) in &r.checks {
            d.bytes(claim.as_bytes()).u64(u64::from(*ok));
            passed += usize::from(*ok);
            total += 1;
        }
    }
    (Pipeline { digest: d.finish(), passed, total }, studies)
}

impl Workload for Audit {
    type Input = ();
    type Request = ();
    type Output = Pipeline;

    fn prepare(_seed: u64, _dir: &Path) {}

    fn setup((): (), tr: &mut Tracer) -> Self {
        let (reference, s) = pipeline(tr);
        let cells = (
            s.market.0.n_groups() * s.market.1.n_cells(),
            s.search.0.n_groups() * s.search.1.n_cells(),
        );
        Self { reference, cells }
    }

    fn setup_ok(&self) -> bool {
        self.reference.passed == SHAPE_CHECKS && self.reference.total == SHAPE_CHECKS
    }

    fn request(&mut self, _i: u64) {}

    fn op(&mut self, (): &(), tr: &mut Tracer) -> Pipeline {
        pipeline(tr).0
    }

    fn check(&mut self, (): &(), out: Pipeline) -> bool {
        out == self.reference && out.passed == SHAPE_CHECKS && out.total == SHAPE_CHECKS
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Values) {
        put_median_ms(tr, "marketplace.crawl", "marketplace.crawl_ms", out);
        put_median_ms(tr, "search.study", "search.study_ms", out);
        put_median_ms(tr, "repro.tables", "repro.tables_ms", out);
        let mut build_ms = 0.0;
        for (span, metric) in CUBE_METRICS {
            put_median_ms(tr, span, metric, out);
            build_ms += out.get(metric).copied().unwrap_or(0.0);
        }
        // Each cube computes every group at every observed cell.
        let cells = 2 * (self.cells.0 + self.cells.1);
        if build_ms > 0.0 {
            out.insert("core.cube.cells_per_s", cells as f64 / (build_ms / 1e3));
        }
        out.insert("par.cube_scaling_x", cube_scaling());
    }
}

const CUBE_METRICS: [(&str, &str); 4] = [
    ("core.cube.emd", "core.cube.emd_ms"),
    ("core.cube.exposure", "core.cube.exposure_ms"),
    ("core.cube.kendall", "core.cube.kendall_ms"),
    ("core.cube.jaccard", "core.cube.jaccard_ms"),
];

/// The four cube builds at one worker ÷ at every worker the machine has,
/// medians of three alternating rounds.
fn cube_scaling() -> f64 {
    let (studies, _, _) = simulate(&mut Tracer::new(false));
    let workers = fbox_par::max_threads();
    let mut serial = Vec::new();
    let mut parallel = Vec::new();
    for _ in 0..3 {
        for (n, samples) in [(1, &mut serial), (workers, &mut parallel)] {
            let t = Instant::now();
            std::hint::black_box(fbox_par::with_threads(n, || {
                cubes(&studies, &mut Tracer::new(false))
            }));
            samples.push(t.elapsed().as_secs_f64());
        }
    }
    let med = |xs: &[f64]| stats::median(xs).expect("three rounds");
    med(&serial) / med(&parallel)
}
