//! Mitigation: the fairness loop closed.
//!
//! The paper quantifies unfairness; this experiment *acts* on it. Every
//! intervention in [`fbox_mitigate`] re-ranks each platform's
//! observations, the re-ranked lists flow back through
//! [`FBox::from_market`] / [`FBox::from_search`], and the same measures
//! that diagnosed the bias report the pre/post delta — per
//! (measure × intervention × bias profile) — plus the NDCG utility each
//! intervention paid for it.

use crate::calibrate;
use crate::experiments::ExperimentResult;
use fbox_core::model::Universe;
use fbox_core::observations::{MarketObservations, SearchObservations};
use fbox_core::unfairness::{MarketMeasure, SearchMeasure};
use fbox_core::FBox;
use fbox_marketplace::{
    attach_platform_scores, crawl, BiasProfile, Marketplace, Population, ScoringModel,
};
use fbox_mitigate::{rerank_market, rerank_search, Intervention, RerankConfig};
use fbox_search::{
    run_study, ExtensionRunner, NoiseModel, PersonalizationProfile, SearchEngine, StudyDesign,
};

/// One point of the mitigation grid: a (platform, bias profile, measure,
/// intervention) combination with its pre/post mean unfairness and the
/// NDCG the intervention spent.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationCell {
    /// `"taskrabbit"` or `"google"`.
    pub platform: &'static str,
    /// Bias-profile label (`"neutral"`, `"paper"`, `"amplified"`).
    pub profile: &'static str,
    /// Measure label (`"emd"`, `"exposure"`, `"kendall"`, `"jaccard"`).
    pub measure: &'static str,
    /// The intervention applied.
    pub intervention: Intervention,
    /// Mean cube unfairness before the intervention.
    pub pre: f64,
    /// Mean cube unfairness after re-ranking.
    pub post: f64,
    /// Mean NDCG given up by the re-ranking (baseline − re-ranked).
    pub ndcg_loss: f64,
}

impl MitigationCell {
    /// Signed unfairness change; negative is an improvement.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.post - self.pre
    }
}

/// Mean unfairness over every populated cube cell.
fn cube_mean(fb: &FBox) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (_, _, _, v) in fb.cube().cells() {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Runs the full intervention sweep over one marketplace observation set:
/// for each intervention, re-rank once, rebuild the F-Box under both
/// market measures, and report the mean-unfairness deltas. Deterministic
/// at any `FBOX_THREADS` (the re-ranker and both cube builds are).
#[must_use = "the grid cells are the experiment's output"]
pub fn market_cells(
    profile: &'static str,
    universe: &Universe,
    observations: &MarketObservations,
    config: &RerankConfig,
) -> Vec<MitigationCell> {
    let measures = [("emd", MarketMeasure::emd()), ("exposure", MarketMeasure::exposure())];
    let pre: Vec<f64> = measures
        .iter()
        .map(|(_, m)| cube_mean(&FBox::from_market(universe.clone(), observations, *m)))
        .collect();
    let mut cells = Vec::new();
    for intervention in Intervention::ALL {
        let r = rerank_market(universe, observations, intervention, config);
        for ((label, m), &pre) in measures.iter().zip(&pre) {
            let post = cube_mean(&FBox::from_market(universe.clone(), &r.observations, *m));
            cells.push(MitigationCell {
                platform: "taskrabbit",
                profile,
                measure: label,
                intervention,
                pre,
                post,
                ndcg_loss: r.stats.ndcg_loss(),
            });
        }
    }
    cells
}

/// The search-side counterpart of [`market_cells`]: Kendall-Tau and
/// Jaccard before/after each intervention.
#[must_use = "the grid cells are the experiment's output"]
pub fn search_cells(
    profile: &'static str,
    universe: &Universe,
    observations: &SearchObservations,
    config: &RerankConfig,
) -> Vec<MitigationCell> {
    let measures =
        [("kendall", SearchMeasure::kendall()), ("jaccard", SearchMeasure::JaccardDistance)];
    let pre: Vec<f64> = measures
        .iter()
        .map(|(_, m)| cube_mean(&FBox::from_search(universe.clone(), observations, *m)))
        .collect();
    let mut cells = Vec::new();
    for intervention in Intervention::ALL {
        let r = rerank_search(universe, observations, intervention, config);
        for ((label, m), &pre) in measures.iter().zip(&pre) {
            let post = cube_mean(&FBox::from_search(universe.clone(), &r.observations, *m));
            cells.push(MitigationCell {
                platform: "google",
                profile,
                measure: label,
                intervention,
                pre,
                post,
                ndcg_loss: r.stats.ndcg_loss(),
            });
        }
    }
    cells
}

/// TaskRabbit bias profiles spanning the grid's third axis: no bias at
/// all, the calibrated paper profile, and the paper profile with its
/// location amplification pushed toward saturation.
fn market_profiles() -> Vec<(&'static str, BiasProfile)> {
    let mut amplified = calibrate::taskrabbit_bias();
    amplified.default_location_amp = 0.55;
    vec![
        ("neutral", BiasProfile::neutral()),
        ("paper", calibrate::taskrabbit_bias()),
        ("amplified", amplified),
    ]
}

/// Google personalization profiles for the same axis. The amplified
/// variant scales `gamma` (the global personalization strength): the
/// per-query/per-location amp tables cover every study cell, so the
/// `default_*_amp` fields would be dead knobs here.
fn search_profiles() -> Vec<(&'static str, PersonalizationProfile)> {
    let mut amplified = calibrate::google_personalization();
    amplified.gamma *= 2.5;
    vec![
        ("neutral", PersonalizationProfile::uniform(0.0)),
        ("paper", calibrate::google_personalization()),
        ("amplified", amplified),
    ]
}

/// Builds every observation set and sweeps the full
/// (measure × intervention × bias profile) grid on both platforms.
#[must_use = "the grid cells are the experiment's output"]
pub fn grid() -> Vec<MitigationCell> {
    let _span = fbox_telemetry::span("repro.mitigate_grid");
    let config = RerankConfig::default();
    let mut cells = Vec::new();
    for (profile, bias) in market_profiles() {
        let population = Population::paper(calibrate::SEED);
        let market = Marketplace::new(population, ScoringModel::default(), bias, calibrate::SEED);
        let (universe, crawled, _stats) = crawl(&market);
        // Mitigation is a *platform* action: the platform re-ranks its own
        // results with its scores visible, so the measures judge the
        // intervened ranking against true relevance. A plain crawl's
        // rank-derived relevance would hide the bias the intervention is
        // supposed to fix (a buried group scores low on exposure *and* on
        // measured relevance at once).
        let observations = attach_platform_scores(&market, &universe, &crawled);
        cells.extend(market_cells(profile, &universe, &observations, &config));
    }
    for (profile, personalization) in search_profiles() {
        let engine = SearchEngine::new(personalization, NoiseModel::default(), calibrate::SEED);
        let design = StudyDesign { participants_per_group: 3, seed: calibrate::SEED };
        let (universe, observations, _stats) =
            run_study(&design, &engine, &ExtensionRunner::default());
        cells.extend(search_cells(profile, &universe, &observations, &config));
    }
    cells
}

/// Renders the grid as machine-readable JSON (an array of objects, one
/// per cell), for `repro-mitigate --json`.
#[must_use]
pub fn to_json(cells: &[MitigationCell]) -> String {
    let mut out = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\"platform\": \"{}\", \"profile\": \"{}\", \"measure\": \"{}\", ",
                "\"intervention\": \"{}\", \"pre\": {:.6}, \"post\": {:.6}, ",
                "\"delta\": {:.6}, \"ndcg_loss\": {:.6}}}{}\n"
            ),
            c.platform,
            c.profile,
            c.measure,
            c.intervention.label(),
            c.pre,
            c.post,
            c.delta(),
            c.ndcg_loss,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    out
}

/// Renders the report and the shape checks from a computed grid.
#[must_use = "the rendered report is the experiment's output"]
pub fn report(cells: &[MitigationCell]) -> ExperimentResult {
    let mut out = String::new();
    let mut checks = Vec::new();

    let mut sections: Vec<(&'static str, &'static str)> = Vec::new();
    for c in cells {
        if !sections.contains(&(c.platform, c.profile)) {
            sections.push((c.platform, c.profile));
        }
    }
    for (platform, profile) in &sections {
        out.push_str(&format!("## Mitigation: {platform}, bias profile `{profile}`\n"));
        out.push_str(&format!(
            "{:<10} {:<14} {:>9} {:>9} {:>9} {:>10}\n",
            "measure", "intervention", "pre", "post", "delta", "ndcg-loss"
        ));
        for c in cells.iter().filter(|c| c.platform == *platform && c.profile == *profile) {
            out.push_str(&format!(
                "{:<10} {:<14} {:>9.4} {:>9.4} {:>+9.4} {:>10.4}\n",
                c.measure,
                c.intervention.label(),
                c.pre,
                c.post,
                c.delta(),
                c.ndcg_loss
            ));
        }
        out.push('\n');
    }

    let expected = sections.len() * 2 * Intervention::ALL.len();
    checks.push((
        format!(
            "grid is complete: {} (platform, profile) section(s) x 2 measures x {} interventions",
            sections.len(),
            Intervention::ALL.len()
        ),
        cells.len() == expected,
    ));

    let paper_improved = |platform: &str| {
        cells
            .iter()
            .filter(|c| c.platform == platform && c.profile == "paper")
            .any(|c| c.delta() < -1e-9)
    };
    checks.push((
        "TaskRabbit paper profile: at least one intervention strictly reduces mean unfairness"
            .into(),
        paper_improved("taskrabbit"),
    ));
    checks.push((
        "Google paper profile: at least one intervention strictly reduces mean unfairness".into(),
        paper_improved("google"),
    ));
    let exposure_opt_fixes_exposure = cells.iter().any(|c| {
        c.platform == "taskrabbit"
            && c.profile == "paper"
            && c.measure == "exposure"
            && c.intervention == Intervention::ExposureOptimal
            && c.delta() < -1e-9
    });
    checks.push((
        "exposure-optimal strictly reduces the exposure measure it optimizes (paper profile)"
            .into(),
        exposure_opt_fixes_exposure,
    ));
    // Re-ranked workers carry their relevance, and EMD depends only on
    // each group's relevance distribution — which a re-ordering cannot
    // change. Pinning the zero delta keeps the column honest: re-ranking
    // fixes exposure, not representation.
    let emd_invariant = cells.iter().filter(|c| c.measure == "emd").all(|c| c.delta().abs() < 1e-9);
    checks.push((
        "EMD is invariant under every re-ranking (representation is not position)".into(),
        emd_invariant,
    ));
    let worst_loss = cells.iter().map(|c| c.ndcg_loss).fold(f64::NEG_INFINITY, f64::max);
    checks.push((
        "utility: no intervention costs more than 0.35 mean NDCG anywhere on the grid".into(),
        worst_loss <= 0.35,
    ));

    ExperimentResult { report: out, checks }.finish()
}

/// Runs the whole experiment: grid, report, checks.
#[must_use = "the rendered report is the experiment's output"]
pub fn run() -> ExperimentResult {
    report(&grid())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbox_core::model::{Schema, ValueId};
    use fbox_core::observations::{MarketRanking, RankedWorker, UserList};

    /// A small synthetic market/search world — the full crawl is a
    /// release-binary workload, not a unit-test one.
    fn toy_world() -> (Universe, MarketObservations, SearchObservations) {
        let mut u = Universe::with_all_groups(Schema::gender_ethnicity());
        let qs: Vec<_> = (0..3).map(|i| u.add_query(format!("q{i}"), Some("cat"))).collect();
        let ls: Vec<_> = (0..2).map(|i| u.add_location(format!("l{i}"), None)).collect();
        let mut market = MarketObservations::new();
        let mut search = SearchObservations::new();
        for (qi, &q) in qs.iter().enumerate() {
            for (li, &l) in ls.iter().enumerate() {
                let n = 8 + qi + li;
                market.insert(
                    q,
                    l,
                    MarketRanking::new(
                        (0..n)
                            .map(|i| RankedWorker {
                                assignment: vec![
                                    ValueId(u16::from(i >= n / 2)),
                                    ValueId((i % 3) as u16),
                                ],
                                rank: i + 1,
                                score: None,
                            })
                            .collect(),
                    ),
                );
                for g in 0..4u16 {
                    search.push(
                        q,
                        l,
                        UserList {
                            assignment: vec![ValueId(g % 2), ValueId(g % 3)],
                            results: (0..6)
                                .map(|r| (qi * 100 + li * 10 + (r + g as usize) % 9) as u64)
                                .collect(),
                        },
                    );
                }
            }
        }
        (u, market, search)
    }

    #[test]
    fn toy_grid_covers_every_measure_and_intervention() {
        let (u, market, search) = toy_world();
        let config = RerankConfig::default();
        let mut cells = market_cells("toy", &u, &market, &config);
        cells.extend(search_cells("toy", &u, &search, &config));
        assert_eq!(cells.len(), 2 * 2 * Intervention::ALL.len());
        for c in &cells {
            assert!(c.pre.is_finite() && c.post.is_finite());
            assert!(c.pre >= 0.0 && c.post >= 0.0);
        }
        let r = report(&cells);
        assert!(r.report.contains("det-relaxed"));
        assert!(r.report.contains("exposure"));
        // The completeness check must pass on any well-formed grid.
        assert!(r.checks.iter().any(|(name, ok)| name.starts_with("grid is complete") && *ok));
    }

    #[test]
    fn grid_cells_are_thread_count_invariant() {
        // The acceptance bar: bit-identical pre/post/NDCG at
        // FBOX_THREADS in {1, 2, 8} — re-ranker and cube builds both.
        let (u, market, search) = toy_world();
        let config = RerankConfig::default();
        let run = || {
            let mut cells = market_cells("toy", &u, &market, &config);
            cells.extend(search_cells("toy", &u, &search, &config));
            cells
        };
        let one = fbox_par::with_threads(1, run);
        let two = fbox_par::with_threads(2, run);
        let eight = fbox_par::with_threads(8, run);
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let cells = vec![MitigationCell {
            platform: "taskrabbit",
            profile: "paper",
            measure: "emd",
            intervention: Intervention::FaStarIr,
            pre: 0.25,
            post: 0.2,
            ndcg_loss: 0.0125,
        }];
        let json = to_json(&cells);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"intervention\": \"fair\""));
        assert!(json.contains("\"delta\": -0.050000"));
        assert!(!json.contains(",\n]"), "no trailing comma");
    }
}
