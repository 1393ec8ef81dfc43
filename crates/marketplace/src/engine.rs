//! The marketplace ranking engine: given a sub-query and a city, rank the
//! local workers by `f_q^l` and return the top page (the paper crawled the
//! top 50 taskers per query, §5.1.1).

use crate::bias::BiasProfile;
use crate::demographics::{Demographic, Ethnicity, Gender};
use crate::jobs;
use crate::population::Population;
use crate::scoring::{mix, mix_str, ScoringModel};
use fbox_core::observations::{MarketRanking, RankedWorker};

/// Result-page size the paper crawled.
pub const PAGE_SIZE: usize = 50;

/// Default probability that a worker serves a given job category.
///
/// Taskers sign up for a subset of categories, so the candidate pool for
/// one query is smaller than the city's whole worker base — and, with the
/// paper-sized population (≈ 59 workers/city), almost always fits the
/// 50-result page. That matters for measurement: when every candidate is
/// visible, stronger bias shows up as worse ranks; with an overflowing
/// pool it would instead push discriminated workers off the page and out
/// of the data entirely.
pub const CATEGORY_COVERAGE: f64 = 0.65;

/// A simulated TaskRabbit-style marketplace.
#[derive(Debug, Clone)]
pub struct Marketplace {
    population: Population,
    scoring: ScoringModel,
    bias: BiasProfile,
    seed: u64,
    page_size: usize,
    category_coverage: f64,
    /// Demographics the *crawler* records per worker (e.g. AMT majority
    /// labels from `fbox-crowd`). The platform always ranks by ground
    /// truth; only the observation side uses these.
    observed_labels: Option<Vec<Demographic>>,
}

impl Marketplace {
    /// Assembles a marketplace.
    pub fn new(
        population: Population,
        scoring: ScoringModel,
        bias: BiasProfile,
        seed: u64,
    ) -> Self {
        Self {
            population,
            scoring,
            bias,
            seed,
            page_size: PAGE_SIZE,
            category_coverage: CATEGORY_COVERAGE,
            observed_labels: None,
        }
    }

    /// Overrides the per-category sign-up probability (1.0 = every worker
    /// serves every category).
    pub fn with_category_coverage(mut self, coverage: f64) -> Self {
        assert!((0.0..=1.0).contains(&coverage), "coverage must be a probability");
        self.category_coverage = coverage;
        self
    }

    /// Whether a worker serves a category (a deterministic per-worker
    /// sign-up decision).
    pub fn serves(&self, worker_id: u64, category: &str) -> bool {
        self.signed_up(signup_key(category), worker_id)
    }

    /// [`serves`](Self::serves) with the category's key already folded.
    fn signed_up(&self, category_key: u64, worker_id: u64) -> bool {
        let key = mix(category_key, worker_id);
        ((key >> 11) as f64 / (1u64 << 53) as f64) < self.category_coverage
    }

    /// Overrides the result-page size (top-N cutoff).
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        self.page_size = page_size;
        self
    }

    /// Replaces the demographics the crawler observes with external labels
    /// (one per worker, in population order) — the paper's AMT
    /// majority-vote labels. Ranking still uses ground truth; only the
    /// emitted [`RankedWorker::assignment`]s change.
    ///
    /// # Panics
    ///
    /// Panics if the label count does not match the population size.
    pub fn with_observed_labels(mut self, labels: Vec<Demographic>) -> Self {
        assert_eq!(labels.len(), self.population.len(), "need exactly one label per worker");
        self.observed_labels = Some(labels);
        self
    }

    /// The demographic the crawler records for worker index `wi`.
    fn observed(&self, wi: usize) -> Demographic {
        match &self.observed_labels {
            Some(labels) => labels[wi],
            None => self.population.workers()[wi].demographic,
        }
    }

    /// The worker population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The bias profile in force.
    pub fn bias(&self) -> &BiasProfile {
        &self.bias
    }

    /// Runs one query: ranks the city's workers by score and returns the
    /// top page **as a crawler sees it** — ranks and demographics only,
    /// `score: None`, because live marketplaces do not expose `f_q^l`
    /// (§3.3.1). Relevance is therefore rank-derived downstream, exactly
    /// as in the paper.
    ///
    /// Returns `None` if the query is not offered in the city
    /// ([`jobs::offered`]).
    pub fn run_query(&self, query_idx: usize, city_idx: usize) -> Option<MarketRanking> {
        let page = self.rank(query_idx, city_idx)?;
        let workers = page
            .iter()
            .enumerate()
            .map(|(i, &(wi, _))| RankedWorker {
                assignment: self.observed(wi).assignment(),
                rank: i + 1,
                score: None,
            })
            .collect();
        Some(MarketRanking::new(workers))
    }

    /// Like [`run_query`](Self::run_query) but also returns the internal
    /// scores (for inspection and tests; a real crawler never sees these).
    pub fn run_query_with_scores(
        &self,
        query_idx: usize,
        city_idx: usize,
    ) -> Option<Vec<(u64, f64)>> {
        let page = self.rank(query_idx, city_idx)?;
        let workers = self.population.workers();
        Some(page.into_iter().map(|(wi, s)| (workers[wi].id, s)).collect())
    }

    /// The top page of one query as `(worker index, score)`, best first
    /// (ties by worker id), or `None` if the query is not offered in the
    /// city. Everything constant across the city's workers — the sign-up
    /// key, the noise seed, and the bias penalty of each of the six
    /// groups — is computed once per query.
    fn rank(&self, query_idx: usize, city_idx: usize) -> Option<Vec<(usize, f64)>> {
        if !jobs::offered(query_idx, city_idx) {
            return None;
        }
        let (_, _, query_name) =
            jobs::all_queries().nth(query_idx).expect("query index validated by jobs::offered");
        let category = jobs::category_of(query_idx).name;
        let location = crate::city::CITIES[city_idx].name;

        let category_key = signup_key(category);
        let noise_seed = mix_str(mix_str(self.seed, query_name), location);
        let mut penalty = [[0.0f64; 3]; 2];
        for gender in Gender::ALL {
            for ethnicity in Ethnicity::ALL {
                penalty[gender.value_id().0 as usize][ethnicity.value_id().0 as usize] = self
                    .bias
                    .penalty(Demographic { gender, ethnicity }, query_name, category, location);
            }
        }

        let workers = self.population.workers();
        let mut scored: Vec<(usize, f64)> = self
            .population
            .in_city(city_idx)
            .iter()
            .filter(|&&wi| self.signed_up(category_key, workers[wi].id))
            .map(|&wi| {
                let w = &workers[wi];
                let p = penalty[w.demographic.gender.value_id().0 as usize]
                    [w.demographic.ethnicity.value_id().0 as usize];
                (wi, self.scoring.score_with_penalty(w, p, noise_seed))
            })
            .collect();
        // Sort by score desc; ties by worker id for determinism.
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(workers[a.0].id.cmp(&workers[b.0].id)));
        scored.truncate(self.page_size);
        Some(scored)
    }
}

/// The category's sign-up key: every worker's sign-up decision for the
/// category derives from it.
fn signup_key(category: &str) -> u64 {
    mix_str(0x5E7_CA7, category)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marketplace(bias: BiasProfile) -> Marketplace {
        Marketplace::new(Population::paper(11), ScoringModel::default(), bias, 99)
    }

    #[test]
    fn returns_top_page() {
        let m = marketplace(BiasProfile::neutral());
        let r = m.run_query(0, 0).unwrap();
        // The active pool (workers serving the category) fits the page.
        let active = m
            .population()
            .in_city(0)
            .iter()
            .filter(|&&wi| m.serves(m.population().workers()[wi].id, "Handyman"))
            .count();
        assert_eq!(r.len(), PAGE_SIZE.min(active));
        assert!(r.len() < m.population().in_city(0).len(), "some workers opt out");
        // Ranks are 1..=N (validated by MarketRanking::new) and scores
        // hidden from the crawl.
        assert!(r.workers().iter().all(|w| w.score.is_none()));
    }

    #[test]
    fn category_coverage_is_deterministic_and_partial() {
        let m = marketplace(BiasProfile::neutral());
        let serving = (0..1000u64).filter(|&id| m.serves(id, "Handyman")).count();
        assert!((550..750).contains(&serving), "≈65 % sign-up, got {serving}/1000");
        assert_eq!(m.serves(7, "Handyman"), m.serves(7, "Handyman"));
        // Full coverage restores everyone.
        let full = marketplace(BiasProfile::neutral()).with_category_coverage(1.0);
        assert_eq!(
            full.run_query(0, 0).unwrap().len(),
            PAGE_SIZE.min(full.population().in_city(0).len())
        );
    }

    #[test]
    fn unoffered_query_returns_none() {
        // The last sub-query is not offered in the partial city (index 55).
        assert!(m_last().run_query(crate::jobs::N_QUERIES - 1, 55).is_none());
        assert!(m_last().run_query(crate::jobs::N_QUERIES - 1, 0).is_some());
    }

    fn m_last() -> Marketplace {
        marketplace(BiasProfile::neutral())
    }

    #[test]
    fn ranking_is_deterministic() {
        let m = marketplace(BiasProfile::neutral());
        let a = m.run_query(3, 10).unwrap();
        let b = m.run_query(3, 10).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rankings_vary_across_queries_and_cities() {
        let m = marketplace(BiasProfile::neutral());
        let a = m.run_query(3, 10).unwrap();
        let b = m.run_query(4, 10).unwrap();
        // Different noise stream → different order (same worker pool).
        assert_ne!(a, b);
    }

    #[test]
    fn bias_pushes_target_group_down() {
        let neutral = marketplace(BiasProfile::neutral());
        let biased = marketplace(BiasProfile::neutral().with_penalty(
            Gender::Female,
            Ethnicity::Asian,
            0.35,
        ));
        // Under bias, Asian Females appear less often in the top page and
        // those who do appear sit at worse (larger) ranks on average.
        let af = (crate::demographics::Demographic {
            gender: Gender::Female,
            ethnicity: Ethnicity::Asian,
        })
        .assignment();
        let collect = |m: &Marketplace| {
            let (mut sum, mut n) = (0.0f64, 0usize);
            for q in 0..8 {
                for city in 0..8 {
                    let r = m.run_query(q * 12, city).unwrap();
                    for w in r.workers() {
                        if w.assignment == af {
                            sum += w.rank as f64;
                            n += 1;
                        }
                    }
                }
            }
            (sum / n.max(1) as f64, n)
        };
        let (mean_neutral, n_neutral) = collect(&neutral);
        let (mean_biased, n_biased) = collect(&biased);
        assert!(n_neutral > 0, "asian females must appear in neutral pages");
        // Category sign-up keeps the ranked pool within the page, so the
        // group stays visible (that is the design — see CATEGORY_COVERAGE)
        // while its ranks degrade.
        assert!(
            n_biased <= n_neutral,
            "bias must not add members to the page: {n_biased} vs {n_neutral}"
        );
        assert!(
            mean_biased > mean_neutral + 5.0,
            "bias should clearly worsen the mean rank: {mean_biased} vs {mean_neutral}"
        );
    }

    #[test]
    fn page_size_override() {
        let m = marketplace(BiasProfile::neutral()).with_page_size(10);
        assert_eq!(m.run_query(0, 0).unwrap().len(), 10);
    }

    #[test]
    fn scores_view_matches_ranking_order() {
        let m = marketplace(BiasProfile::neutral());
        let ranking = m.run_query(5, 5).unwrap();
        let scores = m.run_query_with_scores(5, 5).unwrap();
        assert_eq!(ranking.len(), scores.len());
        for w in scores.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
