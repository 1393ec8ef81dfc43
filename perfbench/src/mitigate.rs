//! `mitigate`: fairness re-ranking served one result page per request.
//! One op re-ranks one `(q, l)` page with one of the five interventions,
//! through `rerank_market` or `rerank_search` on a one-cell observation
//! set. Set-up is `marketplace::attach_platform_scores`.

use crate::metrics::Values;
use crate::rng::{Digest, Rng};
use crate::trace::Tracer;
use crate::workload::{self, put_percentile, Workload};
use fbox_core::observations::{MarketObservations, MarketRanking, SearchObservations, UserList};
use fbox_core::{LocationId, QueryId, Universe};
use fbox_marketplace::{attach_platform_scores, crawl, Marketplace};
use fbox_mitigate::{rerank_market, rerank_search, Intervention, RerankConfig};
use fbox_repro::calibrate;
use fbox_search::run_study;
use std::collections::BTreeSet;
use std::path::Path;

/// Span names, by platform (market, search) and `Intervention::ALL` order.
const SPANS: [[&str; 5]; 2] = [
    [
        "mitigate.market.fair",
        "mitigate.market.det-greedy",
        "mitigate.market.det-cons",
        "mitigate.market.det-relaxed",
        "mitigate.market.exposure-opt",
    ],
    [
        "mitigate.search.fair",
        "mitigate.search.det-greedy",
        "mitigate.search.det-cons",
        "mitigate.search.det-relaxed",
        "mitigate.search.exposure-opt",
    ],
];

/// Draws `(platform, page, intervention)` triples from a seed: a page
/// uniformly over the market and search pages together, so each platform
/// is served in proportion to its page count, and an intervention
/// uniformly.
#[derive(Debug, Clone)]
pub struct Planner {
    rng: Rng,
    pages: [usize; 2],
}

impl Planner {
    pub fn new(seed: u64, market_pages: usize, search_pages: usize) -> Self {
        Self { rng: Rng::new(seed ^ 0x3A7E_0B1D), pages: [market_pages, search_pages] }
    }

    /// `(platform, page, intervention index)`; platform 0 is the market.
    pub fn next_page(&mut self) -> (usize, usize, usize) {
        let page = self.rng.below(self.pages[0] + self.pages[1]);
        let (platform, page) =
            if page < self.pages[0] { (0, page) } else { (1, page - self.pages[0]) };
        (platform, page, self.rng.below(Intervention::ALL.len()))
    }

    /// Digest of the first `n` draws: equal seeds give equal digests.
    #[cfg(test)]
    pub fn digest(mut self, n: usize) -> u64 {
        let mut d = Digest::default();
        for _ in 0..n {
            let (p, page, iv) = self.next_page();
            d.u64(p as u64).u64(page as u64).u64(iv as u64);
        }
        d.finish()
    }
}

pub struct Input {
    marketplace: Marketplace,
    market: (Universe, MarketObservations),
    search: (Universe, SearchObservations),
    seed: u64,
}

pub struct Mitigate {
    market_universe: Universe,
    scored: MarketObservations,
    search_universe: Universe,
    search: SearchObservations,
    cells: [Vec<(QueryId, LocationId)>; 2],
    planner: Planner,
    config: RerankConfig,
    /// Output digest of every `(platform, page, intervention)`,
    /// `u64::MAX` until first served; written in full up front so memory
    /// does not grow with the run.
    served: Vec<u64>,
}

/// One request: a page as a one-cell observation set.
pub struct Page {
    key: (usize, usize, usize),
    cell: (QueryId, LocationId),
    obs: PageObs,
}

pub enum PageObs {
    Market(MarketObservations),
    Search(SearchObservations),
}

fn sorted_cells<T>(
    cells: impl Iterator<Item = ((QueryId, LocationId), T)>,
) -> Vec<(QueryId, LocationId)> {
    let mut v: Vec<_> = cells.map(|(c, _)| c).collect();
    v.sort_unstable_by_key(|&(q, l)| (q.0, l.0));
    v
}

impl Workload for Mitigate {
    type Input = Input;
    type Request = Page;
    type Output = PageObs;

    fn prepare(seed: u64, _dir: &Path) -> Input {
        let marketplace = workload::marketplace(calibrate::SEED);
        let (mu, mobs, _) = crawl(&marketplace);
        let (engine, design, runner) = workload::study();
        let (su, sobs, _) = run_study(&design, &engine, &runner);
        Input { marketplace, market: (mu, mobs), search: (su, sobs), seed }
    }

    fn setup(input: Input, tr: &mut Tracer) -> Self {
        let (mu, mobs) = input.market;
        let scored = tr.span("marketplace.attach_scores", || {
            attach_platform_scores(&input.marketplace, &mu, &mobs)
        });
        let (su, sobs) = input.search;
        let cells = [sorted_cells(scored.cells()), sorted_cells(sobs.cells())];
        let planner = Planner::new(input.seed, cells[0].len(), cells[1].len());
        let served = vec![u64::MAX; (cells[0].len() + cells[1].len()) * Intervention::ALL.len()];
        Self {
            market_universe: mu,
            scored,
            search_universe: su,
            search: sobs,
            cells,
            planner,
            config: RerankConfig::default(),
            served,
        }
    }

    fn request(&mut self, _i: u64) -> Page {
        let key @ (platform, page, _) = self.planner.next_page();
        let (q, l) = self.cells[platform][page];
        let obs = if platform == 0 {
            let mut o = MarketObservations::new();
            o.insert(q, l, self.scored.get(q, l).expect("listed cell").clone());
            PageObs::Market(o)
        } else {
            let mut o = SearchObservations::new();
            for list in self.search.get(q, l).expect("listed cell") {
                o.push(q, l, list.clone());
            }
            PageObs::Search(o)
        };
        Page { key, cell: (q, l), obs }
    }

    fn op(&mut self, page: &Page, tr: &mut Tracer) -> PageObs {
        let (platform, _, iv) = page.key;
        let intervention = Intervention::ALL[iv];
        let span = SPANS[platform][iv];
        match &page.obs {
            PageObs::Market(o) => PageObs::Market(tr.span(span, || {
                rerank_market(&self.market_universe, o, intervention, &self.config).observations
            })),
            PageObs::Search(o) => PageObs::Search(tr.span(span, || {
                rerank_search(&self.search_universe, o, intervention, &self.config).observations
            })),
        }
    }

    fn check(&mut self, page: &Page, out: PageObs) -> bool {
        let (q, l) = page.cell;
        let digest = match (&page.obs, &out) {
            (PageObs::Market(input), PageObs::Market(output)) => {
                match (input.get(q, l), output.get(q, l)) {
                    (Some(a), Some(b)) if output.n_cells() == 1 => market_permutation(a, b),
                    _ => None,
                }
            }
            (PageObs::Search(input), PageObs::Search(output)) => {
                match (input.get(q, l), output.get(q, l)) {
                    (Some(a), Some(b)) if output.n_cells() == 1 => search_permutation(a, b),
                    _ => None,
                }
            }
            _ => None,
        };
        let Some(digest) = digest else { return false };
        let (platform, index, iv) = page.key;
        let page_no = if platform == 0 { index } else { self.cells[0].len() + index };
        let slot = &mut self.served[page_no * Intervention::ALL.len() + iv];
        if *slot == u64::MAX {
            *slot = digest;
        }
        *slot == digest
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Values) {
        for (spans, metrics) in SPANS.iter().zip(METRICS) {
            for (span, metric) in spans.iter().zip(metrics) {
                put_percentile(tr, span, 50.0, metric, out);
            }
        }
    }
}

const METRICS: [[&str; 5]; 2] = [
    [
        "mitigate.market.fair_us.p50",
        "mitigate.market.det-greedy_us.p50",
        "mitigate.market.det-cons_us.p50",
        "mitigate.market.det-relaxed_us.p50",
        "mitigate.market.exposure-opt_us.p50",
    ],
    [
        "mitigate.search.fair_us.p50",
        "mitigate.search.det-greedy_us.p50",
        "mitigate.search.det-cons_us.p50",
        "mitigate.search.det-relaxed_us.p50",
        "mitigate.search.exposure-opt_us.p50",
    ],
];

/// The re-ranked page holds the same workers, ranked 1..n; returns the
/// output's digest, or `None` if it is not a permutation.
fn market_permutation(input: &MarketRanking, output: &MarketRanking) -> Option<u64> {
    let workers = |r: &MarketRanking| {
        let mut v: Vec<_> = r.workers().iter().map(|w| w.assignment.clone()).collect();
        v.sort();
        v
    };
    let ranks_ok = output.workers().iter().enumerate().all(|(i, w)| w.rank == i + 1);
    if !ranks_ok || workers(input) != workers(output) {
        return None;
    }
    let mut d = Digest::default();
    for w in output.workers() {
        for v in &w.assignment {
            d.u64(u64::from(v.0));
        }
        d.u64(w.rank as u64).f64(w.score.unwrap_or(f64::NAN));
    }
    Some(d.finish())
}

/// Every user keeps their list length, and each re-ranked list is a
/// selection without repeats from the cell's candidate pool (the union
/// of the users' results); returns the output's digest.
fn search_permutation(input: &[UserList], output: &[UserList]) -> Option<u64> {
    let pool: BTreeSet<u64> = input.iter().flat_map(|u| u.results.iter().copied()).collect();
    let ok = input.len() == output.len()
        && input.iter().zip(output).all(|(a, b)| {
            let distinct: BTreeSet<u64> = b.results.iter().copied().collect();
            a.assignment == b.assignment
                && a.results.len() == b.results.len()
                && distinct.len() == b.results.len()
                && distinct.is_subset(&pool)
        });
    if !ok {
        return None;
    }
    let mut d = Digest::default();
    for u in output {
        for &r in &u.results {
            d.u64(r);
        }
        d.u64(u64::MAX);
    }
    Some(d.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_page_sequence() {
        let a = Planner::new(5, 4_000, 220).digest(10_000);
        assert_eq!(a, Planner::new(5, 4_000, 220).digest(10_000));
        assert_ne!(a, Planner::new(6, 4_000, 220).digest(10_000));
    }

    /// Each platform is served in proportion to its page count.
    #[test]
    fn platforms_are_drawn_by_page_count() {
        let mut p = Planner::new(1, 5_376, 220);
        let search = (0..100_000).filter(|_| p.next_page().0 == 1).count();
        assert!((3_500..4_400).contains(&search), "{search} search pages in 100 000");
    }

    #[test]
    fn a_page_that_drops_a_worker_fails_the_check() {
        use fbox_core::model::ValueId;
        use fbox_core::observations::RankedWorker;
        let w = |a: u16, rank| RankedWorker { assignment: vec![ValueId(a)], rank, score: None };
        let input = MarketRanking::new(vec![w(0, 1), w(1, 2)]);
        let swapped = MarketRanking::new(vec![w(1, 1), w(0, 2)]);
        let dropped = MarketRanking::new(vec![w(1, 1), w(1, 2)]);
        assert!(market_permutation(&input, &swapped).is_some());
        assert_eq!(market_permutation(&input, &dropped), None);
    }
}
