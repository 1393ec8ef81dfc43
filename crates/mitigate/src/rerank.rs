//! Whole-observation re-ranking drivers: one `(query, location)` cell at
//! a time, fanned out over [`fbox_par::par_map`] exactly like the cube
//! builds, merged in deterministic cell order. Output observations and
//! statistics are byte-identical at any `FBOX_THREADS`.

use crate::{ndcg, rerank_candidates, Candidate, Intervention};
use fbox_core::measures::{relevance_from_rank, DiscountModel};
use fbox_core::model::{full_groups, GroupLabel, LocationId, QueryId, Universe};
use fbox_core::observations::{
    MarketObservations, MarketRanking, RankedWorker, SearchObservations, UserList,
};
use std::collections::BTreeMap;

/// Tunables shared by every intervention.
#[derive(Debug, Clone, PartialEq)]
pub struct RerankConfig {
    /// FA\*IR significance level `α` (the probability a fair lottery
    /// still violates the minimum).
    pub alpha: f64,
    /// FA\*IR's protected group on the marketplace side, as a parsable
    /// label (e.g. `"gender=Female"`). Every full demographic class
    /// matching the label counts as protected.
    pub protected: String,
    /// Position-discount model for the exposure-optimal targets.
    pub discount: DiscountModel,
    /// Search side: relevance damping for postings a user never saw
    /// (their relevance is `damping × consensus`). Keeps unseen postings
    /// eligible without letting consensus drown out personal rankings.
    pub unseen_damping: f64,
}

impl Default for RerankConfig {
    fn default() -> Self {
        Self {
            alpha: 0.1,
            protected: "gender=Female".to_string(),
            discount: DiscountModel::NaturalLog,
            unseen_damping: 0.5,
        }
    }
}

/// Aggregate utility statistics of one re-ranking pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RerankStats {
    /// `(q, l)` cells processed.
    pub cells: usize,
    /// Ranked lists re-ordered (market: one per cell; search: one per
    /// user per cell).
    pub lists: usize,
    /// Mean NDCG of the re-ranked lists against their own gain pools.
    pub mean_ndcg: f64,
    /// Mean NDCG of the *original* lists against the same pools — the
    /// utility ceiling the intervention is traded against.
    pub baseline_ndcg: f64,
}

impl RerankStats {
    /// Utility given up by the intervention: `baseline − re-ranked` mean
    /// NDCG. Zero when the intervention never had to move anything.
    #[must_use]
    pub fn ndcg_loss(&self) -> f64 {
        self.baseline_ndcg - self.mean_ndcg
    }

    fn from_lists(cells: usize, pairs: &[(f64, f64)]) -> Self {
        let lists = pairs.len();
        let denom = if lists == 0 { 1.0 } else { lists as f64 };
        Self {
            cells,
            lists,
            mean_ndcg: pairs.iter().map(|&(n, _)| n).sum::<f64>() / denom,
            baseline_ndcg: pairs.iter().map(|&(_, b)| b).sum::<f64>() / denom,
        }
    }
}

/// A re-ranked marketplace: the new observations plus utility stats.
#[derive(Debug, Clone)]
pub struct MarketRerank {
    /// The intervened observations, ready for
    /// [`FBox::from_market`](fbox_core::FBox::from_market).
    pub observations: MarketObservations,
    /// Utility statistics of the pass.
    pub stats: RerankStats,
}

/// A re-ranked search log: the new observations plus utility stats.
#[derive(Debug, Clone)]
pub struct SearchRerank {
    /// The intervened observations, ready for
    /// [`FBox::from_search`](fbox_core::FBox::from_search).
    pub observations: SearchObservations,
    /// Utility statistics of the pass.
    pub stats: RerankStats,
}

/// Per-pass instrumentation, armed once before the fan-out (like the
/// cube builds' `CellTelemetry`) and shared by reference across workers.
struct RerankTelemetry {
    active: Option<RerankTelemetryInner>,
}

struct RerankTelemetryInner {
    cells: fbox_telemetry::Counter,
    candidates: fbox_telemetry::Counter,
    timings: fbox_telemetry::Histogram,
}

impl RerankTelemetry {
    fn new(platform: &str, intervention: Intervention) -> Self {
        let t = fbox_telemetry::global();
        if !t.enabled() {
            return Self { active: None };
        }
        Self {
            active: Some(RerankTelemetryInner {
                cells: t.counter("mitigate.cells_reranked"),
                candidates: t.counter("mitigate.candidates_ranked"),
                timings: t.histogram(&format!("mitigate.{platform}.{}", intervention.label())),
            }),
        }
    }

    fn cell(&self, candidates: u64) -> Option<fbox_telemetry::HistogramTimer> {
        let inner = self.active.as_ref()?;
        inner.cells.inc();
        inner.candidates.add(candidates);
        Some(inner.timings.timer())
    }

    fn finish(timer: Option<fbox_telemetry::HistogramTimer>) {
        if let Some(timer) = timer {
            timer.observe();
        }
    }
}

/// Opens the per-cell span of the re-ranking fan-out; nests under
/// the worker's `par.task` span like `cube.cell` does.
fn rerank_span(
    q: QueryId,
    l: LocationId,
    platform: &'static str,
    intervention: Intervention,
) -> fbox_telemetry::Span {
    fbox_telemetry::span_args("mitigate.rerank", |a| {
        a.u64("q", u64::from(q.0));
        a.u64("l", u64::from(l.0));
        a.str("platform", platform);
        a.str("intervention", intervention.label());
    })
}

/// Re-ranks every marketplace cell with one intervention.
///
/// Demographic classes are the schema's full groups (gender × ethnicity
/// for the paper's schema); FA\*IR's binary protected side is every class
/// matching `config.protected`. Re-ranked workers keep their assignments
/// *and* carry the relevance the re-ranker ranked on as their `score`: a
/// worker's merit does not change because the intervention moved her, and
/// re-deriving relevance from the post-intervention ranks would make the
/// evaluation circular — the measures would score the positions the
/// intervention chose against relevance computed *from those same
/// positions*, systematically penalizing any merit-proportional
/// allocation. One consequence is pinned in the experiment harness: the
/// EMD measure depends only on each group's relevance distribution, which
/// a re-ordering preserves, so EMD deltas are exactly zero — re-ranking
/// fixes exposure, not representation.
///
/// # Panics
///
/// Panics if `config.protected` does not parse against the universe's
/// schema, or a worker's assignment matches no full demographic group.
#[must_use = "the re-ranked observations are the entire point"]
pub fn rerank_market(
    universe: &Universe,
    observations: &MarketObservations,
    intervention: Intervention,
    config: &RerankConfig,
) -> MarketRerank {
    let _span = fbox_telemetry::span("mitigate.rerank_market");
    let telemetry = RerankTelemetry::new("market", intervention);

    let schema = universe.schema();
    let classes = full_groups(schema);
    let protected_label = GroupLabel::parse(schema, &config.protected)
        .expect("config.protected must parse against the study schema");
    let protected: Vec<bool> = classes
        .iter()
        .map(|class| {
            protected_label.predicates().iter().all(|&(a, v)| class.value_of(a) == Some(v))
        })
        .collect();

    let mut cell_data: Vec<((QueryId, LocationId), &MarketRanking)> =
        observations.cells().collect();
    cell_data.sort_unstable_by_key(|&((q, l), _)| (q.0, l.0));

    let reranked = fbox_par::par_map(&cell_data, |&((q, l), ranking)| {
        let _cell = rerank_span(q, l, "market", intervention);
        let timer = telemetry.cell(ranking.len() as u64);
        let out = rerank_one_market_cell(ranking, &classes, &protected, intervention, config);
        RerankTelemetry::finish(timer);
        out
    });

    let mut out = MarketObservations::new();
    let mut pairs = Vec::with_capacity(reranked.len());
    for (&((q, l), _), (ranking, scores)) in cell_data.iter().zip(reranked) {
        out.insert(q, l, ranking);
        if let Some(scores) = scores {
            pairs.push(scores);
        }
    }
    MarketRerank { observations: out, stats: RerankStats::from_lists(cell_data.len(), &pairs) }
}

/// Re-ranks one marketplace cell, returning the new ranking and, for
/// non-empty cells, the `(re-ranked, baseline)` NDCG pair.
fn rerank_one_market_cell(
    ranking: &MarketRanking,
    classes: &[GroupLabel],
    protected: &[bool],
    intervention: Intervention,
    config: &RerankConfig,
) -> (MarketRanking, Option<(f64, f64)>) {
    let workers = ranking.workers();
    if workers.is_empty() {
        return (ranking.clone(), None);
    }
    let cands: Vec<Candidate> = workers
        .iter()
        .enumerate()
        .map(|(i, w)| Candidate {
            index: i,
            class: classes
                .iter()
                .position(|class| class.matches(&w.assignment))
                .expect("a full assignment matches exactly one full demographic group"),
            relevance: ranking.relevance(i),
        })
        .collect();
    let order = rerank_candidates(&cands, classes.len(), protected, intervention, config);
    let gains: Vec<f64> = (0..workers.len()).map(|i| ranking.relevance(i)).collect();
    let reranked_ndcg = ndcg::ndcg_of_permutation(&gains, &order);
    let identity: Vec<usize> = (0..workers.len()).collect();
    let baseline_ndcg = ndcg::ndcg_of_permutation(&gains, &identity);
    let new_ranking = MarketRanking::new(
        order
            .iter()
            .enumerate()
            .map(|(pos, &i)| RankedWorker {
                assignment: workers[i].assignment.clone(),
                rank: pos + 1,
                score: Some(gains[i]),
            })
            .collect(),
    );
    (new_ranking, Some((reranked_ndcg, baseline_ndcg)))
}

/// Re-ranks every search cell with one intervention.
///
/// The search side has no global worker list — each user sees their own
/// ranking of job postings — so the intervention operates on the cell's
/// *candidate pool*: the union of every user's results, scored by
/// consensus relevance (the mean over users of the rank-derived
/// relevance, zero where unseen). The pool's bottom half by consensus is
/// the protected class: the postings the platform systematically
/// under-serves. Each user's list is then re-ranked over the whole pool
/// — personal relevance where the user saw the posting,
/// `config.unseen_damping × consensus` otherwise — and truncated back to
/// its original length.
///
/// Because every user's re-ranking is constrained by the *same* shared
/// classes and targets, the intervention homogenizes lists across users,
/// which is what the Kendall/Jaccard measures (§3.2) reward.
#[must_use = "the re-ranked observations are the entire point"]
pub fn rerank_search(
    universe: &Universe,
    observations: &SearchObservations,
    intervention: Intervention,
    config: &RerankConfig,
) -> SearchRerank {
    let _span = fbox_telemetry::span("mitigate.rerank_search");
    let _ = universe; // signature symmetry with `rerank_market`
    let telemetry = RerankTelemetry::new("search", intervention);

    let mut cell_data: Vec<((QueryId, LocationId), &[UserList])> = observations.cells().collect();
    cell_data.sort_unstable_by_key(|&((q, l), _)| (q.0, l.0));

    let reranked = fbox_par::par_map(&cell_data, |&((q, l), lists)| {
        let _cell = rerank_span(q, l, "search", intervention);
        let n_candidates: usize = lists.iter().map(|u| u.results.len()).sum();
        let timer = telemetry.cell(n_candidates as u64);
        let out = rerank_one_search_cell(lists, intervention, config);
        RerankTelemetry::finish(timer);
        out
    });

    let mut out = SearchObservations::new();
    let mut pairs = Vec::new();
    let mut cells = 0usize;
    for (&((q, l), _), (lists, cell_pairs)) in cell_data.iter().zip(reranked) {
        cells += 1;
        for list in lists {
            out.push(q, l, list);
        }
        pairs.extend(cell_pairs);
    }
    SearchRerank { observations: out, stats: RerankStats::from_lists(cells, &pairs) }
}

/// Re-ranks one search cell: all user lists against the shared candidate
/// pool. Returns the new lists (user order preserved) and one
/// `(re-ranked, baseline)` NDCG pair per non-empty list.
fn rerank_one_search_cell(
    lists: &[UserList],
    intervention: Intervention,
    config: &RerankConfig,
) -> (Vec<UserList>, Vec<(f64, f64)>) {
    // Consensus relevance: mean over users of rank-derived relevance,
    // contributing zero where a user never saw the posting.
    let mut consensus: BTreeMap<u64, f64> = BTreeMap::new();
    for list in lists {
        let k = list.results.len();
        if k == 0 {
            continue;
        }
        for (i, &id) in list.results.iter().enumerate() {
            // `i < k` by construction; the clamp keeps the 1-based rank
            // visibly inside `1..=k` on every path.
            let rank = (i + 1).min(k);
            debug_assert!(rank >= 1 && rank <= k, "rank must be 1-based within the page");
            *consensus.entry(id).or_insert(0.0) += relevance_from_rank(rank, k);
        }
    }
    let n_users = lists.len();
    if n_users > 0 {
        for v in consensus.values_mut() {
            *v /= n_users as f64;
        }
    }

    // Pool order: consensus desc, posting id asc — the shared identity
    // axis every user's re-ranking works over.
    let mut pool: Vec<(u64, f64)> = consensus.iter().map(|(&id, &r)| (id, r)).collect();
    pool.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let n_pool = pool.len();
    // Bottom half by consensus = the protected class (the postings the
    // platform under-serves); `div_ceil` keeps the split stable for odd
    // pools and leaves a singleton pool entirely unprotected.
    let split = n_pool.div_ceil(2);
    let class_of: Vec<usize> = (0..n_pool).map(|i| usize::from(i >= split)).collect();

    let mut new_lists = Vec::with_capacity(lists.len());
    let mut pairs = Vec::new();
    for list in lists {
        let k = list.results.len();
        if k == 0 || n_pool == 0 {
            new_lists.push(list.clone());
            continue;
        }
        let personal: BTreeMap<u64, f64> = list
            .results
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, relevance_from_rank(i + 1, k)))
            .collect();
        let cands: Vec<Candidate> = pool
            .iter()
            .enumerate()
            .map(|(i, &(id, cons))| Candidate {
                index: i,
                class: class_of[i],
                relevance: personal.get(&id).copied().unwrap_or(config.unseen_damping * cons),
            })
            .collect();
        let order = rerank_candidates(&cands, 2, &[false, true], intervention, config);
        let gains: Vec<f64> = cands.iter().map(|c| c.relevance).collect();
        let new_gains: Vec<f64> = order.iter().take(k).map(|&i| gains[i]).collect();
        let original_gains: Vec<f64> = list.results.iter().map(|id| personal[id]).collect();
        pairs.push((ndcg::ndcg(&new_gains, &gains), ndcg::ndcg(&original_gains, &gains)));
        new_lists.push(UserList {
            assignment: list.assignment.clone(),
            results: order.iter().take(k).map(|&i| pool[i].0).collect(),
        });
    }
    (new_lists, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbox_core::model::Schema;
    use fbox_core::model::ValueId;

    /// Universe over the paper's gender × ethnicity schema with one query
    /// and one location.
    fn toy_universe() -> (Universe, QueryId, LocationId) {
        let mut u = Universe::with_all_groups(Schema::gender_ethnicity());
        let q = u.add_query("Moving Assistance", None);
        let l = u.add_location("Chicago, IL", None);
        (u, q, l)
    }

    /// A ranking whose bottom half is entirely female: maximal headroom
    /// for every intervention to move something.
    fn skewed_ranking(n: usize) -> MarketRanking {
        MarketRanking::new(
            (0..n)
                .map(|i| RankedWorker {
                    // gender_ethnicity order: Male = 0, Female = 1 —
                    // bottom half Female, round-robin ethnicity.
                    assignment: vec![ValueId(u16::from(i >= n / 2)), ValueId((i % 3) as u16)],
                    rank: i + 1,
                    score: None,
                })
                .collect(),
        )
    }

    #[test]
    fn market_rerank_is_a_permutation_preserving_cells() {
        let (u, q, l) = toy_universe();
        let mut obs = MarketObservations::new();
        obs.insert(q, l, skewed_ranking(10));
        for iv in Intervention::ALL {
            let r = rerank_market(&u, &obs, iv, &RerankConfig::default());
            assert_eq!(r.observations.n_cells(), 1);
            let new = r.observations.get(q, l).expect("cell preserved");
            assert_eq!(new.len(), 10);
            // Same multiset of assignments and contiguous ranks; every
            // worker carries her original relevance as the score.
            let source = obs.get(q, l).expect("source cell");
            let mut old_assignments: Vec<_> =
                source.workers().iter().map(|w| w.assignment.clone()).collect();
            let mut new_assignments: Vec<_> =
                new.workers().iter().map(|w| w.assignment.clone()).collect();
            old_assignments.sort();
            new_assignments.sort();
            assert_eq!(old_assignments, new_assignments, "{iv}");
            let mut old_rel: Vec<f64> = (0..source.len()).map(|i| source.relevance(i)).collect();
            let mut new_scores: Vec<f64> = new
                .workers()
                .iter()
                .map(|w| w.score.expect("re-ranked workers carry their relevance"))
                .collect();
            old_rel.sort_by(f64::total_cmp);
            new_scores.sort_by(f64::total_cmp);
            assert_eq!(old_rel, new_scores, "{iv}: relevance multiset preserved");
            assert_eq!(r.stats.cells, 1);
            assert_eq!(r.stats.lists, 1);
            assert!((0.0..=1.0 + 1e-12).contains(&r.stats.mean_ndcg), "{iv}");
            assert!((r.stats.baseline_ndcg - 1.0).abs() < 1e-12, "original order is ideal");
            assert!(r.stats.ndcg_loss() >= -1e-12, "{iv}");
        }
    }

    #[test]
    fn market_rerank_empty_cell_passes_through() {
        let (u, q, l) = toy_universe();
        let mut obs = MarketObservations::new();
        obs.insert(q, l, MarketRanking::new(vec![]));
        let r = rerank_market(&u, &obs, Intervention::DetGreedy, &RerankConfig::default());
        assert!(r.observations.get(q, l).expect("cell preserved").is_empty());
        assert_eq!(r.stats.lists, 0);
    }

    #[test]
    fn search_rerank_preserves_list_shape_and_users() {
        let (u, q, l) = toy_universe();
        let mut obs = SearchObservations::new();
        // Three users, disjoint tails: plenty of pool to homogenize.
        obs.push(
            q,
            l,
            UserList { assignment: vec![ValueId(0), ValueId(0)], results: vec![1, 2, 3, 4] },
        );
        obs.push(
            q,
            l,
            UserList { assignment: vec![ValueId(1), ValueId(1)], results: vec![1, 2, 5, 6] },
        );
        obs.push(
            q,
            l,
            UserList { assignment: vec![ValueId(0), ValueId(2)], results: vec![7, 2, 1, 8] },
        );
        for iv in Intervention::ALL {
            let r = rerank_search(&u, &obs, iv, &RerankConfig::default());
            let lists = r.observations.get(q, l).expect("cell preserved");
            assert_eq!(lists.len(), 3, "{iv}");
            for (old, new) in obs.get(q, l).expect("source").iter().zip(lists) {
                assert_eq!(old.assignment, new.assignment, "{iv}");
                assert_eq!(old.results.len(), new.results.len(), "{iv}");
                // No duplicates in the re-ranked list.
                let mut seen = new.results.clone();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), new.results.len(), "{iv}");
            }
            assert_eq!(r.stats.lists, 3);
            assert!(r.stats.mean_ndcg > 0.0, "{iv}");
        }
    }

    #[test]
    fn identical_lists_stay_identical() {
        // If every user already sees the same list, the intervention has
        // one shared pool and must keep the lists equal to each other.
        let (u, q, l) = toy_universe();
        let mut obs = SearchObservations::new();
        for g in 0..2u16 {
            obs.push(
                q,
                l,
                UserList { assignment: vec![ValueId(g), ValueId(0)], results: vec![10, 20, 30] },
            );
        }
        for iv in Intervention::ALL {
            let r = rerank_search(&u, &obs, iv, &RerankConfig::default());
            let lists = r.observations.get(q, l).expect("cell preserved");
            assert_eq!(lists[0].results, lists[1].results, "{iv}");
        }
    }

    #[test]
    fn rerank_is_thread_count_invariant() {
        let (u, _q, _l) = toy_universe();
        let mut market = MarketObservations::new();
        let mut search = SearchObservations::new();
        // Several cells so the fan-out actually shards.
        let mut u2 = u.clone();
        let qs: Vec<QueryId> = (0..3).map(|i| u2.add_query(format!("q{i}"), None)).collect();
        let ls: Vec<LocationId> = (0..2).map(|i| u2.add_location(format!("l{i}"), None)).collect();
        for (qi, &qq) in qs.iter().enumerate() {
            for (li, &ll) in ls.iter().enumerate() {
                market.insert(qq, ll, skewed_ranking(8 + qi + li));
                for g in 0..3u16 {
                    search.push(
                        qq,
                        ll,
                        UserList {
                            assignment: vec![ValueId(g % 2), ValueId(g % 3)],
                            results: (0..6)
                                .map(|r| (qi * 100 + li * 10 + ((r + g as usize) % 8)) as u64)
                                .collect(),
                        },
                    );
                }
            }
        }
        for iv in [Intervention::FaStarIr, Intervention::ExposureOptimal] {
            let serial = fbox_par::with_threads(1, || {
                (
                    rerank_market(&u2, &market, iv, &RerankConfig::default()),
                    rerank_search(&u2, &search, iv, &RerankConfig::default()),
                )
            });
            let wide = fbox_par::with_threads(8, || {
                (
                    rerank_market(&u2, &market, iv, &RerankConfig::default()),
                    rerank_search(&u2, &search, iv, &RerankConfig::default()),
                )
            });
            let collect_m = |o: &MarketObservations| -> Vec<_> {
                o.cells().map(|((q, l), r)| ((q, l), r.clone())).collect()
            };
            let collect_s = |o: &SearchObservations| -> Vec<_> {
                o.cells().map(|((q, l), v)| ((q, l), v.to_vec())).collect()
            };
            assert_eq!(collect_m(&serial.0.observations), collect_m(&wide.0.observations), "{iv}");
            assert_eq!(collect_s(&serial.1.observations), collect_s(&wide.1.observations), "{iv}");
            assert_eq!(serial.0.stats, wide.0.stats, "{iv}");
            assert_eq!(serial.1.stats, wide.1.stats, "{iv}");
        }
    }

    #[test]
    #[should_panic(expected = "must parse")]
    fn bad_protected_label_is_rejected() {
        let (u, q, l) = toy_universe();
        let mut obs = MarketObservations::new();
        obs.insert(q, l, skewed_ranking(4));
        let config = RerankConfig { protected: "species=Ferret".into(), ..Default::default() };
        let _ = rerank_market(&u, &obs, Intervention::FaStarIr, &config);
    }
}
