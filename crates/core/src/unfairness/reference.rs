//! Reference oracles: the per-`(cell, group)` definitions of Eq. 1/2 and
//! §3.3.2, written as directly as the paper states them, with no work
//! shared across groups or cells.
//!
//! Nothing in the library calls these. They are what the shared-work
//! evaluators ([`SearchCellEval`](super::SearchCellEval),
//! [`MarketCellEval`](super::MarketCellEval)) and every cube build are
//! tested bit-for-bit against, and the serial baselines `fbox-bench`
//! times the evaluators against (`cube.build.serial`, `store.rebuild`).

use super::{average, MarketMeasure, SearchMeasure};
use crate::cube::UnfairnessCube;
use crate::measures::{self, exposure_unfairness, BinConfig, DiscountModel, Histogram};
use crate::model::{GroupId, Universe};
use crate::observations::{MarketObservations, MarketRanking, SearchObservations, UserList};

/// The search cube by a plain serial double loop over
/// [`search_cell_unfairness`]: every observed `(q, l)` cell, every group.
pub fn search_cube(
    universe: &Universe,
    observations: &SearchObservations,
    measure: SearchMeasure,
) -> UnfairnessCube {
    let mut cube = UnfairnessCube::empty(universe);
    for ((q, l), lists) in observations.cells() {
        for g in universe.group_ids() {
            cube.set_opt(g, q, l, search_cell_unfairness(universe, lists, g, measure));
        }
    }
    cube
}

/// The marketplace cube by a plain serial double loop over
/// [`market_cell_unfairness`] — see [`search_cube`].
pub fn market_cube(
    universe: &Universe,
    observations: &MarketObservations,
    measure: MarketMeasure,
) -> UnfairnessCube {
    let mut cube = UnfairnessCube::empty(universe);
    for ((q, l), ranking) in observations.cells() {
        for g in universe.group_ids() {
            cube.set_opt(g, q, l, market_cell_unfairness(universe, ranking, g, measure));
        }
    }
    cube
}

/// Search-engine unfairness `d⟨g,q,l⟩` (Eq. 1): for each comparable group
/// `g'`, average the list distance over all user pairs `(u ∈ g, u' ∈ g')`,
/// then average over comparable groups.
///
/// Returns `None` when `g` has no users in the sample or no comparable
/// group does.
pub fn search_cell_unfairness(
    universe: &Universe,
    lists: &[UserList],
    g: GroupId,
    measure: SearchMeasure,
) -> Option<f64> {
    let g_label = universe.group(g);
    let members: Vec<&UserList> = lists.iter().filter(|u| g_label.matches(&u.assignment)).collect();
    if members.is_empty() {
        return None;
    }

    let mut per_group = Vec::new();
    for g_cmp in universe.comparable_group_ids(g) {
        let cmp_label = universe.group(g_cmp);
        let others: Vec<&UserList> =
            lists.iter().filter(|u| cmp_label.matches(&u.assignment)).collect();
        if others.is_empty() {
            continue;
        }
        let mut sum = 0.0;
        let mut n = 0usize;
        for u in &members {
            for v in &others {
                sum += measure.distance(&u.results, &v.results);
                n += 1;
            }
        }
        if n == 0 {
            continue; // no member pairs: skip rather than average a NaN
        }
        per_group.push(sum / n as f64);
    }
    average(&per_group)
}

/// Marketplace unfairness `d⟨g,q,l⟩` for one crawled ranking.
///
/// - [`MarketMeasure::Emd`] (Eq. 2): normalized EMD between the relevance
///   histogram of `g` and each comparable group's, averaged.
/// - [`MarketMeasure::Exposure`] (§3.3.2): deviation between `g`'s exposure
///   share and relevance share over the pool `g ∪ comparables(g)`.
///
/// Returns `None` when `g` has no workers in the ranking or no comparable
/// group does.
pub fn market_cell_unfairness(
    universe: &Universe,
    ranking: &MarketRanking,
    g: GroupId,
    measure: MarketMeasure,
) -> Option<f64> {
    match measure {
        MarketMeasure::Emd { bins } => market_emd(universe, ranking, g, bins),
        MarketMeasure::Exposure { model } => market_exposure(universe, ranking, g, model),
    }
}

fn market_emd(
    universe: &Universe,
    ranking: &MarketRanking,
    g: GroupId,
    bins: usize,
) -> Option<f64> {
    let cfg = BinConfig::unit(bins);
    let g_hist = group_histogram(universe, ranking, g, cfg);
    if g_hist.is_empty() {
        return None;
    }
    let mut dists = Vec::new();
    for g_cmp in universe.comparable_group_ids(g) {
        let h = group_histogram(universe, ranking, g_cmp, cfg);
        if let Some(d) = measures::emd_1d_normalized(&g_hist, &h) {
            dists.push(d);
        }
    }
    average(&dists)
}

fn group_histogram(
    universe: &Universe,
    ranking: &MarketRanking,
    g: GroupId,
    cfg: BinConfig,
) -> Histogram {
    let label = universe.group(g);
    let mut h = Histogram::empty(cfg);
    for (i, w) in ranking.workers().iter().enumerate() {
        if label.matches(&w.assignment) {
            h.add(ranking.relevance(i));
        }
    }
    h
}

fn market_exposure(
    universe: &Universe,
    ranking: &MarketRanking,
    g: GroupId,
    model: DiscountModel,
) -> Option<f64> {
    let g_label = universe.group(g);
    let comparables: Vec<_> =
        universe.comparable_group_ids(g).into_iter().map(|c| universe.group(c).clone()).collect();
    if comparables.is_empty() {
        return None;
    }

    let (mut g_exp, mut g_rel) = (0.0f64, 0.0f64);
    let (mut pool_exp, mut pool_rel) = (0.0f64, 0.0f64);
    let mut g_seen = false;
    let mut cmp_seen = false;
    for (i, w) in ranking.workers().iter().enumerate() {
        let in_g = g_label.matches(&w.assignment);
        let in_cmp = comparables.iter().any(|c| c.matches(&w.assignment));
        if !in_g && !in_cmp {
            continue;
        }
        let exp = model.exposure(w.rank);
        let rel = ranking.relevance(i);
        pool_exp += exp;
        pool_rel += rel;
        if in_g {
            g_exp += exp;
            g_rel += rel;
            g_seen = true;
        }
        if in_cmp {
            cmp_seen = true;
        }
    }
    if !g_seen || !cmp_seen {
        return None;
    }
    exposure_unfairness(g_exp, pool_exp, g_rel, pool_rel)
}
