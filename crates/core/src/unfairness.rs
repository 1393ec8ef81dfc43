//! The unfairness value `d⟨g,q,l⟩` for one cell, for both site types
//! (paper §3.2–3.3).
//!
//! Both measures follow Eq. 1/2: contrast group `g` against each of its
//! *comparable groups* and average. Cells where `g` or every comparable
//! group lacks data yield `None` — unfairness against nobody is undefined,
//! and the aggregation layer treats such cells as missing.
//!
//! A [`CellMeasure`] hands out the shared-work evaluator of one `(q, l)`
//! cell ([`SearchCellEval`], [`MarketCellEval`]); every F-Box cube build
//! and cell update goes through it. The per-group definitions the
//! evaluators must match bit for bit live in [`reference`].

pub mod reference;

use crate::measures::{self, exposure_unfairness, BinConfig, DiscountModel, Histogram};
use crate::model::{GroupId, Universe};
use crate::observations::{MarketRanking, UserList};
use serde::{Deserialize, Serialize};

/// List-distance choice for search-engine unfairness (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SearchMeasure {
    /// Fagin `K^(p)` Kendall-Tau distance between top-k lists.
    KendallTopK {
        /// Penalty for pairs whose relative order is unknowable; the
        /// framework defaults to the neutral `0.5`.
        penalty: f64,
    },
    /// Jaccard distance (1 − Jaccard index) between result sets.
    JaccardDistance,
}

impl SearchMeasure {
    /// The default Kendall variant (`p = 0.5`).
    pub fn kendall() -> Self {
        SearchMeasure::KendallTopK { penalty: 0.5 }
    }

    /// Distance between two users' result lists.
    pub fn distance(&self, a: &[u64], b: &[u64]) -> f64 {
        match *self {
            SearchMeasure::KendallTopK { penalty } => {
                assert!(
                    penalty.is_finite() && (0.0..=1.0).contains(&penalty),
                    "kendall penalty {penalty} out of [0,1]"
                );
                measures::kendall::top_k_distance(a, b, penalty)
            }
            SearchMeasure::JaccardDistance => measures::jaccard::distance(a, b),
        }
    }
}

/// Distribution-distance choice for marketplace unfairness (Eq. 2 /
/// §3.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MarketMeasure {
    /// Earth Mover's Distance between relevance histograms, normalized to
    /// `[0, 1]`.
    Emd {
        /// Number of histogram bins over the `[0, 1]` relevance range.
        bins: usize,
    },
    /// Exposure-vs-relevance share deviation.
    Exposure {
        /// Position-discount model (the paper uses natural log).
        model: DiscountModel,
    },
}

impl MarketMeasure {
    /// The paper's EMD configuration: ten bins over `[0, 1]`.
    pub fn emd() -> Self {
        MarketMeasure::Emd { bins: 10 }
    }

    /// The paper's exposure configuration: natural-log discount.
    pub fn exposure() -> Self {
        MarketMeasure::Exposure { model: DiscountModel::NaturalLog }
    }
}

/// A cell measure the F-Box fills its cube with: names its platform and
/// hands out the shared-work evaluator over one `(q, l)` cell's
/// observations.
pub trait CellMeasure: Copy + Sync {
    /// One cell's observations.
    type Cell: ?Sized + Sync;
    /// The all-groups evaluator over one cell.
    type Eval<'a>: CellEval;
    /// Platform name in telemetry and trace (`measure.<platform>.<label>`).
    const PLATFORM: &'static str;

    /// Stable identifier used in telemetry metric names.
    fn label(&self) -> &'static str;

    /// The evaluator over one cell's observations.
    fn evaluator<'a>(self, ctx: &'a MeasureContext<'a>, cell: &'a Self::Cell) -> Self::Eval<'a>;
}

/// Evaluates `d⟨g,q,l⟩` group by group over one prepared cell.
pub trait CellEval {
    /// `d⟨g,q,l⟩` for this cell — bit-identical to the [`reference`].
    fn group(&mut self, g: GroupId) -> Option<f64>;
}

impl CellMeasure for SearchMeasure {
    type Cell = [UserList];
    type Eval<'a> = SearchCellEval<'a, 'a>;
    const PLATFORM: &'static str = "search";

    fn label(&self) -> &'static str {
        match self {
            SearchMeasure::KendallTopK { .. } => "kendall_top_k",
            SearchMeasure::JaccardDistance => "jaccard",
        }
    }

    fn evaluator<'a>(self, ctx: &'a MeasureContext<'a>, lists: &'a [UserList]) -> Self::Eval<'a> {
        SearchCellEval::new(ctx, lists, self)
    }
}

impl CellMeasure for MarketMeasure {
    type Cell = MarketRanking;
    type Eval<'a> = MarketCellEval<'a, 'a>;
    const PLATFORM: &'static str = "market";

    fn label(&self) -> &'static str {
        match self {
            MarketMeasure::Emd { .. } => "emd",
            MarketMeasure::Exposure { .. } => "exposure",
        }
    }

    fn evaluator<'a>(
        self,
        ctx: &'a MeasureContext<'a>,
        ranking: &'a MarketRanking,
    ) -> Self::Eval<'a> {
        MarketCellEval::new(ctx, ranking, self)
    }
}

fn average(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// The comparability structure of a universe — each group's comparable
/// group ids — resolved once per cube build and shared read-only across
/// the build workers.
///
/// The [`reference`] oracles re-resolve this per `(cell, group)` call (label lookups, hash probes, label-vector
/// clones); over the 5,361-cell TaskRabbit grid that is ~59k redundant
/// resolutions of an 11-row table. The context hoists it to one.
#[derive(Debug)]
pub struct MeasureContext<'u> {
    universe: &'u Universe,
    /// `comparables[g]` in the exact order [`Universe::comparable_group_ids`]
    /// returns, so cached evaluation visits groups in the reference order.
    comparables: Vec<Vec<GroupId>>,
}

impl<'u> MeasureContext<'u> {
    /// Resolves the comparability structure of `universe`.
    pub fn new(universe: &'u Universe) -> Self {
        let comparables = universe.group_ids().map(|g| universe.comparable_group_ids(g)).collect();
        Self { universe, comparables }
    }

    /// The underlying universe.
    pub fn universe(&self) -> &'u Universe {
        self.universe
    }

    /// The comparable groups of `g`, in reference order.
    pub fn comparables(&self, g: GroupId) -> &[GroupId] {
        &self.comparables[g.0 as usize]
    }
}

/// All-groups evaluator for one search cell: computes `d⟨g,q,l⟩` for every
/// registered group over one `(q, l)` sample, sharing work the per-group
/// reference function recomputes —
///
/// - group membership of each user list is decided once per `(group,
///   list)` instead of once per `(group, comparable, list)`;
/// - pairwise list distances are memoized per **unordered** `(u, u')`
///   index pair in a dense `n × n` table. Overlapping groups (every user
///   is in a gender, an ethnicity, and a full lattice group) request many
///   pairs repeatedly, and `(g, g')` and `(g', g)` request the same pairs
///   swapped. Both list distances are bitwise symmetric — Kendall's
///   `K^(p)` and Jaccard are each built from integer counts that do not
///   depend on argument order — so one cached value serves both orders
///   and each user pair is computed once.
///
/// Equivalence contract, enforced by tests and the parallel-determinism
/// property suite: `eval.group(g)` is bit-for-bit identical to
/// [`reference::search_cell_unfairness`]`(universe, lists, g, measure)`.
#[derive(Debug)]
pub struct SearchCellEval<'a, 'u> {
    ctx: &'a MeasureContext<'u>,
    lists: &'a [UserList],
    measure: SearchMeasure,
    /// Per group: indices into `lists` of its members, in list order.
    members: Vec<Vec<u32>>,
    /// Memoized `measure.distance(lists[i], lists[j])` for `i ≤ j`, at
    /// slot `i * lists.len() + j`.
    distances: Vec<Option<f64>>,
}

impl<'a, 'u> SearchCellEval<'a, 'u> {
    /// Prepares the evaluator: one membership pass per group.
    pub fn new(ctx: &'a MeasureContext<'u>, lists: &'a [UserList], measure: SearchMeasure) -> Self {
        let members = ctx
            .universe
            .group_ids()
            .map(|g| {
                let label = ctx.universe.group(g);
                lists
                    .iter()
                    .enumerate()
                    .filter_map(|(i, u)| label.matches(&u.assignment).then_some(i as u32))
                    .collect()
            })
            .collect();
        Self { ctx, lists, measure, members, distances: vec![None; lists.len() * lists.len()] }
    }
}

impl CellEval for SearchCellEval<'_, '_> {
    fn group(&mut self, g: GroupId) -> Option<f64> {
        let Self { ctx, lists, measure, members, distances } = self;
        let g_members = &members[g.0 as usize];
        if g_members.is_empty() {
            return None;
        }
        let mut per_group = Vec::new();
        for &g_cmp in ctx.comparables(g) {
            let others = &members[g_cmp.0 as usize];
            if others.is_empty() {
                continue;
            }
            let mut sum = 0.0;
            let mut n = 0usize;
            for &ui in g_members {
                for &vi in others {
                    let (i, j) = (ui.min(vi) as usize, ui.max(vi) as usize);
                    let d = *distances[i * lists.len() + j].get_or_insert_with(|| {
                        measure.distance(&lists[i].results, &lists[j].results)
                    });
                    sum += d;
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
}

/// All-groups evaluator for one marketplace cell — the market counterpart
/// of [`SearchCellEval`], sharing per-cell work across the group loop:
///
/// - group membership of each ranked worker is decided once per group
///   (the reference re-matches per comparable);
/// - per-worker exposure (`model.exposure(rank)`, a log) and relevance
///   are computed once per cell instead of once per group;
/// - for EMD, each group's relevance histogram is built once and pairwise
///   distances are memoized under an **unordered** key —
///   [`measures::emd_1d_normalized`] is bitwise symmetric (`|x − y|` per
///   bin in fixed bin order), so `(g, g')` and `(g', g)` share one entry.
///
/// Equivalence contract: `eval.group(g)` is bit-for-bit identical to
/// [`reference::market_cell_unfairness`]`(universe, ranking, g, measure)`.
#[derive(Debug)]
pub struct MarketCellEval<'a, 'u> {
    ctx: &'a MeasureContext<'u>,
    measure: MarketMeasure,
    /// `membership[g][i]`: whether ranked worker `i` is in group `g`.
    membership: Vec<Vec<bool>>,
    /// Per worker `model.exposure(rank)` (exposure measure only).
    exposures: Vec<f64>,
    /// Per worker relevance (exposure measure only).
    relevances: Vec<f64>,
    /// Per group relevance histogram (EMD measure only).
    histograms: Vec<Histogram>,
    /// Memoized normalized EMD keyed by unordered group id pair.
    emd_cache: std::collections::HashMap<(u32, u32), Option<f64>>,
}

impl<'a, 'u> MarketCellEval<'a, 'u> {
    /// Prepares the evaluator: membership masks plus the per-measure
    /// shared tables.
    pub fn new(
        ctx: &'a MeasureContext<'u>,
        ranking: &'a MarketRanking,
        measure: MarketMeasure,
    ) -> Self {
        let membership: Vec<Vec<bool>> = ctx
            .universe
            .group_ids()
            .map(|g| {
                let label = ctx.universe.group(g);
                ranking.workers().iter().map(|w| label.matches(&w.assignment)).collect()
            })
            .collect();
        let (mut exposures, mut relevances, mut histograms) = (Vec::new(), Vec::new(), Vec::new());
        match measure {
            MarketMeasure::Exposure { model } => {
                exposures = ranking.workers().iter().map(|w| model.exposure(w.rank)).collect();
                relevances = (0..ranking.len()).map(|i| ranking.relevance(i)).collect();
            }
            MarketMeasure::Emd { bins } => {
                let cfg = BinConfig::unit(bins);
                histograms = membership
                    .iter()
                    .map(|mask| {
                        let mut h = Histogram::empty(cfg);
                        for (i, &in_g) in mask.iter().enumerate() {
                            if in_g {
                                h.add(ranking.relevance(i));
                            }
                        }
                        h
                    })
                    .collect();
            }
        }
        Self {
            ctx,
            measure,
            membership,
            exposures,
            relevances,
            histograms,
            emd_cache: std::collections::HashMap::new(),
        }
    }

    fn group_emd(&mut self, g: GroupId) -> Option<f64> {
        let g_hist = &self.histograms[g.0 as usize];
        if g_hist.is_empty() {
            return None;
        }
        let mut dists = Vec::new();
        for &g_cmp in self.ctx.comparables(g) {
            let key = (g.0.min(g_cmp.0), g.0.max(g_cmp.0));
            let (histograms, emd_cache) = (&self.histograms, &mut self.emd_cache);
            let d = *emd_cache.entry(key).or_insert_with(|| {
                measures::emd_1d_normalized(
                    &histograms[g.0 as usize],
                    &histograms[g_cmp.0 as usize],
                )
            });
            if let Some(d) = d {
                dists.push(d);
            }
        }
        average(&dists)
    }

    fn group_exposure(&self, g: GroupId) -> Option<f64> {
        let comparables = self.ctx.comparables(g);
        if comparables.is_empty() {
            return None;
        }
        let g_mask = &self.membership[g.0 as usize];
        let (mut g_exp, mut g_rel) = (0.0f64, 0.0f64);
        let (mut pool_exp, mut pool_rel) = (0.0f64, 0.0f64);
        let mut g_seen = false;
        let mut cmp_seen = false;
        for (i, &in_g) in g_mask.iter().enumerate() {
            let in_cmp = comparables.iter().any(|&c| self.membership[c.0 as usize][i]);
            if !in_g && !in_cmp {
                continue;
            }
            let exp = self.exposures[i];
            let rel = self.relevances[i];
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
}

impl CellEval for MarketCellEval<'_, '_> {
    fn group(&mut self, g: GroupId) -> Option<f64> {
        match self.measure {
            MarketMeasure::Emd { .. } => self.group_emd(g),
            MarketMeasure::Exposure { .. } => self.group_exposure(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{market_cell_unfairness, search_cell_unfairness};
    use super::*;
    use crate::model::Schema;
    use crate::observations::RankedWorker;
    use crate::paper_toy;

    /// Search sample with two distinguishable groups.
    fn two_group_lists(identical: bool) -> (Universe, Vec<UserList>) {
        let universe = Universe::with_all_groups(Schema::gender_ethnicity());
        // assignment = [gender, ethnicity]; Male=0/Female=1; Asian=0.
        let male = vec![crate::model::ValueId(0), crate::model::ValueId(0)];
        let female = vec![crate::model::ValueId(1), crate::model::ValueId(0)];
        let list_a = vec![1, 2, 3];
        let list_b = if identical { vec![1, 2, 3] } else { vec![7, 8, 9] };
        let lists = vec![
            UserList { assignment: male.clone(), results: list_a.clone() },
            UserList { assignment: male, results: list_a.clone() },
            UserList { assignment: female.clone(), results: list_b.clone() },
            UserList { assignment: female, results: list_b },
        ];
        (universe, lists)
    }

    #[test]
    fn identical_lists_are_perfectly_fair() {
        let (u, lists) = two_group_lists(true);
        let male = u.group_id_by_text("gender=Male").unwrap();
        for m in [SearchMeasure::kendall(), SearchMeasure::JaccardDistance] {
            let d = search_cell_unfairness(&u, &lists, male, m).unwrap();
            assert!(d.abs() < 1e-12, "{m:?} gave {d}");
        }
    }

    #[test]
    fn disjoint_lists_are_maximally_unfair() {
        let (u, lists) = two_group_lists(false);
        let male = u.group_id_by_text("gender=Male").unwrap();
        for m in [SearchMeasure::kendall(), SearchMeasure::JaccardDistance] {
            let d = search_cell_unfairness(&u, &lists, male, m).unwrap();
            assert!((d - 1.0).abs() < 1e-12, "{m:?} gave {d}");
        }
    }

    #[test]
    fn missing_group_yields_none() {
        let (u, lists) = two_group_lists(true);
        // No Black users in the sample.
        let black = u.group_id_by_text("ethnicity=Black").unwrap();
        assert_eq!(search_cell_unfairness(&u, &lists, black, SearchMeasure::JaccardDistance), None);
    }

    #[test]
    fn figure5_exposure_value_reproduced() {
        // The paper's Figure 5: Black Females in the Table 3 ranking have
        // exposure unfairness ≈ 0.04.
        let (universe, ranking) = paper_toy::table3_ranking();
        let bf = universe.group_id_by_text("gender=Female & ethnicity=Black").unwrap();
        let d = market_cell_unfairness(&universe, &ranking, bf, MarketMeasure::exposure()).unwrap();
        assert!((d - 0.04).abs() < 0.005, "got {d}");
    }

    #[test]
    fn emd_zero_for_interleaved_groups() {
        // Alternating Male/Female down the ranking → near-identical
        // relevance histograms → EMD ≈ 0.
        let universe = Universe::with_all_groups(Schema::gender_ethnicity());
        let workers: Vec<RankedWorker> = (1..=10)
            .map(|rank| RankedWorker {
                assignment: vec![
                    crate::model::ValueId((rank % 2) as u16),
                    crate::model::ValueId(0),
                ],
                rank,
                score: None,
            })
            .collect();
        let ranking = MarketRanking::new(workers);
        let male = universe.group_id_by_text("gender=Male").unwrap();
        let d = market_cell_unfairness(&universe, &ranking, male, MarketMeasure::emd()).unwrap();
        assert!(d < 0.15, "interleaved groups should be nearly fair, got {d}");
    }

    #[test]
    fn emd_large_for_segregated_groups() {
        // All Males on top, all Females at the bottom.
        let universe = Universe::with_all_groups(Schema::gender_ethnicity());
        let workers: Vec<RankedWorker> = (1..=10)
            .map(|rank| RankedWorker {
                assignment: vec![
                    crate::model::ValueId(if rank <= 5 { 0 } else { 1 }),
                    crate::model::ValueId(0),
                ],
                rank,
                score: None,
            })
            .collect();
        let ranking = MarketRanking::new(workers);
        let male = universe.group_id_by_text("gender=Male").unwrap();
        let d = market_cell_unfairness(&universe, &ranking, male, MarketMeasure::emd()).unwrap();
        assert!(d > 0.4, "segregated groups should be clearly unfair, got {d}");
    }

    #[test]
    fn search_cell_eval_matches_reference_bit_for_bit() {
        let cases = [
            ("identical", two_group_lists(true)),
            ("disjoint", two_group_lists(false)),
            ("table 1", paper_toy::table1_lists()),
        ];
        for (case, (u, lists)) in cases {
            let ctx = MeasureContext::new(&u);
            for m in [SearchMeasure::kendall(), SearchMeasure::JaccardDistance] {
                let mut eval = SearchCellEval::new(&ctx, &lists, m);
                for g in u.group_ids() {
                    let fast = eval.group(g);
                    let reference = search_cell_unfairness(&u, &lists, g, m);
                    assert_eq!(
                        fast.map(f64::to_bits),
                        reference.map(f64::to_bits),
                        "{m:?} group {g:?} on {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn market_cell_eval_matches_reference_bit_for_bit() {
        let (u, ranking) = paper_toy::table3_ranking();
        let ctx = MeasureContext::new(&u);
        for m in [MarketMeasure::emd(), MarketMeasure::exposure()] {
            let mut eval = MarketCellEval::new(&ctx, &ranking, m);
            for g in u.group_ids() {
                let fast = eval.group(g);
                let reference = market_cell_unfairness(&u, &ranking, g, m);
                assert_eq!(
                    fast.map(f64::to_bits),
                    reference.map(f64::to_bits),
                    "{m:?} group {g:?}"
                );
            }
        }
    }

    #[test]
    fn exposure_none_when_group_absent() {
        let universe = Universe::with_all_groups(Schema::gender_ethnicity());
        let workers = vec![RankedWorker {
            assignment: vec![crate::model::ValueId(0), crate::model::ValueId(0)],
            rank: 1,
            score: None,
        }];
        let ranking = MarketRanking::new(workers);
        let female = universe.group_id_by_text("gender=Female").unwrap();
        assert_eq!(
            market_cell_unfairness(&universe, &ranking, female, MarketMeasure::exposure()),
            None
        );
    }
}
