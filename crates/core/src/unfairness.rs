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
//! evaluators must match bit for bit live in [`reference`](mod@reference).

pub mod reference;

use crate::measures::{self, exposure_unfairness, BinConfig, DiscountModel};
use crate::model::{AttrId, GroupId, Universe, ValueId};
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
    fn evaluator<'a>(self, ctx: &'a MeasureContext, cell: &'a Self::Cell) -> Self::Eval<'a>;
}

/// Evaluates `d⟨g,q,l⟩` group by group over one prepared cell.
pub trait CellEval {
    /// `d⟨g,q,l⟩` for this cell — bit-identical to the [`reference`](mod@reference).
    fn group(&mut self, g: GroupId) -> Option<f64>;
}

impl CellMeasure for SearchMeasure {
    type Cell = [UserList];
    type Eval<'a> = SearchCellEval<'a>;
    const PLATFORM: &'static str = "search";

    fn label(&self) -> &'static str {
        match self {
            SearchMeasure::KendallTopK { .. } => "kendall_top_k",
            SearchMeasure::JaccardDistance => "jaccard",
        }
    }

    fn evaluator<'a>(self, ctx: &'a MeasureContext, lists: &'a [UserList]) -> Self::Eval<'a> {
        SearchCellEval::new(ctx, lists, self)
    }
}

impl CellMeasure for MarketMeasure {
    type Cell = MarketRanking;
    type Eval<'a> = MarketCellEval<'a>;
    const PLATFORM: &'static str = "market";

    fn label(&self) -> &'static str {
        match self {
            MarketMeasure::Emd { .. } => "emd",
            MarketMeasure::Exposure { .. } => "exposure",
        }
    }

    fn evaluator<'a>(self, ctx: &'a MeasureContext, ranking: &'a MarketRanking) -> Self::Eval<'a> {
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

/// Calls `f` with every group id in `set`, in increasing id order.
#[inline]
fn for_each_group(set: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in set.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// One attribute's membership table in a [`MeasureContext`].
#[derive(Debug)]
struct AttrRows {
    /// Index of the attribute in an assignment.
    attr: usize,
    /// Values with a row of their own: one more than the largest value
    /// any label fixes for this attribute.
    values: usize,
    /// Offset of this table in [`MeasureContext::rows`]: value `v`'s row
    /// at `start + v · words`, then one *free* row, at `v = values`, for a
    /// missing or unlisted value.
    start: usize,
}

/// Everything about a universe's groups that a cell evaluation needs,
/// resolved once per universe and shared read-only across the build
/// workers (an [`FBox`](crate::FBox) keeps one for its lifetime):
///
/// - each group's comparable groups, as ids in reference order and as a
///   group set;
/// - a membership table: per attribute some label mentions, and per value
///   of that attribute, the set of groups the value satisfies — the groups
///   fixing that value plus the groups with no predicate on the
///   attribute. The attribute's free row holds the latter alone and
///   answers a missing (assignment too short) or unlisted value.
///
/// A group set is ⌈groups / 64⌉ `u64` words, bit `g` for group `g`, so
/// any number of groups takes the one path. An individual's set is the AND
/// of one row per table: [`GroupLabel::matches`] for every group at once,
/// since a label matches iff each of its predicates agrees and an
/// attribute no label mentions constrains no group. The evaluators resolve
/// each individual's set once per cell, where the [`reference`](mod@reference) oracles
/// match every label against every individual once per `(group,
/// comparable)`.
///
/// [`GroupLabel::matches`]: crate::model::GroupLabel::matches
#[derive(Debug)]
pub struct MeasureContext {
    n_groups: usize,
    /// Words per group set.
    words: usize,
    /// `comparables[g]` in the exact order [`Universe::comparable_group_ids`]
    /// returns, so cached evaluation visits groups in the reference order.
    comparables: Vec<Vec<GroupId>>,
    /// `comparables[g]` as a group set, at `g · words`.
    comparable_sets: Vec<u64>,
    /// Every group: what `groups_of` starts from.
    all: Vec<u64>,
    tables: Vec<AttrRows>,
    /// The rows of every table, `words` each.
    rows: Vec<u64>,
}

impl MeasureContext {
    /// Resolves the comparability structure and the membership table of
    /// `universe`.
    pub fn new(universe: &Universe) -> Self {
        let n_groups = universe.n_groups();
        let words = n_groups.div_ceil(64).max(1);
        let labels: Vec<_> = universe.group_ids().map(|g| universe.group(g)).collect();
        let set_of = |groups: &mut dyn Iterator<Item = usize>| {
            let mut set = vec![0u64; words];
            for g in groups {
                set[g / 64] |= 1 << (g % 64);
            }
            set
        };
        let comparables: Vec<Vec<GroupId>> =
            universe.group_ids().map(|g| universe.comparable_group_ids(g)).collect();
        let comparable_sets =
            comparables.iter().flat_map(|c| set_of(&mut c.iter().map(|g| g.0 as usize))).collect();
        let all = set_of(&mut (0..n_groups));

        // Per mentioned attribute, the largest value any label fixes.
        let mut values = std::collections::BTreeMap::<usize, usize>::new();
        for &(a, v) in labels.iter().flat_map(|l| l.predicates()) {
            let n = values.entry(a.0 as usize).or_default();
            *n = (*n).max(v.0 as usize + 1);
        }
        let (mut tables, mut rows) = (Vec::with_capacity(values.len()), Vec::new());
        for (attr, values) in values {
            let start = rows.len();
            for v in 0..=values {
                rows.extend(set_of(&mut labels.iter().enumerate().filter_map(|(g, l)| {
                    match l.value_of(AttrId(attr as u16)) {
                        Some(fixed) => (fixed.0 as usize == v).then_some(g),
                        None => Some(g),
                    }
                })));
            }
            tables.push(AttrRows { attr, values, start });
        }
        Self { n_groups, words, comparables, comparable_sets, all, tables, rows }
    }

    /// All group ids, in id order.
    pub(crate) fn group_ids(&self) -> impl Iterator<Item = GroupId> {
        let n = self.comparables.len();
        debug_assert!(n <= u32::MAX as usize, "group id space exhausted");
        (0..n as u32).map(GroupId)
    }

    /// The comparable groups of `g`, in reference order.
    pub fn comparables(&self, g: GroupId) -> &[GroupId] {
        &self.comparables[g.0 as usize]
    }

    /// Writes into `out` (`words` long) the set of groups whose label
    /// matches `assignment`: bit `g % 64` of word `g / 64` is set iff
    /// `universe.group(g).matches(assignment)`.
    fn groups_of(&self, assignment: &[ValueId], out: &mut [u64]) {
        out.copy_from_slice(&self.all);
        for t in &self.tables {
            let v = assignment.get(t.attr).map_or(t.values, |v| (v.0 as usize).min(t.values));
            let row = &self.rows[t.start + v * self.words..][..self.words];
            for (o, r) in out.iter_mut().zip(row) {
                *o &= r;
            }
        }
    }

    /// The group sets of a sequence of individuals, stored flat:
    /// individual `i`'s set at `i · words`.
    fn member_sets<'x>(
        &self,
        assignments: impl ExactSizeIterator<Item = &'x [ValueId]>,
    ) -> Vec<u64> {
        let mut sets = vec![0u64; assignments.len() * self.words];
        for (a, out) in assignments.zip(sets.chunks_exact_mut(self.words)) {
            self.groups_of(a, out);
        }
        sets
    }
}

/// All-groups evaluator for one search cell: computes `d⟨g,q,l⟩` for every
/// registered group over one `(q, l)` sample, sharing work the per-group
/// reference function recomputes —
///
/// - each user list's group set is resolved once from the
///   [`MeasureContext`] and every group's member list is read off those
///   sets, instead of matching every label against every list once per
///   `(group, comparable)`;
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
pub struct SearchCellEval<'a> {
    ctx: &'a MeasureContext,
    lists: &'a [UserList],
    measure: SearchMeasure,
    /// Per group: indices into `lists` of its members, in list order.
    members: Vec<Vec<u32>>,
    /// Memoized `measure.distance(lists[i], lists[j])` for `i ≤ j`, at
    /// slot `i * lists.len() + j`.
    distances: Vec<Option<f64>>,
}

impl<'a> SearchCellEval<'a> {
    /// Prepares the evaluator: one group set per list, then every group's
    /// member list read off the sets.
    pub fn new(ctx: &'a MeasureContext, lists: &'a [UserList], measure: SearchMeasure) -> Self {
        let sets = ctx.member_sets(lists.iter().map(|u| u.assignment.as_slice()));
        let mut members = vec![Vec::new(); ctx.n_groups];
        for (i, set) in (0u32..).zip(sets.chunks_exact(ctx.words)) {
            for_each_group(set, |g| members[g].push(i));
        }
        Self { ctx, lists, measure, members, distances: vec![None; lists.len() * lists.len()] }
    }
}

impl CellEval for SearchCellEval<'_> {
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
/// - each ranked worker's group set is resolved once from the
///   [`MeasureContext`]; the reference matches every label against every
///   worker once per comparable;
/// - for exposure, per-worker exposure (`model.exposure(rank)`, a log)
///   and relevance are computed once per cell, and a worker is in a
///   group's comparable pool iff its set meets the group's comparable set;
/// - for EMD, one pass over the workers bins each worker's relevance once
///   and counts it into every group of its set; each group's unit-mass CDF
///   is then taken once, and pairwise distances are memoized in a dense
///   `groups × groups` table under the **unordered** pair —
///   [`measures::emd_1d_normalized`] is bitwise symmetric (`|x − y|` per
///   bin in fixed bin order), so `(g, g')` and `(g', g)` share one entry.
///
/// Every sum runs over the workers in rank order, as in the reference.
/// Equivalence contract: `eval.group(g)` is bit-for-bit identical to
/// [`reference::market_cell_unfairness`]`(universe, ranking, g, measure)`.
#[derive(Debug)]
pub struct MarketCellEval<'a> {
    ctx: &'a MeasureContext,
    tables: MarketTables,
}

/// The per-cell tables one market measure reads.
#[derive(Debug)]
enum MarketTables {
    Exposure {
        /// Per ranked worker, in rank order, its group set.
        sets: Vec<u64>,
        /// Per worker `model.exposure(rank)`.
        exposures: Vec<f64>,
        /// Per worker relevance.
        relevances: Vec<f64>,
    },
    Emd {
        bins: usize,
        /// Per group, `bins` slots: the unit-mass relevance CDF, or the
        /// all-zero counts of a group without mass.
        cdfs: Vec<f64>,
        /// Per group, whether it has relevance mass.
        has_mass: Vec<bool>,
        /// Normalized EMD of groups `(g, g')`, `g ≤ g'`, at
        /// `g · groups + g'` once computed.
        memo: Vec<Option<Option<f64>>>,
    },
}

impl<'a> MarketCellEval<'a> {
    /// Prepares the evaluator: the workers' group sets, then the tables
    /// the measure reads.
    pub fn new(
        ctx: &'a MeasureContext,
        ranking: &'a MarketRanking,
        measure: MarketMeasure,
    ) -> Self {
        let sets = ctx.member_sets(ranking.workers().iter().map(|w| w.assignment.as_slice()));
        let tables = match measure {
            MarketMeasure::Exposure { model } => MarketTables::Exposure {
                sets,
                exposures: ranking.workers().iter().map(|w| model.exposure(w.rank)).collect(),
                relevances: (0..ranking.len()).map(|i| ranking.relevance(i)).collect(),
            },
            MarketMeasure::Emd { bins } => {
                let cfg = BinConfig::unit(bins);
                let n = ctx.n_groups;
                let (mut counts, mut totals) = (vec![0.0; n * bins], vec![0.0; n]);
                for (i, set) in sets.chunks_exact(ctx.words).enumerate() {
                    let bin = cfg.bin_of(ranking.relevance(i));
                    for_each_group(set, |g| {
                        counts[g * bins + bin] += 1.0;
                        totals[g] += 1.0;
                    });
                }
                let has_mass = counts
                    .chunks_exact_mut(bins)
                    .zip(totals)
                    .map(|(row, total)| measures::emd::unit_cdf_in_place(row, total))
                    .collect();
                MarketTables::Emd { bins, cdfs: counts, has_mass, memo: vec![None; n * n] }
            }
        };
        Self { ctx, tables }
    }
}

impl CellEval for MarketCellEval<'_> {
    fn group(&mut self, g: GroupId) -> Option<f64> {
        let ctx = self.ctx;
        let comparables = ctx.comparables(g);
        let g = g.0 as usize;
        match &mut self.tables {
            MarketTables::Emd { bins, cdfs, has_mass, memo } => {
                if !has_mass[g] {
                    return None;
                }
                let (bins, cfg) = (*bins, BinConfig::unit(*bins));
                let mut dists = Vec::new();
                for &c in comparables {
                    let c = c.0 as usize;
                    let (lo, hi) = (g.min(c), g.max(c));
                    let d = *memo[lo * ctx.n_groups + hi].get_or_insert_with(|| {
                        has_mass[c].then(|| {
                            let (a, b) = (&cdfs[lo * bins..][..bins], &cdfs[hi * bins..][..bins]);
                            measures::emd::rescale_emd(measures::emd::cdf_emd(a, b, cfg), cfg)
                        })
                    });
                    if let Some(d) = d {
                        dists.push(d);
                    }
                }
                average(&dists)
            }
            MarketTables::Exposure { sets, exposures, relevances } => {
                if comparables.is_empty() {
                    return None;
                }
                let cmp_set = &ctx.comparable_sets[g * ctx.words..][..ctx.words];
                let (mut g_exp, mut g_rel) = (0.0f64, 0.0f64);
                let (mut pool_exp, mut pool_rel) = (0.0f64, 0.0f64);
                let mut g_seen = false;
                let mut cmp_seen = false;
                for (i, set) in sets.chunks_exact(ctx.words).enumerate() {
                    let in_g = set[g / 64] >> (g % 64) & 1 == 1;
                    let in_cmp = set.iter().zip(cmp_set).any(|(s, c)| s & c != 0);
                    if !in_g && !in_cmp {
                        continue;
                    }
                    let exp = exposures[i];
                    let rel = relevances[i];
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
