//! Fairness Comparison (Problem 2, Algorithms 2–3).
//!
//! Given two comparison entities `r1, r2` of the same dimension (two
//! groups, two queries, or two locations) and a *breakdown* dimension `B`,
//! return every breakdown entity `b` whose `(r1 vs r2)` unfairness order
//! differs from the overall order — e.g. "overall, females are treated
//! less fairly than males, but in Chicago, Nashville and San Francisco the
//! trend is inverted" (paper Table 12).
//!
//! The overall values are computed by Algorithm 3
//! (`ComputeGroupUnfairness`): the average of `d⟨·⟩` over the breakdown
//! set × the remaining dimension; the per-`b` values average over the
//! remaining dimension only. The sums scan the [`IndexSet`]'s cube with
//! the kernel [`naive_top_k`](super::naive_top_k) uses: each side's sum
//! per breakdown entity adds its present cells in `(aggregated id, set
//! member)` order, several breakdown entities at once, and the overall
//! sums fold those in breakdown order. That is the order of the paper's
//! per-cell Algorithm 2 loop, so no bit of any value depends on the
//! kernel.

use super::sums::{slot_sums, Axis};
use super::Restriction;
use crate::index::{Dimension, IndexSet};
use crate::model::{GroupId, LocationId, QueryId};

/// An entity of one of the three dimensions, used to name the two sides of
/// a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entity {
    /// A demographic group.
    Group(GroupId),
    /// A job-related query.
    Query(QueryId),
    /// A geographic location.
    Location(LocationId),
}

impl Entity {
    /// The dimension this entity belongs to.
    pub fn dimension(self) -> Dimension {
        match self {
            Entity::Group(_) => Dimension::Group,
            Entity::Query(_) => Dimension::Query,
            Entity::Location(_) => Dimension::Location,
        }
    }

    /// The raw id.
    pub fn id(self) -> u32 {
        match self {
            Entity::Group(g) => g.0,
            Entity::Query(q) => q.0,
            Entity::Location(l) => l.0,
        }
    }
}

/// One breakdown row of a comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// The breakdown entity's raw id (in the breakdown dimension).
    pub entity: u32,
    /// `d⟨r1, b⟩`: r1's unfairness within this breakdown slice.
    pub d1: f64,
    /// `d⟨r2, b⟩`: r2's unfairness within this breakdown slice.
    pub d2: f64,
    /// Whether this row's order differs from the overall order — the rows
    /// Problem 2 returns.
    pub reversed: bool,
}

/// Result of a fairness comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonOutcome {
    /// `d⟨r1⟩` overall (the "All" row of the paper's Tables 12–21).
    pub overall1: f64,
    /// `d⟨r2⟩` overall.
    pub overall2: f64,
    /// One row per breakdown entity that had data, in id order.
    pub rows: Vec<BreakdownRow>,
}

impl ComparisonOutcome {
    /// Only the rows whose order differs from the overall order — what
    /// Problem 2 returns.
    pub fn reversed_rows(&self) -> impl Iterator<Item = &BreakdownRow> {
        self.rows.iter().filter(|r| r.reversed)
    }
}

/// Runs Algorithm 2, generalized.
///
/// - `r1`, `r2`: the two comparison entities; must share a dimension and
///   differ.
/// - `breakdown`: the breakdown dimension `B`; must differ from the
///   comparison dimension. `breakdown_subset` optionally restricts it
///   (e.g. only the ethnicity groups, only one category's sub-queries).
/// - `restrict`: optional subset of the remaining (aggregated) dimension.
///
/// A breakdown entity is `reversed` when its strict order differs from the
/// overall strict order: if overall `r1 < r2`, every `b` with
/// `d1(b) ≥ d2(b)` is returned (ties count as a reversal of a strict
/// overall order, matching the paper's Table 12 which lists Chicago with
/// equal values); if the overall values tie, only strictly ordered rows
/// are returned.
///
/// Breakdown entities with no data on either side are omitted from
/// `rows`. Returns `None` when either overall value has no data at all.
///
/// # Panics
///
/// Panics if `r1`/`r2` mix dimensions or are equal, if the breakdown
/// dimension equals the comparison dimension, or if an id is out of range.
pub fn compare(
    indices: &IndexSet,
    r1: Entity,
    r2: Entity,
    breakdown: Dimension,
    breakdown_subset: Option<&[u32]>,
    restrict: &Restriction,
) -> Option<ComparisonOutcome> {
    let cmp_dim = r1.dimension();
    assert_eq!(cmp_dim, r2.dimension(), "comparison entities must share a dimension");
    assert_ne!(r1, r2, "comparison requires two distinct entities");
    compare_sets(indices, cmp_dim, &[r1.id()], &[r2.id()], breakdown, breakdown_subset, restrict)
}

/// [`compare`] generalized to *sets* of comparison entities: `set1` and
/// `set2` are pooled by averaging. This is how higher-level dimensions are
/// compared — e.g. "Males vs Females" on a search engine, where the
/// single-attribute groups' Eq. 1 values are symmetric by construction
/// (each is the other's only comparable group), so the meaningful
/// comparison averages the full male groups {Asian/Black/White Male}
/// against the full female groups.
///
/// A breakdown id listed twice in `breakdown_subset` gives two rows and
/// enters the overall values twice.
///
/// # Panics
///
/// Panics if either set is empty, the sets intersect, the breakdown
/// dimension equals the comparison dimension, or an id in `set1`, `set2`
/// or `breakdown_subset` is out of range for its dimension.
pub fn compare_sets(
    indices: &IndexSet,
    cmp_dim: Dimension,
    set1: &[u32],
    set2: &[u32],
    breakdown: Dimension,
    breakdown_subset: Option<&[u32]>,
    restrict: &Restriction,
) -> Option<ComparisonOutcome> {
    let _span = fbox_telemetry::span("algo.compare");
    let (outcome, cells_read) =
        compare_counted(indices, cmp_dim, set1, set2, breakdown, breakdown_subset, restrict);
    publish_compare(cells_read);
    outcome
}

/// [`compare_sets`], also returning how many cells it read: one per
/// (breakdown id, aggregated id, set member), missing or not.
fn compare_counted(
    indices: &IndexSet,
    cmp_dim: Dimension,
    set1: &[u32],
    set2: &[u32],
    breakdown: Dimension,
    breakdown_subset: Option<&[u32]>,
    restrict: &Restriction,
) -> (Option<ComparisonOutcome>, u64) {
    assert!(!set1.is_empty() && !set2.is_empty(), "comparison sets must be non-empty");
    assert!(set1.iter().all(|e| !set2.contains(e)), "comparison sets must be disjoint");
    assert_ne!(breakdown, cmp_dim, "breakdown dimension must differ from the comparison dimension");
    let b_ids: Vec<u32> = match breakdown_subset {
        Some(ids) => ids.to_vec(),
        None => (0..indices.dim_len(breakdown) as u32).collect(),
    };
    for (dim, ids) in [(cmp_dim, set1), (cmp_dim, set2), (breakdown, &b_ids[..])] {
        check_ids(dim, ids, indices.dim_len(dim));
    }

    // The remaining dimension: not compared, not broken down — aggregated.
    let agg_dim = remaining_dimension(cmp_dim, breakdown);
    let agg_ids = restrict.resolve(agg_dim, indices.dim_len(agg_dim));

    // Per-breakdown sums (Algorithm 2's per-location sums), one slot per
    // breakdown id and side, each over (aggregated id, set member).
    let cube = indices.cube();
    let side = |set: &[u32]| {
        slot_sums(
            cube.values(),
            Axis::new(cube, breakdown, &b_ids),
            Axis::new(cube, agg_dim, &agg_ids),
            Axis::new(cube, cmp_dim, set),
        )
    };
    let (side1, side2) = (side(set1), side(set2));
    let cells_read = (b_ids.len() * agg_ids.len() * (set1.len() + set2.len())) as u64;

    // The overall averages (Algorithm 3) fold the per-breakdown sums in
    // breakdown order.
    let mut rows = Vec::new();
    let (mut sum1, mut n1) = (0.0, 0usize);
    let (mut sum2, mut n2) = (0.0, 0usize);
    for ((&b, (s1, c1)), (s2, c2)) in b_ids.iter().zip(side1).zip(side2) {
        sum1 += s1;
        n1 += c1;
        sum2 += s2;
        n2 += c2;
        if c1 > 0 && c2 > 0 {
            rows.push(BreakdownRow {
                entity: b,
                d1: s1 / c1 as f64,
                d2: s2 / c2 as f64,
                reversed: false, // filled in below once overall is known
            });
        }
    }
    if n1 == 0 || n2 == 0 {
        return (None, cells_read);
    }
    (Some(outcome(sum1 / n1 as f64, sum2 / n2 as f64, rows)), cells_read)
}

/// Flags each row whose strict order differs from the overall one.
fn outcome(overall1: f64, overall2: f64, mut rows: Vec<BreakdownRow>) -> ComparisonOutcome {
    let overall_order = strict_order(overall1, overall2);
    for row in &mut rows {
        let row_order = strict_order(row.d1, row.d2);
        row.reversed = row_order != overall_order;
    }
    ComparisonOutcome { overall1, overall2, rows }
}

/// Panics unless every id in `ids` is below `total`, the size of `dim`.
fn check_ids(dim: Dimension, ids: &[u32], total: usize) {
    for &id in ids {
        assert!((id as usize) < total, "{dim:?} id {id} out of range (< {total})");
    }
}

/// Folds one comparison run's counters into the global telemetry
/// registry; no-op while telemetry is disabled.
fn publish_compare(cells_read: u64) {
    let t = fbox_telemetry::global();
    if !t.enabled() {
        return;
    }
    t.counter("compare.calls").inc();
    t.counter("compare.cells_read").add(cells_read);
}

fn remaining_dimension(a: Dimension, b: Dimension) -> Dimension {
    use Dimension::*;
    match (a, b) {
        (Group, Query) | (Query, Group) => Location,
        (Group, Location) | (Location, Group) => Query,
        (Query, Location) | (Location, Query) => Group,
        _ => unreachable!("caller guarantees distinct dimensions"),
    }
}

/// Strict three-way order as an i8: −1 (d1 < d2), 0 (tie), 1 (d1 > d2).
fn strict_order(d1: f64, d2: f64) -> i8 {
    match d1.total_cmp(&d2) {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::super::sums::testing::Draws;
    use super::*;
    use crate::cube::UnfairnessCube;
    use crate::index::IndexSet;

    /// [`compare_counted`] one cell read at a time: per breakdown id, both
    /// sides summed over `(aggregated id, set member)` in order.
    fn oracle(
        indices: &IndexSet,
        cmp_dim: Dimension,
        set1: &[u32],
        set2: &[u32],
        breakdown: Dimension,
        breakdown_subset: Option<&[u32]>,
        restrict: &Restriction,
    ) -> (Option<ComparisonOutcome>, u64) {
        let mut cells_read = 0u64;
        let agg_dim = remaining_dimension(cmp_dim, breakdown);
        let agg_ids = restrict.resolve(agg_dim, indices.dim_len(agg_dim));
        let b_ids: Vec<u32> = match breakdown_subset {
            Some(ids) => ids.to_vec(),
            None => (0..indices.dim_len(breakdown) as u32).collect(),
        };
        let mut rows = Vec::new();
        let (mut sum1, mut n1) = (0.0, 0usize);
        let (mut sum2, mut n2) = (0.0, 0usize);
        for &b in &b_ids {
            let (mut s1, mut c1) = (0.0, 0usize);
            let (mut s2, mut c2) = (0.0, 0usize);
            for &a in &agg_ids {
                for &r in set1 {
                    cells_read += 1;
                    if let Some(v) = read(indices, cmp_dim, r, breakdown, b, a) {
                        s1 += v;
                        c1 += 1;
                    }
                }
                for &r in set2 {
                    cells_read += 1;
                    if let Some(v) = read(indices, cmp_dim, r, breakdown, b, a) {
                        s2 += v;
                        c2 += 1;
                    }
                }
            }
            sum1 += s1;
            n1 += c1;
            sum2 += s2;
            n2 += c2;
            if c1 > 0 && c2 > 0 {
                let (d1, d2) = (s1 / c1 as f64, s2 / c2 as f64);
                rows.push(BreakdownRow { entity: b, d1, d2, reversed: false });
            }
        }
        if n1 == 0 || n2 == 0 {
            return (None, cells_read);
        }
        (Some(outcome(sum1 / n1 as f64, sum2 / n2 as f64, rows)), cells_read)
    }

    /// Reads `d⟨·⟩` with `c` in the comparison dimension, `b` in the
    /// breakdown dimension, and `a` in the remaining dimension.
    fn read(
        indices: &IndexSet,
        cmp_dim: Dimension,
        c: u32,
        b_dim: Dimension,
        b: u32,
        a: u32,
    ) -> Option<f64> {
        use Dimension::*;
        let (g, q, l) = match (cmp_dim, b_dim) {
            (Group, Query) => (c, b, a),
            (Group, Location) => (c, a, b),
            (Query, Group) => (b, c, a),
            (Query, Location) => (a, c, b),
            (Location, Group) => (b, a, c),
            (Location, Query) => (a, b, c),
            _ => unreachable!("caller guarantees distinct dimensions"),
        };
        indices.value(GroupId(g), QueryId(q), LocationId(l))
    }

    /// The overall values, then each row's id, values and flag, with
    /// every value as bits, so that `-0.0` and `0.0` differ.
    fn bits(out: &Option<ComparisonOutcome>) -> Option<Vec<u64>> {
        out.as_ref().map(|o| {
            let rows = o.rows.iter().flat_map(|r| {
                [u64::from(r.entity), r.d1.to_bits(), r.d2.to_bits(), u64::from(r.reversed)]
            });
            [o.overall1.to_bits(), o.overall2.to_bits()].into_iter().chain(rows).collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// The kernel comparison against the per-read oracle: overall and
        /// row bits, reversal flags and cells read, on random holed cubes,
        /// every (comparison, breakdown) pair, pooled sets with repeats,
        /// breakdown subsets with repeats and aggregated subsets.
        #[test]
        fn comparison_matches_per_read_oracle(seed in 0u64..u64::MAX) {
            let mut draws = Draws::new(seed);
            let idx = IndexSet::build(&draws.holed_cube());
            let dims = [Dimension::Group, Dimension::Query, Dimension::Location];
            for cmp_dim in dims {
                let n = idx.dim_len(cmp_dim);
                if n < 2 {
                    continue;
                }
                // Two disjoint pools: ids below and from a split point.
                let split = 1 + draws.below(n - 1) as u32;
                let mut set1 = draws.ids(n);
                set1.retain(|&id| id < split);
                let mut set2 = draws.ids(n);
                set2.retain(|&id| id >= split);
                if set1.is_empty() || set2.is_empty() {
                    (set1, set2) = (vec![split - 1], vec![split]);
                }
                for breakdown in dims.into_iter().filter(|&d| d != cmp_dim) {
                    let agg_dim = remaining_dimension(cmp_dim, breakdown);
                    let b_subset = (draws.below(2) == 0).then(|| draws.ids(idx.dim_len(breakdown)));
                    let restrict = match draws.below(2) {
                        0 => Restriction::none(),
                        _ => Restriction::on(agg_dim, draws.ids(idx.dim_len(agg_dim))),
                    };
                    let args = (&set1[..], &set2[..], breakdown, b_subset.as_deref(), &restrict);
                    let got = compare_counted(&idx, cmp_dim, args.0, args.1, args.2, args.3, args.4);
                    let want = oracle(&idx, cmp_dim, args.0, args.1, args.2, args.3, args.4);
                    proptest::prop_assert_eq!(bits(&got.0), bits(&want.0), "{:?} {:?}", cmp_dim, args);
                    proptest::prop_assert_eq!(got.1, want.1);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set1_id_out_of_range_rejected() {
        let idx = table4_like();
        compare_sets(
            &idx,
            Dimension::Group,
            &[2],
            &[1],
            Dimension::Location,
            None,
            &Restriction::none(),
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set2_id_out_of_range_rejected() {
        let idx = table4_like();
        compare_sets(
            &idx,
            Dimension::Group,
            &[0],
            &[1, 7],
            Dimension::Location,
            None,
            &Restriction::none(),
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn breakdown_id_out_of_range_rejected() {
        let idx = table4_like();
        compare_sets(
            &idx,
            Dimension::Group,
            &[0],
            &[1],
            Dimension::Location,
            Some(&[0, 3]),
            &Restriction::none(),
        );
    }

    #[test]
    fn repeated_breakdown_ids_give_one_row_each() {
        let idx = table4_like();
        let out = compare_sets(
            &idx,
            Dimension::Group,
            &[0],
            &[1],
            Dimension::Location,
            Some(&[2, 0, 2]),
            &Restriction::none(),
        )
        .unwrap();
        let entities: Vec<u32> = out.rows.iter().map(|r| r.entity).collect();
        assert_eq!(entities, vec![2, 0, 2]);
        assert!((out.overall1 - (0.84 + 0.30 + 0.84) / 3.0).abs() < 1e-12);
    }

    /// 2 groups × 1 query × 3 locations.
    ///
    /// Group 0 ("males") overall 0.48, group 1 ("females") overall 0.74,
    /// but at location 2 the order flips — the Table 4 shape.
    fn table4_like() -> IndexSet {
        let mut c = UnfairnessCube::with_dims(2, 1, 3);
        let q = QueryId(0);
        // location 0 and 1: females worse; location 2: males worse.
        c.set(GroupId(0), q, LocationId(0), 0.30);
        c.set(GroupId(1), q, LocationId(0), 0.80);
        c.set(GroupId(0), q, LocationId(1), 0.30);
        c.set(GroupId(1), q, LocationId(1), 0.90);
        c.set(GroupId(0), q, LocationId(2), 0.84);
        c.set(GroupId(1), q, LocationId(2), 0.52);
        IndexSet::build(&c)
    }

    #[test]
    fn detects_reversed_locations() {
        let idx = table4_like();
        let out = compare(
            &idx,
            Entity::Group(GroupId(0)),
            Entity::Group(GroupId(1)),
            Dimension::Location,
            None,
            &Restriction::none(),
        )
        .unwrap();
        assert!((out.overall1 - 0.48).abs() < 1e-12);
        assert!((out.overall2 - (0.8 + 0.9 + 0.52) / 3.0).abs() < 1e-12);
        let reversed: Vec<u32> = out.reversed_rows().map(|r| r.entity).collect();
        assert_eq!(reversed, vec![2]);
        // The non-reversed rows are still reported, unflagged.
        assert_eq!(out.rows.len(), 3);
        assert!(!out.rows[0].reversed);
    }

    #[test]
    fn ties_count_as_reversal_of_strict_overall() {
        // Overall strictly ordered; one breakdown ties → reported,
        // matching Table 12's Chicago row (0.062 vs 0.062).
        let mut c = UnfairnessCube::with_dims(2, 1, 2);
        let q = QueryId(0);
        c.set(GroupId(0), q, LocationId(0), 0.2);
        c.set(GroupId(1), q, LocationId(0), 0.8);
        c.set(GroupId(0), q, LocationId(1), 0.5);
        c.set(GroupId(1), q, LocationId(1), 0.5);
        let idx = IndexSet::build(&c);
        let out = compare(
            &idx,
            Entity::Group(GroupId(0)),
            Entity::Group(GroupId(1)),
            Dimension::Location,
            None,
            &Restriction::none(),
        )
        .unwrap();
        let reversed: Vec<u32> = out.reversed_rows().map(|r| r.entity).collect();
        assert_eq!(reversed, vec![1]);
    }

    #[test]
    fn breakdown_subset_restricts_rows_and_overall() {
        let idx = table4_like();
        // Only locations {0, 1}: no reversal there, and the overall is
        // computed over the subset.
        let out = compare(
            &idx,
            Entity::Group(GroupId(0)),
            Entity::Group(GroupId(1)),
            Dimension::Location,
            Some(&[0, 1]),
            &Restriction::none(),
        )
        .unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.reversed_rows().count(), 0);
        assert!((out.overall1 - 0.30).abs() < 1e-12);
        assert!((out.overall2 - 0.85).abs() < 1e-12);
    }

    #[test]
    fn query_comparison_with_group_breakdown() {
        // r1, r2 queries; B = groups; aggregate over locations.
        let mut c = UnfairnessCube::with_dims(2, 2, 2);
        for g in 0..2u32 {
            for q in 0..2u32 {
                for l in 0..2u32 {
                    // Query 0 worse overall (driven by group 1), but for
                    // group 0 query 1 is worse — a reversal.
                    let v = match (g, q) {
                        (0, 0) => 0.2,
                        (0, 1) => 0.6,
                        (1, 0) => 0.9,
                        _ => 0.3,
                    } + l as f64 * 0.01;
                    c.set(GroupId(g), QueryId(q), LocationId(l), v);
                }
            }
        }
        let idx = IndexSet::build(&c);
        let out = compare(
            &idx,
            Entity::Query(QueryId(0)),
            Entity::Query(QueryId(1)),
            Dimension::Group,
            None,
            &Restriction::none(),
        )
        .unwrap();
        // Overall: q0 = 0.555 > q1 = 0.455; group 0 orders q0 < q1.
        assert!(out.overall1 > out.overall2);
        let reversed: Vec<u32> = out.reversed_rows().map(|r| r.entity).collect();
        assert_eq!(reversed, vec![0]);
    }

    #[test]
    fn missing_breakdown_entities_are_omitted() {
        let mut c = UnfairnessCube::with_dims(2, 1, 2);
        let q = QueryId(0);
        c.set(GroupId(0), q, LocationId(0), 0.2);
        c.set(GroupId(1), q, LocationId(0), 0.8);
        // Location 1 has no data for either group.
        let idx = IndexSet::build(&c);
        let out = compare(
            &idx,
            Entity::Group(GroupId(0)),
            Entity::Group(GroupId(1)),
            Dimension::Location,
            None,
            &Restriction::none(),
        )
        .unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn no_data_returns_none() {
        let c = UnfairnessCube::with_dims(2, 1, 1);
        let idx = IndexSet::build(&c);
        assert!(compare(
            &idx,
            Entity::Group(GroupId(0)),
            Entity::Group(GroupId(1)),
            Dimension::Location,
            None,
            &Restriction::none(),
        )
        .is_none());
    }

    #[test]
    fn compare_sets_pools_entities() {
        // 4 groups × 1 query × 2 locations; sets {0,1} vs {2,3}.
        let mut c = UnfairnessCube::with_dims(4, 1, 2);
        let q = QueryId(0);
        for (g, l, v) in [
            (0u32, 0u32, 0.2),
            (1, 0, 0.4),
            (2, 0, 0.7),
            (3, 0, 0.9),
            // At location 1 the pools reverse.
            (0, 1, 0.8),
            (1, 1, 0.6),
            (2, 1, 0.3),
            (3, 1, 0.1),
        ] {
            c.set(GroupId(g), q, LocationId(l), v);
        }
        let idx = IndexSet::build(&c);
        let out = compare_sets(
            &idx,
            Dimension::Group,
            &[0, 1],
            &[2, 3],
            Dimension::Location,
            None,
            &Restriction::none(),
        )
        .unwrap();
        // Overall: set1 = (0.2+0.4+0.8+0.6)/4 = 0.5, set2 = 0.5 → tie;
        // strictly ordered rows are therefore all reversed.
        assert!((out.overall1 - 0.5).abs() < 1e-12);
        assert!((out.overall2 - 0.5).abs() < 1e-12);
        assert_eq!(out.rows.len(), 2);
        assert!((out.rows[0].d1 - 0.3).abs() < 1e-12);
        assert!((out.rows[0].d2 - 0.8).abs() < 1e-12);
        assert!((out.rows[1].d1 - 0.7).abs() < 1e-12);
        assert!((out.rows[1].d2 - 0.2).abs() < 1e-12);
        assert_eq!(out.reversed_rows().count(), 2);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_sets_rejected() {
        let idx = table4_like();
        compare_sets(
            &idx,
            Dimension::Group,
            &[0],
            &[0, 1],
            Dimension::Location,
            None,
            &Restriction::none(),
        );
    }

    #[test]
    #[should_panic(expected = "share a dimension")]
    fn mixed_dimensions_rejected() {
        let idx = table4_like();
        compare(
            &idx,
            Entity::Group(GroupId(0)),
            Entity::Query(QueryId(0)),
            Dimension::Location,
            None,
            &Restriction::none(),
        );
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn identical_entities_rejected() {
        let idx = table4_like();
        compare(
            &idx,
            Entity::Group(GroupId(0)),
            Entity::Group(GroupId(0)),
            Dimension::Location,
            None,
            &Restriction::none(),
        );
    }

    #[test]
    #[should_panic(expected = "breakdown dimension")]
    fn breakdown_equal_to_comparison_rejected() {
        let idx = table4_like();
        compare(
            &idx,
            Entity::Group(GroupId(0)),
            Entity::Group(GroupId(1)),
            Dimension::Group,
            None,
            &Restriction::none(),
        );
    }
}
