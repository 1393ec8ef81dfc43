//! The F-Box: the end-to-end pipeline of the paper's Figure 6/9 —
//! observations in, unfairness answers out.
//!
//! An [`FBox`] owns a [`Universe`] and an [`IndexSet`]: the
//! [`UnfairnessCube`] computed from a platform's observations with its
//! three pre-built index families. It
//! exposes the two problems of §4: [quantification](FBox::top_k) and
//! [comparison](FBox::compare).

use crate::algo::{self, RankOrder, Restriction, TopKResult};
use crate::cube::UnfairnessCube;
use crate::index::{Dimension, IndexSet};
use crate::model::{GroupId, LocationId, QueryId, Universe};
use crate::observations::{MarketObservations, SearchObservations};
use crate::unfairness::{CellEval, CellMeasure, MarketMeasure, MeasureContext, SearchMeasure};
use std::sync::Arc;

/// The assembled fairness framework for one study.
///
/// Cloning is cheap: the universe, its [`MeasureContext`] and the posting
/// lists are shared, and only the cube is copied (see [`IndexSet`]).
#[derive(Debug, Clone)]
pub struct FBox {
    universe: Arc<Universe>,
    /// The universe's group tables, resolved once: every
    /// [`evaluate_cell`](Self::evaluate_cell) reads them.
    ctx: Arc<MeasureContext>,
    indices: IndexSet,
}

impl FBox {
    /// Builds the F-Box from search-engine observations (Google-style:
    /// per-user ranked lists), computing `d⟨g,q,l⟩` by Eq. 1 for every
    /// registered group at every observed `(q, l)` cell.
    ///
    /// The `(q, l)` cells are partitioned across [`fbox_par`] workers
    /// (`FBOX_THREADS`, default: available parallelism); each worker
    /// evaluates all groups of its cells through a shared-work
    /// [`SearchCellEval`](crate::unfairness::SearchCellEval) and the
    /// per-worker shards are merged in deterministic cell order, so the
    /// cube is byte-identical to
    /// [`reference::search_cube`](crate::unfairness::reference::search_cube)
    /// at any thread count.
    pub fn from_search(
        universe: Universe,
        observations: &SearchObservations,
        measure: SearchMeasure,
    ) -> Self {
        let _span = fbox_telemetry::span("fbox.from_search");
        Self::build(universe, observations.cells().collect(), measure)
    }

    /// Builds the F-Box from marketplace observations (TaskRabbit-style:
    /// ranked workers), computing `d⟨g,q,l⟩` by Eq. 2 (EMD) or §3.3.2
    /// (exposure) for every registered group at every observed cell.
    ///
    /// Parallel like [`from_search`](Self::from_search), through the
    /// shared-work [`MarketCellEval`](crate::unfairness::MarketCellEval),
    /// and byte-identical to
    /// [`reference::market_cube`](crate::unfairness::reference::market_cube).
    pub fn from_market(
        universe: Universe,
        observations: &MarketObservations,
        measure: MarketMeasure,
    ) -> Self {
        let _span = fbox_telemetry::span("fbox.from_market");
        Self::build(universe, observations.cells().collect(), measure)
    }

    /// The batch build behind [`from_search`](Self::from_search) and
    /// [`from_market`](Self::from_market): cells sorted into grid order,
    /// fanned out across workers through [`evaluate_cell`], and merged.
    fn build<M: CellMeasure>(
        universe: Universe,
        mut cell_data: Vec<((QueryId, LocationId), &M::Cell)>,
        measure: M,
    ) -> Self {
        // Telemetry is armed once, before the fan-out, and shared by
        // reference: a `FBOX_TELEMETRY` toggle mid-build cannot leave some
        // shards counted and others not.
        let telemetry = CellTelemetry::new(M::PLATFORM, measure.label());
        cell_data.sort_unstable_by_key(|&((q, l), _)| (q.0, l.0));
        let ctx = MeasureContext::new(&universe);
        let shards = fbox_par::par_map(&cell_data, |&((q, l), cell)| {
            evaluate_cell(&ctx, &telemetry, q, l, Some(cell), measure)
        });
        let cube = merge_shards(&universe, &cell_data, shards);
        telemetry.finish_cube(&cube);
        Self::assemble(universe, ctx, cube)
    }

    /// Builds the F-Box from a pre-computed cube (e.g. deserialized from a
    /// previous run, or produced by a custom measure).
    ///
    /// # Panics
    ///
    /// Panics if the cube's dimensions do not match the universe's.
    pub fn from_cube(universe: Universe, cube: UnfairnessCube) -> Self {
        let ctx = MeasureContext::new(&universe);
        Self::assemble(universe, ctx, cube)
    }

    fn assemble(universe: Universe, ctx: MeasureContext, cube: UnfairnessCube) -> Self {
        assert_eq!(cube.n_groups(), universe.n_groups(), "cube/universe group count mismatch");
        assert_eq!(cube.n_queries(), universe.n_queries(), "cube/universe query count mismatch");
        assert_eq!(
            cube.n_locations(),
            universe.n_locations(),
            "cube/universe location count mismatch"
        );
        Self {
            universe: Arc::new(universe),
            ctx: Arc::new(ctx),
            indices: IndexSet::from_cube(cube),
        }
    }

    /// An F-Box over an empty cube: the starting point of incremental
    /// ingestion (`fbox-store`), where cells arrive one at a time through
    /// [`update_cell`](Self::update_cell).
    pub fn empty(universe: Universe) -> Self {
        let cube = UnfairnessCube::empty(&universe);
        Self::from_cube(universe, cube)
    }

    /// Re-derives cell `(q, l)` from its observations — a marketplace
    /// ranking or search-engine user lists — or clears it with `None`,
    /// and delta-updates the affected cube slots and index entries in
    /// place. An empty list slice also clears a search cell.
    ///
    /// This is the incremental counterpart of
    /// [`from_market`](Self::from_market) / [`from_search`](Self::from_search):
    /// [`evaluate_cell`](Self::evaluate_cell) then
    /// [`apply_cell`](Self::apply_cell). Because each cell's measures
    /// depend only on that cell's observations, and
    /// [`IndexSet::update_cell`] reproduces the total list order exactly,
    /// streaming cells through this method yields an F-Box bit-identical
    /// to a from-scratch build over the same observations — in any arrival
    /// order, at any `FBOX_THREADS`.
    pub fn update_cell<M: CellMeasure>(
        &mut self,
        q: QueryId,
        l: LocationId,
        cell: Option<&M::Cell>,
        measure: M,
    ) {
        let values = self.evaluate_cell(q, l, cell, measure);
        self.apply_cell(q, l, &values);
    }

    /// The evaluate step of [`update_cell`](Self::update_cell): cell
    /// `(q, l)`'s value for every group, in group-id order (all `None`
    /// for a cleared cell), through the same per-cell routine as the
    /// batch build and against this F-Box's [`MeasureContext`].
    pub fn evaluate_cell<M: CellMeasure>(
        &self,
        q: QueryId,
        l: LocationId,
        cell: Option<&M::Cell>,
        measure: M,
    ) -> Vec<Option<f64>> {
        evaluate_cell(&self.ctx, &CellTelemetry::OFF, q, l, cell, measure)
    }

    /// The apply step of [`update_cell`](Self::update_cell): writes
    /// per-group `values` (from [`evaluate_cell`](Self::evaluate_cell))
    /// into cell `(q, l)` through [`IndexSet::update_cell`], and returns
    /// how many posting lists shared with a clone of this F-Box had to
    /// be copied.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not hold one value per group.
    pub fn apply_cell(&mut self, q: QueryId, l: LocationId, values: &[Option<f64>]) -> usize {
        self.indices.update_cell(q, l, values)
    }

    /// The study universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The unfairness cube.
    pub fn cube(&self) -> &UnfairnessCube {
        self.indices.cube()
    }

    /// The pre-built indices.
    pub fn indices(&self) -> &IndexSet {
        &self.indices
    }

    /// One cell: `d⟨g,q,l⟩`.
    pub fn unfairness(&self, g: GroupId, q: QueryId, l: LocationId) -> Option<f64> {
        self.indices.value(g, q, l)
    }

    /// Problem 1 over any dimension. Uses the threshold algorithm when the
    /// cube is complete and the naive scan otherwise. (The TA handles
    /// incomplete cubes directly with subset-average bounds; the naive scan
    /// is kept here because on the sparse tail of a degraded cube its
    /// single pass is the cheaper plan, and it pins this method's
    /// historical output bytes.)
    pub fn top_k(
        &self,
        dim: Dimension,
        k: usize,
        order: RankOrder,
        restrict: &Restriction,
    ) -> TopKResult {
        let _span = fbox_telemetry::span("fbox.top_k");
        if self.indices.is_complete() {
            algo::top_k(&self.indices, dim, k, order, restrict)
        } else {
            algo::naive_top_k(self.cube(), dim, k, order, restrict)
        }
    }

    /// Group-fairness instance: the `k` most/least unfair groups, with
    /// resolved names.
    pub fn top_k_groups(
        &self,
        k: usize,
        order: RankOrder,
        restrict: &Restriction,
    ) -> Vec<(String, f64)> {
        self.top_k(Dimension::Group, k, order, restrict)
            .entries
            .into_iter()
            .map(|(id, v)| (self.universe.group_name(GroupId(id)), v))
            .collect()
    }

    /// Query-fairness instance: the `k` most/least unfair queries, with
    /// resolved names.
    pub fn top_k_queries(
        &self,
        k: usize,
        order: RankOrder,
        restrict: &Restriction,
    ) -> Vec<(String, f64)> {
        self.top_k(Dimension::Query, k, order, restrict)
            .entries
            .into_iter()
            .map(|(id, v)| (self.universe.query(QueryId(id)).name.clone(), v))
            .collect()
    }

    /// Location-fairness instance: the `k` most/least unfair locations,
    /// with resolved names.
    pub fn top_k_locations(
        &self,
        k: usize,
        order: RankOrder,
        restrict: &Restriction,
    ) -> Vec<(String, f64)> {
        self.top_k(Dimension::Location, k, order, restrict)
            .entries
            .into_iter()
            .map(|(id, v)| (self.universe.location(LocationId(id)).name.clone(), v))
            .collect()
    }

    /// Problem 2: fairness comparison. See [`algo::compare`](fn@algo::compare).
    pub fn compare(
        &self,
        r1: algo::Entity,
        r2: algo::Entity,
        breakdown: Dimension,
        breakdown_subset: Option<&[u32]>,
        restrict: &Restriction,
    ) -> Option<algo::ComparisonOutcome> {
        algo::compare(&self.indices, r1, r2, breakdown, breakdown_subset, restrict)
    }

    /// Resolves a breakdown entity id to a display name.
    pub fn entity_name(&self, dim: Dimension, id: u32) -> String {
        match dim {
            Dimension::Group => self.universe.group_name(GroupId(id)),
            Dimension::Query => self.universe.query(QueryId(id)).name.clone(),
            Dimension::Location => self.universe.location(LocationId(id)).name.clone(),
        }
    }
}

/// Opens the per-cell span of the cube build loops. Inside the parallel
/// builds it runs under the worker's `par.task` span, so the trace tree
/// reads build → task → cell regardless of thread count.
fn cell_span(
    q: QueryId,
    l: LocationId,
    platform: &'static str,
    measure_label: &str,
) -> fbox_telemetry::Span {
    fbox_telemetry::span_args("cube.cell", |a| {
        a.u64("q", u64::from(q.0));
        a.u64("l", u64::from(l.0));
        a.str("platform", platform);
        a.str("measure", measure_label);
    })
}

/// The one per-cell routine of the batch build and of
/// [`FBox::evaluate_cell`]: opens the cell's span and evaluates every
/// group through the measure's shared-work evaluator, with per-group
/// telemetry, returning the cell's values in group-id order (all `None`
/// for a cleared cell). Runs inside a [`fbox_par`] worker during builds.
fn evaluate_cell<M: CellMeasure>(
    ctx: &MeasureContext,
    telemetry: &CellTelemetry,
    q: QueryId,
    l: LocationId,
    cell: Option<&M::Cell>,
    measure: M,
) -> Vec<Option<f64>> {
    let _cell = cell_span(q, l, M::PLATFORM, measure.label());
    let groups = ctx.group_ids();
    let Some(cell) = cell else {
        return groups.map(|_| None).collect();
    };
    let mut eval = measure.evaluator(ctx, cell);
    groups
        .map(|g| {
            let start = telemetry.start();
            let v = eval.group(g);
            telemetry.finish(start, v.is_some());
            v
        })
        .collect()
}

/// Merges per-cell value shards (one `Vec<Option<f64>>` per cell, group-id
/// order, aligned with `cell_data`) into a fresh cube. Each `(g, q, l)`
/// slot is written exactly once, so the result is independent of the order
/// workers produced the shards in.
fn merge_shards<T>(
    universe: &Universe,
    cell_data: &[((QueryId, LocationId), T)],
    shards: Vec<Vec<Option<f64>>>,
) -> UnfairnessCube {
    let mut cube = UnfairnessCube::empty(universe);
    for (&((q, l), _), shard) in cell_data.iter().zip(shards) {
        for (g, v) in universe.group_ids().zip(shard) {
            cube.set_opt(g, q, l, v);
        }
    }
    cube
}

/// Per-cell instrumentation for the cube build loops: counts computed vs
/// empty cells into `cube.cells_computed` / `cube.cells_empty`, times each
/// measure evaluation into `measure.<platform>.<label>`, and reports cells
/// never visited (unobserved (q, l) pairs) into `cube.cells_unobserved`.
/// Inert — no clock reads, no atomics — while telemetry is disabled.
///
/// `Sync`: one instance is constructed before the parallel fan-out and
/// shared by reference across the build workers, so the visited counter is
/// an [`AtomicU64`](std::sync::atomic::AtomicU64).
struct CellTelemetry {
    active: Option<CellTelemetryInner>,
}

struct CellTelemetryInner {
    computed: fbox_telemetry::Counter,
    empty: fbox_telemetry::Counter,
    unobserved: fbox_telemetry::Counter,
    timings: fbox_telemetry::Histogram,
    visited: std::sync::atomic::AtomicU64,
}

impl CellTelemetry {
    /// Records nothing: incremental cell updates open only the cell span.
    const OFF: Self = Self { active: None };

    fn new(platform: &str, measure_label: &str) -> Self {
        let t = fbox_telemetry::global();
        if !t.enabled() {
            return Self { active: None };
        }
        Self {
            active: Some(CellTelemetryInner {
                computed: t.counter("cube.cells_computed"),
                empty: t.counter("cube.cells_empty"),
                unobserved: t.counter("cube.cells_unobserved"),
                timings: t.histogram(&format!("measure.{platform}.{measure_label}")),
                visited: std::sync::atomic::AtomicU64::new(0),
            }),
        }
    }

    #[inline]
    fn start(&self) -> Option<fbox_telemetry::HistogramTimer> {
        self.active.as_ref().map(|inner| inner.timings.timer())
    }

    #[inline]
    fn finish(&self, timer: Option<fbox_telemetry::HistogramTimer>, computed: bool) {
        let (Some(inner), Some(timer)) = (self.active.as_ref(), timer) else {
            return;
        };
        timer.observe();
        if computed {
            inner.computed.inc();
        } else {
            inner.empty.inc();
        }
        inner.visited.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn finish_cube(&self, cube: &UnfairnessCube) {
        if let Some(inner) = self.active.as_ref() {
            let total = (cube.n_groups() * cube.n_queries() * cube.n_locations()) as u64;
            let visited = inner.visited.load(std::sync::atomic::Ordering::Acquire);
            inner.unobserved.add(total.saturating_sub(visited));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_toy;
    use crate::unfairness::MarketMeasure;

    fn toy_fbox() -> FBox {
        let (mut universe, ranking) = paper_toy::table3_ranking();
        let q = universe.add_query("Home Cleaning", Some("General Cleaning"));
        let l = universe.add_location("San Francisco, CA", Some("West Coast"));
        let mut obs = MarketObservations::new();
        obs.insert(q, l, ranking);
        FBox::from_market(universe, &obs, MarketMeasure::exposure())
    }

    #[test]
    fn build_from_market_toy() {
        let fb = toy_fbox();
        let bf = fb.universe().group_id_by_text("gender=Female & ethnicity=Black").unwrap();
        let d = fb.unfairness(bf, QueryId(0), LocationId(0)).expect("black females have a value");
        assert!((d - 0.04).abs() < 0.005, "Figure 5 value, got {d}");
    }

    #[test]
    fn top_k_falls_back_to_naive_on_incomplete() {
        // The toy cube is complete over 1 query × 1 location × 11 groups
        // (every group has members or comparables)… verify, then poke a
        // hole via from_cube to exercise the fallback.
        let fb = toy_fbox();
        let groups = fb.top_k_groups(3, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(groups.len(), 3);

        let mut cube = fb.cube().clone();
        cube.set_opt(GroupId(0), QueryId(0), LocationId(0), None);
        let fb2 = FBox::from_cube(fb.universe().clone(), cube);
        let groups2 = fb2.top_k_groups(3, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(groups2.len(), 3);
    }

    #[test]
    fn top_k_plan_follows_completeness_through_cell_updates() {
        // Two cells over one ranking, so clearing one leaves data behind.
        let (mut universe, ranking) = paper_toy::table3_ranking();
        let q0 = universe.add_query("Home Cleaning", Some("General Cleaning"));
        let q1 = universe.add_query("Yard Work", Some("General Cleaning"));
        let l = universe.add_location("San Francisco, CA", Some("West Coast"));
        let mut obs = MarketObservations::new();
        obs.insert(q0, l, ranking.clone());
        obs.insert(q1, l, ranking.clone());
        let mut fb = FBox::from_market(universe, &obs, MarketMeasure::exposure());
        // TA does sorted accesses; the naive scan does none.
        let takes_ta = |fb: &FBox| {
            let r = fb.top_k(Dimension::Group, 3, RankOrder::MostUnfair, &Restriction::none());
            assert_eq!(r.entries.len(), 3);
            r.stats.sorted_accesses > 0
        };
        assert!(fb.indices().is_complete());
        assert!(takes_ta(&fb));

        fb.update_cell(q1, l, None, MarketMeasure::exposure());
        assert!(!fb.indices().is_complete());
        assert!(!takes_ta(&fb), "a hole switches to the naive scan");

        fb.update_cell(q1, l, Some(&ranking), MarketMeasure::exposure());
        assert!(fb.indices().is_complete());
        assert!(takes_ta(&fb), "refilling the hole switches back to TA");
    }

    #[test]
    fn named_accessors_resolve() {
        let fb = toy_fbox();
        assert_eq!(fb.entity_name(Dimension::Query, 0), "Home Cleaning");
        assert_eq!(fb.entity_name(Dimension::Location, 0), "San Francisco, CA");
        let locations = fb.top_k_locations(1, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(locations[0].0, "San Francisco, CA");
    }

    #[test]
    fn incremental_market_cells_match_batch_build() {
        let (mut universe, ranking) = paper_toy::table3_ranking();
        let q0 = universe.add_query("Home Cleaning", Some("General Cleaning"));
        let q1 = universe.add_query("Yard Work", Some("General Cleaning"));
        let l = universe.add_location("San Francisco, CA", Some("West Coast"));
        let mut obs = MarketObservations::new();
        obs.insert(q0, l, ranking.clone());
        obs.insert(q1, l, ranking);
        let batch = FBox::from_market(universe.clone(), &obs, MarketMeasure::exposure());

        let mut inc = FBox::empty(universe);
        // Arrival order deliberately differs from grid order.
        for (q, l) in [(q1, l), (q0, l)] {
            inc.update_cell(q, l, obs.get(q, l), MarketMeasure::exposure());
        }
        let a: Vec<Option<u64>> =
            inc.cube().raw_data().iter().map(|v| v.map(f64::to_bits)).collect();
        let b: Vec<Option<u64>> =
            batch.cube().raw_data().iter().map(|v| v.map(f64::to_bits)).collect();
        assert_eq!(a, b, "incremental cube must be bit-equal to the batch build");
        assert_eq!(inc.indices().is_complete(), batch.indices().is_complete());
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn from_cube_checks_dims() {
        let fb = toy_fbox();
        let wrong = UnfairnessCube::with_dims(1, 1, 1);
        FBox::from_cube(fb.universe().clone(), wrong);
    }
}
