//! Fairness Quantification (Problem 1) via an adaptation of Fagin's
//! Threshold Algorithm — the paper's Algorithm 1, generalized to all three
//! dimension instances (group-, query-, and location-fairness) and to both
//! the most- and least-unfair variants.
//!
//! For a returned dimension `R` and the two aggregated dimensions, the
//! aggregate of entity `r` is `avg` of `d⟨·⟩` over all pairs of the
//! aggregated dimensions. The TA walks every pair's posting list in
//! parallel (one sorted access per pair per round), completes each newly
//! seen entity's aggregate by random accesses to the other lists, and
//! maintains the threshold `τ` = average of the values at the current
//! cursors — an upper (resp. lower) bound on any unseen entity's
//! aggregate. Once the k-th best result passes `τ`, no unseen entity can
//! enter the top-k and the algorithm stops without exhausting the lists.

use super::{rank, OrdF64, Restriction};
use crate::index::{Dimension, IndexSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Whether to return the *most* or *least* unfair entities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankOrder {
    /// Top-k by descending unfairness (paper: "most unfair").
    MostUnfair,
    /// Top-k by ascending unfairness (paper: "least unfair" / "fairest").
    LeastUnfair,
}

/// Instrumentation counters, used by the benchmarks to contrast TA with
/// the naive full scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopKStats {
    /// Number of sorted accesses performed.
    pub sorted_accesses: u64,
    /// Number of random accesses performed.
    pub random_accesses: u64,
    /// Number of round-robin rounds executed.
    pub rounds: u64,
    /// Number of cube cells touched, by any access kind — including probes
    /// of missing cells. This is the honest work metric for TA-vs-naive
    /// comparisons: the naive scan touches every (restricted) cell exactly
    /// once, while TA touches `sorted + random` cells.
    pub cells_scanned: u64,
}

impl TopKStats {
    /// Folds these counters into the global telemetry registry under
    /// `<algo>.*` names (e.g. `ta.sorted_accesses`), plus a `<algo>.calls`
    /// counter. No-op while telemetry is disabled.
    pub fn publish(&self, algo: &str) {
        let t = fbox_telemetry::global();
        if !t.enabled() {
            return;
        }
        t.counter(&format!("{algo}.calls")).inc();
        t.counter(&format!("{algo}.sorted_accesses")).add(self.sorted_accesses);
        t.counter(&format!("{algo}.random_accesses")).add(self.random_accesses);
        t.counter(&format!("{algo}.rounds")).add(self.rounds);
        t.counter(&format!("{algo}.cells_scanned")).add(self.cells_scanned);
    }
}

/// Result of a top-k run: entities with their aggregated unfairness, best
/// first, plus access counters.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    /// `(entity id, aggregate unfairness)`, ordered best-first (descending
    /// for [`RankOrder::MostUnfair`], ascending for
    /// [`RankOrder::LeastUnfair`]; ties by ascending id).
    pub entries: Vec<(u32, f64)>,
    /// Access counters.
    pub stats: TopKStats,
}

/// Runs Algorithm 1: the `k` entities of `dim` for which the site is most
/// (or least) unfair, aggregating over the other two dimensions, subject to
/// a [`Restriction`].
///
/// On a *complete* cube this is the classic TA with `τ` = average of the
/// cursor values. On an *incomplete* cube (degraded crawls: failed cells
/// become missing observations) the aggregate is the average over
/// *present* cells — matching [`naive_top_k`](super::naive_top_k) — and
/// `τ` becomes the maximum cursor value across non-exhausted lists, which
/// bounds any unseen entity's subset average. Entities with no present
/// cells are omitted.
pub fn top_k(
    indices: &IndexSet,
    dim: Dimension,
    k: usize,
    order: RankOrder,
    restrict: &Restriction,
) -> TopKResult {
    if !indices.is_complete() {
        return top_k_partial(indices, dim, k, order, restrict);
    }
    let _span = fbox_telemetry::span("algo.ta");
    let mut stats = TopKStats::default();

    let (da, db) = dim.others();
    let ents_a = restrict.resolve(da, indices.dim_len(da));
    let ents_b = restrict.resolve(db, indices.dim_len(db));
    let mut pairs = Vec::with_capacity(ents_a.len() * ents_b.len());
    for &a in &ents_a {
        for &b in &ents_b {
            pairs.push((a, b));
        }
    }

    let candidates: Option<Vec<bool>> = restrict.subset(dim).map(|ids| {
        let mut mask = vec![false; indices.dim_len(dim)];
        for &id in ids {
            mask[id as usize] = true;
        }
        mask
    });
    let is_candidate = |e: u32| candidates.as_ref().is_none_or(|m| m[e as usize]);

    if k == 0 || pairs.is_empty() {
        stats.publish("ta");
        return TopKResult { entries: Vec::new(), stats };
    }

    // `heap` keeps the k best aggregates seen so far; for MostUnfair it is
    // a min-heap (worst of the best on top), for LeastUnfair a max-heap.
    // Entries are keyed so that pop() always removes the entry that should
    // leave first, with ties resolved against larger ids (so smaller ids
    // win ties, matching the naive baseline's ordering).
    let mut heap: BinaryHeap<(Reverse<OrdF64>, u32)> = BinaryHeap::new();
    let sign = match order {
        RankOrder::MostUnfair => 1.0,
        RankOrder::LeastUnfair => -1.0,
    };
    // Heap key: Reverse(sign * value) so the heap's top is the *weakest*
    // member of the current top-k; ties put the larger id on top so it is
    // evicted first.
    let key = |v: f64, e: u32| (Reverse(OrdF64(sign * v)), e);

    let mut cursors = vec![0usize; pairs.len()];
    let mut last_seen = vec![0.0f64; pairs.len()];
    let mut seen = vec![false; indices.dim_len(dim)];

    loop {
        stats.rounds += 1;
        let mut progressed = false;
        for (pi, &pair) in pairs.iter().enumerate() {
            let list = indices.list_for(dim, pair);
            let accessed = match order {
                RankOrder::MostUnfair => list.sorted_desc(cursors[pi]),
                RankOrder::LeastUnfair => list.sorted_asc(cursors[pi]),
            };
            let Some((e, v)) = accessed else {
                // List exhausted; its last value keeps bounding τ. No
                // access happened, so the counter must not move — it
                // would break `cells_scanned == sorted + random`.
                continue;
            };
            stats.sorted_accesses += 1;
            cursors[pi] += 1;
            stats.cells_scanned += 1;
            last_seen[pi] = v;
            progressed = true;
            if !is_candidate(e) || seen[e as usize] {
                continue;
            }
            seen[e as usize] = true;

            // Complete the aggregate with random accesses to the other
            // pairs (the paper's lines 11–18).
            let mut sum = v;
            for (pj, &other) in pairs.iter().enumerate() {
                if pj == pi {
                    continue;
                }
                let val =
                    indices.random_access(dim, other, e).expect("a complete cube has every cell");
                stats.random_accesses += 1;
                stats.cells_scanned += 1;
                sum += val;
            }
            let aggregate = sum / pairs.len() as f64;

            if heap.len() < k {
                heap.push(key(aggregate, e));
            } else if let Some(&(Reverse(OrdF64(worst)), worst_e)) = heap.peek() {
                let cand = key(aggregate, e);
                if cand < (Reverse(OrdF64(worst)), worst_e) {
                    heap.pop();
                    heap.push(cand);
                }
            }
        }

        // Threshold: the average of the values at the current cursor
        // positions bounds any unseen entity's aggregate (from above for
        // MostUnfair, below for LeastUnfair, once mapped through `sign`).
        let tau = sign * last_seen.iter().sum::<f64>() / pairs.len() as f64;
        fbox_trace::instant_args("ta.threshold", |a| {
            a.u64("round", stats.rounds);
            a.f64("tau", sign * tau);
        });
        if heap.len() >= k {
            let &(Reverse(OrdF64(worst)), _) = heap.peek().expect("heap non-empty");
            // `worst` and `tau` are both in sign-adjusted space, where
            // bigger is better.
            if worst >= tau {
                fbox_trace::instant_args("ta.early_termination", |a| {
                    a.u64("round", stats.rounds);
                });
                break;
            }
        }
        if !progressed {
            break;
        }
    }

    // Drain the heap into best-first order.
    let entries = heap.into_iter().map(|(Reverse(OrdF64(sv)), e)| (e, sign * sv)).collect();
    stats.publish("ta");
    TopKResult { entries: rank(entries, k, order), stats }
}

/// TA over an incomplete cube. Differences from the complete path:
///
/// - an entity's aggregate is the average over its *present* cells (the
///   semantics [`naive_top_k`](super::naive_top_k) already uses, so the
///   two agree on degraded data);
/// - a random access probing a missing cell still counts as an access
///   (same honesty rule as the naive scan) but contributes nothing;
/// - `τ` is the **maximum** cursor value over non-exhausted lists in
///   sign space: an unseen entity only has cells in non-exhausted lists
///   (anything in an exhausted list was already seen), each such cell is
///   bounded by its list's cursor, and an average over a subset is
///   bounded by the subset's maximum. The complete path's tighter
///   average-of-cursors bound is unsound here because an unseen entity
///   need not appear in the lists with low cursors.
fn top_k_partial(
    indices: &IndexSet,
    dim: Dimension,
    k: usize,
    order: RankOrder,
    restrict: &Restriction,
) -> TopKResult {
    let _span = fbox_telemetry::span("algo.ta");
    let mut stats = TopKStats::default();

    let (da, db) = dim.others();
    let ents_a = restrict.resolve(da, indices.dim_len(da));
    let ents_b = restrict.resolve(db, indices.dim_len(db));
    let mut pairs = Vec::with_capacity(ents_a.len() * ents_b.len());
    for &a in &ents_a {
        for &b in &ents_b {
            pairs.push((a, b));
        }
    }
    let candidates: Option<Vec<bool>> = restrict.subset(dim).map(|ids| {
        let mut mask = vec![false; indices.dim_len(dim)];
        for &id in ids {
            mask[id as usize] = true;
        }
        mask
    });
    let is_candidate = |e: u32| candidates.as_ref().is_none_or(|m| m[e as usize]);

    if k == 0 || pairs.is_empty() {
        stats.publish("ta");
        return TopKResult { entries: Vec::new(), stats };
    }

    let sign = match order {
        RankOrder::MostUnfair => 1.0,
        RankOrder::LeastUnfair => -1.0,
    };
    let key = |v: f64, e: u32| (Reverse(OrdF64(sign * v)), e);

    let mut heap: BinaryHeap<(Reverse<OrdF64>, u32)> = BinaryHeap::new();
    let mut cursors = vec![0usize; pairs.len()];
    // Cursor value per list in sign space; `NEG_INFINITY` marks an
    // exhausted list, which stops bounding τ.
    let mut frontier = vec![f64::INFINITY; pairs.len()];
    let mut seen = vec![false; indices.dim_len(dim)];

    loop {
        stats.rounds += 1;
        let mut progressed = false;
        for (pi, &pair) in pairs.iter().enumerate() {
            let list = indices.list_for(dim, pair);
            let accessed = match order {
                RankOrder::MostUnfair => list.sorted_desc(cursors[pi]),
                RankOrder::LeastUnfair => list.sorted_asc(cursors[pi]),
            };
            let Some((e, v)) = accessed else {
                frontier[pi] = f64::NEG_INFINITY;
                continue;
            };
            stats.sorted_accesses += 1;
            cursors[pi] += 1;
            stats.cells_scanned += 1;
            frontier[pi] = sign * v;
            progressed = true;
            if !is_candidate(e) || seen[e as usize] {
                continue;
            }
            seen[e as usize] = true;

            // Complete the subset aggregate: probe every other list, skip
            // the missing cells.
            let mut sum = v;
            let mut present = 1usize;
            for (pj, &other) in pairs.iter().enumerate() {
                if pj == pi {
                    continue;
                }
                stats.random_accesses += 1;
                stats.cells_scanned += 1;
                if let Some(val) = indices.random_access(dim, other, e) {
                    sum += val;
                    present += 1;
                }
            }
            // `present` counts list `pi` itself, so the floor never binds.
            let aggregate = sum / present.max(1) as f64;

            if heap.len() < k {
                heap.push(key(aggregate, e));
            } else if let Some(&top) = heap.peek() {
                let cand = key(aggregate, e);
                if cand < top {
                    heap.pop();
                    heap.push(cand);
                }
            }
        }

        // τ: the best subset average any unseen entity could still reach.
        let tau =
            frontier.iter().filter(|f| f.is_finite()).fold(f64::NEG_INFINITY, |m, &f| m.max(f));
        fbox_trace::instant_args("ta.threshold", |a| {
            a.u64("round", stats.rounds);
            a.f64("tau", sign * tau);
        });
        if heap.len() >= k {
            let &(Reverse(OrdF64(worst)), _) = heap.peek().expect("heap non-empty");
            if worst >= tau {
                fbox_trace::instant_args("ta.early_termination", |a| {
                    a.u64("round", stats.rounds);
                });
                break;
            }
        }
        if !progressed {
            break;
        }
    }

    let entries = heap.into_iter().map(|(Reverse(OrdF64(sv)), e)| (e, sign * sv)).collect();
    stats.publish("ta");
    TopKResult { entries: rank(entries, k, order), stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::UnfairnessCube;
    use crate::model::{GroupId, LocationId, QueryId};

    /// 4 groups × 2 queries × 2 locations with group aggregates
    /// 0.2, 0.4, 0.6, 0.8.
    fn cube() -> UnfairnessCube {
        let mut c = UnfairnessCube::with_dims(4, 2, 2);
        for g in 0..4u32 {
            let base = 0.2 * (g + 1) as f64;
            for q in 0..2u32 {
                for l in 0..2u32 {
                    // Spread around the base but keep the mean at base.
                    let delta = match (q, l) {
                        (0, 0) => 0.05,
                        (0, 1) => -0.05,
                        (1, 0) => 0.02,
                        _ => -0.02,
                    };
                    c.set(GroupId(g), QueryId(q), LocationId(l), base + delta);
                }
            }
        }
        c
    }

    #[test]
    fn most_unfair_groups() {
        let idx = crate::index::IndexSet::build(&cube());
        let r = top_k(&idx, Dimension::Group, 2, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[0].0, 3);
        assert!((r.entries[0].1 - 0.8).abs() < 1e-12);
        assert_eq!(r.entries[1].0, 2);
        assert!((r.entries[1].1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn least_unfair_groups() {
        let idx = crate::index::IndexSet::build(&cube());
        let r = top_k(&idx, Dimension::Group, 2, RankOrder::LeastUnfair, &Restriction::none());
        assert_eq!(r.entries[0].0, 0);
        assert!((r.entries[0].1 - 0.2).abs() < 1e-12);
        assert_eq!(r.entries[1].0, 1);
    }

    #[test]
    fn k_larger_than_dimension_returns_all() {
        let idx = crate::index::IndexSet::build(&cube());
        let r = top_k(&idx, Dimension::Group, 10, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(r.entries.len(), 4);
        // Best-first order.
        for w in r.entries.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    /// Regression: with k > dim_len every list is walked to exhaustion and
    /// the final round's failed sorted accesses used to be counted, so
    /// `sorted_accesses` exceeded the cells actually read and broke the
    /// invariant `cells_scanned == sorted + random`.
    #[test]
    fn exhausted_lists_do_not_inflate_access_counters() {
        let idx = crate::index::IndexSet::build(&cube());
        let r = top_k(&idx, Dimension::Group, 10, RankOrder::MostUnfair, &Restriction::none());
        // 4 lists × 4 groups fully read; each of the 4 first-seen entities
        // triggers 3 random accesses into the other lists.
        assert_eq!(r.stats.sorted_accesses, 16);
        assert_eq!(r.stats.random_accesses, 12);
        assert_eq!(r.stats.cells_scanned, r.stats.sorted_accesses + r.stats.random_accesses);
    }

    #[test]
    fn k_zero_returns_empty() {
        let idx = crate::index::IndexSet::build(&cube());
        let r = top_k(&idx, Dimension::Group, 0, RankOrder::MostUnfair, &Restriction::none());
        assert!(r.entries.is_empty());
    }

    #[test]
    fn restriction_on_returned_dimension() {
        let idx = crate::index::IndexSet::build(&cube());
        let restrict = Restriction::on(Dimension::Group, vec![0, 1]);
        let r = top_k(&idx, Dimension::Group, 1, RankOrder::MostUnfair, &restrict);
        assert_eq!(r.entries[0].0, 1); // best among {0, 1}
    }

    #[test]
    fn restriction_on_aggregated_dimension() {
        // Restrict to q=0 only: aggregates become base ± 0.05 averaged →
        // base, ordering unchanged, but τ math must still terminate.
        let idx = crate::index::IndexSet::build(&cube());
        let restrict = Restriction::on(Dimension::Query, vec![0]);
        let r = top_k(&idx, Dimension::Group, 4, RankOrder::MostUnfair, &restrict);
        assert_eq!(r.entries.len(), 4);
        assert_eq!(r.entries[0].0, 3);
    }

    #[test]
    fn query_and_location_dimensions_work() {
        let idx = crate::index::IndexSet::build(&cube());
        let rq = top_k(&idx, Dimension::Query, 2, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(rq.entries.len(), 2);
        let rl = top_k(&idx, Dimension::Location, 2, RankOrder::LeastUnfair, &Restriction::none());
        assert_eq!(rl.entries.len(), 2);
    }

    /// A degraded cube: group 3 lost one cell, group 1 lost all but one,
    /// group 0 lost everything. TA must agree with the naive scan's
    /// subset-average semantics, including the omission of group 0.
    fn degraded_cube() -> UnfairnessCube {
        let mut c = cube();
        c.set_opt(GroupId(3), QueryId(0), LocationId(0), None);
        for (q, l) in [(0, 0), (0, 1), (1, 0)] {
            c.set_opt(GroupId(1), QueryId(q), LocationId(l), None);
        }
        for q in 0..2u32 {
            for l in 0..2u32 {
                c.set_opt(GroupId(0), QueryId(q), LocationId(l), None);
            }
        }
        c
    }

    #[test]
    fn partial_cube_matches_naive() {
        let c = degraded_cube();
        let idx = crate::index::IndexSet::build(&c);
        assert!(!idx.is_complete());
        for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
            for k in [1usize, 2, 4, 10] {
                let ta = top_k(&idx, Dimension::Group, k, order, &Restriction::none());
                let nv =
                    crate::algo::naive_top_k(&c, Dimension::Group, k, order, &Restriction::none());
                assert_eq!(ta.entries.len(), nv.entries.len(), "{order:?} k={k}");
                for (a, b) in ta.entries.iter().zip(&nv.entries) {
                    assert_eq!(a.0, b.0, "{order:?} k={k}");
                    assert!((a.1 - b.1).abs() < 1e-9, "{order:?} k={k}: {a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn partial_cube_omits_entities_with_no_cells() {
        let c = degraded_cube();
        let idx = crate::index::IndexSet::build(&c);
        let r = top_k(&idx, Dimension::Group, 10, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(r.entries.len(), 3, "group 0 has no present cells");
        assert!(r.entries.iter().all(|&(e, _)| e != 0));
    }

    #[test]
    fn fully_missing_list_does_not_wedge_partial_ta() {
        // Every cell of query 1 is missing: two of the four posting lists
        // are empty, so they exhaust immediately and must stop bounding τ.
        let mut c = cube();
        for g in 0..4u32 {
            for l in 0..2u32 {
                c.set_opt(GroupId(g), QueryId(1), LocationId(l), None);
            }
        }
        let idx = crate::index::IndexSet::build(&c);
        let ta = top_k(&idx, Dimension::Group, 4, RankOrder::MostUnfair, &Restriction::none());
        let nv = crate::algo::naive_top_k(
            &c,
            Dimension::Group,
            4,
            RankOrder::MostUnfair,
            &Restriction::none(),
        );
        assert_eq!(ta.entries.len(), 4);
        for (a, b) in ta.entries.iter().zip(&nv.entries) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn early_termination_saves_accesses() {
        // Many groups, one clearly dominant: TA should stop long before
        // scanning everything.
        let n = 200u32;
        let mut c = UnfairnessCube::with_dims(n as usize, 2, 2);
        for g in 0..n {
            // Group 0 dominates with 0.99 everywhere; the rest are low.
            let v = if g == 0 { 0.99 } else { 0.1 + (g as f64) * 0.001 };
            for q in 0..2u32 {
                for l in 0..2u32 {
                    c.set(GroupId(g), QueryId(q), LocationId(l), v);
                }
            }
        }
        let idx = crate::index::IndexSet::build(&c);
        let r = top_k(&idx, Dimension::Group, 1, RankOrder::MostUnfair, &Restriction::none());
        assert_eq!(r.entries[0].0, 0);
        // Full scan would need n sorted accesses per list; TA stops after
        // a handful of rounds.
        assert!(
            r.stats.sorted_accesses < (n as u64) * 4 / 2,
            "expected early termination, did {} sorted accesses",
            r.stats.sorted_accesses
        );
    }
}
