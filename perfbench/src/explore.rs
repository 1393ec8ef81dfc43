//! `explore`: an analyst's mix of Problem 1 (`FBox::top_k`) and Problem 2
//! (`FBox::compare`) queries against the four built F-Boxes. One op is
//! one query. Set-up is the four `FBox::from_*` builds.

use crate::metrics::Values;
use crate::rng::{Digest, Rng};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{self, put_percentile, Workload};
use fbox_core::algo::{
    naive_top_k, top_k, ComparisonOutcome, Entity, RankOrder, Restriction, TopKResult,
};
use fbox_core::observations::{MarketObservations, SearchObservations};
use fbox_core::{Dimension, FBox, GroupId, IndexSet, LocationId, MarketMeasure, QueryId};
use fbox_core::{SearchMeasure, Universe};
use fbox_marketplace::crawl;
use fbox_repro::calibrate;
use fbox_search::run_study;
use std::path::Path;
use std::time::Instant;

const DIMS: [Dimension; 3] = [Dimension::Group, Dimension::Query, Dimension::Location];

/// Box order: TaskRabbit EMD, exposure; Google Kendall, Jaccard.
const CUBE_SPANS: [&str; 4] =
    ["core.cube.emd", "core.cube.exposure", "core.cube.kendall", "core.cube.jaccard"];

/// One in this many top-k answers is checked against another top-k
/// implementation on the same F-Box.
const CHECK_EVERY: u64 = 8;

/// Top-k queries replayed to count cells scanned per query.
const COUNTED_QUERIES: usize = 2_000;

/// One analyst query against box `b`.
#[derive(Debug, Clone)]
pub enum Query {
    TopK { b: usize, dim: Dimension, k: usize, order: RankOrder, restrict: Restriction },
    Compare { b: usize, r1: Entity, r2: Entity, breakdown: Dimension },
}

impl Query {
    #[cfg(test)]
    fn digest(&self, d: &mut Digest) {
        match self {
            Query::TopK { b, dim, k, order, restrict } => {
                d.u64(0).u64(*b as u64).u64(*dim as u64).u64(*k as u64);
                d.u64(u64::from(*order == RankOrder::MostUnfair));
                for dim in DIMS {
                    for &id in restrict.subset(dim).unwrap_or(&[]) {
                        d.u64(u64::from(id));
                    }
                    d.u64(u64::MAX);
                }
            }
            Query::Compare { b, r1, r2, breakdown } => {
                d.u64(1).u64(*b as u64).u64(r1.dimension() as u64);
                d.u64(u64::from(r1.id())).u64(u64::from(r2.id())).u64(*breakdown as u64);
            }
        }
    }
}

/// Draws queries from a seed, given each box's `[groups, queries,
/// locations]` sizes. Two thirds are top-k (half of them restricted),
/// one third comparisons.
#[derive(Debug, Clone)]
pub struct Planner {
    rng: Rng,
    shapes: [[usize; 3]; 4],
}

impl Planner {
    pub fn new(seed: u64, shapes: [[usize; 3]; 4]) -> Self {
        Self { rng: Rng::new(seed ^ 0xE8F1_0DE5), shapes }
    }

    pub fn next_query(&mut self) -> Query {
        let r = &mut self.rng;
        let b = r.below(4);
        let shape = self.shapes[b];
        let d = r.below(3);
        if r.below(3) < 2 {
            let k = r.between(1, 10);
            let order = if r.coin() { RankOrder::MostUnfair } else { RankOrder::LeastUnfair };
            let restrict = if r.coin() {
                // A subset of one aggregated dimension.
                let on = (d + r.between(1, 2)) % 3;
                let n = shape[on];
                let mut ids: Vec<u32> = (0..n as u32).collect();
                let keep = r.between(1, (n / 2).max(1));
                for i in 0..keep {
                    let j = i + r.below(n - i);
                    ids.swap(i, j);
                }
                ids.truncate(keep);
                Restriction::on(DIMS[on], ids)
            } else {
                Restriction::none()
            };
            Query::TopK { b, dim: DIMS[d], k, order, restrict }
        } else {
            let n = shape[d];
            let a = r.below(n) as u32;
            let c = ((a as usize + r.between(1, n - 1)) % n) as u32;
            let breakdown = DIMS[(d + r.between(1, 2)) % 3];
            let entity = |id| match DIMS[d] {
                Dimension::Group => Entity::Group(GroupId(id)),
                Dimension::Query => Entity::Query(QueryId(id)),
                Dimension::Location => Entity::Location(LocationId(id)),
            };
            Query::Compare { b, r1: entity(a), r2: entity(c), breakdown }
        }
    }

    /// Digest of the first `n` queries: equal seeds give equal digests.
    #[cfg(test)]
    pub fn digest(mut self, n: usize) -> u64 {
        let mut d = Digest::default();
        for _ in 0..n {
            self.next_query().digest(&mut d);
        }
        d.finish()
    }
}

pub enum Answer {
    TopK(TopKResult),
    Compare(Option<ComparisonOutcome>),
}

pub struct Input {
    market: (Universe, MarketObservations),
    search: (Universe, SearchObservations),
    seed: u64,
}

pub struct Explore {
    boxes: [FBox; 4],
    planner: Planner,
    seed: u64,
    topk_seen: u64,
}

fn shapes(boxes: &[FBox; 4]) -> [[usize; 3]; 4] {
    boxes.each_ref().map(|fb| {
        let u = fb.universe();
        [u.n_groups(), u.n_queries(), u.n_locations()]
    })
}

impl Explore {
    fn run(&self, q: &Query, tr: &mut Tracer) -> Answer {
        match q {
            Query::TopK { b, dim, k, order, restrict } => {
                let fb = &self.boxes[*b];
                // `FBox::top_k` takes the threshold algorithm on a complete
                // cube and the naive scan otherwise.
                let span = if fb.cube().is_complete() { "core.algo.ta" } else { "core.algo.naive" };
                Answer::TopK(tr.span(span, || fb.top_k(*dim, *k, *order, restrict)))
            }
            Query::Compare { b, r1, r2, breakdown } => {
                Answer::Compare(tr.span("core.algo.compare", || {
                    self.boxes[*b].compare(*r1, *r2, *breakdown, None, &Restriction::none())
                }))
            }
        }
    }
}

impl Workload for Explore {
    type Input = Input;
    type Request = Query;
    type Output = Answer;

    fn prepare(seed: u64, _dir: &Path) -> Input {
        let (mu, mobs, _) = crawl(&workload::marketplace(calibrate::SEED));
        let (engine, design, runner) = workload::study();
        let (su, sobs, _) = run_study(&design, &engine, &runner);
        Input { market: (mu, mobs), search: (su, sobs), seed }
    }

    fn setup(input: Input, tr: &mut Tracer) -> Self {
        let seed = input.seed;
        let (mu, mobs) = input.market;
        let (su, sobs) = input.search;
        let boxes = [
            tr.span(CUBE_SPANS[0], || FBox::from_market(mu.clone(), &mobs, MarketMeasure::emd())),
            tr.span(CUBE_SPANS[1], || FBox::from_market(mu, &mobs, MarketMeasure::exposure())),
            tr.span(CUBE_SPANS[2], || {
                FBox::from_search(su.clone(), &sobs, SearchMeasure::kendall())
            }),
            tr.span(CUBE_SPANS[3], || FBox::from_search(su, &sobs, SearchMeasure::JaccardDistance)),
        ];
        let planner = Planner::new(seed, shapes(&boxes));
        Self { boxes, planner, seed, topk_seen: 0 }
    }

    fn request(&mut self, _i: u64) -> Query {
        self.planner.next_query()
    }

    fn op(&mut self, q: &Query, tr: &mut Tracer) -> Answer {
        self.run(q, tr)
    }

    fn check(&mut self, q: &Query, out: Answer) -> bool {
        match (q, out) {
            (Query::TopK { b, dim, k, order, restrict }, Answer::TopK(got)) => {
                self.topk_seen += 1;
                // A seeded sample of answers, replayed against an oracle
                // that `FBox::top_k` does not itself call: the naive scan
                // for the threshold algorithm on complete cubes, the
                // partial-index threshold algorithm for the naive scan on
                // incomplete ones.
                let pick = Digest::default().u64(self.seed).u64(self.topk_seen).finish();
                if pick % CHECK_EVERY != 0 {
                    return got.entries.len() <= *k;
                }
                let fb = &self.boxes[*b];
                let want = if fb.cube().is_complete() {
                    naive_top_k(fb.cube(), *dim, *k, *order, restrict)
                } else {
                    top_k(fb.indices(), *dim, *k, *order, restrict)
                };
                same_values(&got.entries, &want.entries)
            }
            (Query::Compare { .. }, Answer::Compare(Some(c))) => c.rows.iter().all(|row| {
                let order = |a: f64, b: f64| a.total_cmp(&b);
                row.reversed == (order(row.d1, row.d2) != order(c.overall1, c.overall2))
            }),
            _ => false,
        }
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Values) {
        for (span, metric) in CUBE_SPANS.iter().zip([
            "core.cube.emd_ms",
            "core.cube.exposure_ms",
            "core.cube.kendall_ms",
            "core.cube.jaccard_ms",
        ]) {
            workload::put_median_ms(tr, span, metric, out);
        }
        for (algo, p50, p99) in [
            ("core.algo.ta", "core.algo.ta_us.p50", "core.algo.ta_us.p99"),
            ("core.algo.naive", "core.algo.naive_us.p50", "core.algo.naive_us.p99"),
            ("core.algo.compare", "core.algo.compare_us.p50", "core.algo.compare_us.p99"),
        ] {
            put_percentile(tr, algo, 50.0, p50, out);
            put_percentile(tr, algo, 99.0, p99, out);
        }
        out.insert("core.index.build_ms", self.index_build_ms());
        let (ta, naive) = self.cells_per_query();
        out.insert("core.algo.ta_cells_per_query", ta);
        out.insert("core.algo.naive_cells_per_query", naive);
    }
}

impl Explore {
    /// `IndexSet::build` over the four cubes, median of five rounds.
    fn index_build_ms(&self) -> f64 {
        let rounds: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for fb in &self.boxes {
                    std::hint::black_box(IndexSet::build(fb.cube()));
                }
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        stats::median(&rounds).expect("five rounds")
    }

    /// Mean `TopKStats::cells_scanned` of the TA and naive top-k queries
    /// among the seed's first top-k queries: an exact count per seed.
    fn cells_per_query(&self) -> (f64, f64) {
        let mut planner = Planner::new(self.seed, shapes(&self.boxes));
        let mut sums = [(0u64, 0u64); 2];
        let mut seen = 0;
        while seen < COUNTED_QUERIES {
            let q = planner.next_query();
            if let Query::TopK { b, .. } = q {
                let Answer::TopK(r) = self.run(&q, &mut Tracer::new(false)) else {
                    unreachable!("a top-k query answers with a top-k result")
                };
                let slot = &mut sums[usize::from(!self.boxes[b].cube().is_complete())];
                slot.0 += r.stats.cells_scanned;
                slot.1 += 1;
                seen += 1;
            }
        }
        let mean = |(sum, n): (u64, u64)| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        (mean(sums[0]), mean(sums[1]))
    }
}

/// The answers rank the same number of entities with the same values;
/// ids may differ only where values tie.
fn same_values(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x.1 - y.1).abs() < 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPES: [[usize; 3]; 4] = [[11, 96, 56], [11, 96, 56], [11, 20, 11], [11, 20, 11]];

    #[test]
    fn same_seed_same_query_sequence() {
        let a = Planner::new(3, SHAPES).digest(5_000);
        assert_eq!(a, Planner::new(3, SHAPES).digest(5_000));
        assert_ne!(a, Planner::new(4, SHAPES).digest(5_000));
    }

    #[test]
    fn queries_stay_in_range() {
        let mut p = Planner::new(9, SHAPES);
        for _ in 0..5_000 {
            match p.next_query() {
                Query::TopK { b, dim, k, restrict, .. } => {
                    assert!((1..=10).contains(&k));
                    assert_eq!(restrict.subset(dim), None, "restrictions aggregate dims only");
                    for (i, d) in DIMS.iter().enumerate() {
                        let ids = restrict.subset(*d).unwrap_or(&[]);
                        assert!(ids.iter().all(|&id| (id as usize) < SHAPES[b][i]));
                    }
                }
                Query::Compare { r1, r2, breakdown, .. } => {
                    assert_ne!(r1, r2);
                    assert_ne!(breakdown, r1.dimension());
                }
            }
        }
    }
}
