//! Benchmarks of the per-`(cell, group)` reference definitions behind the
//! worked examples (Figures 1–5, `unfairness::reference`): one search
//! cell under Kendall/Jaccard and one marketplace cell under
//! EMD/exposure, at crawl-realistic sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use fbox_core::model::{Schema, Universe, ValueId};
use fbox_core::observations::{MarketRanking, RankedWorker, UserList};
use fbox_core::unfairness::reference::{market_cell_unfairness, search_cell_unfairness};
use fbox_core::unfairness::{MarketMeasure, SearchMeasure};
use std::hint::black_box;

fn market_fixture() -> (Universe, MarketRanking) {
    let universe = Universe::with_all_groups(Schema::gender_ethnicity());
    // 50 workers (a full crawl page), demographics cycling.
    let workers = (1..=50)
        .map(|rank| RankedWorker {
            assignment: vec![ValueId((rank % 2) as u16), ValueId((rank % 3) as u16)],
            rank,
            score: None,
        })
        .collect();
    (universe, MarketRanking::new(workers))
}

fn search_fixture() -> (Universe, Vec<UserList>) {
    let universe = Universe::with_all_groups(Schema::gender_ethnicity());
    // 18 users (3 per full group) with partially overlapping top-10 lists.
    let lists = (0..18u64)
        .map(|u| UserList {
            assignment: vec![ValueId((u % 2) as u16), ValueId((u % 3) as u16)],
            results: (0..10).map(|i| (u * 3 + i * 7) % 40).collect(),
        })
        .collect();
    (universe, lists)
}

fn bench_market_cell(c: &mut Criterion) {
    let (universe, ranking) = market_fixture();
    let bf = universe.group_id_by_text("gender=Female & ethnicity=Black").unwrap();
    c.bench_function("cell/market_emd", |b| {
        b.iter(|| {
            market_cell_unfairness(
                black_box(&universe),
                black_box(&ranking),
                bf,
                MarketMeasure::emd(),
            )
        })
    });
    c.bench_function("cell/market_exposure", |b| {
        b.iter(|| {
            market_cell_unfairness(
                black_box(&universe),
                black_box(&ranking),
                bf,
                MarketMeasure::exposure(),
            )
        })
    });
}

fn bench_search_cell(c: &mut Criterion) {
    let (universe, lists) = search_fixture();
    let bf = universe.group_id_by_text("gender=Female & ethnicity=Black").unwrap();
    c.bench_function("cell/search_kendall", |b| {
        b.iter(|| {
            search_cell_unfairness(
                black_box(&universe),
                black_box(&lists),
                bf,
                SearchMeasure::kendall(),
            )
        })
    });
    c.bench_function("cell/search_jaccard", |b| {
        b.iter(|| {
            search_cell_unfairness(
                black_box(&universe),
                black_box(&lists),
                bf,
                SearchMeasure::JaccardDistance,
            )
        })
    });
}

criterion_group!(benches, bench_market_cell, bench_search_cell);
criterion_main!(benches);
