//! Threshold Algorithm vs naive full scan — the scalability claim behind
//! the paper's §4.2 ("The computational complexity of our problems calls
//! for designing scalable solutions").
//!
//! Sweeps the returned dimension's size and `k`; the TA's early
//! termination should leave the naive scan behind as the dimension grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbox_bench::synthetic_cube;
use fbox_core::algo::{naive_top_k, top_k, RankOrder, Restriction};
use fbox_core::index::{Dimension, IndexSet};
use std::hint::black_box;

fn bench_group_dimension(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_groups");
    group.sample_size(20);
    for &n_groups in &[100usize, 1000, 10_000] {
        let cube = synthetic_cube(n_groups, 8, 8);
        let indices = IndexSet::build(&cube);
        for &k in &[1usize, 10] {
            group.bench_with_input(BenchmarkId::new(format!("ta_k{k}"), n_groups), &k, |b, &k| {
                b.iter(|| {
                    top_k(
                        black_box(&indices),
                        Dimension::Group,
                        k,
                        RankOrder::MostUnfair,
                        &Restriction::none(),
                    )
                })
            });
            group.bench_with_input(
                BenchmarkId::new(format!("naive_k{k}"), n_groups),
                &k,
                |b, &k| {
                    b.iter(|| {
                        naive_top_k(
                            black_box(&cube),
                            Dimension::Group,
                            k,
                            RankOrder::MostUnfair,
                            &Restriction::none(),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_other_dimensions(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_dimensions");
    group.sample_size(20);
    let cube = synthetic_cube(64, 96, 56); // TaskRabbit-shaped
    let indices = IndexSet::build(&cube);
    for (name, dim) in [("query", Dimension::Query), ("location", Dimension::Location)] {
        group.bench_function(BenchmarkId::new("ta", name), |b| {
            b.iter(|| {
                top_k(black_box(&indices), dim, 10, RankOrder::LeastUnfair, &Restriction::none())
            })
        });
        group.bench_function(BenchmarkId::new("naive", name), |b| {
            b.iter(|| {
                naive_top_k(black_box(&cube), dim, 10, RankOrder::LeastUnfair, &Restriction::none())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_group_dimension, bench_other_dimensions);
criterion_main!(benches);
