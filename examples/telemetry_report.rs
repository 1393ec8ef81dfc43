//! Observability walkthrough: run a small TaskRabbit-style study with
//! telemetry enabled, print the metrics table, and diff two snapshots to
//! see exactly what one extra query cost.
//!
//! The same counters power the `--metrics` mode of every `repro-*` binary
//! (or set `FBOX_TELEMETRY=1`), and the `BENCH_*.json` trajectory files of
//! the bench harness.
//!
//! Run with: `cargo run --example telemetry_report`

use fbox::core::algo::{RankOrder, Restriction};
use fbox::marketplace::{
    crawl, BiasProfile, Marketplace, Population, PopulationMarginals, ScoringModel,
};
use fbox::{Dimension, FBox, MarketMeasure};
use fbox_telemetry::{Report, Snapshot, Subscriber, TableSink};

fn main() {
    // 1. Turn the global registry on. Every instrumented layer — crawl,
    //    cube build, index build, top-k — starts recording; when this is
    //    off (the default) the same code paths read no clock.
    fbox_telemetry::set_enabled(true);

    // 2. A small marketplace: 600 workers over the full 56-city grid.
    let population = Population::generate(600, 56, PopulationMarginals::default(), 42);
    let bias = BiasProfile::neutral().with_penalty(
        fbox::marketplace::Gender::Female,
        fbox::marketplace::Ethnicity::Black,
        0.25,
    );
    let marketplace = Marketplace::new(population, ScoringModel::default(), bias, 42);
    let (universe, observations, stats) = crawl(&marketplace);
    println!("crawled {} rankings over {} workers\n", stats.n_queries, stats.n_workers);

    let fbox = FBox::from_market(universe, &observations, MarketMeasure::exposure());
    let top = fbox.top_k_groups(3, RankOrder::MostUnfair, &Restriction::none());
    println!("most unfair groups: {top:?}\n");

    // 3. Snapshots are cheap, serializable value types. Diffing two of
    //    them isolates the cost of whatever ran in between.
    let before = fbox_telemetry::global().snapshot();
    fbox.top_k(Dimension::Query, 5, RankOrder::MostUnfair, &Restriction::none());
    let after = fbox_telemetry::global().snapshot();

    println!("--- cost of one top-5 query run (snapshot diff) ---");
    print!("{}", Report::diff(&before, &after));

    // 4. The full registry, as the `--metrics` flag renders it.
    println!("\n--- full metrics table ---");
    TableSink::stdout().export(&after).expect("stdout export");

    // 5. Snapshots round-trip through JSON (the bench harness stores them
    //    as BENCH_<label>.json files and diffs runs across commits).
    let json = after.to_json();
    let back = Snapshot::from_json(&json).expect("parses");
    assert!(Report::diff(&after, &back).is_zero());
    println!("\nJSON round-trip: {} bytes, self-diff is zero", json.len());
}
