//! Epoch-isolation contracts of the incremental cube store (`fbox-store`).
//!
//! Readers pin an [`EpochSnapshot`] and must see a frozen, byte-stable
//! cube — top-k and compare answers included — no matter how much
//! ingestion and publishing happens concurrently. And the incremental
//! path itself must be invisible in the output: a cube grown cell by cell
//! through delta updates is bit-equal to one batch-built from the same
//! observations, however often a cell is rewritten before a publish.

use fbox::core::algo::{Entity, RankOrder, Restriction};
use fbox::core::model::{GroupId, LocationId, QueryId};
use fbox::core::{Dimension, UnfairnessCube};
use fbox::marketplace::{crawl, BiasProfile, Marketplace, Population, ScoringModel};
use fbox::store::EpochStore;
use fbox::{FBox, MarketMeasure};
use std::sync::Arc;

fn marketplace() -> Marketplace {
    Marketplace::new(Population::paper(5), ScoringModel::default(), BiasProfile::neutral(), 5)
}

fn assert_cubes_bit_identical(a: &UnfairnessCube, b: &UnfairnessCube, context: &str) {
    let bits =
        |c: &UnfairnessCube| c.raw_data().iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "{context}: cube cells diverged");
}

/// Renders every read-side answer the store serves — top-k on all three
/// dimensions in both orders, plus a breakdown comparison — into one
/// string, so "byte-identical" is checked across the whole read surface.
fn read_surface(fbox: &FBox) -> String {
    let mut out = String::new();
    let restrict = Restriction::none();
    for dim in [Dimension::Group, Dimension::Query, Dimension::Location] {
        for order in [RankOrder::MostUnfair, RankOrder::LeastUnfair] {
            let result = fbox.top_k(dim, 5, order, &restrict);
            out.push_str(&format!("{dim:?} {order:?}:"));
            for (id, v) in &result.entries {
                out.push_str(&format!(" {id}={:016x}", v.to_bits()));
            }
            out.push('\n');
        }
    }
    let cmp = fbox.compare(
        Entity::Group(GroupId(0)),
        Entity::Group(GroupId(1)),
        Dimension::Location,
        None,
        &restrict,
    );
    out.push_str(&format!("{cmp:?}\n"));
    out
}

#[test]
fn pinned_epoch_reads_are_byte_stable_under_concurrent_ingestion() {
    let m = marketplace();
    let (universe, observations, _) = crawl(&m);
    let cells: Vec<_> =
        observations.cells().map(|((q, l), ranking)| (q, l, ranking.clone())).collect();
    let split = cells.len() / 3;

    let store = Arc::new(EpochStore::new(universe));
    for (q, l, ranking) in &cells[..split] {
        store.ingest_market(*q, *l, Some(ranking), MarketMeasure::exposure());
    }
    let pinned = store.publish();
    assert_eq!(pinned.epoch(), 1);

    let before = read_surface(pinned.fbox());
    let cube_before: Vec<_> =
        pinned.fbox().cube().raw_data().iter().map(|v| v.map(f64::to_bits)).collect();

    // Later epochs ingest and publish concurrently while the pin is held.
    let writer = {
        let store = Arc::clone(&store);
        let rest: Vec<_> = cells[split..].to_vec();
        std::thread::spawn(move || {
            for (i, (q, l, ranking)) in rest.iter().enumerate() {
                store.ingest_market(*q, *l, Some(ranking), MarketMeasure::exposure());
                if i % 500 == 0 {
                    let _ = store.publish();
                }
            }
            store.publish()
        })
    };
    // Interleave reads with the writer's publishes.
    for _ in 0..10 {
        assert_eq!(read_surface(pinned.fbox()), before, "pinned read surface drifted mid-write");
    }
    let last = writer.join().expect("writer thread");

    assert!(last.epoch() > pinned.epoch(), "publishing must advance the epoch");
    assert_eq!(store.latest().epoch(), last.epoch());
    let cube_after: Vec<_> =
        pinned.fbox().cube().raw_data().iter().map(|v| v.map(f64::to_bits)).collect();
    assert_eq!(cube_before, cube_after, "pinned cube bytes drifted");
    assert_eq!(read_surface(pinned.fbox()), before, "pinned read surface drifted after writes");
}

#[test]
fn incremental_ingestion_matches_batch_build_bit_for_bit() {
    let m = marketplace();
    let (universe, observations, _) = crawl(&m);
    let batch = FBox::from_market(universe.clone(), &observations, MarketMeasure::exposure());

    // Stream the same observations through the store in an order that is
    // *not* grid order (reversed), to prove order-independence of the
    // delta updates.
    let store = EpochStore::new(universe);
    let cells: Vec<_> = observations.cells().collect();
    for ((q, l), ranking) in cells.into_iter().rev() {
        store.ingest_market(q, l, Some(ranking), MarketMeasure::exposure());
    }
    let published = store.publish();

    assert_cubes_bit_identical(batch.cube(), published.fbox().cube(), "incremental vs batch");
    // The delta-maintained indices answer identically to freshly built
    // ones; spot-check the full read surface.
    assert_eq!(read_surface(&batch), read_surface(published.fbox()));
    // Sanity: the cube really has data.
    assert!(
        published.fbox().cube().get(GroupId(0), QueryId(0), LocationId(0)).is_some()
            || published.fbox().cube().coverage() > 0.0
    );
}

#[test]
fn rewrites_within_an_epoch_publish_only_the_last_write() {
    let m = marketplace();
    let (universe, observations, _) = crawl(&m);
    let batch = FBox::from_market(universe.clone(), &observations, MarketMeasure::exposure());
    let cells: Vec<_> = observations.cells().collect();
    let (first_q, first_l) = cells[0].0;

    let store = EpochStore::new(universe);
    // Every cell is first written with another cell's ranking, then
    // cleared, then written with its own: only the last write counts.
    for (i, &((q, l), ranking)) in cells.iter().enumerate() {
        let wrong = cells[(i + 1) % cells.len()].1;
        store.ingest_market(q, l, Some(wrong), MarketMeasure::exposure());
        store.ingest_market(q, l, None, MarketMeasure::exposure());
        store.ingest_market(q, l, Some(ranking), MarketMeasure::exposure());
    }
    assert_eq!(store.dirty_cells(), 3 * cells.len() as u64, "every ingest is counted");
    let published = store.publish();
    assert_eq!(store.dirty_cells(), 0);
    assert_eq!(published.stats().cells_applied, cells.len() as u64, "each cell applied once");
    assert_cubes_bit_identical(batch.cube(), published.fbox().cube(), "rewritten vs batch");
    assert_eq!(read_surface(&batch), read_surface(published.fbox()));

    // Clearing a cell and refilling it within one epoch is a no-op: the
    // next epoch applies the cell but copies no list.
    let ranking = observations.get(first_q, first_l).expect("first cell observed");
    store.ingest_market(first_q, first_l, None, MarketMeasure::exposure());
    store.ingest_market(first_q, first_l, Some(ranking), MarketMeasure::exposure());
    let again = store.publish();
    assert_eq!(again.stats().cells_applied, 1);
    assert_eq!(again.stats().lists_cloned, 0);
    assert_cubes_bit_identical(batch.cube(), again.fbox().cube(), "clear + refill vs batch");
}
