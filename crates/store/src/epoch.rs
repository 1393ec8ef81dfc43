//! Epoch snapshots: readers see a frozen cube while ingestion continues.
//!
//! An [`EpochStore`] holds a writer-side [`FBox`], a *pending* map of
//! evaluated cells, and the latest *published* epoch: an immutable
//! [`EpochSnapshot`] behind an `Arc`. [`EpochStore::ingest_market`] only
//! evaluates a cell ([`FBox::evaluate_cell`]) and parks its per-group
//! values under `(q, l)`; a later ingest of the same cell overwrites
//! them, so the map never outgrows the cube. Top-k, naive scans, and
//! `compare` run against a pinned epoch and are byte-stable for as long
//! as the pin is held, no matter how much ingestion or publishing
//! happens concurrently.
//!
//! [`EpochStore::publish`] applies the pending cells to the writer F-Box
//! in `(q, l)` order ([`FBox::apply_cell`]) and publishes a clone. The
//! clone shares every posting list with the writer (they sit behind
//! `Arc`s), so the next epoch's first update of a list copies it once
//! and lists no cell touched stay shared across epochs: a publish costs
//! the lists it touches plus one copy of the cube. Epoch numbers start at
//! 0 (the empty universe) and increase by one per publish.
//!
//! Determinism: the store reads no clocks and no environment; epoch
//! contents are a pure function of the ingestion sequence, so two runs
//! that ingest the same cells in the same order publish bit-identical
//! epochs.

use fbox_core::model::{LocationId, QueryId, Universe};
use fbox_core::observations::MarketRanking;
use fbox_core::unfairness::MarketMeasure;
use fbox_core::FBox;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The work one [`EpochStore::publish`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Distinct cells applied to the writer F-Box.
    pub cells_applied: u64,
    /// Posting lists that were shared with the previous epoch and had to
    /// be copied.
    pub lists_cloned: u64,
}

/// An immutable, numbered publication of the store's F-Box.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    epoch: u64,
    fbox: FBox,
    stats: PublishStats,
}

impl EpochSnapshot {
    /// The epoch number (0 = the initial empty publication).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen F-Box. All read algorithms (`top_k*`, `compare`) hang
    /// off this.
    #[must_use]
    pub fn fbox(&self) -> &FBox {
        &self.fbox
    }

    /// What publishing this epoch cost (all zero for epoch 0).
    #[must_use]
    pub fn stats(&self) -> PublishStats {
        self.stats
    }
}

/// Writer-side state, guarded by one mutex: the F-Box as of the last
/// publish, the cells evaluated since then keyed by `(q, l)`, the next
/// epoch number, and the count of ingests since the last publish.
#[derive(Debug)]
struct WriterState {
    fbox: FBox,
    pending: BTreeMap<(QueryId, LocationId), Vec<Option<f64>>>,
    next_epoch: u64,
    dirty_cells: u64,
}

/// A concurrently readable, incrementally writable cube store.
///
/// Writers call [`ingest_market`](Self::ingest_market) as cells resolve and
/// [`publish`](Self::publish) at consistency points; readers call
/// [`latest`](Self::latest) and keep the `Arc` for as long as they need
/// a frozen view.
#[derive(Debug)]
pub struct EpochStore {
    state: Mutex<WriterState>,
    published: Mutex<Arc<EpochSnapshot>>,
}

impl EpochStore {
    /// A store over an empty cube for `universe`. Epoch 0 (the empty
    /// F-Box) is published immediately.
    #[must_use]
    pub fn new(universe: Universe) -> Self {
        Self::with_fbox(FBox::empty(universe))
    }

    /// A store seeded with an existing F-Box (e.g. one loaded from a
    /// snapshot); the seed is published as epoch 0.
    #[must_use]
    pub fn with_fbox(fbox: FBox) -> Self {
        let initial = Arc::new(EpochSnapshot {
            epoch: 0,
            fbox: fbox.clone(),
            stats: PublishStats::default(),
        });
        Self {
            state: Mutex::new(WriterState {
                fbox,
                pending: BTreeMap::new(),
                next_epoch: 1,
                dirty_cells: 0,
            }),
            published: Mutex::new(initial),
        }
    }

    /// Evaluates a marketplace observation for cell `(q, l)` and queues
    /// its values for the next [`publish`](Self::publish), replacing any
    /// values queued for the same cell. `None` clears the cell (e.g. a
    /// quarantined record).
    pub fn ingest_market(
        &self,
        q: QueryId,
        l: LocationId,
        ranking: Option<&MarketRanking>,
        measure: MarketMeasure,
    ) {
        let mut state = self.state.lock().expect("epoch store writer poisoned");
        let values = state.fbox.evaluate_cell(q, l, ranking, measure);
        state.pending.insert((q, l), values);
        state.dirty_cells += 1;
    }

    /// Applies the queued cells to the writer state, freezes it into a
    /// new immutable epoch, publishes it, and returns it. Readers holding
    /// earlier epochs are unaffected.
    pub fn publish(&self) -> Arc<EpochSnapshot> {
        let _span = fbox_telemetry::span("store.epoch.publish");
        let snapshot = {
            let mut state = self.state.lock().expect("epoch store writer poisoned");
            let pending = std::mem::take(&mut state.pending);
            let mut stats = PublishStats { cells_applied: pending.len() as u64, lists_cloned: 0 };
            for ((q, l), values) in pending {
                stats.lists_cloned += state.fbox.apply_cell(q, l, &values) as u64;
            }
            let epoch = state.next_epoch;
            state.next_epoch += 1;
            state.dirty_cells = 0;
            Arc::new(EpochSnapshot { epoch, fbox: state.fbox.clone(), stats })
        };
        let t = fbox_telemetry::global();
        if t.enabled() {
            t.counter("store.epochs_published").inc();
            t.counter("store.publish.cells_applied").add(snapshot.stats.cells_applied);
            t.counter("store.publish.lists_cloned").add(snapshot.stats.lists_cloned);
        }
        *self.published.lock().expect("epoch store publication poisoned") = Arc::clone(&snapshot);
        snapshot
    }

    /// The most recently published epoch. Cloning the `Arc` pins it:
    /// the returned snapshot never changes, even across later publishes.
    #[must_use]
    pub fn latest(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.published.lock().expect("epoch store publication poisoned"))
    }

    /// Ingests since the last publish, counting repeats of one cell.
    #[must_use]
    pub fn dirty_cells(&self) -> u64 {
        self.state.lock().expect("epoch store writer poisoned").dirty_cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbox_core::model::ValueId;
    use fbox_core::model::{GroupId, Schema};
    use fbox_core::observations::RankedWorker;

    fn universe() -> Universe {
        let mut u = Universe::with_all_groups(Schema::gender_ethnicity());
        u.add_query("Home Cleaning", Some("General Cleaning"));
        u.add_location("San Francisco, CA", None);
        u
    }

    fn ranking() -> MarketRanking {
        let workers = (1..=10)
            .map(|rank| RankedWorker {
                assignment: vec![ValueId((rank % 2) as u16), ValueId(2)],
                rank,
                score: None,
            })
            .collect();
        MarketRanking::new(workers)
    }

    #[test]
    fn epochs_advance_and_pins_stay_frozen() {
        let store = EpochStore::new(universe());
        let empty = store.latest();
        assert_eq!(empty.epoch(), 0);
        assert!(empty.fbox().cube().raw_data().iter().all(Option::is_none));

        store.ingest_market(QueryId(0), LocationId(0), Some(&ranking()), MarketMeasure::exposure());
        assert_eq!(store.dirty_cells(), 1);
        let filled = store.publish();
        assert_eq!(filled.epoch(), 1);
        assert_eq!(store.dirty_cells(), 0);

        // The pinned epoch 0 still sees the empty cube.
        assert!(empty.fbox().cube().raw_data().iter().all(Option::is_none));
        assert!(filled.fbox().cube().get(GroupId(0), QueryId(0), LocationId(0)).is_some());
        assert_eq!(store.latest().epoch(), 1);
    }

    #[test]
    fn clearing_a_cell_is_an_update() {
        let store = EpochStore::new(universe());
        store.ingest_market(QueryId(0), LocationId(0), Some(&ranking()), MarketMeasure::exposure());
        let _ = store.publish();
        store.ingest_market(QueryId(0), LocationId(0), None, MarketMeasure::exposure());
        let cleared = store.publish();
        assert_eq!(cleared.epoch(), 2);
        assert!(cleared.fbox().cube().raw_data().iter().all(Option::is_none));
    }

    fn cell_bits(fbox: &FBox, q: u32, l: u32) -> Vec<Option<u64>> {
        let (q, l) = (QueryId(q), LocationId(l));
        fbox.universe().group_ids().map(|g| fbox.cube().get(g, q, l).map(f64::to_bits)).collect()
    }

    #[test]
    fn last_write_to_a_cell_wins_and_is_applied_once() {
        let other = MarketRanking::new(
            (1..=6)
                .map(|rank| RankedWorker {
                    assignment: vec![ValueId(u16::from(rank > 3)), ValueId((rank % 3) as u16)],
                    rank,
                    score: None,
                })
                .collect(),
        );
        let mut want = FBox::empty(universe());
        want.update_cell(QueryId(0), LocationId(0), Some(&other), MarketMeasure::exposure());

        let store = EpochStore::new(universe());
        store.ingest_market(QueryId(0), LocationId(0), Some(&ranking()), MarketMeasure::exposure());
        store.ingest_market(QueryId(0), LocationId(0), Some(&other), MarketMeasure::exposure());
        assert_eq!(store.dirty_cells(), 2, "dirty_cells counts ingests, not distinct cells");
        let published = store.publish();
        assert_eq!(published.stats().cells_applied, 1);
        assert_eq!(cell_bits(published.fbox(), 0, 0), cell_bits(&want, 0, 0));
        assert_ne!(cell_bits(&want, 0, 0), {
            let mut first = FBox::empty(universe());
            first.update_cell(
                QueryId(0),
                LocationId(0),
                Some(&ranking()),
                MarketMeasure::exposure(),
            );
            cell_bits(&first, 0, 0)
        });
    }

    #[test]
    fn clear_then_refill_within_one_epoch() {
        let store = EpochStore::new(universe());
        store.ingest_market(QueryId(0), LocationId(0), Some(&ranking()), MarketMeasure::exposure());
        let filled = store.publish();
        store.ingest_market(QueryId(0), LocationId(0), None, MarketMeasure::exposure());
        store.ingest_market(QueryId(0), LocationId(0), Some(&ranking()), MarketMeasure::exposure());
        assert_eq!(store.dirty_cells(), 2);
        let refilled = store.publish();
        assert_eq!(refilled.stats(), PublishStats { cells_applied: 1, lists_cloned: 0 });
        assert_eq!(cell_bits(refilled.fbox(), 0, 0), cell_bits(filled.fbox(), 0, 0));
        assert!(std::ptr::eq(
            refilled.fbox().indices().group_list(QueryId(0), LocationId(0)),
            filled.fbox().indices().group_list(QueryId(0), LocationId(0))
        ));
    }

    /// Two queries × two locations, so some lists stay untouched.
    fn grid_universe() -> Universe {
        let mut u = universe();
        u.add_query("Yard Work", Some("General Cleaning"));
        u.add_location("Chicago, IL", None);
        u
    }

    #[test]
    fn publish_counts_its_work_exactly_and_shares_untouched_lists() {
        let run = |threads: usize| {
            fbox_par::with_threads(threads, || {
                let store = EpochStore::new(grid_universe());
                let ingest = |q: u32, l: u32| {
                    store.ingest_market(
                        QueryId(q),
                        LocationId(l),
                        Some(&ranking()),
                        MarketMeasure::exposure(),
                    );
                };
                ingest(0, 0);
                ingest(0, 1);
                ingest(0, 0);
                let first = store.publish();
                ingest(1, 1);
                let second = store.publish();
                (first, second)
            })
        };
        let (first, second) = run(1);
        let present = cell_bits(first.fbox(), 0, 0).iter().filter(|v| v.is_some()).count();
        assert_eq!(present, 4, "the ranking gives P = 4 groups a value");
        // Epoch 1 copies the group lists I(0,0) and I(0,1), and per
        // present group the query lists I(g,0), I(g,1) and the location
        // list I(g,0), which both cells share and which is copied once:
        // 2 + 3P. Epoch 2 copies I(1,1), I(g,1) and I(g,1): 1 + 2P.
        assert_eq!(first.stats(), PublishStats { cells_applied: 2, lists_cloned: 14 });
        assert_eq!(second.stats(), PublishStats { cells_applied: 1, lists_cloned: 9 });
        let (first4, second4) = run(4);
        assert_eq!((first4.stats(), second4.stats()), (first.stats(), second.stats()));

        let (a, b) = (first.fbox().indices(), second.fbox().indices());
        let (q0, q1, l0, l1) = (QueryId(0), QueryId(1), LocationId(0), LocationId(1));
        assert!(std::ptr::eq(a.group_list(q0, l0), b.group_list(q0, l0)), "untouched: shared");
        assert!(!std::ptr::eq(a.group_list(q1, l1), b.group_list(q1, l1)), "touched: copied");
    }

    #[test]
    fn seeded_store_publishes_the_seed_as_epoch_zero() {
        let mut fbox = FBox::empty(universe());
        fbox.update_cell(QueryId(0), LocationId(0), Some(&ranking()), MarketMeasure::exposure());
        let store = EpochStore::with_fbox(fbox);
        let seed = store.latest();
        assert_eq!(seed.epoch(), 0);
        assert!(seed.fbox().cube().get(GroupId(0), QueryId(0), LocationId(0)).is_some());
    }
}
