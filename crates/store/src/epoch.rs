//! Epoch snapshots: readers see a frozen cube while ingestion continues.
//!
//! An [`EpochStore`] holds a mutable writer-side [`FBox`] that cell
//! observations delta-update as they stream in (via
//! [`FBox::update_cell`], which touches only the affected measure entries
//! and posting lists), plus the latest *published* epoch: an immutable
//! [`EpochSnapshot`] behind an `Arc`. Top-k, naive scans, and `compare`
//! run against a pinned epoch and are byte-stable for as long as the pin
//! is held, no matter how much ingestion or publishing happens
//! concurrently.
//!
//! Publishing clones the writer F-Box — an O(cube) copy, paid only at
//! epoch boundaries, never per cell. Epoch numbers start at 0 (the empty
//! universe) and increase by one per [`EpochStore::publish`].
//!
//! Determinism: the store reads no clocks and no environment; epoch
//! contents are a pure function of the ingestion sequence, so two runs
//! that ingest the same cells in the same order publish bit-identical
//! epochs.

use fbox_core::model::{LocationId, QueryId, Universe};
use fbox_core::observations::MarketRanking;
use fbox_core::unfairness::MarketMeasure;
use fbox_core::FBox;
use std::sync::{Arc, Mutex};

/// An immutable, numbered publication of the store's F-Box.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    epoch: u64,
    fbox: FBox,
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
}

/// Writer-side state, guarded by one mutex: the live F-Box, the next
/// epoch number, and the count of cell updates since the last publish.
#[derive(Debug)]
struct WriterState {
    fbox: FBox,
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
        let initial = Arc::new(EpochSnapshot { epoch: 0, fbox: fbox.clone() });
        Self {
            state: Mutex::new(WriterState { fbox, next_epoch: 1, dirty_cells: 0 }),
            published: Mutex::new(initial),
        }
    }

    /// Delta-updates the writer cube with a marketplace observation for
    /// cell `(q, l)`. `None` clears the cell (e.g. a quarantined record).
    pub fn ingest_market(
        &self,
        q: QueryId,
        l: LocationId,
        ranking: Option<&MarketRanking>,
        measure: MarketMeasure,
    ) {
        let mut state = self.state.lock().expect("epoch store writer poisoned");
        state.fbox.update_cell(q, l, ranking, measure);
        state.dirty_cells += 1;
    }

    /// Freezes the current writer state into a new immutable epoch,
    /// publishes it, and returns it. Readers holding earlier epochs are
    /// unaffected.
    pub fn publish(&self) -> Arc<EpochSnapshot> {
        let _trace = fbox_trace::span("store.epoch.publish");
        let snapshot = {
            let mut state = self.state.lock().expect("epoch store writer poisoned");
            let epoch = state.next_epoch;
            state.next_epoch += 1;
            state.dirty_cells = 0;
            Arc::new(EpochSnapshot { epoch, fbox: state.fbox.clone() })
        };
        let t = fbox_telemetry::global();
        if t.enabled() {
            t.counter("store.epochs_published").inc();
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

    /// Cell updates ingested since the last publish.
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
