//! `ingest`: the store's write path. Re-crawled TaskRabbit cells — the
//! marketplace at simulator seed s+1, then s, alternating, so every cell
//! changes; s is the repro seed — stream in a seeded order per pass. One
//! op is one cell: appended to a `SegmentLog` and delta-ingested into one
//! `EpochStore` per market measure. Every 64th op, and the last of a
//! pass, then publishes both stores, so the op tail is the publish.
//! Set-up is the restart path: snapshot load, F-Box rebuild from the
//! cubes, and a log replay of the base crawl.

use crate::metrics::Values;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::workload::{self, put_median_ms, put_percentile, Workload};
use fbox_core::{FBox, LocationId, MarketMeasure, QueryId, UnfairnessCube, Universe};
use fbox_marketplace::{crawl_with_sink, CellOutcome, CellRecord, CrawlJournal, Marketplace};
use fbox_repro::calibrate;
use fbox_resilience::Resilience;
use fbox_store::record::{decode_crawl, encode_crawl};
use fbox_store::segment::encode_record;
use fbox_store::{Append, CubeSnapshot, EpochStore, SegmentLog};
use std::path::{Path, PathBuf};

/// Cells per published epoch. The 96 × 56 grid is 84 epochs.
pub const EPOCH_CELLS: usize = 64;

const CUBE_NAMES: [&str; 2] = ["market:emd", "market:exposure"];

fn measures() -> [MarketMeasure; 2] {
    [MarketMeasure::emd(), MarketMeasure::exposure()]
}

/// One crawl's journal records, in grid order, the seeded order a pass
/// streams them in, and the cubes a batch build makes of the crawl's
/// observations.
struct Pass {
    records: Vec<(u64, CellRecord)>,
    order: Vec<usize>,
    cubes: [UnfairnessCube; 2],
}

impl Pass {
    fn new(records: Vec<(u64, CellRecord)>, cubes: [UnfairnessCube; 2], rng: &mut Rng) -> Self {
        let mut order: Vec<usize> = (0..records.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Self { records, order, cubes }
    }
}

pub struct Input {
    dir: PathBuf,
    universe: Universe,
    /// The s+1 crawl, then the base crawl at s.
    passes: [Pass; 2],
}

pub struct Ingest {
    dir: PathBuf,
    universe: Universe,
    passes: [Pass; 2],
    stores: [EpochStore; 2],
    log: Option<SegmentLog>,
    replayed_ok: bool,
    /// Pass number and next record of the stream.
    pass: usize,
    next: usize,
}

/// One op: the `at`-th cell of pass `pass`'s order.
pub struct Cell {
    pass: usize,
    at: usize,
    publish: bool,
}

pub struct Outcome {
    persisted: bool,
}

fn crawl_records(seed: u64) -> (Universe, Vec<(u64, CellRecord)>, [UnfairnessCube; 2]) {
    let m: Marketplace = workload::marketplace(seed);
    let mut records = Vec::new();
    let run = crawl_with_sink(&m, &Resilience::none(), &mut CrawlJournal::new(), &mut |key, r| {
        records.push((key, r.clone()))
    });
    let cubes = measures().map(|measure| {
        FBox::from_market(run.universe.clone(), &run.observations, measure).cube().clone()
    });
    (run.universe, records, cubes)
}

fn paths(dir: &Path) -> (PathBuf, PathBuf, PathBuf) {
    (dir.join("base.fbxs"), dir.join("base.fbxlog"), dir.join("pass.fbxlog"))
}

/// Removes a log and its generation sidecar, so the next open is fresh.
fn remove_log(path: &Path) {
    let mut gen = path.as_os_str().to_os_string();
    gen.push(".gen");
    for p in [path.to_path_buf(), PathBuf::from(gen)] {
        match std::fs::remove_file(&p) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                panic!("cannot remove {}: {e}", p.display())
            }
            _ => {}
        }
    }
}

fn cell(universe: &Universe, key: u64) -> (QueryId, LocationId) {
    let n = universe.n_locations() as u64;
    (QueryId((key / n) as u32), LocationId((key % n) as u32))
}

fn ranking(r: &CellRecord) -> Option<&fbox_core::observations::MarketRanking> {
    match &r.outcome {
        CellOutcome::Clean(r) | CellOutcome::Truncated(r) => Some(r),
        _ => None,
    }
}

impl Workload for Ingest {
    type Input = Input;
    type Request = Cell;
    type Output = Outcome;

    fn prepare(seed: u64, dir: &Path) -> Input {
        let (universe, base, base_cubes) = crawl_records(calibrate::SEED);
        let (_, next, next_cubes) = crawl_records(calibrate::SEED.wrapping_add(1));
        std::fs::create_dir_all(dir).expect("benchmark work directory");
        let (snap_path, base_log, _) = paths(dir);
        let mut snap = CubeSnapshot::new(universe.clone());
        for (name, cube) in CUBE_NAMES.iter().zip(&base_cubes) {
            snap.insert_cube(*name, cube.clone());
        }
        snap.save(&snap_path).expect("write base snapshot");
        remove_log(&base_log);
        let (mut log, _, _) = SegmentLog::open(&base_log).expect("open base log");
        for (key, r) in &base {
            let a = log.append(&encode_crawl(*key, r)).expect("append base record");
            assert_eq!(a, Append::Persisted, "a fault-free log persists every record");
        }
        let mut rng = Rng::new(seed);
        let passes = [Pass::new(next, next_cubes, &mut rng), Pass::new(base, base_cubes, &mut rng)];
        Input { dir: dir.to_path_buf(), universe, passes }
    }

    fn setup(input: Input, tr: &mut Tracer) -> Self {
        let (snap_path, base_log, _) = paths(&input.dir);
        let snap = tr
            .span("store.snapshot_load", || CubeSnapshot::load(&snap_path))
            .expect("load base snapshot");
        let stores = CUBE_NAMES.map(|name| {
            let cube = snap.cube(name).expect("snapshot holds both market cubes").clone();
            let fb = tr.span("core.index.build", || FBox::from_cube(snap.universe().clone(), cube));
            EpochStore::with_fbox(fb)
        });
        let replayed = tr.span("store.log_replay", || {
            let (log, payloads, _) = SegmentLog::open(&base_log).expect("replay base log");
            drop(log);
            payloads.iter().map(|p| decode_crawl(p).map(|(k, _)| k)).collect::<Result<Vec<_>, _>>()
        });
        let base = &input.passes[1].records;
        let replayed_ok = replayed.is_ok_and(|keys| {
            keys.len() == base.len() && keys.iter().zip(base).all(|(k, b)| *k == b.0)
        });
        Self {
            dir: input.dir,
            universe: input.universe,
            passes: input.passes,
            stores,
            log: None,
            replayed_ok,
            pass: 0,
            next: 0,
        }
    }

    fn setup_ok(&self) -> bool {
        self.replayed_ok
    }

    fn request(&mut self, _i: u64) -> Cell {
        if self.next >= self.passes[self.pass % 2].records.len() {
            self.pass += 1;
            self.next = 0;
        }
        if self.next == 0 {
            // A fresh log each pass keeps the file bounded.
            let (_, _, pass_log) = paths(&self.dir);
            self.log = None;
            remove_log(&pass_log);
            self.log = Some(SegmentLog::open(&pass_log).expect("open pass log").0);
        }
        let at = self.next;
        self.next += 1;
        let len = self.passes[self.pass % 2].records.len();
        Cell {
            pass: self.pass,
            at,
            publish: self.next.is_multiple_of(EPOCH_CELLS) || self.next == len,
        }
    }

    fn op(&mut self, c: &Cell, tr: &mut Tracer) -> Outcome {
        let log = self.log.as_mut().expect("request opened the pass log");
        let pass = &self.passes[c.pass % 2];
        let (key, record) = &pass.records[pass.order[c.at]];
        let payload = encode_crawl(*key, record);
        let appended = tr.span("store.log_append", || log.append(&payload));
        let (q, l) = cell(&self.universe, *key);
        for (store, measure) in self.stores.iter().zip(measures()) {
            tr.span("store.ingest", || store.ingest_market(q, l, ranking(record), measure));
        }
        if c.publish {
            for store in &self.stores {
                std::hint::black_box(tr.span("store.publish", || store.publish()));
            }
        }
        Outcome { persisted: matches!(appended, Ok(Append::Persisted)) }
    }

    fn check(&mut self, c: &Cell, out: Outcome) -> bool {
        let pass = &self.passes[c.pass % 2];
        if c.at + 1 < pass.records.len() {
            return out.persisted;
        }
        // Pass end: the latest epochs equal a batch build, bit for bit.
        out.persisted
            && self.stores.iter().zip(&pass.cubes).all(|(store, want)| {
                let got = store.latest();
                let bits = |c: &UnfairnessCube| -> Vec<Option<u64>> {
                    c.raw_data().iter().map(|v| v.map(f64::to_bits)).collect()
                };
                bits(got.fbox().cube()) == bits(want)
            })
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Values) {
        put_median_ms(tr, "store.snapshot_load", "store.snapshot_load_ms", out);
        put_median_ms(tr, "store.log_replay", "store.log_replay_ms", out);
        put_median_ms(tr, "store.publish", "store.publish_ms.p50", out);
        // The restart's two `from_cube` calls, each one index build.
        let index_us: f64 = tr.durations_us("core.index.build").iter().sum();
        if index_us > 0.0 {
            out.insert("core.index.build_ms", index_us / 1e3);
        }
        put_percentile(tr, "store.log_append", 50.0, "store.log_append_us.p50", out);
        put_percentile(tr, "store.ingest", 50.0, "store.ingest_us.p50", out);
        let records = &self.passes[0].records;
        let bytes: usize =
            records.iter().map(|(k, r)| encode_record(&encode_crawl(*k, r)).len()).sum();
        out.insert("store.log_bytes_per_cell", bytes as f64 / records.len() as f64);
    }
}

impl Drop for Ingest {
    fn drop(&mut self) {
        self.log = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(seed: u64) -> Vec<usize> {
        let r = CellRecord { retries: 0, backoff_ms: 0, outcome: CellOutcome::NotOffered };
        let records = (0..500).map(|k| (k, r.clone())).collect();
        let cube = || UnfairnessCube::with_dims(1, 1, 1);
        Pass::new(records, [cube(), cube()], &mut Rng::new(seed)).order
    }

    #[test]
    fn same_seed_same_cell_order() {
        let a = pass(1);
        assert_eq!(a, pass(1));
        assert_ne!(a, pass(2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<_>>(), "every cell once per pass");
    }
}
