//! Durable ingestion drivers: crawl and study runs backed by the
//! segment log.
//!
//! Each driver opens (or resumes) a [`SegmentLog`], replays its surviving
//! records into the run's write-ahead journal, then hands that journal to
//! the ordinary resilient runner with a sink that appends every *newly*
//! resolved cell back to the log. Replayed cells are never re-executed
//! and never re-appended; quarantined or torn-away records simply are not
//! in the journal, so the runner re-runs exactly those cells.
//!
//! Recovery therefore converges: each open bumps the log generation,
//! which re-keys the storage-fault draws ([`StoragePlan::fault`]), and
//! every generation strictly grows the set of durably persisted cells
//! unless *every* append tears — impossible under any profile that can
//! draw clean. The final run's in-memory result folds from the whole
//! journal in grid/recruitment order, so it is bit-equal to an
//! uninterrupted build regardless of which generation executed which
//! cell or what `FBOX_THREADS` was at any point.

use crate::record;
use crate::segment::{Append, ReplayStats, SegmentLog};
use fbox_marketplace::{crawl_with_sink, CrawlJournal, CrawlRun, Marketplace};
use fbox_resilience::{Resilience, StoragePlan};
use fbox_search::{run_study_journaled, ExtensionRunner, StudyDesign, StudyJournal, StudyRun};
use std::io;
use std::path::Path;

/// A durable run's outcome: the ordinary run result plus what the log
/// replay found and what this generation appended.
#[derive(Debug)]
pub struct Durable<R> {
    /// The run, folded from the full journal (replayed + new cells).
    pub run: R,
    /// What replay found when the log was opened.
    pub replay: ReplayStats,
    /// Records this generation durably appended.
    pub appended: usize,
    /// Whether a torn write crashed the log mid-run. The returned `run`
    /// is still complete in memory; the *next* open will re-run whatever
    /// tore away.
    pub crashed: bool,
}

/// A crawl whose journal is durably backed by a segment log at `path`,
/// under the storage-fault plan from the environment.
pub fn crawl_durable(
    marketplace: &Marketplace,
    resilience: &Resilience,
    path: &Path,
) -> io::Result<Durable<CrawlRun>> {
    crawl_durable_with_plan(marketplace, resilience, path, StoragePlan::from_env())
}

/// [`crawl_durable`] under an explicit storage-fault plan.
pub fn crawl_durable_with_plan(
    marketplace: &Marketplace,
    resilience: &Resilience,
    path: &Path,
    plan: StoragePlan,
) -> io::Result<Durable<CrawlRun>> {
    let _span = fbox_telemetry::span("store.ingest.crawl");
    let (mut log, payloads, replay) = SegmentLog::open_with_plan(path, plan)?;

    let mut journal = CrawlJournal::new();
    for payload in &payloads {
        let (key, cell) = record::decode_crawl(payload)?;
        let rejected = journal.append(key, cell);
        assert!(rejected.is_none(), "segment log contains duplicate cell records (key {key})");
    }

    let mut appended = 0usize;
    let mut log_error: Option<io::Error> = None;
    let run = crawl_with_sink(marketplace, resilience, &mut journal, &mut |key, cell| {
        if log_error.is_some() {
            return;
        }
        match log.append(&record::encode_crawl(key, cell)) {
            Ok(Append::Persisted) => appended += 1,
            Ok(Append::Torn | Append::Lost) => {}
            Err(e) => log_error = Some(e),
        }
    });
    if let Some(e) = log_error {
        return Err(e);
    }
    Ok(Durable { run, replay, appended, crashed: log.is_crashed() })
}

/// A study whose journal is durably backed by a segment log at `path`,
/// under the storage-fault plan from the environment.
pub fn study_durable(
    design: &StudyDesign,
    engine: &fbox_search::SearchEngine,
    runner: &ExtensionRunner,
    resilience: &Resilience,
    path: &Path,
) -> io::Result<Durable<StudyRun>> {
    study_durable_with_plan(design, engine, runner, resilience, path, StoragePlan::from_env())
}

/// [`study_durable`] under an explicit storage-fault plan.
pub fn study_durable_with_plan(
    design: &StudyDesign,
    engine: &fbox_search::SearchEngine,
    runner: &ExtensionRunner,
    resilience: &Resilience,
    path: &Path,
    plan: StoragePlan,
) -> io::Result<Durable<StudyRun>> {
    let _span = fbox_telemetry::span("store.ingest.study");
    let (mut log, payloads, replay) = SegmentLog::open_with_plan(path, plan)?;

    let mut journal = StudyJournal::new();
    for payload in &payloads {
        let (uid, participant) = record::decode_study(payload)?;
        let rejected = journal.append(uid, participant);
        assert!(
            rejected.is_none(),
            "segment log contains duplicate participant records (uid {uid})"
        );
    }

    let mut appended = 0usize;
    let mut log_error: Option<io::Error> = None;
    let run =
        run_study_journaled(design, engine, runner, resilience, &mut journal, &mut |uid, rec| {
            if log_error.is_some() {
                return;
            }
            match log.append(&record::encode_study(uid, rec)) {
                Ok(Append::Persisted) => appended += 1,
                Ok(Append::Torn | Append::Lost) => {}
                Err(e) => log_error = Some(e),
            }
        });
    if let Some(e) = log_error {
        return Err(e);
    }
    Ok(Durable { run, replay, appended, crashed: log.is_crashed() })
}
