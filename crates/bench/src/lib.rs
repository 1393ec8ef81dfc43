//! Shared helpers for the measured bench suites: the telemetry snapshot
//! writer that makes the perf trajectory machine-readable, the suites
//! themselves ([`suites`]), and the CI perf-trend gate ([`trend`]).

pub mod suites;
pub mod trend;

use std::io;
use std::path::{Path, PathBuf};

use fbox_telemetry::{JsonSink, Report, Snapshot, Subscriber};

/// Writes the global registry's current metrics as a `BENCH_<label>.json`
/// trajectory file under `dir`, creating the directory if needed. Returns
/// the written path. The file is a serde-JSON [`Snapshot`], so a later run
/// can [`read_snapshot`] it and [`Report::diff`] the two.
pub fn write_bench_snapshot(dir: &Path, label: &str) -> io::Result<PathBuf> {
    write_snapshot(dir, label, &fbox_telemetry::global().snapshot())
}

/// Writes an explicit snapshot (e.g. from a scoped registry) as
/// `BENCH_<label>.json` under `dir`.
pub fn write_snapshot(dir: &Path, label: &str, snapshot: &Snapshot) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{label}.json"));
    let file = std::fs::File::create(&path)?;
    let mut sink = JsonSink::new(io::BufWriter::new(file));
    sink.export(snapshot)?;
    io::Write::flush(&mut sink.into_inner())?;
    Ok(path)
}

/// Reads a snapshot previously written by [`write_snapshot`].
pub fn read_snapshot(path: &Path) -> io::Result<Snapshot> {
    let text = std::fs::read_to_string(path)?;
    Snapshot::from_json(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Convenience: diff two trajectory files, oldest first.
pub fn diff_snapshots(before: &Path, after: &Path) -> io::Result<Report> {
    Ok(Report::diff(&read_snapshot(before)?, &read_snapshot(after)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_file_round_trips_and_self_diff_is_zero() {
        let registry = fbox_telemetry::Registry::new();
        registry.counter("ta.sorted_accesses").add(1234);
        registry.counter("ta.random_accesses").add(56);
        registry.histogram("index.build").record_ns(7_654_321);
        let snapshot = registry.snapshot();

        let dir = std::env::temp_dir().join(format!("fbox-bench-snap-{}", std::process::id()));
        let path = write_snapshot(&dir, "selftest", &snapshot).expect("snapshot written");
        assert!(path.ends_with("BENCH_selftest.json"));

        let back = read_snapshot(&path).expect("snapshot read back");
        assert_eq!(back, snapshot, "JSON round-trip is an identity");
        let report = Report::diff(&snapshot, &back);
        assert!(report.is_zero(), "self-diff must be zero, got: {report}");
        assert!(diff_snapshots(&path, &path).expect("file diff").is_zero());

        std::fs::remove_dir_all(&dir).ok();
    }
}
