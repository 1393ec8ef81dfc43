//! The durable, checksummed segment log under incremental ingestion.
//!
//! # Record format
//!
//! ```text
//! record := magic "FBXR" (4) | len: u32 LE (4) | payload_fnv: u64 LE (8)
//!           | header_fnv: u64 LE (8) | payload[len]
//! ```
//!
//! `payload_fnv` is FNV-1a ([`fbox_resilience::hash::fnv1a`]) over the
//! payload; `header_fnv` is FNV-1a over the first 16 header bytes (magic,
//! len, payload_fnv). Two checksums split the failure modes cleanly: a
//! damaged *header* means the record boundary itself cannot be trusted —
//! everything from here on is a torn tail and is truncated; a damaged
//! *payload* behind a valid header means exactly this record is bad — it
//! is quarantined and replay continues at the next boundary, which the
//! intact `len` still locates.
//!
//! # Replay rules
//!
//! - Fewer than 24 bytes remain, the magic mismatches, or `header_fnv`
//!   mismatches → torn tail; truncate the file here.
//! - Header valid but fewer than `len` payload bytes remain → torn tail.
//! - Header valid, payload present, `payload_fnv` mismatches → quarantine
//!   this record, skip `len` bytes, continue.
//! - Otherwise the record replays.
//!
//! Because a torn write kills the writing process, a torn tail can only be
//! the *last* thing in the file; truncating it before appending restores
//! the append-only invariant.
//!
//! # Fault injection
//!
//! Writes and reads are perturbed by a [`StoragePlan`] — a pure function
//! of `(seed, generation, record index)`, where the generation (the
//! number of times this log has been opened) is persisted in a `.gen`
//! sidecar. See [`fbox_resilience::storage`] for why the generation keys
//! the draw: it is what makes crash-recovery *converge* while staying
//! fully deterministic.

use fbox_resilience::hash::fnv1a;
use fbox_resilience::{StorageFaultKind, StoragePlan};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every record.
pub const RECORD_MAGIC: [u8; 4] = *b"FBXR";

/// Fixed header size: magic (4) + len (4) + payload_fnv (8) + header_fnv (8).
pub const RECORD_HEADER_LEN: usize = 24;

/// What replay found when the log was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Records replayed intact.
    pub replayed: usize,
    /// Records whose payload checksum mismatched (bit flip on disk);
    /// skipped, their cells will be re-ingested.
    pub quarantined: usize,
    /// Bytes of torn tail truncated from the end of the file.
    pub torn_tail_bytes: u64,
    /// Reads that came up short once and succeeded on retry.
    pub short_read_retries: usize,
    /// The generation this open started (1 for a fresh log).
    pub generation: u64,
}

/// How an append resolved under fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a torn append crashes the log; callers deciding to continue must know"]
pub enum Append {
    /// The record reached the disk whole (possibly with a silently
    /// flipped payload byte — that is the point of the checksum).
    Persisted,
    /// The write tore partway through and the log is crashed: nothing
    /// else persists this generation. The in-memory run may continue;
    /// recovery re-runs whatever was lost.
    Torn,
    /// Dropped because the log crashed earlier this generation.
    Lost,
}

/// An append-only segment log of checksummed records.
#[derive(Debug)]
pub struct SegmentLog {
    path: PathBuf,
    file: File,
    plan: StoragePlan,
    generation: u64,
    n_records: u64,
    crashed: bool,
}

impl SegmentLog {
    /// Opens (or creates) the log at `path` under the fault plan from the
    /// environment ([`StoragePlan::from_env`]; inert unless `FBOX_FAULTS`
    /// is set), replaying existing records per the module rules. Returns
    /// the log positioned for appends, the surviving payloads in record
    /// order, and the replay statistics.
    pub fn open(path: &Path) -> io::Result<(Self, Vec<Vec<u8>>, ReplayStats)> {
        Self::open_with_plan(path, StoragePlan::from_env())
    }

    /// [`Self::open`] under an explicit fault plan.
    pub fn open_with_plan(
        path: &Path,
        plan: StoragePlan,
    ) -> io::Result<(Self, Vec<Vec<u8>>, ReplayStats)> {
        let _span = fbox_telemetry::span("store.segment.open");
        let generation = bump_generation(path)?;
        let buf = match std::fs::read(path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (payloads, keep_len, mut stats) = replay(&buf, &plan, generation);
        stats.generation = generation;

        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        file.set_len(keep_len)?;
        file.seek(SeekFrom::Start(keep_len))?;

        let t = fbox_telemetry::global();
        if t.enabled() {
            t.counter("store.records_replayed").add(stats.replayed as u64);
            t.counter("store.records_quarantined").add(stats.quarantined as u64);
            t.counter("store.torn_tail_bytes").add(stats.torn_tail_bytes);
            t.counter("store.short_read_retries").add(stats.short_read_retries as u64);
        }

        let n_records = (stats.replayed + stats.quarantined) as u64;
        Ok((
            Self { path: path.to_path_buf(), file, plan, generation, n_records, crashed: false },
            payloads,
            stats,
        ))
    }

    /// Appends one record. Under an inert plan this always persists; under
    /// fault injection the outcome is a pure function of
    /// `(seed, generation, record index)` — see [`Append`].
    pub fn append(&mut self, payload: &[u8]) -> io::Result<Append> {
        if self.crashed {
            return Ok(Append::Lost);
        }
        let index = self.n_records;
        let mut record = encode_record(payload);
        match self.plan.fault(self.generation, index) {
            Some(StorageFaultKind::TornWrite) => {
                // A proper prefix reaches the disk; the writing "process"
                // is gone for the rest of this generation.
                let cut = tear_point(&self.plan, self.generation, index, record.len());
                self.file.write_all(&record[..cut])?;
                self.file.flush()?;
                self.crashed = true;
                fbox_trace::instant_args("store.fault", |a| {
                    a.str("kind", StorageFaultKind::TornWrite.label());
                    a.u64("index", index);
                });
                Ok(Append::Torn)
            }
            Some(StorageFaultKind::BitFlip) => {
                // One payload byte flips on the way to disk. The checksums
                // were computed over the pristine payload, so replay will
                // catch the mismatch and quarantine exactly this record.
                if !payload.is_empty() {
                    let (byte, bit) = flip_point(&self.plan, self.generation, index, payload.len());
                    record[RECORD_HEADER_LEN + byte] ^= 1 << bit;
                }
                fbox_trace::instant_args("store.fault", |a| {
                    a.str("kind", StorageFaultKind::BitFlip.label());
                    a.u64("index", index);
                });
                self.write_record(&record)
            }
            // Short reads are a replay-side fault; the write is clean.
            Some(StorageFaultKind::ShortRead) | None => self.write_record(&record),
        }
    }

    fn write_record(&mut self, record: &[u8]) -> io::Result<Append> {
        self.file.write_all(record)?;
        self.file.flush()?;
        self.n_records += 1;
        let t = fbox_telemetry::global();
        if t.enabled() {
            t.counter("store.records_appended").inc();
            t.counter("store.bytes_appended").add(record.len() as u64);
        }
        Ok(Append::Persisted)
    }

    /// The log's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// This open's generation (1 for a fresh log).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Complete records currently on disk (replayed + quarantined + newly
    /// appended) — the index the next append will draw its fault at.
    #[must_use]
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    /// Whether a torn write killed this generation's writer. Appends are
    /// dropped until the log is reopened.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }
}

/// Encodes one record: header (magic, len, payload checksum, header
/// checksum) followed by the payload.
#[must_use]
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let len = payload.len();
    assert!(len <= u32::MAX as usize, "record payload exceeds the u32 length field");
    let mut buf = Vec::with_capacity(RECORD_HEADER_LEN + len);
    buf.extend_from_slice(&RECORD_MAGIC);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.extend_from_slice(&fnv1a(payload).to_le_bytes());
    let header_fnv = fnv1a(&buf[..16]);
    buf.extend_from_slice(&header_fnv.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Replays a log buffer: surviving payloads, the byte length to keep
/// (everything before the torn tail), and the statistics.
fn replay(buf: &[u8], plan: &StoragePlan, generation: u64) -> (Vec<Vec<u8>>, u64, ReplayStats) {
    let mut stats = ReplayStats::default();
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    let mut index = 0u64;
    let n = buf.len();
    while pos < n {
        let remaining = n - pos;
        if remaining < RECORD_HEADER_LEN {
            break; // torn tail
        }
        let header = &buf[pos..pos + RECORD_HEADER_LEN];
        let magic_ok = header[..4] == RECORD_MAGIC;
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        let payload_fnv = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let header_fnv = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        if !magic_ok || fnv1a(&header[..16]) != header_fnv {
            break; // torn tail: the boundary itself cannot be trusted
        }
        if remaining < RECORD_HEADER_LEN + len {
            break; // torn tail: the payload never finished landing
        }
        let payload = &buf[pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len];
        // A planned short read stutters once and succeeds on retry;
        // nothing on disk is affected.
        if plan.fault(generation, index) == Some(StorageFaultKind::ShortRead) {
            stats.short_read_retries += 1;
        }
        if fnv1a(payload) == payload_fnv {
            payloads.push(payload.to_vec());
            stats.replayed += 1;
        } else {
            stats.quarantined += 1;
        }
        pos += RECORD_HEADER_LEN + len;
        index += 1;
    }
    // `pos` only ever advances to a record boundary at or before `n`.
    stats.torn_tail_bytes = n.saturating_sub(pos) as u64;
    (payloads, pos as u64, stats)
}

/// Where a torn write stops: a deterministic proper prefix of the record.
fn tear_point(plan: &StoragePlan, generation: u64, index: u64, record_len: usize) -> usize {
    let draw = fbox_resilience::hash::mix(
        fbox_resilience::hash::mix(plan.seed() ^ 0x7EA2, generation),
        index,
    );
    (draw % record_len as u64) as usize
}

/// Which payload (byte, bit) a bit flip damages.
fn flip_point(plan: &StoragePlan, generation: u64, index: u64, payload_len: usize) -> (usize, u8) {
    let draw = fbox_resilience::hash::mix(
        fbox_resilience::hash::mix(plan.seed() ^ 0xB17F, generation),
        index,
    );
    ((draw % payload_len as u64) as usize, (draw >> 32) as u8 % 8)
}

/// Reads, increments, and persists the open-count sidecar (`<path>.gen`).
/// The sidecar is 8 little-endian bytes; a missing or malformed sidecar
/// counts as generation 0 (so the first open is generation 1).
fn bump_generation(path: &Path) -> io::Result<u64> {
    let mut name = path.as_os_str().to_os_string();
    name.push(".gen");
    let gen_path = PathBuf::from(name);
    let stored = match std::fs::read(&gen_path) {
        Ok(bytes) if bytes.len() == 8 => {
            u64::from_le_bytes(bytes.try_into().expect("length checked"))
        }
        Ok(_) => 0,
        Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
        Err(e) => return Err(e),
    };
    let generation = stored + 1;
    std::fs::write(&gen_path, generation.to_le_bytes())?;
    Ok(generation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbox_resilience::StorageProfile;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fbox-store-segment-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{name}-{}.fbxlog", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut gen = path.as_os_str().to_os_string();
        gen.push(".gen");
        let _ = std::fs::remove_file(PathBuf::from(gen));
        path
    }

    #[test]
    fn clean_log_round_trips_in_order() {
        let path = tmp("clean");
        let payloads: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i; usize::from(i) + 1]).collect();
        {
            let (mut log, replayed, stats) =
                SegmentLog::open_with_plan(&path, StoragePlan::none()).unwrap();
            assert!(replayed.is_empty());
            assert_eq!(stats.generation, 1);
            for p in &payloads {
                assert_eq!(log.append(p).unwrap(), Append::Persisted);
            }
        }
        let (log, replayed, stats) =
            SegmentLog::open_with_plan(&path, StoragePlan::none()).unwrap();
        assert_eq!(replayed, payloads);
        assert_eq!(stats.replayed, 10);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.torn_tail_bytes, 0);
        assert_eq!(stats.generation, 2);
        assert_eq!(log.n_records(), 10);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let path = tmp("torn");
        {
            let (mut log, _, _) = SegmentLog::open_with_plan(&path, StoragePlan::none()).unwrap();
            let _ = log.append(b"first").unwrap();
            let _ = log.append(b"second").unwrap();
        }
        // Tear the last record by hand: drop its final 3 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (mut log, replayed, stats) =
            SegmentLog::open_with_plan(&path, StoragePlan::none()).unwrap();
        assert_eq!(replayed, vec![b"first".to_vec()]);
        assert_eq!(stats.replayed, 1);
        assert_eq!(stats.torn_tail_bytes, (RECORD_HEADER_LEN + 3) as u64);
        let _ = log.append(b"second again").unwrap();
        drop(log);

        let (_, replayed, stats) = SegmentLog::open_with_plan(&path, StoragePlan::none()).unwrap();
        assert_eq!(replayed, vec![b"first".to_vec(), b"second again".to_vec()]);
        assert_eq!(stats.torn_tail_bytes, 0);
    }

    #[test]
    fn flipped_payload_byte_is_quarantined_not_fatal() {
        let path = tmp("bitflip");
        {
            let (mut log, _, _) = SegmentLog::open_with_plan(&path, StoragePlan::none()).unwrap();
            let _ = log.append(b"keep me").unwrap();
            let _ = log.append(b"damage me").unwrap();
            let _ = log.append(b"keep me too").unwrap();
        }
        // Flip one bit in the middle record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let second_payload = RECORD_HEADER_LEN + b"keep me".len() + RECORD_HEADER_LEN;
        bytes[second_payload] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (log, replayed, stats) =
            SegmentLog::open_with_plan(&path, StoragePlan::none()).unwrap();
        assert_eq!(replayed, vec![b"keep me".to_vec(), b"keep me too".to_vec()]);
        assert_eq!(stats.replayed, 2);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.torn_tail_bytes, 0);
        // The quarantined slot still occupies a record index.
        assert_eq!(log.n_records(), 3);
    }

    #[test]
    fn injected_torn_write_crashes_the_generation() {
        let path = tmp("injected-torn");
        let plan =
            StoragePlan::new(1, StorageProfile { torn_write_pm: 1000, ..StorageProfile::none() });
        let (mut log, _, _) = SegmentLog::open_with_plan(&path, plan).unwrap();
        assert_eq!(log.append(b"doomed").unwrap(), Append::Torn);
        assert!(log.is_crashed());
        assert_eq!(log.append(b"after the crash").unwrap(), Append::Lost);
        drop(log);

        // Recovery sees only a torn tail; generation 2 draws fresh faults
        // (still all-torn under this profile, so the next write tears
        // again — convergence needs a profile that can draw clean).
        let (_, replayed, stats) = SegmentLog::open_with_plan(&path, plan).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(stats.replayed, 0);
        assert_eq!(stats.generation, 2);
    }

    #[test]
    fn injected_bit_flip_quarantines_on_replay() {
        let path = tmp("injected-flip");
        let plan =
            StoragePlan::new(5, StorageProfile { bit_flip_pm: 1000, ..StorageProfile::none() });
        {
            let (mut log, _, _) = SegmentLog::open_with_plan(&path, plan).unwrap();
            assert_eq!(log.append(b"will flip").unwrap(), Append::Persisted);
        }
        let (_, replayed, stats) = SegmentLog::open_with_plan(&path, plan).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(stats.quarantined, 1);
    }

    #[test]
    fn short_reads_retry_and_lose_nothing() {
        let path = tmp("short-read");
        let plan =
            StoragePlan::new(9, StorageProfile { short_read_pm: 1000, ..StorageProfile::none() });
        {
            let (mut log, _, _) = SegmentLog::open_with_plan(&path, plan).unwrap();
            for i in 0u8..4 {
                assert_eq!(log.append(&[i]).unwrap(), Append::Persisted);
            }
        }
        let (_, replayed, stats) = SegmentLog::open_with_plan(&path, plan).unwrap();
        assert_eq!(replayed.len(), 4);
        assert_eq!(stats.short_read_retries, 4);
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn empty_payloads_are_legal_records() {
        let path = tmp("empty-payload");
        {
            let (mut log, _, _) = SegmentLog::open_with_plan(&path, StoragePlan::none()).unwrap();
            let _ = log.append(b"").unwrap();
            let _ = log.append(b"x").unwrap();
        }
        let (_, replayed, _) = SegmentLog::open_with_plan(&path, StoragePlan::none()).unwrap();
        assert_eq!(replayed, vec![Vec::new(), b"x".to_vec()]);
    }
}
