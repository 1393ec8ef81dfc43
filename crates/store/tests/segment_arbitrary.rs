//! Arbitrary input for segment-log replay: `SegmentLog::open` must answer
//! `Ok` or a typed `io::Error` — never panic — on random files, on every
//! truncation and on every single-bit flip of a real three-record log.
//! Whatever it replays must be a subsequence of the payloads that were
//! written, byte for byte, and every replayed payload must go through the
//! record decoders to `Ok` or a typed `CodecError`. Inputs come from the
//! proptest shim's seeded generator, so a failure names a reproducible
//! case.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fbox_core::model::{QueryId, ValueId};
use fbox_core::observations::{MarketRanking, RankedWorker, UserList};
use fbox_marketplace::{CellOutcome, CellRecord};
use fbox_resilience::StoragePlan;
use fbox_search::{ParticipantRecord, SessionRecord};
use fbox_store::record::{decode_crawl, decode_study, encode_crawl, encode_study};
use fbox_store::segment::encode_record;
use fbox_store::SegmentLog;
use proptest::TestRng;

/// The payloads of the real log: a clean crawl page, a study participant
/// and a bare crawl outcome, as the durable runners write them.
fn payloads() -> Vec<Vec<u8>> {
    let ranking = MarketRanking::new(
        (1..=3)
            .map(|rank| RankedWorker {
                assignment: vec![ValueId((rank % 2) as u16), ValueId(1)],
                rank,
                score: (rank == 1).then_some(0.75),
            })
            .collect(),
    );
    let participant = ParticipantRecord {
        sessions: vec![SessionRecord {
            q: QueryId(3),
            list: Some(UserList { assignment: vec![ValueId(1)], results: vec![10, 20] }),
            truncated: false,
            quarantined: false,
            failed: false,
            retries: 1,
            backoff_ms: 100,
        }],
    };
    vec![
        encode_crawl(
            7,
            &CellRecord { retries: 0, backoff_ms: 0, outcome: CellOutcome::Clean(ranking) },
        ),
        encode_study(42, &participant),
        encode_crawl(
            9,
            &CellRecord { retries: 2, backoff_ms: 300, outcome: CellOutcome::Exhausted },
        ),
    ]
}

/// A log path with neither the log nor its `.gen` sidecar on disk.
fn fresh(dir: &Path) -> PathBuf {
    let path = dir.join("arbitrary.fbxlog");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("arbitrary.fbxlog.gen"));
    path
}

/// Whether `got` is `want` with zero or more elements removed.
fn is_subsequence(got: &[Vec<u8>], want: &[Vec<u8>]) -> bool {
    let mut rest = want.iter();
    got.iter().all(|g| rest.any(|w| w == g))
}

/// Opens a log holding exactly `bytes` and checks the contract. Returns
/// how many payloads replayed.
fn open_total(dir: &Path, case: &str, bytes: &[u8], written: &[Vec<u8>]) -> usize {
    let path = fresh(dir);
    std::fs::write(&path, bytes).expect("write the case file");
    let opened =
        catch_unwind(AssertUnwindSafe(|| SegmentLog::open_with_plan(&path, StoragePlan::none())))
            .unwrap_or_else(|_| panic!("SegmentLog::open panicked on {case}: {bytes:?}"));
    // An `io::Error` is a typed answer; only a replay is checked further.
    let Ok((_log, replayed, stats)) = opened else { return 0 };
    assert!(is_subsequence(&replayed, written), "{case}: replayed {replayed:?}");
    assert_eq!(stats.replayed, replayed.len(), "{case}");
    for payload in &replayed {
        let crawl = catch_unwind(|| decode_crawl(payload).map(drop));
        let study = catch_unwind(|| decode_study(payload).map(drop));
        assert!(crawl.is_ok() && study.is_ok(), "a decoder panicked on {case}: {payload:?}");
    }
    replayed.len()
}

#[test]
fn open_is_total_on_arbitrary_files() {
    let started = Instant::now();
    let dir =
        std::env::temp_dir().join(format!("fbox-store-segment-arbitrary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let written = payloads();
    for p in &written {
        assert!(decode_crawl(p).is_ok() || decode_study(p).is_ok(), "a real payload decodes");
    }
    let records: Vec<Vec<u8>> = written.iter().map(|p| encode_record(p)).collect();
    let log = records.concat();
    assert_eq!(open_total(&dir, "the intact log", &log, &written), 3);

    // Random files: pieces of noise spliced with whole real records, so
    // replay gets past the first header check as well as failing it. Only
    // the records spliced in, in file order, may replay.
    let mut rng = TestRng::from_name("open_is_total_on_arbitrary_files");
    for case in 0..400 {
        let (mut bytes, mut spliced) = (Vec::new(), Vec::new());
        for _ in 0..rng.below(5) {
            if rng.below(2) == 0 {
                let i = rng.below(3) as usize;
                bytes.extend_from_slice(&records[i]);
                spliced.push(written[i].clone());
            } else {
                bytes.extend((0..rng.below(64)).map(|_| rng.next_u64() as u8));
            }
        }
        open_total(&dir, &format!("random case {case}"), &bytes, &spliced);
    }

    for cut in 0..log.len() {
        let replayed =
            open_total(&dir, &format!("truncation at byte {cut}"), &log[..cut], &written);
        let whole = records.iter().scan(0, |end, r| {
            *end += r.len();
            Some(*end)
        });
        assert_eq!(replayed, whole.filter(|&end| end <= cut).count(), "cut {cut}");
    }

    for bit in 0..log.len() * 8 {
        let mut flipped = log.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        open_total(&dir, &format!("bit flip {bit}"), &flipped, &written);
    }

    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    // A few thousand small files; far inside this bound on any machine.
    assert!(started.elapsed() < Duration::from_secs(60), "replay took {:?}", started.elapsed());
}
