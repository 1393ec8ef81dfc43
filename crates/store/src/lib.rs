//! # fbox-store — crash-consistent incremental cube store
//!
//! The durability layer under the F-Box: cell observations stream into a
//! checksummed segment log as a crawl or study runs, are evaluated into
//! an incremental F-Box, and publish as immutable epoch snapshots that the
//! read algorithms consume while ingestion continues. A compact binary
//! snapshot format lets the `repro-*` binaries save a built cube and
//! reload it instead of re-running the simulators.
//!
//! ## Module map
//!
//! - [`codec`] — explicit little-endian binary primitives shared by the
//!   log payloads and the snapshot format.
//! - [`segment`] — the append-only [`SegmentLog`]: FNV-1a-checksummed
//!   records, torn-tail truncation and per-record quarantine on replay,
//!   and storage-fault injection (torn writes, bit flips, short reads)
//!   driven by [`fbox_resilience::StoragePlan`].
//! - [`record`] — payload codecs for crawl cell records and study
//!   participant records.
//! - [`ingest`] — [`crawl_durable`] / [`study_durable`]: the resilient
//!   runners wired to a segment log, so an interrupted or fault-torn run
//!   resumes from durable state and converges to the uninterrupted
//!   result, bit for bit.
//! - [`epoch`] — the [`EpochStore`]: a writer F-Box and its pending
//!   cells, applied at publish into immutable, numbered
//!   [`EpochSnapshot`] publications that share untouched posting lists.
//! - [`snapshot`] — the `"FBXS"` cube snapshot file format
//!   ([`CubeSnapshot`]) behind the repro binaries' `--cube <path>`.
//!
//! ## Determinism
//!
//! Nothing in this crate reads a clock or fresh entropy. Storage faults
//! are a pure function of `(seed, log generation, record index)`; replay,
//! delta updates, and epoch publication are pure functions of the
//! ingestion sequence. Recovering from a crash at *any* record boundary
//! therefore rebuilds a cube bit-equal to an uninterrupted build, at any
//! `FBOX_THREADS`.

pub mod codec;
pub mod epoch;
pub mod ingest;
pub mod record;
pub mod segment;
pub mod snapshot;

pub use codec::CodecError;
pub use epoch::{EpochSnapshot, EpochStore, PublishStats};
pub use ingest::{
    crawl_durable, crawl_durable_with_plan, study_durable, study_durable_with_plan, Durable,
};
pub use segment::{Append, ReplayStats, SegmentLog, RECORD_HEADER_LEN, RECORD_MAGIC};
pub use snapshot::{CubeSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
