//! # fbox-telemetry — observability for the F-Box pipeline
//!
//! The paper evaluates Algorithm 1 by *counting* — sorted accesses, random
//! accesses, wall-clock per dimension instance (§5's tables). This crate
//! makes that instrumentation a first-class, always-available layer across
//! the whole pipeline instead of ad-hoc counters in one algorithm:
//!
//! - a [`Registry`] of named [`Counter`]s, [`Gauge`]s, and log₂-bucketed
//!   duration [`Histogram`]s, global ([`global()`]) or scoped
//!   ([`Registry::new`]);
//! - one RAII **span** per pipeline stage ([`span()`] / [`span_args`]) that
//!   feeds both the causal trace of `fbox-trace` and the duration
//!   histogram of the same name, so `--metrics` and `--trace` see the same
//!   span vocabulary; [`SpanGuard`] is its histogram-only half, for
//!   scoped registries;
//! - a [`Subscriber`] trait with two shipped sinks: a human-readable
//!   [`TableSink`] and a serde-JSON [`JsonSink`] writing
//!   `BENCH_*.json`-style trajectory snapshots;
//! - a [`Report`] that diffs two [`Snapshot`]s, so a run (or a commit) can
//!   be compared against a previous one.
//!
//! ## Overhead contract
//!
//! Everything is built on `std::sync::atomic`; counter increments are
//! single relaxed RMW instructions. The enabled flag is one acquire load.
//! When both telemetry and tracing are off (the default), a [`span()`]
//! costs the two enabled-flag loads: it reads no clock, allocates nothing
//! and does not run its args closure. The only dependencies are the serde
//! shim (snapshots) and the zero-dependency `fbox-trace`.
//!
//! ## Quick example
//!
//! ```
//! use fbox_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! let calls = telemetry::global().counter("demo.calls");
//! {
//!     let _span = telemetry::span("demo.work");
//!     calls.add(3);
//! }
//! let snapshot = telemetry::global().snapshot();
//! assert_eq!(snapshot.counter("demo.calls"), Some(3));
//! assert!(snapshot.histogram("demo.work").is_some());
//! # telemetry::set_enabled(false);
//! # telemetry::global().reset();
//! ```

mod metrics;
mod registry;
mod report;
mod sink;
mod snapshot;
mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramTimer, HISTOGRAM_BUCKETS};
pub use registry::{global, set_enabled, Registry};
pub use report::{MetricDelta, Report};
pub use sink::{JsonSink, Subscriber, TableSink};
pub use snapshot::{BucketCount, GaugeEntry, HistogramSnapshot, MetricEntry, Snapshot};
pub use span::{span, span_args, Span, SpanGuard};
