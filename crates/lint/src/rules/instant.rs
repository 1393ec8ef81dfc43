//! `instant-outside-telemetry`: ad-hoc clock reads outside the telemetry
//! crate.
//!
//! All wall-clock measurement lives in `fbox-telemetry` (spans,
//! histograms, and `Histogram::timer()`). Scattered `Instant::now()` /
//! `SystemTime::now()` calls bypass the registry — their durations never
//! reach snapshots, reports, or `BENCH_*.json` diffs — make hot paths
//! hard to audit, and, inside result-producing code, break the
//! byte-identical reproduction contract. The rule owns every clock read
//! in runtime code, so a read hidden in a helper is flagged where it is
//! written, whoever calls it. `Lint.toml` scopes the allowance to
//! `crates/telemetry` and `crates/trace`, the places that are supposed
//! to read the clock.

use crate::rules::{emit, Finding, Rule, Severity};
use crate::source::SourceFile;

/// Types whose `now()` observes the wall clock.
const CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];

/// Flags `Instant::now()` / `SystemTime::now()` (the allowance for
/// `crates/telemetry` comes from `Lint.toml` path scoping, not from the
/// rule itself).
pub struct InstantOutsideTelemetry;

impl Rule for InstantOutsideTelemetry {
    fn id(&self) -> &'static str {
        "instant-outside-telemetry"
    }

    fn summary(&self) -> &'static str {
        "`Instant`/`SystemTime::now()` outside crates/telemetry: use spans or `Histogram::timer()`"
    }

    fn default_severity(&self) -> Severity {
        Severity::Deny
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let toks = &file.lexed.tokens;
        for i in 0..toks.len().saturating_sub(2) {
            if CLOCK_TYPES.iter().any(|ty| toks[i].tok.is_ident(ty))
                && toks[i + 1].tok.is_op("::")
                && toks[i + 2].tok.is_ident("now")
                && file.is_runtime_code(toks[i].line)
            {
                emit(self, file, toks[i].line, out);
            }
        }
    }
}
