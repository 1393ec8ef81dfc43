//! The rule engine: the [`Rule`] trait, the [`Finding`] record, and the
//! registry of every shipped rule.
//!
//! Rules are lexical pattern matchers over [`SourceFile`] token streams —
//! deliberately so: the workspace is offline (no crates.io, so no dylint,
//! no clippy plugins, no syn) and the domain patterns that corrupt
//! fairness numbers (NaN-unsafe comparators, raw float equality) are
//! visible at token level. Numeric safety that needs values — casts and
//! divisions — belongs to the interval analysis in [`crate::absint`].
//!
//! A lexical rule that already sees every line a call-graph cone could
//! reach owns its question outright: `instant-outside-telemetry` owns
//! clock reads and `unwrap-in-lib` / `panic-in-lib` own library panics,
//! so [`crate::sema`] has no transitive twin of either.

use crate::source::SourceFile;

mod float_eq;
mod instant;
mod must_use;
mod nan_sort;
mod panic;
mod process_exit;
mod unsafe_comment;
mod unwrap;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `float-eq`).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Trimmed source line, used both for display and for baseline
    /// matching (line-number-free, so pure code motion never goes stale).
    pub snippet: String,
    /// For semantic rules: the root → violation call path, one
    /// `qname (file:line)` hop per entry. Empty for lexical findings and
    /// for declaration-site findings.
    pub path: Vec<String>,
}

serde::object!(Finding { rule, file, line, snippet, path });

/// A domain-tailored static-analysis rule. Rules are stateless (all
/// state lives in `out`).
pub trait Rule {
    /// Stable kebab-case identifier, used in `Lint.toml`, baselines, and
    /// inline suppressions.
    fn id(&self) -> &'static str;

    /// One-line description for `--list-rules` and docs.
    fn summary(&self) -> &'static str;

    /// Default severity when `Lint.toml` says nothing.
    fn default_severity(&self) -> Severity;

    /// Emits findings for `file` into `out`. Implementations must do their
    /// own kind/test-span filtering via the `SourceFile` helpers; the
    /// engine applies severity, path scoping, suppressions, and baselines.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// How a finding is treated by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Not reported at all.
    Allow,
    /// Reported, never fails the build.
    Warn,
    /// Reported and fails `--deny` runs.
    Deny,
}

impl Severity {
    /// Parses a `Lint.toml` severity string.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }

    /// The `Lint.toml` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// Every shipped rule, in display order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(unwrap::UnwrapInLib),
        Box::new(panic::PanicInLib),
        Box::new(float_eq::FloatEq),
        Box::new(nan_sort::NanUnsafeSort),
        Box::new(instant::InstantOutsideTelemetry),
        Box::new(unsafe_comment::UnsafeNeedsSafetyComment),
        Box::new(process_exit::ProcessExit),
        Box::new(must_use::MissingMustUse),
    ]
}

/// Pushes a finding for `rule` at `line` unless suppressed inline.
pub(crate) fn emit(rule: &dyn Rule, file: &SourceFile, line: u32, out: &mut Vec<Finding>) {
    if file.is_suppressed(line, rule.id()) {
        return;
    }
    out.push(Finding {
        rule: rule.id().to_owned(),
        file: file.path.clone(),
        line,
        snippet: file.snippet(line),
        path: Vec::new(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_kebab_case() {
        let rules = all_rules();
        let mut ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        assert!(ids.len() >= 8, "the tentpole promises at least 8 rules");
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len(), "duplicate rule id");
        for id in ids {
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule id {id} is not kebab-case"
            );
        }
    }

    #[test]
    fn severities_round_trip() {
        for sev in [Severity::Allow, Severity::Warn, Severity::Deny] {
            assert_eq!(Severity::parse(sev.as_str()), Some(sev));
        }
        assert_eq!(Severity::parse("forbid"), None);
    }
}
