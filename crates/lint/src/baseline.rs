//! The checked-in findings allowlist (`lint-baseline.json`).
//!
//! A baseline lets a new rule land at `deny` before every historical
//! finding is fixed: known findings are recorded here and stop failing
//! the build, while anything *new* still does. Entries are matched by
//! `(rule, file, snippet)` — no line numbers — so pure code motion never
//! invalidates them, but the moment the offending line is fixed the
//! entry stops matching and the stale-baseline check forces its removal.
//! The end state (and the current state of this repo) is an empty list.

use std::collections::BTreeMap;

use crate::rules::Finding;

/// Serialized baseline file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Format version (currently 1).
    pub version: u32,
    /// Allowlisted findings.
    pub entries: Vec<BaselineEntry>,
}

serde::object!(Baseline { version, entries });

/// One allowlisted finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Trimmed source line the finding matched when baselined.
    pub snippet: String,
}

serde::object!(BaselineEntry { rule, file, snippet });

impl Baseline {
    /// Parses the JSON file contents.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        serde::json::from_str(text).map_err(|e| format!("lint-baseline.json: {e:?}"))
    }

    /// Serializes to pretty JSON (the checked-in format).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Builds a baseline from current findings.
    pub fn from_findings<'a>(findings: impl Iterator<Item = &'a Finding>) -> Baseline {
        Baseline {
            version: 1,
            entries: findings
                .map(|f| BaselineEntry {
                    rule: f.rule.clone(),
                    file: f.file.clone(),
                    snippet: f.snippet.clone(),
                })
                .collect(),
        }
    }
}

/// Consumes baseline entries against findings, one entry per matching
/// finding. Returned by [`Matcher::finish`]: entries that matched nothing
/// are stale and must be deleted from the file.
pub struct Matcher {
    /// (rule, file, snippet) → remaining match budget.
    remaining: BTreeMap<(String, String, String), usize>,
}

impl Matcher {
    /// Prepares a matcher over the baseline's entries.
    pub fn new(baseline: &Baseline) -> Matcher {
        let mut remaining = BTreeMap::new();
        for e in &baseline.entries {
            *remaining.entry((e.rule.clone(), e.file.clone(), e.snippet.clone())).or_insert(0) += 1;
        }
        Matcher { remaining }
    }

    /// Whether `finding` is covered by the baseline (consumes one entry).
    pub fn matches(&mut self, finding: &Finding) -> bool {
        let key = (finding.rule.clone(), finding.file.clone(), finding.snippet.clone());
        match self.remaining.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// Entries that matched no current finding — the stale set.
    pub fn finish(self) -> Vec<BaselineEntry> {
        let mut stale = Vec::new();
        for ((rule, file, snippet), n) in self.remaining {
            for _ in 0..n {
                stale.push(BaselineEntry {
                    rule: rule.clone(),
                    file: file.clone(),
                    snippet: snippet.clone(),
                });
            }
        }
        stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, file: &str, line: u32, snippet: &str) -> Finding {
        Finding {
            rule: rule.to_owned(),
            file: file.to_owned(),
            line,
            snippet: snippet.to_owned(),
            path: Vec::new(),
        }
    }

    #[test]
    fn matching_ignores_line_numbers_and_detects_stale() {
        let f1 = finding("float-eq", "a.rs", 10, "x == 0.0");
        let baseline = Baseline::from_findings([f1.clone()].iter());
        let mut m = Matcher::new(&baseline);
        // Same finding moved to another line still matches…
        assert!(m.matches(&finding("float-eq", "a.rs", 99, "x == 0.0")));
        // …but only as many times as it was baselined.
        assert!(!m.matches(&finding("float-eq", "a.rs", 100, "x == 0.0")));
        assert!(m.finish().is_empty());

        let stale = Matcher::new(&baseline).finish();
        assert_eq!(stale.len(), 1, "unmatched entry must surface as stale");
        assert_eq!(stale[0].snippet, "x == 0.0");
    }

    #[test]
    fn json_bytes_are_pinned() {
        let baseline =
            Baseline::from_findings([finding("float-eq", "crates/a.rs", 7, "x == \"0.0\"")].iter());
        let json = baseline.to_json();
        let expected = r#"{
  "version": 1,
  "entries": [
    {
      "rule": "float-eq",
      "file": "crates/a.rs",
      "snippet": "x == \"0.0\""
    }
  ]
}"#;
        assert_eq!(json, expected);
    }

    #[test]
    fn json_round_trip() {
        let baseline =
            Baseline::from_findings([finding("unwrap-in-lib", "b.rs", 3, "x.unwrap()")].iter());
        let back = Baseline::from_json(&baseline.to_json()).expect("round-trip parses");
        assert_eq!(back, baseline);
    }
}
