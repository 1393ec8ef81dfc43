//! The driver: walks the workspace, runs every rule on every `.rs` file,
//! applies `Lint.toml` severities and the baseline, and publishes scan
//! metrics through the `fbox-telemetry` registry so reports ride the
//! same table/JSON sinks as the rest of the pipeline.

use std::path::{Path, PathBuf};

use fbox_telemetry::{Registry, SpanGuard};

use crate::baseline::{Baseline, BaselineEntry, Matcher};
use crate::config::Config;
use crate::rules::{all_rules, Finding, Severity};

/// One reported finding with its resolved severity and baseline status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reported {
    /// The finding itself.
    pub finding: Finding,
    /// Effective severity (`"warn"` or `"deny"`; `allow` is dropped).
    pub severity: String,
    /// Whether a baseline entry covers it (it then never fails `--deny`).
    pub baselined: bool,
}

serde::object!(Reported { finding, severity, baselined });

/// Complete result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All reported findings, sorted by (file, line, rule).
    pub findings: Vec<Reported>,
    /// Baseline entries that no longer match any source line.
    pub stale_baseline: Vec<BaselineEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: u32,
    /// Number of source lines scanned.
    pub lines_scanned: u32,
}

serde::object!(Report { findings, stale_baseline, files_scanned, lines_scanned });

impl Report {
    /// Deny-severity findings not covered by the baseline — the set that
    /// fails a `--deny` run.
    pub fn violations(&self) -> impl Iterator<Item = &Reported> {
        self.findings.iter().filter(|r| r.severity == "deny" && !r.baselined)
    }

    /// Whether a `--deny` run fails: live deny findings or stale baseline
    /// entries (the stale check keeps the allowlist honest).
    pub fn deny_failure(&self) -> bool {
        self.violations().next().is_some() || !self.stale_baseline.is_empty()
    }
}

/// Runs the full analysis over `root`: the per-file lexical pass, then
/// the whole-workspace semantic pass over the call graph.
pub fn run(root: &Path, config: &Config, baseline: &Baseline, registry: &Registry) -> Report {
    let _span = SpanGuard::enter(registry, "lint.run");
    let rules = all_rules();
    let mut report = Report::default();

    // One thread throughout: walk order defines file identity, and the
    // semantic pass needs every file at once (the call graph spans the
    // workspace), so sources are held in memory. A per-file fan-out of
    // parsing and the lexical rules measured slower than this on a
    // 2-vCPU host.
    let sources: Vec<crate::source::SourceFile> = {
        let _span = SpanGuard::enter(registry, "lint.parse");
        walk(root, config).iter().filter_map(|rel| crate::source::load(root, rel)).collect()
    };

    let mut raw: Vec<(Finding, Severity)> = Vec::new();
    {
        let _span = SpanGuard::enter(registry, "lint.lexical");
        for file in &sources {
            for rule in &rules {
                if !config.rule_applies_to(rule.id(), &file.path) {
                    continue;
                }
                let severity =
                    config.severity(rule.id(), &file.crate_label, rule.default_severity());
                if severity == Severity::Allow {
                    continue;
                }
                let mut hits = Vec::new();
                rule.check(file, &mut hits);
                raw.extend(hits.into_iter().map(|f| (f, severity)));
            }
        }
    }
    report.files_scanned = sources.len().min(u32::MAX as usize) as u32;
    let total_lines: usize = sources.iter().map(|f| f.lines.len()).sum();
    report.lines_scanned = total_lines.min(u32::MAX as usize) as u32;

    // Semantic pass. Severity and path scoping are resolved per finding
    // (the sink's file), since one rule's findings span many files.
    let model = {
        let _span = SpanGuard::enter(registry, "lint.sema");
        crate::sema::Model::build(&sources, config)
    };
    registry.counter("lint.sema.nodes").add(model.nodes.len() as u64);
    registry.counter("lint.sema.edges").add(model.edge_count() as u64);
    registry.counter("lint.sema.det_roots").add(model.det_roots.len() as u64);
    registry.counter("lint.sema.par_roots").add(model.par_roots.len() as u64);
    registry.counter("lint.absint.sccs").add(model.absint.scc_count as u64);
    registry.counter("lint.absint.max_scc").add(model.absint.max_scc_len as u64);
    registry.counter("lint.absint.consts").add(model.absint.consts.len() as u64);

    let labels: std::collections::BTreeMap<&str, &str> =
        sources.iter().map(|f| (f.path.as_str(), f.crate_label.as_str())).collect();
    for rule in crate::sema::all_sema_rules() {
        let mut found = Vec::new();
        rule.check(&model, &mut found);
        for f in found {
            if !config.rule_applies_to(rule.id(), &f.file) {
                continue;
            }
            let label = labels.get(f.file.as_str()).copied().unwrap_or_default();
            let severity = config.severity(rule.id(), label, rule.default_severity());
            if severity == Severity::Allow {
                continue;
            }
            raw.push((f, severity));
        }
    }

    raw.sort_by(|a, b| (&a.0.file, a.0.line, &a.0.rule).cmp(&(&b.0.file, b.0.line, &b.0.rule)));

    let mut matcher = Matcher::new(baseline);
    for (finding, severity) in raw {
        let baselined = matcher.matches(&finding);
        registry.counter(&format!("lint.findings.{}", finding.rule)).inc();
        report.findings.push(Reported {
            finding,
            severity: severity.as_str().to_owned(),
            baselined,
        });
    }
    report.stale_baseline = matcher.finish();

    registry.counter("lint.files_scanned").add(u64::from(report.files_scanned));
    registry.counter("lint.lines_scanned").add(u64::from(report.lines_scanned));
    registry.counter("lint.violations").add(report.violations().count() as u64);
    report
}

/// Collects every workspace-relative `.rs` path under `root`, honouring
/// `[paths] exclude`, skipping `target/` and dot-directories. Sorted for
/// deterministic output.
pub fn walk(root: &Path, config: &Config) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let rel = match path.strip_prefix(root) {
                Ok(r) => r.to_string_lossy().replace('\\', "/"),
                Err(_) => continue,
            };
            if path.is_dir() {
                if name.starts_with('.') || name == "target" || config.is_excluded(&rel) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") && !config.is_excluded(&rel) {
                out.push(rel);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_bytes_are_pinned() {
        let finding = Finding {
            rule: "flow-unchecked-div".into(),
            file: "crates/a.rs".into(),
            line: 12,
            snippet: "total / n".into(),
            path: vec!["a::root (crates/a.rs:3)".into(), "a::leaf (crates/a.rs:12)".into()],
        };
        let report = Report {
            findings: vec![Reported { finding, severity: "deny".into(), baselined: false }],
            stale_baseline: vec![BaselineEntry {
                rule: "float-eq".into(),
                file: "gone.rs".into(),
                snippet: "x == 0.0".into(),
            }],
            files_scanned: 2,
            lines_scanned: 40,
        };
        let json = serde::json::to_string_pretty(&report);
        let expected = r#"{
  "findings": [
    {
      "finding": {
        "rule": "flow-unchecked-div",
        "file": "crates/a.rs",
        "line": 12,
        "snippet": "total / n",
        "path": [
          "a::root (crates/a.rs:3)",
          "a::leaf (crates/a.rs:12)"
        ]
      },
      "severity": "deny",
      "baselined": false
    }
  ],
  "stale_baseline": [
    {
      "rule": "float-eq",
      "file": "gone.rs",
      "snippet": "x == 0.0"
    }
  ],
  "files_scanned": 2,
  "lines_scanned": 40
}"#;
        assert_eq!(json, expected);
    }

    #[test]
    fn deny_failure_counts_stale_entries() {
        let mut report = Report::default();
        assert!(!report.deny_failure());
        report.stale_baseline.push(BaselineEntry {
            rule: "float-eq".into(),
            file: "gone.rs".into(),
            snippet: "x == 0.0".into(),
        });
        assert!(report.deny_failure(), "stale baseline alone must fail --deny");
    }

    #[test]
    fn baselined_deny_findings_are_not_violations() {
        let finding = Finding {
            rule: "unwrap-in-lib".into(),
            file: "a.rs".into(),
            line: 1,
            snippet: "x.unwrap()".into(),
            path: Vec::new(),
        };
        let mut report = Report::default();
        report.findings.push(Reported { finding, severity: "deny".into(), baselined: true });
        assert_eq!(report.violations().count(), 0);
        assert!(!report.deny_failure());
    }
}
