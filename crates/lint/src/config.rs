//! `Lint.toml` — the rule configuration file.
//!
//! A deliberately small hand-rolled TOML subset (the workspace is
//! offline, so no `toml` crate): `[section]` headers, `key = "string"`
//! values, single-line `key = ["a", "b"]` arrays, and `#` comments.
//! That is every shape the lint configuration needs.
//!
//! Recognised sections:
//!
//! ```toml
//! [rules]                    # base severity per rule id
//! float-eq = "deny"
//!
//! [paths]
//! exclude = ["shims"]        # path prefixes never scanned
//!
//! [rule.process-exit]
//! allow-paths = ["crates/repro/src/bin"]   # rule skipped under these
//!
//! [rule.missing-must-use]
//! apply-paths = ["crates/core/src/measures"] # rule ONLY under these
//!
//! [crate.crates/bench]       # per-crate severity overrides
//! unwrap-in-lib = "allow"
//!
//! [sema]                     # determinism roots for the det-* rules
//! roots = ["FBox::from_search", "study::run_study"]
//! ```
//!
//! Rule ids are validated against the union of the lexical and semantic
//! rule registries; an unknown id anywhere is a hard config error, so a
//! typo can never silently disable a rule.

use std::collections::BTreeMap;

use crate::rules::{all_rules, Severity};
use crate::sema::all_sema_rules;

/// Parsed `Lint.toml`.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Path prefixes (workspace-relative) excluded from scanning.
    pub exclude: Vec<String>,
    /// `[rules]` base severities.
    pub rule_severity: BTreeMap<String, Severity>,
    /// `[crate.<label>]` overrides: crate label → rule id → severity.
    pub crate_overrides: BTreeMap<String, BTreeMap<String, Severity>>,
    /// `[rule.<id>] allow-paths`: the rule is skipped under these prefixes.
    pub allow_paths: BTreeMap<String, Vec<String>>,
    /// `[rule.<id>] apply-paths`: the rule runs ONLY under these prefixes.
    pub apply_paths: BTreeMap<String, Vec<String>>,
    /// `[sema] roots`: qualified-name suffix patterns overriding the
    /// built-in determinism roots (empty = use the defaults).
    pub sema_roots: Vec<String>,
}

impl Config {
    /// Parses `Lint.toml` text. Errors carry the offending line number.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut known: Vec<&'static str> = all_rules().iter().map(|r| r.id()).collect();
        known.extend(all_sema_rules().iter().map(|r| r.id()));
        let mut cfg = Config::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_owned();
            let lineno = idx + 1;
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_owned();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("Lint.toml:{lineno}: expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            match section.as_str() {
                "rules" => {
                    if !known.contains(&key) {
                        return Err(format!("Lint.toml:{lineno}: unknown rule `{key}`"));
                    }
                    cfg.rule_severity.insert(key.to_owned(), severity(value, lineno)?);
                }
                "paths" => match key {
                    "exclude" => cfg.exclude = string_array(value, lineno)?,
                    _ => return Err(format!("Lint.toml:{lineno}: unknown [paths] key `{key}`")),
                },
                "sema" => match key {
                    "roots" => cfg.sema_roots = string_array(value, lineno)?,
                    _ => return Err(format!("Lint.toml:{lineno}: unknown [sema] key `{key}`")),
                },
                s => {
                    if let Some(rule) = s.strip_prefix("rule.") {
                        if !known.contains(&rule) {
                            return Err(format!("Lint.toml:{lineno}: unknown rule `{rule}`"));
                        }
                        let paths = string_array(value, lineno)?;
                        match key {
                            "allow-paths" => {
                                cfg.allow_paths.insert(rule.to_owned(), paths);
                            }
                            "apply-paths" => {
                                cfg.apply_paths.insert(rule.to_owned(), paths);
                            }
                            _ => {
                                return Err(format!(
                                    "Lint.toml:{lineno}: unknown [rule.*] key `{key}`"
                                ))
                            }
                        }
                    } else if let Some(label) = s.strip_prefix("crate.") {
                        if !known.contains(&key) {
                            return Err(format!("Lint.toml:{lineno}: unknown rule `{key}`"));
                        }
                        cfg.crate_overrides
                            .entry(label.to_owned())
                            .or_default()
                            .insert(key.to_owned(), severity(value, lineno)?);
                    } else {
                        return Err(format!("Lint.toml:{lineno}: unknown section `[{s}]`"));
                    }
                }
            }
        }
        Ok(cfg)
    }

    /// Effective severity of `rule` for a file in `crate_label`:
    /// per-crate override → `[rules]` base → the rule's built-in default.
    pub fn severity(&self, rule: &str, crate_label: &str, default: Severity) -> Severity {
        if let Some(sev) = self.crate_overrides.get(crate_label).and_then(|m| m.get(rule)) {
            return *sev;
        }
        self.rule_severity.get(rule).copied().unwrap_or(default)
    }

    /// Whether `rule` runs on `path` given its allow/apply path scoping.
    pub fn rule_applies_to(&self, rule: &str, path: &str) -> bool {
        if let Some(allowed) = self.allow_paths.get(rule) {
            if allowed.iter().any(|p| path.starts_with(p.as_str())) {
                return false;
            }
        }
        if let Some(only) = self.apply_paths.get(rule) {
            return only.iter().any(|p| path.starts_with(p.as_str()));
        }
        true
    }

    /// Whether `path` is excluded from scanning entirely.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// Strips a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn severity(value: &str, lineno: usize) -> Result<Severity, String> {
    let s = unquote(value, lineno)?;
    Severity::parse(&s)
        .ok_or_else(|| format!("Lint.toml:{lineno}: severity must be allow|warn|deny, got `{s}`"))
}

fn unquote(value: &str, lineno: usize) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_owned)
        .ok_or_else(|| format!("Lint.toml:{lineno}: expected a double-quoted string"))
}

fn string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("Lint.toml:{lineno}: expected a single-line [\"...\"] array"))?;
    inner.split(',').map(str::trim).filter(|s| !s.is_empty()).map(|s| unquote(s, lineno)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[rules]
float-eq = "deny"   # trailing comment

[paths]
exclude = ["shims", "crates/lint/tests/fixtures"]

[rule.process-exit]
allow-paths = ["crates/repro/src/bin"]

[rule.missing-must-use]
apply-paths = ["crates/core/src/measures"]

[crate.crates/bench]
unwrap-in-lib = "allow"
"#;

    #[test]
    fn parses_every_section_shape() {
        let cfg = Config::parse(SAMPLE).expect("sample config parses");
        assert_eq!(cfg.rule_severity.get("float-eq"), Some(&Severity::Deny));
        assert!(cfg.is_excluded("shims/rand/src/lib.rs"));
        assert!(!cfg.rule_applies_to("process-exit", "crates/repro/src/bin/repro-all.rs"));
        assert!(cfg.rule_applies_to("process-exit", "crates/core/src/fbox.rs"));
        assert!(cfg.rule_applies_to("missing-must-use", "crates/core/src/measures/emd.rs"));
        assert!(!cfg.rule_applies_to("missing-must-use", "crates/search/src/engine.rs"));
        assert_eq!(cfg.severity("unwrap-in-lib", "crates/bench", Severity::Deny), Severity::Allow);
        assert_eq!(cfg.severity("unwrap-in-lib", "crates/core", Severity::Deny), Severity::Deny);
    }

    #[test]
    fn unknown_rule_ids_are_rejected() {
        assert!(Config::parse("[rules]\nno-such-rule = \"deny\"\n").is_err());
        assert!(Config::parse("[crate.crates/core]\nno-such-rule = \"warn\"\n").is_err());
        assert!(Config::parse("[rules]\nfloat-eq = \"forbid\"\n").is_err());
        assert!(Config::parse("[rule.no-such-rule]\nallow-paths = [\"x\"]\n").is_err());
        // The error names the offending line and id.
        let err = Config::parse("[rules]\ndet-hash-itre = \"deny\"\n").expect_err("typo rejected");
        assert!(err.contains(":2:") && err.contains("det-hash-itre"), "{err}");
        // Retired rules are unknown too, so a stale Lint.toml fails loudly.
        for retired in ["expect-in-lib", "det-wall-clock", "par-panic-reachable"] {
            let err = Config::parse(&format!("# stale\n[rules]\n{retired} = \"warn\"\n"))
                .expect_err("retired rule rejected");
            assert!(err.contains(":3:") && err.contains(retired), "{err}");
        }
    }

    #[test]
    fn sema_rule_ids_are_known_everywhere() {
        let cfg = Config::parse(
            "[rules]\ndet-hash-iter = \"warn\"\n\
             [crate.crates/bench]\npar-shared-capture = \"allow\"\n\
             [rule.det-env-read]\nallow-paths = [\"crates/par\"]\n",
        )
        .expect("sema ids are valid in every section");
        assert_eq!(cfg.rule_severity.get("det-hash-iter"), Some(&Severity::Warn));
        assert!(!cfg.rule_applies_to("det-env-read", "crates/par/src/lib.rs"));
    }

    #[test]
    fn sema_roots_section_parses_and_rejects_unknown_keys() {
        let cfg = Config::parse("[sema]\nroots = [\"FBox::from_search\", \"study::run_study\"]\n")
            .expect("sema section parses");
        assert_eq!(cfg.sema_roots, ["FBox::from_search", "study::run_study"]);
        assert!(Config::parse("[sema]\nrotos = [\"x\"]\n").is_err(), "unknown [sema] key");
    }
}
