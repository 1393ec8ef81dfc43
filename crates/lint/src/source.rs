//! A lexed source file plus the file-level context rules need: which
//! crate it belongs to, whether it is library / binary / test code, which
//! line ranges are `#[cfg(test)]` / `#[test]` spans, and which lines carry
//! inline `// fbox-lint: allow(rule-id)` suppressions.

use std::path::Path;

use crate::lexer::{lex, Lexed, Tok};
use crate::parser::{self, Item, ItemKind, ItemTree};

/// Coarse classification of a `.rs` file by its role in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` — the strictest tier.
    Lib,
    /// A binary entry point (`src/bin/*`, `src/main.rs`).
    Bin,
    /// Integration tests (`tests/`).
    Test,
    /// Bench targets (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
    /// `build.rs` scripts.
    Build,
}

impl FileKind {
    /// Classifies a workspace-relative path.
    pub fn classify(rel: &str) -> FileKind {
        let norm = rel.replace('\\', "/");
        if norm.ends_with("build.rs") {
            FileKind::Build
        } else if norm.contains("/tests/") || norm.starts_with("tests/") {
            FileKind::Test
        } else if norm.contains("/benches/") || norm.starts_with("benches/") {
            FileKind::Bench
        } else if norm.contains("/examples/") || norm.starts_with("examples/") {
            FileKind::Example
        } else if norm.contains("/bin/") || norm.ends_with("src/main.rs") {
            FileKind::Bin
        } else {
            FileKind::Lib
        }
    }
}

/// A source file ready for rule checks.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Owning crate label: `crates/<name>`, `shims/<name>`, or `fbox`
    /// for the root package. Used for per-crate severity overrides.
    pub crate_label: String,
    /// Role of the file.
    pub kind: FileKind,
    /// Raw source lines (for snippets).
    pub lines: Vec<String>,
    /// Lexer output.
    pub lexed: Lexed,
    /// Item-level parse of the token stream.
    pub items: ItemTree,
    /// Inclusive 1-based line ranges of test-gated code.
    test_spans: Vec<(u32, u32)>,
    /// (line, rule-id) pairs from inline suppression comments.
    suppressions: Vec<(u32, String)>,
    /// Inclusive (start, end, rule-id) ranges from item-scoped
    /// suppressions: a standalone `// fbox-lint: allow(rule)` directly
    /// above an item silences the rule for the whole item.
    suppression_spans: Vec<(u32, u32, String)>,
}

impl SourceFile {
    /// Builds a [`SourceFile`] from a workspace-relative path and its text.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let path = rel_path.replace('\\', "/");
        let lexed = lex(text);
        let items = parser::parse(&lexed);
        let test_spans = find_test_spans(&lexed);
        let suppressions = find_suppressions(&lexed);
        let suppression_spans = item_suppression_spans(&items, &suppressions);
        let suppressions = suppressions.into_iter().map(|s| (s.line, s.rule)).collect();
        SourceFile {
            crate_label: crate_label(&path),
            kind: FileKind::classify(&path),
            path,
            lines: text.lines().map(str::to_owned).collect(),
            lexed,
            items,
            test_spans,
            suppressions,
            suppression_spans,
        }
    }

    /// Whether `line` falls inside a `#[cfg(test)]` module or `#[test]` fn.
    pub fn in_test_span(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Whether library-tier rules (unwrap/expect/panic) apply at `line`:
    /// library files only, and never inside test spans.
    pub fn is_library_code(&self, line: u32) -> bool {
        self.kind == FileKind::Lib && !self.in_test_span(line)
    }

    /// Whether runtime (non-test) rules apply at `line`: library or binary
    /// code outside test spans.
    pub fn is_runtime_code(&self, line: u32) -> bool {
        matches!(self.kind, FileKind::Lib | FileKind::Bin) && !self.in_test_span(line)
    }

    /// Whether `rule` is suppressed at `line` by an inline
    /// `// fbox-lint: allow(rule)` comment — trailing on that line,
    /// standalone on the line above, or standalone above an item (`fn`,
    /// `impl`, `mod`, …), which silences the rule for the whole item.
    pub fn is_suppressed(&self, line: u32, rule: &str) -> bool {
        self.suppressions.iter().any(|(l, r)| r == rule && *l == line)
            || self
                .suppression_spans
                .iter()
                .any(|(lo, hi, r)| r == rule && (*lo..=*hi).contains(&line))
    }

    /// The trimmed text of 1-based `line` (empty when out of range).
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    }
}

/// Derives the per-crate label from a workspace-relative path.
fn crate_label(path: &str) -> String {
    let mut parts = path.split('/');
    match parts.next() {
        Some(top @ ("crates" | "shims")) => match parts.next() {
            Some(name) => format!("{top}/{name}"),
            None => top.to_owned(),
        },
        // Root package files: src/, tests/, examples/.
        _ => "fbox".to_owned(),
    }
}

/// Finds inclusive line spans of items gated behind `#[cfg(test)]` or
/// marked `#[test]`. Lexical, not a parse: after such an attribute we
/// brace-match the next `{...}` block (or stop at `;` for path modules).
fn find_test_spans(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].tok.is_punct('#') && i + 1 < toks.len() && toks[i + 1].tok.is_punct('[') {
            let (content_end, is_test_attr) = scan_attribute(lexed, i + 1);
            if is_test_attr {
                if let Some(span) = item_span(lexed, content_end, toks[i].line) {
                    spans.push(span);
                    // Skip past the item so nested attributes inside it do
                    // not produce overlapping spans.
                    i = index_after_line(lexed, span.1);
                    continue;
                }
            }
            i = content_end;
        } else {
            i += 1;
        }
    }
    spans
}

/// Scans the attribute starting at the `[` token index; returns the index
/// just past the closing `]` and whether the attribute is test-gating
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]` — but not
/// `#[cfg(not(test))]`).
fn scan_attribute(lexed: &Lexed, open: usize) -> (usize, bool) {
    let toks = &lexed.tokens;
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    let mut i = open;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            Tok::Ident(s) => idents.push(s),
            _ => {}
        }
        i += 1;
    }
    let has = |name: &str| idents.contains(&name);
    let gating = (idents.first() == Some(&"test"))
        || (has("cfg") && has("test") && !has("not"))
        || (idents.first() == Some(&"bench"));
    (i, gating)
}

/// From the token after an attribute, finds the line span of the item it
/// decorates: skips further attributes, then brace-matches the item body.
fn item_span(lexed: &Lexed, mut i: usize, attr_line: u32) -> Option<(u32, u32)> {
    let toks = &lexed.tokens;
    // Skip any further attributes between this one and the item.
    while i + 1 < toks.len() && toks[i].tok.is_punct('#') && toks[i + 1].tok.is_punct('[') {
        let (next, _) = scan_attribute(lexed, i + 1);
        i = next;
    }
    // Walk to the opening `{` of the item body (or a `;` for `mod x;`).
    let mut j = i;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('{') => break,
            Tok::Punct(';') => return Some((attr_line, toks[j].line)),
            _ => j += 1,
        }
    }
    if j >= toks.len() {
        return None;
    }
    let mut depth = 0usize;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some((attr_line, toks[j].line));
                }
            }
            _ => {}
        }
        j += 1;
    }
    // Unbalanced braces: treat the rest of the file as the span.
    Some((attr_line, u32::MAX))
}

/// First token index on a line strictly after `line`.
fn index_after_line(lexed: &Lexed, line: u32) -> usize {
    lexed.tokens.iter().position(|t| t.line > line).unwrap_or(lexed.tokens.len())
}

/// One parsed `// fbox-lint: allow(rule)` directive.
struct Suppression {
    /// Target line: the comment's own line when trailing, the line below
    /// when standalone.
    line: u32,
    /// Rule id named in `allow(…)`.
    rule: String,
    /// Whether the comment stood alone (no code tokens on its line) —
    /// only standalone directives can scale up to item scope.
    standalone: bool,
}

/// Extracts suppressions from `// fbox-lint: allow(rule-id)` comments. A
/// *trailing* comment (code tokens on the same line) suppresses its own
/// line; a *standalone* comment suppresses the line directly below it —
/// and, when that line starts an item, the whole item (see
/// [`item_suppression_spans`]).
fn find_suppressions(lexed: &Lexed) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(pos) = c.text.find("fbox-lint:") else { continue };
        let rest = &c.text[pos + "fbox-lint:".len()..];
        let Some(open) = rest.find("allow(") else { continue };
        let args = &rest[open + "allow(".len()..];
        let Some(close) = args.find(')') else { continue };
        let trailing = lexed.tokens.iter().any(|t| t.line == c.line);
        let target = if trailing { c.line } else { c.end_line + 1 };
        for rule in args[..close].split(',') {
            out.push(Suppression {
                line: target,
                rule: rule.trim().to_owned(),
                standalone: !trailing,
            });
        }
    }
    out
}

/// Expands standalone suppressions that sit directly above an item into
/// whole-item suppression ranges. A *trailing* suppression never scales
/// up: it stays bound to its own line.
fn item_suppression_spans(
    items: &ItemTree,
    suppressions: &[Suppression],
) -> Vec<(u32, u32, String)> {
    let mut spans = Vec::new();
    for s in suppressions.iter().filter(|s| s.standalone) {
        items.walk(&mut |item: &Item| {
            if item.attr_line == s.line && item_scopes_suppressions(&item.kind) {
                spans.push((item.attr_line, item.end_line, s.rule.clone()));
            }
        });
    }
    spans
}

/// Item kinds a standalone suppression comment can cover wholesale.
fn item_scopes_suppressions(kind: &ItemKind) -> bool {
    matches!(
        kind,
        ItemKind::Fn
            | ItemKind::Impl { .. }
            | ItemKind::Mod
            | ItemKind::Trait
            | ItemKind::TypeDef
            | ItemKind::Static { .. }
            | ItemKind::Const
            | ItemKind::MacroCall
    )
}

/// Reads and parses a file from disk, returning `None` on I/O failure
/// (the engine reports unreadable files separately).
pub fn load(root: &Path, rel: &str) -> Option<SourceFile> {
    let text = std::fs::read_to_string(root.join(rel)).ok()?;
    Some(SourceFile::parse(rel, &text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        assert_eq!(FileKind::classify("crates/core/src/fbox.rs"), FileKind::Lib);
        assert_eq!(FileKind::classify("crates/repro/src/bin/repro-all.rs"), FileKind::Bin);
        assert_eq!(FileKind::classify("crates/core/tests/properties.rs"), FileKind::Test);
        assert_eq!(FileKind::classify("crates/bench/benches/measures.rs"), FileKind::Bench);
        assert_eq!(FileKind::classify("examples/quickstart.rs"), FileKind::Example);
        assert_eq!(FileKind::classify("tests/framework_e2e.rs"), FileKind::Test);
    }

    #[test]
    fn crate_labels() {
        assert_eq!(crate_label("crates/core/src/lib.rs"), "crates/core");
        assert_eq!(crate_label("shims/rand/src/lib.rs"), "shims/rand");
        assert_eq!(crate_label("src/lib.rs"), "fbox");
        assert_eq!(crate_label("examples/quickstart.rs"), "fbox");
    }

    #[test]
    fn cfg_test_module_span_is_detected() {
        let src = "pub fn lib_code() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() { x.unwrap(); }\n\
                   }\n\
                   pub fn more_lib() {}\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(!f.in_test_span(1));
        assert!(f.in_test_span(4));
        assert!(!f.in_test_span(6));
    }

    #[test]
    fn test_fn_span_is_detected_and_not_test_is_ignored() {
        let src = "#[test]\nfn check() {\n  boom();\n}\n\
                   #[cfg(not(test))]\nfn shipped() {\n  fine();\n}\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.in_test_span(3));
        assert!(!f.in_test_span(7));
    }

    #[test]
    fn item_scope_suppression_covers_the_whole_fn() {
        let src = "// fbox-lint: allow(float-eq)\n\
                   pub fn f(x: f64) -> bool {\n\
                       let a = x == 0.0;\n\
                       a\n\
                   }\n\
                   pub fn g(x: f64) -> bool { x == 0.0 }\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.is_suppressed(2, "float-eq"), "item line");
        assert!(f.is_suppressed(3, "float-eq"), "body line");
        assert!(!f.is_suppressed(6, "float-eq"), "next item is not covered");
        assert!(!f.is_suppressed(3, "unwrap-in-lib"), "other rules are not covered");
    }

    #[test]
    fn item_scope_suppression_covers_impls_and_attrs() {
        let src = "// fbox-lint: allow(unwrap-in-lib)\n\
                   #[allow(dead_code)]\n\
                   impl Foo {\n\
                       fn a(&self) { self.x.unwrap(); }\n\
                       fn b(&self) { self.y.unwrap(); }\n\
                   }\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.is_suppressed(4, "unwrap-in-lib"));
        assert!(f.is_suppressed(5, "unwrap-in-lib"));
    }

    #[test]
    fn trailing_suppression_stays_line_scoped() {
        let src = "pub fn f(x: f64) -> bool { // fbox-lint: allow(float-eq)\n\
                       x == 0.0\n\
                   }\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.is_suppressed(1, "float-eq"), "its own line is suppressed");
        assert!(!f.is_suppressed(2, "float-eq"), "trailing must not cover the item body");
    }

    #[test]
    fn suppression_applies_to_same_and_next_line() {
        let src = "// fbox-lint: allow(float-eq) justified here\n\
                   let a = x == 0.0;\n\
                   let b = y == 0.0; // fbox-lint: allow(float-eq, unwrap-in-lib)\n\
                   let c = z == 0.0;\n";
        let f = SourceFile::parse("crates/core/src/x.rs", src);
        assert!(f.is_suppressed(2, "float-eq"));
        assert!(f.is_suppressed(3, "float-eq"));
        assert!(f.is_suppressed(3, "unwrap-in-lib"));
        assert!(!f.is_suppressed(4, "float-eq"));
    }
}
