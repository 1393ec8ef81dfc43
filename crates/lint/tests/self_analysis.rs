//! Self-analysis: the item parser must handle every `.rs` file in this
//! workspace — shims and deliberately-broken lint fixtures included —
//! with zero parse errors and well-formed item spans. This is the
//! parser's reality check: the grammar subset it implements has to
//! cover everything the workspace actually writes.

use std::path::{Path, PathBuf};

use fbox_lint::config::Config;
use fbox_lint::engine;
use fbox_lint::parser::Item;
use fbox_lint::sema::Model;
use fbox_lint::source;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// Items at each nesting level must appear in source order, each span
/// must be non-inverted, and children must start at or after their
/// parent's declaration line.
fn check_spans(rel: &str, items: &[Item], min_line: u32) {
    let mut prev = min_line;
    for item in items {
        assert!(
            item.line >= prev,
            "{rel}: item `{}` at line {} precedes sibling/parent at line {prev}",
            item.name,
            item.line
        );
        assert!(
            item.end_line >= item.line,
            "{rel}: item `{}` has inverted span {}..{}",
            item.name,
            item.line,
            item.end_line
        );
        check_spans(rel, &item.children, item.line);
        prev = item.line;
    }
}

#[test]
fn whole_workspace_parses_with_zero_errors_and_monotonic_spans() {
    let root = workspace_root();
    assert!(root.join("Lint.toml").is_file(), "workspace root not found at {}", root.display());
    // Default config has no [paths] exclude: shims/ and the lint
    // fixtures are deliberately in scope here even though the lint
    // run itself skips them.
    let config = Config::default();
    let rels = engine::walk(&root, &config);
    assert!(rels.len() > 100, "workspace walk looks truncated: {} files", rels.len());
    assert!(
        rels.iter().any(|r| r.starts_with("shims/")),
        "shims must be part of the self-analysis corpus"
    );
    assert!(
        rels.iter().any(|r| r.starts_with("crates/lint/tests/fixtures/")),
        "fixtures must be part of the self-analysis corpus"
    );
    let mut parsed_items = 0usize;
    for rel in &rels {
        let file = source::load(&root, rel).unwrap_or_else(|| panic!("unreadable file: {rel}"));
        assert!(file.items.errors.is_empty(), "{rel}: parse errors: {:?}", file.items.errors);
        check_spans(rel, &file.items.items, 0);
        let mut count = 0usize;
        for item in &file.items.items {
            item.walk(&mut |_| count += 1);
        }
        parsed_items += count;
    }
    assert!(parsed_items > 1000, "suspiciously few items parsed: {parsed_items}");
}

/// The flow layer's reality check, mirroring the item-parser test above:
/// every function body in the workspace — shims and fixtures included —
/// must statement-parse with zero [`fbox_lint::flow`] errors, and every
/// CFG must be connected (no statement unreachable from entry, which
/// would silently hide defs/uses from the dataflow rules).
#[test]
fn every_workspace_body_flows_with_zero_errors_and_connected_cfgs() {
    let root = workspace_root();
    let config = Config::default();
    let sources: Vec<source::SourceFile> = engine::walk(&root, &config)
        .iter()
        .map(|rel| source::load(&root, rel).unwrap_or_else(|| panic!("unreadable file: {rel}")))
        .collect();
    let model = Model::build(&sources, &config);
    let mut bodies = 0usize;
    let mut stmts = 0usize;
    for (id, flow) in model.flows.iter().enumerate() {
        let Some(flow) = flow else { continue };
        let node = &model.nodes[id];
        let at = format!("{} ({}:{})", node.qname, sources[node.file].path, node.line);
        assert!(flow.tree.errors.is_empty(), "{at}: flow parse errors: {:?}", flow.tree.errors);
        let orphans = flow.cfg.orphans();
        assert!(orphans.is_empty(), "{at}: orphan CFG blocks {orphans:?}");
        bodies += 1;
        stmts += flow.tree.stmts.len();
    }
    assert!(bodies > 1000, "suspiciously few bodies analyzed: {bodies}");
    assert!(stmts > 10_000, "suspiciously few statements parsed: {stmts}");
}

/// The abstract interpreter's reality check: every function body in the
/// workspace must reach its interval fixpoint (widening guarantees
/// termination; `diverged` marks the iteration cap instead), and every
/// statement of every connected CFG must carry an abstract environment —
/// a `None` env on a reachable statement means the fixpoint silently
/// skipped code that the rules then never see.
#[test]
fn every_workspace_fn_reaches_its_absint_fixpoint() {
    let root = workspace_root();
    let config = Config::default();
    let sources: Vec<source::SourceFile> = engine::walk(&root, &config)
        .iter()
        .map(|rel| source::load(&root, rel).unwrap_or_else(|| panic!("unreadable file: {rel}")))
        .collect();
    let model = Model::build(&sources, &config);
    let mut analyzed = 0usize;
    let mut envs_checked = 0usize;
    for (id, flow) in model.flows.iter().enumerate() {
        let Some(flow) = flow else { continue };
        let node = &model.nodes[id];
        let at = format!("{} ({}:{})", node.qname, sources[node.file].path, node.line);
        let fa = model.absint.fns[id]
            .as_ref()
            .unwrap_or_else(|| panic!("{at}: body has a flow but no absint result"));
        assert!(!fa.diverged, "{at}: fixpoint hit the iteration cap after {}", fa.iterations);
        assert_eq!(fa.envs.len(), flow.tree.stmts.len(), "{at}: env table misaligned");
        // `orphans()` is empty workspace-wide (asserted above), so every
        // statement is CFG-reachable and must have been visited.
        for (s, env) in fa.envs.iter().enumerate() {
            assert!(env.is_some(), "{at}: reachable statement {s} has no abstract env");
            envs_checked += 1;
        }
        analyzed += 1;
    }
    assert!(analyzed > 1000, "suspiciously few bodies interpreted: {analyzed}");
    assert!(envs_checked > 10_000, "suspiciously few envs computed: {envs_checked}");
}
