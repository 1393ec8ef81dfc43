//! Fixture-based semantic rule tests: every call-graph rule has a
//! positive fixture whose `//~ <rule-id>` markers must be matched
//! exactly (rule id + line, no extras, no misses) and whose violation
//! is reachable only transitively (at least two call-graph hops from
//! the root), plus a negative fixture that must produce zero findings.
//! Per-rule tests additionally pin the exact rendered root → sink
//! call path.

use std::path::{Path, PathBuf};

use fbox_lint::config::Config;
use fbox_lint::rules::Finding;
use fbox_lint::sema::{all_sema_rules, Model, SemaRule};
use fbox_lint::source::SourceFile;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sema")
}

/// Loads a fixture under a synthetic library path so the module path
/// of every fixture fn is `fixture::positive::…` / `fixture::negative::…`.
fn load_fixture(rule_id: &str, which: &str) -> SourceFile {
    let path = fixture_dir().join(rule_id).join(which);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    SourceFile::parse(&format!("crates/fixture/src/{which}"), &text)
}

/// The determinism root every `det-*` fixture hangs off (suffix
/// pattern). The parallel-rule fixtures root at `par_map` closures,
/// which are discovered from the source and need no configuration.
const FIXTURE_ROOTS: &[&str] = &["run_study"];

fn run_rule(rule: &dyn SemaRule, file: &SourceFile) -> Vec<Finding> {
    let files = std::slice::from_ref(file);
    let cfg = Config {
        sema_roots: FIXTURE_ROOTS.iter().map(|s| (*s).to_owned()).collect(),
        ..Config::default()
    };
    let model = Model::build(files, &cfg);
    let mut out = Vec::new();
    rule.check(&model, &mut out);
    out
}

fn rule_by_id(id: &str) -> Box<dyn SemaRule> {
    all_sema_rules()
        .into_iter()
        .find(|r| r.id() == id)
        .unwrap_or_else(|| panic!("no sema rule `{id}`"))
}

/// 1-based lines carrying a `//~ <rule-id>` marker.
fn marked_lines(file: &SourceFile, rule_id: &str) -> Vec<u32> {
    let marker = format!("//~ {rule_id}");
    file.lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains(&marker))
        .map(|(i, _)| (i + 1) as u32)
        .collect()
}

#[test]
fn every_sema_rule_has_an_exact_positive_fixture() {
    for rule in all_sema_rules() {
        let file = load_fixture(rule.id(), "positive.rs");
        let expected = marked_lines(&file, rule.id());
        assert!(!expected.is_empty(), "{}: positive fixture has no //~ markers", rule.id());
        let findings = run_rule(rule.as_ref(), &file);
        let mut got: Vec<u32> = findings.iter().map(|f| f.line).collect();
        got.sort_unstable();
        assert_eq!(got, expected, "{}: flagged lines differ from //~ markers", rule.id());
        for f in &findings {
            assert_eq!(f.rule, rule.id(), "finding carries the wrong rule id");
            assert_eq!(f.file, file.path, "finding carries the wrong path");
        }
        // Every rule's violation must be demonstrated transitively:
        // at least one finding whose path is root → hop → sink.
        assert!(
            findings.iter().any(|f| f.path.len() >= 3),
            "{}: no finding with a >= 2-hop call path: {findings:?}",
            rule.id()
        );
    }
}

#[test]
fn every_sema_rule_has_a_clean_negative_fixture() {
    for rule in all_sema_rules() {
        let file = load_fixture(rule.id(), "negative.rs");
        let findings = run_rule(rule.as_ref(), &file);
        assert!(
            findings.is_empty(),
            "{}: negative fixture produced findings: {findings:?}",
            rule.id()
        );
    }
}

#[test]
fn det_hash_iter_reports_the_full_call_path() {
    let rule = rule_by_id("det-hash-iter");
    let file = load_fixture("det-hash-iter", "positive.rs");
    let out = run_rule(rule.as_ref(), &file);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].line, 21);
    assert_eq!(
        out[0].path,
        [
            "fixture::positive::run_study (crates/fixture/src/positive.rs:7)",
            "fixture::positive::collect (crates/fixture/src/positive.rs:11)",
            "fixture::positive::tally (crates/fixture/src/positive.rs:15)",
        ]
    );
}

#[test]
fn det_env_read_reports_the_full_call_path() {
    let rule = rule_by_id("det-env-read");
    let file = load_fixture("det-env-read", "positive.rs");
    let out = run_rule(rule.as_ref(), &file);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].line, 13);
    assert_eq!(
        out[0].path,
        [
            "fixture::positive::run_study (crates/fixture/src/positive.rs:4)",
            "fixture::positive::configure (crates/fixture/src/positive.rs:8)",
            "fixture::positive::thread_budget (crates/fixture/src/positive.rs:12)",
        ]
    );
}

#[test]
fn par_shared_capture_paths_root_to_definition_to_write() {
    let rule = rule_by_id("par-shared-capture");
    let file = load_fixture("par-shared-capture", "positive.rs");
    let out = run_rule(rule.as_ref(), &file);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].line, 7);
    assert_eq!(
        out[0].path,
        [
            "fixture::positive::shard::{closure@6} (crates/fixture/src/positive.rs:6)",
            "`let mut hits = 0usize;` (crates/fixture/src/positive.rs:5)",
            "`hits += 1;` (crates/fixture/src/positive.rs:7)",
        ]
    );
}

#[test]
fn par_float_reduce_order_paths_write_to_reduction() {
    let rule = rule_by_id("par-float-reduce-order");
    let file = load_fixture("par-float-reduce-order", "positive.rs");
    let out = run_rule(rule.as_ref(), &file);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].line, 7);
    assert_eq!(
        out[0].path,
        [
            "fixture::positive::shard::{closure@6} (crates/fixture/src/positive.rs:6)",
            "`pool.par_map(xs, |x| partials.lock().expect(\"poisoned\").push(x * 2.0));` \
             (crates/fixture/src/positive.rs:6)",
            "`let total: f64 = partials.into_inner().expect(\"poisoned\").iter().sum::<f64>();` \
             (crates/fixture/src/positive.rs:7)",
        ]
    );
}

#[test]
fn atomic_relaxed_handoff_paths_both_sides_of_the_handoff() {
    let rule = rule_by_id("atomic-relaxed-handoff");
    let file = load_fixture("atomic-relaxed-handoff", "positive.rs");
    let out = run_rule(rule.as_ref(), &file);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].line, 6);
    assert_eq!(
        out[0].path,
        [
            "fixture::positive::shard::{closure@5} (crates/fixture/src/positive.rs:5)",
            "`ready.store(true, Ordering::Relaxed);` (crates/fixture/src/positive.rs:6)",
            "`ready.load(Ordering::Acquire)` (crates/fixture/src/positive.rs:12)",
        ]
    );
}

#[test]
fn flow_unchecked_div_paths_root_to_def_to_division() {
    let rule = rule_by_id("flow-unchecked-div");
    let file = load_fixture("flow-unchecked-div", "positive.rs");
    let out = run_rule(rule.as_ref(), &file);
    assert_eq!(out.len(), 6, "{out:?}");
    assert_eq!(out[0].line, 16);
    assert_eq!(
        out[0].path,
        [
            "fixture::positive::run_study (crates/fixture/src/positive.rs:5)",
            "fixture::positive::normalize (crates/fixture/src/positive.rs:9)",
            "fixture::positive::mean (crates/fixture/src/positive.rs:13)",
            "`total / n as f64` (crates/fixture/src/positive.rs:16)",
            "divisor in f64 {finite, >=0, integer} not proven nonzero",
        ]
    );
}

#[test]
fn race_static_mut_reports_declaration_and_pathed_usage() {
    let rule = rule_by_id("race-static-mut");
    let file = load_fixture("race-static-mut", "positive.rs");
    let out = run_rule(rule.as_ref(), &file);
    assert_eq!(out.len(), 2, "{out:?}");
    let decl = out.iter().find(|f| f.line == 5).expect("declaration finding at the static");
    assert!(decl.path.is_empty(), "declaration findings carry no call path: {decl:?}");
    let usage = out.iter().find(|f| f.line == 18).expect("usage finding at the write");
    assert_eq!(
        usage.path,
        [
            "fixture::positive::shard::{closure@8} (crates/fixture/src/positive.rs:8)",
            "fixture::positive::bump (crates/fixture/src/positive.rs:11)",
            "fixture::positive::record (crates/fixture/src/positive.rs:16)",
        ]
    );
}

#[test]
fn arith_unchecked_sub_renders_the_operand_intervals() {
    let rule = rule_by_id("arith-unchecked-sub");
    let file = load_fixture("arith-unchecked-sub", "positive.rs");
    let out = run_rule(rule.as_ref(), &file);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].line, 14);
    assert_eq!(
        out[0].path,
        [
            "fixture::positive::run_study (crates/fixture/src/positive.rs:5)",
            "fixture::positive::collect (crates/fixture/src/positive.rs:9)",
            "fixture::positive::shrink (crates/fixture/src/positive.rs:13)",
            "`n - k` (crates/fixture/src/positive.rs:14)",
            "cannot prove lhs >= rhs: lhs in u64 [0, 18446744073709551615], \
             rhs in u64 [0, 18446744073709551615]",
        ]
    );
}

#[test]
fn arith_widening_needed_renders_the_escaping_product() {
    let rule = rule_by_id("arith-widening-needed");
    let file = load_fixture("arith-widening-needed", "positive.rs");
    let out = run_rule(rule.as_ref(), &file);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].line, 19);
    assert_eq!(
        out[0].path,
        [
            "fixture::positive::run_study (crates/fixture/src/positive.rs:5)",
            "fixture::positive::collect (crates/fixture/src/positive.rs:9)",
            "fixture::positive::scale (crates/fixture/src/positive.rs:17)",
            "`bounded * 1_073_741_824` (crates/fixture/src/positive.rs:19)",
            "[0, 1099511627776] * [1073741824, 1073741824] gives \
             [0, 1180591620717411303424], escaping u64; widen to i128",
        ]
    );
}

#[test]
fn range_invariant_escape_names_the_violated_requirement() {
    let rule = rule_by_id("range-invariant-escape");
    let file = load_fixture("range-invariant-escape", "positive.rs");
    let out = run_rule(rule.as_ref(), &file);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].line, 18);
    assert_eq!(
        out[0].path,
        [
            "fixture::positive::run_study (crates/fixture/src/positive.rs:5)",
            "fixture::positive::collect (crates/fixture/src/positive.rs:9)",
            "fixture::positive::weighted (crates/fixture/src/positive.rs:17)",
            "`blend(x)` (crates/fixture/src/positive.rs:18)",
            "argument `share` in f64 {no facts} cannot prove f64 {finite, >=0, <=1} \
             required by fixture::positive::blend",
        ]
    );
}

#[test]
fn cast_truncating_unproven_renders_the_operand_interval() {
    let rule = rule_by_id("cast-truncating-unproven");
    let file = load_fixture("cast-truncating-unproven", "positive.rs");
    let out = run_rule(rule.as_ref(), &file);
    assert_eq!(out.len(), 5, "{out:?}");
    assert_eq!(out[0].line, 14);
    assert_eq!(
        out[0].path,
        [
            "fixture::positive::run_study (crates/fixture/src/positive.rs:5)",
            "fixture::positive::collect (crates/fixture/src/positive.rs:9)",
            "fixture::positive::digest (crates/fixture/src/positive.rs:13)",
            "`total as u32` (crates/fixture/src/positive.rs:14)",
            "cast of u64 [0, 18446744073709551615] to u32 not proven lossless",
        ]
    );
    // A float source outside every cone is its own root.
    assert_eq!(
        out[1].path,
        [
            "fixture::positive::literal_cast (crates/fixture/src/positive.rs:17)",
            "`0.75 as usize` (crates/fixture/src/positive.rs:18)",
            "cast of f64 {finite, >=0, <=1, !=0} to usize not proven lossless",
        ]
    );
}
