//! `par-float-reduce-order` — float accumulation over values collected
//! in worker *completion* order.
//!
//! Float addition is not associative: `(a + b) + c` and `a + (b + c)`
//! differ in the last ulps, so a sum over values that arrive in
//! scheduling order produces run-to-run different cubes. The dangerous
//! shape is a parallel closure pushing task results into a captured
//! container (`partials.lock().unwrap().push(v)`, `tx.send(v)`) whose
//! contents a parent function then reduces with `+=` / `.sum()` /
//! `.fold(…)`. The safe shape — reducing the *return value* of
//! `par_map`, which is merged back in input order — is exempt because no
//! captured container is mutated.
//!
//! Findings carry the path root closure → completion-order write →
//! reducing statement.

use crate::flow::stmt::{Stmt, StmtKind};
use crate::lexer::{Tok, Token};
use crate::rules::{Finding, Severity};
use crate::sema::{Model, SemaRule};

/// See the module docs.
pub struct ParFloatReduceOrder;

/// Container mutators that append in completion order.
const ORDER_SINKS: &[&str] = &["push", "extend", "send", "insert"];

impl SemaRule for ParFloatReduceOrder {
    fn id(&self) -> &'static str {
        "par-float-reduce-order"
    }

    fn summary(&self) -> &'static str {
        "f64 reduction over a container filled in parallel completion order"
    }

    fn default_severity(&self) -> Severity {
        Severity::Deny
    }

    fn check(&self, model: &Model, out: &mut Vec<Finding>) {
        for &root in &model.par_roots {
            if model.nodes[root].in_test {
                continue;
            }
            let Some(flow) = &model.flows[root] else { continue };
            let toks = &model.files[model.nodes[root].file].lexed.tokens;
            let local = flow.bound_locals();
            // Captured containers the closure appends to.
            for stmt in &flow.tree.stmts {
                let Some(container) = completion_order_write(toks, stmt, &local) else {
                    continue;
                };
                // Walk the ancestor chain looking for a float reduction
                // that reads the container (directly or one def away).
                let mut at = model.nodes[root].parent;
                while let Some(parent) = at {
                    if let Some((reduce_node, reduce_stmt)) =
                        find_reduction(model, parent, &container)
                    {
                        let mut path = model
                            .par
                            .path_to(root)
                            .map(|p| model.render_path(&p))
                            .unwrap_or_default();
                        path.push(model.stmt_hop(root, stmt));
                        if let Some(rf) = model.flows[reduce_node].as_ref() {
                            let rs = rf.stmt(reduce_stmt);
                            path.push(model.stmt_hop(reduce_node, rs));
                            model.emit(self, model.nodes[reduce_node].file, rs.line, path, out);
                        }
                        break;
                    }
                    at = model.nodes[parent].parent;
                }
            }
        }
    }
}

/// If `stmt` appends to a captured container (`c.push(…)`,
/// `c.lock().unwrap().push(…)`, `tx.send(…)`), the container's base name.
fn completion_order_write(toks: &[Token], stmt: &Stmt, local: &[&str]) -> Option<String> {
    let (lo, hi) = (stmt.tokens.0, stmt.tokens.1.min(toks.len()));
    let has_sink = (lo..hi).any(|at| {
        matches!(&toks[at].tok, Tok::Ident(m) if ORDER_SINKS.contains(&m.as_str()))
            && at >= 1
            && toks[at - 1].tok.is_punct('.')
    });
    if !has_sink {
        return None;
    }
    let base = crate::flow::defuse::first_ident(toks, lo, hi)?;
    (!local.contains(&base.as_str())).then_some(base)
}

/// A float-reduction statement over `container` inside `node`'s own
/// statements (closure children own their tokens and are excluded by the
/// statement tree's ranges being scanned per statement of *this* flow).
fn find_reduction(model: &Model, node: usize, container: &str) -> Option<(usize, usize)> {
    let flow = model.flows[node].as_ref()?;
    if !flow.defines(container) {
        return None;
    }
    let toks = &model.files[model.nodes[node].file].lexed.tokens;
    let closure_ranges: Vec<(usize, usize)> = model.nodes[node]
        .children
        .iter()
        .filter(|&&c| model.nodes[c].is_closure)
        .filter_map(|&c| model.nodes[c].body)
        .collect();
    // Names bound from the container anywhere in the body (`let drained
    // = partials.lock()…`). Flow-insensitive, so a superset of the
    // definitions that really reach a read: it can add a finding, never
    // hide one.
    let derived: Vec<&str> = flow
        .tree
        .stmts
        .iter()
        .filter(|s| s.uses.iter().any(|u| u == container))
        .flat_map(|s| s.defs.iter().map(String::as_str))
        .collect();
    for (id, stmt) in flow.tree.stmts.iter().enumerate() {
        // Reads the container, directly or through one intermediate
        // binding (`total += drained…`).
        let reads = stmt.uses.iter().any(|u| u == container || derived.contains(&u.as_str()));
        if !reads {
            continue;
        }
        if is_float_reduce(toks, stmt, &closure_ranges) {
            return Some((node, id));
        }
    }
    None
}

/// Whether the statement reduces floats: a compound `+=`/`*=`, or a
/// `.sum()` / `.fold(…)` call, with float evidence (an `f64`/`f32`
/// turbofish or a float literal) in the statement's own tokens. Tokens
/// inside child closures of the *enclosing function* are skipped so a
/// reduction inside the parallel worker itself does not satisfy the
/// parent-side check.
fn is_float_reduce(toks: &[Token], stmt: &Stmt, closure_ranges: &[(usize, usize)]) -> bool {
    let (lo, hi) = (stmt.tokens.0, stmt.tokens.1.min(toks.len()));
    let own = |at: usize| !closure_ranges.iter().any(|&(clo, chi)| (clo..chi).contains(&at));
    let mut reduces = matches!(&stmt.kind, StmtKind::Assign { compound: true, .. });
    let mut float = false;
    for at in (lo..hi).filter(|&at| own(at)) {
        match &toks[at].tok {
            Tok::Ident(s) if matches!(s.as_str(), "sum" | "fold" | "product") => reduces = true,
            Tok::Ident(s) if matches!(s.as_str(), "f64" | "f32") => float = true,
            Tok::Float(_) => float = true,
            _ => {}
        }
    }
    reduces && float
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::source::SourceFile;

    fn findings(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse("crates/core/src/x.rs", src)];
        let model = Model::build(&files, &Config::default());
        let mut out = Vec::new();
        ParFloatReduceOrder.check(&model, &mut out);
        out
    }

    #[test]
    fn completion_order_sum_is_flagged() {
        let src = "pub fn build(xs: &[f64]) -> f64 {\n\
                       let partials = Mutex::new(Vec::new());\n\
                       par_map(xs, |x| partials.lock().unwrap().push(x * 2.0));\n\
                       let total: f64 = partials.into_inner().unwrap().iter().sum::<f64>();\n\
                       total\n\
                   }\n";
        let out = findings(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
        assert!(out[0].path.len() >= 3, "{:?}", out[0].path);
        assert!(out[0].path[0].contains("{closure@3}"));
        assert!(out[0].path.iter().any(|h| h.contains("push")));
        assert!(out[0].path.last().expect("path").contains("sum"));
    }

    #[test]
    fn compound_add_over_drained_channel_is_flagged() {
        let src = "pub fn build(xs: &[f64], tx: Sender<f64>) -> f64 {\n\
                       par_map(xs, |x| tx.send(*x));\n\
                       let mut total = 0.0;\n\
                       total += tx.drain().iter().sum::<f64>();\n\
                       total\n\
                   }\n";
        let out = findings(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn reduction_one_binding_away_is_flagged() {
        let src = "pub fn build(xs: &[f64]) -> f64 {\n\
                       let partials = Mutex::new(Vec::new());\n\
                       par_map(xs, |x| partials.lock().unwrap().push(x * 2.0));\n\
                       let drained = partials.into_inner().unwrap();\n\
                       let total: f64 = drained.iter().sum::<f64>();\n\
                       total\n\
                   }\n";
        let out = findings(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 5);
    }

    #[test]
    fn input_order_merge_of_par_map_results_is_safe() {
        let src = "pub fn build(xs: &[f64]) -> f64 {\n\
                       let doubled = par_map(xs, |x| x * 2.0);\n\
                       let total: f64 = doubled.iter().sum::<f64>();\n\
                       total\n\
                   }\n";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn integer_counters_are_not_float_reductions() {
        let src = "pub fn build(xs: &[u64]) -> usize {\n\
                       let hits = Mutex::new(Vec::new());\n\
                       par_map(xs, |x| hits.lock().unwrap().push(*x));\n\
                       let n = hits.into_inner().unwrap().len();\n\
                       n\n\
                   }\n";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }
}
