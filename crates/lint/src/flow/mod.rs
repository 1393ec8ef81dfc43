//! Body-level flow analysis: a tolerant statement parser
//! ([`stmt`]), per-function control-flow graphs ([`cfg`](mod@cfg)), def/use token
//! scanners ([`defuse`]), and a gen/kill worklist dataflow engine
//! ([`dataflow`]). The sema pass builds one [`FnFlow`] per function-like
//! node; the flow rules (`par-shared-capture`, `par-float-reduce-order`,
//! `atomic-relaxed-handoff`) query it for statement-level paths and
//! reaching definitions, and the interval analysis ([`crate::absint`])
//! runs over its CFGs. Guard facts — what a comparison or an
//! `is_empty()` test proves about a value, which is what divisions and
//! casts need — are absint's, not this module's.

pub mod cfg;
pub mod dataflow;
pub mod defuse;
pub mod stmt;

use crate::lexer::{Tok, Token};

use dataflow::{BitSet, Solution};
use stmt::{BodyTree, Stmt, StmtId, StmtKind};

/// A function body's flow analysis: statement tree, CFG, and the solved
/// *reaching definitions* problem (may, over statement ids).
#[derive(Debug, Clone)]
pub struct FnFlow {
    /// Parsed statement arena.
    pub tree: BodyTree,
    /// Control-flow graph over statement ids (+ virtual exit).
    pub cfg: cfg::Cfg,
    /// Parameter names (also the defs of synthetic statement 0).
    pub params: Vec<String>,
    /// Sorted universe of defined variable names.
    pub vars: Vec<String>,
    /// Reaching definitions: facts are statement ids.
    pub reach: Solution,
}

impl FnFlow {
    /// The statement with id `id`.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.tree.stmts[id]
    }

    /// Index of `name` in the variable universe.
    pub fn var_id(&self, name: &str) -> Option<usize> {
        self.vars.binary_search_by(|v| v.as_str().cmp(name)).ok()
    }

    /// Whether `name` is defined anywhere in this body (params included).
    pub fn defines(&self, name: &str) -> bool {
        self.var_id(name).is_some()
    }

    /// Statement ids whose definition of `name` reaches the entry of
    /// statement `at`.
    pub fn reaching_defs(&self, at: StmtId, name: &str) -> Vec<StmtId> {
        self.reach.ins[at]
            .iter()
            .filter(|&d| self.tree.stmts[d].defs.iter().any(|v| v == name))
            .collect()
    }

    /// The innermost statement whose head token range contains `tok`
    /// (control-statement bodies are separate statements with their own
    /// ranges, so "narrowest containing range" is the right tiebreak).
    pub fn stmt_at(&self, tok: usize) -> Option<StmtId> {
        self.tree
            .stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| (s.tokens.0..s.tokens.1).contains(&tok))
            .min_by_key(|(_, s)| s.tokens.1 - s.tokens.0)
            .map(|(id, _)| id)
    }

    /// Variables bound by `let`/patterns/params in this body — i.e. defs
    /// that are *not* plain assignment targets. An assignment to a name
    /// outside this set writes through a capture or a field.
    pub fn bound_locals(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for s in &self.tree.stmts {
            if matches!(s.kind, StmtKind::Assign { .. }) {
                continue;
            }
            for d in &s.defs {
                if !out.contains(&d.as_str()) {
                    out.push(d.as_str());
                }
            }
        }
        out
    }
}

/// Extracts parameter names from an item's signature token range
/// (`item.tokens.0 .. body start`). Handles `fn` parameter lists
/// (generics skipped, `self` kept) and closure `|…|` lists.
pub fn fn_params(toks: &[Token], sig: (usize, usize), is_closure: bool) -> Vec<String> {
    let (lo, hi) = (sig.0.min(toks.len()), sig.1.min(toks.len()));
    if is_closure {
        // `move |a, (b, c)| …` / `|| …`.
        for at in lo..hi {
            match &toks[at].tok {
                Tok::Op("||") => return Vec::new(),
                Tok::Punct('|') => {
                    let mut depth = 0usize;
                    for end in at + 1..hi {
                        match &toks[end].tok {
                            Tok::Punct('(' | '[' | '<') => depth += 1,
                            Tok::Punct(')' | ']' | '>') => depth = depth.saturating_sub(1),
                            Tok::Punct('|') if depth == 0 => {
                                return split_params(toks, at + 1, end);
                            }
                            _ => {}
                        }
                    }
                    return Vec::new();
                }
                _ => {}
            }
        }
        return Vec::new();
    }
    // `fn name<G…>(params…)`.
    let mut at = lo;
    while at < hi && !toks[at].tok.is_ident("fn") {
        at += 1;
    }
    at += 2; // `fn` + name
    if at < hi && toks[at].tok.is_punct('<') {
        let mut depth = 0isize;
        while at < hi {
            match &toks[at].tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') => depth -= 1,
                Tok::Op("<<") => depth += 2,
                Tok::Op(">>") => depth -= 2,
                _ => {}
            }
            at += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    if at < hi && toks[at].tok.is_punct('(') {
        let mut depth = 0usize;
        for end in at..hi {
            match &toks[end].tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return split_params(toks, at + 1, end);
                    }
                }
                _ => {}
            }
        }
    }
    Vec::new()
}

/// Splits a parameter list on top-level commas and takes each segment's
/// pattern part (before a top-level `:`).
fn split_params(toks: &[Token], lo: usize, hi: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut seg_start = lo;
    let mut depth = 0usize;
    for at in lo..=hi {
        let end_of_seg = at == hi || (depth == 0 && matches!(&toks[at].tok, Tok::Punct(',')));
        if at < hi {
            match &toks[at].tok {
                Tok::Punct('(' | '[' | '{' | '<') => depth += 1,
                Tok::Punct(')' | ']' | '}' | '>') => depth = depth.saturating_sub(1),
                Tok::Op("<<") => depth += 2,
                Tok::Op(">>") => depth = depth.saturating_sub(2),
                _ => {}
            }
        }
        if end_of_seg {
            let mut pat_end = at;
            let mut d = 0usize;
            for (p, t) in toks.iter().enumerate().take(at).skip(seg_start) {
                match &t.tok {
                    Tok::Punct('(' | '[' | '{' | '<') => d += 1,
                    Tok::Punct(')' | ']' | '}' | '>') => d = d.saturating_sub(1),
                    Tok::Punct(':') if d == 0 => {
                        pat_end = p;
                        break;
                    }
                    _ => {}
                }
            }
            out.extend(defuse::pattern_bindings(toks, seg_start, pat_end));
            seg_start = at + 1;
        }
    }
    out
}

/// Runs the full flow analysis for one function body. `sig` is the item
/// token range up to the body; `skip` lists nested named-fn token ranges
/// (separate nodes, excluded here).
pub fn analyze(
    toks: &[Token],
    sig: (usize, usize),
    body: (usize, usize),
    is_closure: bool,
    skip: &[(usize, usize)],
    decl_line: u32,
) -> FnFlow {
    let params = fn_params(toks, sig, is_closure);
    let tree = stmt::parse_body(toks, body, params.clone(), skip, decl_line);
    let cfg = cfg::build(&tree);
    let n = tree.stmts.len();

    let mut vars: Vec<String> = tree.stmts.iter().flat_map(|s| s.defs.iter().cloned()).collect();
    vars.sort();
    vars.dedup();

    // Reaching definitions: facts are statement ids; a statement kills
    // every other definition of any variable it defines.
    let mut defs_of: Vec<Vec<StmtId>> = vec![Vec::new(); vars.len()];
    for (id, s) in tree.stmts.iter().enumerate() {
        for d in &s.defs {
            if let Ok(v) = vars.binary_search(d) {
                defs_of[v].push(id);
            }
        }
    }
    let mut gen = vec![BitSet::empty(n); n + 1];
    let mut kill = vec![BitSet::empty(n); n + 1];
    for (id, s) in tree.stmts.iter().enumerate() {
        if s.defs.is_empty() {
            continue;
        }
        gen[id].insert(id);
        for d in &s.defs {
            if let Ok(v) = vars.binary_search(d) {
                for &other in &defs_of[v] {
                    if other != id {
                        kill[id].insert(other);
                    }
                }
            }
        }
    }
    let reach = dataflow::solve(&cfg.succ, &gen, &kill);

    FnFlow { tree, cfg, params, vars, reach }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn flow_of(src: &str) -> (Vec<Token>, FnFlow) {
        let lexed = lex(src);
        let items = parse(&lexed);
        let item = &items.items[0];
        let body = item.body.expect("body");
        let skip: Vec<(usize, usize)> = item
            .children
            .iter()
            .filter(|c| !matches!(c.kind, crate::parser::ItemKind::Closure { .. }))
            .map(|c| c.tokens)
            .collect();
        let flow = analyze(&lexed.tokens, (item.tokens.0, body.0), body, false, &skip, item.line);
        (lexed.tokens, flow)
    }

    #[test]
    fn params_are_extracted_with_self_and_patterns() {
        let lexed = lex("impl T { fn m(&mut self, (a, b): (u32, u32), xs: &[Vec<u8>]) {} }\n");
        let items = parse(&lexed);
        let m = &items.items[0].children[0];
        let params = fn_params(&lexed.tokens, (m.tokens.0, m.body.unwrap().0), false);
        assert_eq!(params, vec!["self", "a", "b", "xs"]);
    }

    #[test]
    fn closure_params_come_from_the_pipe_list() {
        let lexed = lex("fn f() { let c = |(i, v): (usize, f64), rest| v; }\n");
        let items = parse(&lexed);
        let closure = &items.items[0].children[0];
        let params = fn_params(&lexed.tokens, (closure.tokens.0, closure.body.unwrap().0), true);
        assert_eq!(params, vec!["i", "v", "rest"]);
    }

    #[test]
    fn reaching_defs_distinguish_branch_writes() {
        let (_, f) = flow_of(
            "fn f(c: bool) -> i64 {\n\
                 let mut x = 0;\n\
                 if c { x = 1; } else { x = 2; }\n\
                 x\n\
             }\n",
        );
        assert!(f.tree.errors.is_empty(), "{:?}", f.tree.errors);
        // Ids: 0 params, 1 let, 2 `x=1`, 3 `x=2`, 4 if, 5 tail.
        let defs = f.reaching_defs(5, "x");
        assert_eq!(defs, vec![2, 3], "both branch writes reach, the init is killed");
    }

    #[test]
    fn bound_locals_exclude_assignment_targets() {
        let (_, f) = flow_of("fn f(a: u32) { let b = 1; shared = a + b; }\n");
        assert_eq!(f.bound_locals(), vec!["a", "b"], "shared is written, not bound");
    }
}
