//! The fourth analysis pass: abstract interpretation over the
//! per-function CFGs from [`crate::flow`], with interprocedural
//! summaries over the [`crate::sema`] call graph.
//!
//! Per function, a forward worklist computes an abstract environment
//! (variable → [`AbsVal`]) at every statement entry: integer intervals
//! with widening at loop heads (bound jumps go to the variable's type
//! fence first, then ±∞) followed by a bounded narrowing sweep that
//! recovers over-widened bounds, plus float range facts. Branch and
//! assert conditions refine environments edge-sensitively — `if sum <
//! SCALE` really does bound `sum` inside the branch — and guard
//! comparisons between two locals are tracked as directed `a ≥ b` facts
//! so `if a >= b { a - b }` proves the subtraction even when neither
//! interval is bounded.
//!
//! Interprocedurally, functions are condensed into call-graph SCCs and
//! fixpointed bottom-up: a function's summary (return interval plus
//! assert-derived argument preconditions) is available to every caller
//! in a later SCC, and calls *within* an SCC — recursion — are cut at ⊤.
//! SCCs run one at a time, on one thread, in the order `condense` emits
//! them (callees first).
//!
//! The engine deliberately evaluates *twice*: fixpoint iterations
//! discard events, and a single post-convergence reporting pass over the
//! stable environments collects them in statement order — so event
//! streams never depend on worklist scheduling.

pub mod domain;
pub mod eval;
pub mod rules;

use std::collections::BTreeMap;
use std::rc::Rc;

use crate::flow::stmt::{StmtId, StmtKind};
use crate::flow::FnFlow;
use crate::lexer::{Tok, Token};
use crate::sema::FnNode;
use crate::source::SourceFile;

use domain::{AbsVal, FloatFacts, IntKind, Interval, NEG_INF, POS_INF};
use eval::{Env, Evaled, Evaluator, Event};

/// Joins at a loop head before widening kicks in.
const WIDEN_AFTER: u32 = 3;
/// Narrowing sweeps after the widening fixpoint.
const NARROW_PASSES: usize = 2;

/// Key prefix for directed guard facts in an [`Env`]: `"#ge a b"` means
/// `a >= b` holds on every path into the statement. `#` cannot start an
/// identifier, so fact keys never collide with variables; unlike variable
/// entries they are dropped at joins when either side lacks them.
const PAIR_PREFIX: &str = "#ge ";

/// Key prefix for length facts: `"#len xs"` bounds `xs.len()` (set by
/// `xs.is_empty()` tests and comparisons on `xs.len()`).
const LEN_PREFIX: &str = "#len ";

/// Iterator adaptors whose closure receives each item of the receiver.
const ITEM_ADAPTORS: &[&str] = &[
    "all",
    "any",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "flat_map",
    "for_each",
    "map",
    "position",
    "skip_while",
    "take_while",
];

/// Methods that can shrink a collection, invalidating its length fact.
const SHRINKING: &[&str] = &[
    "clear",
    "drain",
    "pop",
    "pop_back",
    "pop_front",
    "remove",
    "retain",
    "retain_mut",
    "split_off",
    "swap_remove",
    "take",
    "truncate",
];

pub(crate) fn pair_key(hi: &str, lo: &str) -> Rc<str> {
    format!("{PAIR_PREFIX}{hi} {lo}").into()
}

pub(crate) fn len_key(name: &str) -> Rc<str> {
    format!("{LEN_PREFIX}{name}").into()
}

/// Whether an [`Env`] key is a guard fact rather than a variable.
fn is_fact_key(key: &str) -> bool {
    key.starts_with('#')
}

/// The value `xs.len()` has before any test: bounded by `isize::MAX`.
pub(crate) fn len_range() -> AbsVal {
    AbsVal::Int { iv: Interval::new(0, i64::MAX as i128), kind: Some(IntKind::Usize) }
}

/// One function's converged analysis.
#[derive(Debug)]
pub struct FnAbsint {
    /// Entry environment per statement; `None` = not abstractly reached.
    pub envs: Vec<Option<Env>>,
    /// Events from the reporting pass, in statement order.
    pub events: Vec<(StmtId, Event)>,
    /// Worklist statement visits until convergence.
    pub iterations: usize,
    /// Whether the iteration cap fired before convergence (a bug: the
    /// self-analysis test pins this to `false` workspace-wide).
    pub diverged: bool,
}

/// A function's interprocedural summary.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Abstract return value (declared-type information included).
    pub ret: AbsVal,
    /// Assert-derived preconditions: `(param index, name, required)`.
    /// The required value is what the leading `assert!`s of the body
    /// refine the parameter to — a caller whose argument cannot prove it
    /// is handing the function a value it documents as rejecting.
    pub requires: Vec<(usize, String, AbsVal)>,
    /// Parameter names, for caller-side index alignment (`self` first
    /// for methods).
    pub params: Vec<String>,
    /// For a single-expression `bool` function: what a `true` result
    /// proves about each parameter, `(param index, value)`.
    pub if_true: Vec<(usize, AbsVal)>,
    /// As [`FnSummary::if_true`], for a `false` result.
    pub if_false: Vec<(usize, AbsVal)>,
}

/// The whole-workspace abstract interpretation result, indexed like
/// [`crate::sema::Model::nodes`].
#[derive(Debug, Default)]
pub struct Analysis {
    /// Per-node converged environments/events (`None` for bodiless fns).
    pub fns: Vec<Option<FnAbsint>>,
    /// Per-node summaries (`None` only while the fixpoint is running).
    pub summaries: Vec<Option<FnSummary>>,
    /// Workspace `const`/immutable-`static` values by simple name
    /// (cross-file collisions joined).
    pub consts: BTreeMap<String, AbsVal>,
    /// Number of call-graph SCCs (telemetry).
    pub scc_count: usize,
    /// Largest SCC size — recursion cycles cut at ⊤ (telemetry).
    pub max_scc_len: usize,
}

/// Runs the interprocedural analysis. `call_sites[node]` maps the token
/// index of each callee name to its resolved node ids, sorted by token.
pub fn analyze(
    files: &[SourceFile],
    nodes: &[FnNode],
    graph: &[Vec<usize>],
    flows: &[Option<FnFlow>],
    call_sites: &[Vec<(usize, Vec<usize>)>],
) -> Analysis {
    let consts = collect_consts(files);
    let sccs = condense(graph);
    let scc_count = sccs.len();
    let max_scc_len = sccs.iter().map(Vec::len).max().unwrap_or(0);

    let mut out = Analysis {
        fns: (0..nodes.len()).map(|_| None).collect(),
        summaries: vec![None; nodes.len()],
        consts,
        scc_count,
        max_scc_len,
    };
    // Closures are never resolved as callees (no caller reads their
    // summary), so they run after every named fn, outermost first: each
    // starts from its enclosing statement's environment for the names it
    // captures.
    let mut closures: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (id, node) in nodes.iter().enumerate() {
        if node.is_closure {
            let depth = std::iter::successors(node.parent, |&p| nodes[p].parent)
                .take_while(|&p| nodes[p].is_closure)
                .count();
            closures.entry(depth).or_default().push(id);
        }
    }
    // Each batch reads the summaries frozen before it and commits after
    // it. An SCC is one batch, so a call into a summary still missing is
    // exactly a same-SCC (recursive) call, which the oracle cuts at ⊤;
    // `condense` emits callees first, so every other summary a node can
    // reach is already final.
    let batches = sccs
        .into_iter()
        .map(|scc| scc.into_iter().filter(|&id| !nodes[id].is_closure).collect::<Vec<_>>())
        .chain(closures.into_values());
    for batch in batches {
        let results: Vec<_> = batch
            .iter()
            .map(|&id| {
                let env = captured_env(id, files, nodes, flows, &out.fns).unwrap_or_default();
                let (summaries, consts) = (&out.summaries, &out.consts);
                analyze_node(id, files, nodes, flows, call_sites, summaries, consts, env)
            })
            .collect();
        for (&id, (fa, summary)) in batch.iter().zip(results) {
            out.fns[id] = fa;
            out.summaries[id] = Some(summary);
        }
    }
    out
}

/// A closure's view of its enclosing function: the converged entry
/// environment of the parent statement holding the closure, minus every
/// name the closure binds or assigns itself (and the facts about those
/// names or about collections it shrinks).
fn captured_env(
    id: usize,
    files: &[SourceFile],
    nodes: &[FnNode],
    flows: &[Option<FnFlow>],
    fns: &[Option<FnAbsint>],
) -> Option<Env> {
    let node = &nodes[id];
    let parent = node.parent?;
    let stmt = flows[parent].as_ref()?.stmt_at(node.tokens.0)?;
    let env = fns[parent].as_ref()?.envs.get(stmt)?.as_ref()?;
    let own = flows[id].as_ref()?;
    let toks = &files[node.file].lexed.tokens;
    let shrunk: Vec<&str> = shrunk_names(toks, node.tokens.0, node.tokens.1).collect();
    let captured = env
        .iter()
        .filter(|(key, _)| {
            let names = match (key.strip_prefix(PAIR_PREFIX), key.strip_prefix(LEN_PREFIX)) {
                (Some(pair), _) => pair.split(' ').collect(),
                (_, Some(name)) if shrunk.contains(&name) => return false,
                (_, Some(name)) => vec![name],
                _ => vec![key.as_ref()],
            };
            !names.iter().any(|name| own.defines(name))
        })
        .map(|(key, val)| (key.clone(), *val))
        .collect();
    Some(captured)
}

/// Tarjan's SCC algorithm (iterative), emitting components in reverse
/// topological order of the condensation: callees before callers.
fn condense(graph: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = graph.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next edge position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut edge)) = frames.last_mut() {
            if let Some(&w) = graph[v].get(*edge) {
                *edge += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// Evaluates every workspace `const` / immutable `static` into the
/// simple-name value map. Two passes let consts reference each other in
/// any order; name collisions across files are joined.
fn collect_consts(files: &[SourceFile]) -> BTreeMap<String, AbsVal> {
    let mut consts: BTreeMap<String, AbsVal> = BTreeMap::new();
    for _ in 0..2 {
        let prev = consts.clone();
        consts.clear();
        for file in files {
            let toks = &file.lexed.tokens;
            file.items.walk(&mut |item| {
                let immutable_static =
                    matches!(&item.kind, crate::parser::ItemKind::Static { mutable: false, .. });
                if !matches!(item.kind, crate::parser::ItemKind::Const) && !immutable_static {
                    return;
                }
                let (lo, hi) = item.tokens;
                let Some(eq) = find_depth0_angles(toks, lo, hi, |t| t.is_punct('=')) else {
                    return;
                };
                let ty = find_depth0_angles(toks, lo, eq, |t| t.is_punct(':'))
                    .and_then(|colon| type_name_at(toks, colon + 1, eq));
                let env = Env::new();
                let mut oracle = |_: usize, _: &str, _: &[AbsVal]| AbsVal::Top;
                let mut ev = Evaluator::new(toks, &prev, &[], &mut oracle);
                let val = ev.eval(&env, eq + 1, hi).val;
                let val = apply_decl_type(val, ty.as_deref());
                consts.entry(item.name.clone()).and_modify(|v| *v = v.join(&val)).or_insert(val);
            });
        }
    }
    consts
}

/// Analyzes one node: the intraprocedural fixpoint plus its summary.
/// `captured` seeds the entry environment (a closure's captures).
#[allow(clippy::too_many_arguments)]
fn analyze_node(
    id: usize,
    files: &[SourceFile],
    nodes: &[FnNode],
    flows: &[Option<FnFlow>],
    call_sites: &[Vec<(usize, Vec<usize>)>],
    summaries: &[Option<FnSummary>],
    consts: &BTreeMap<String, AbsVal>,
    captured: Env,
) -> (Option<FnAbsint>, FnSummary) {
    let node = &nodes[id];
    let toks = &files[node.file].lexed.tokens;
    let sig = (node.tokens.0, node.body.map(|b| b.0).unwrap_or(node.tokens.1));
    let Some(flow) = flows[id].as_ref() else {
        // Bodiless (trait declaration): the declared return type is the
        // whole summary.
        let ret = apply_decl_type(AbsVal::Top, declared_ret(toks, sig).as_deref());
        let summary = FnSummary {
            ret,
            requires: Vec::new(),
            params: Vec::new(),
            if_true: Vec::new(),
            if_false: Vec::new(),
        };
        return (None, summary);
    };
    let skip: Vec<(usize, usize)> = node
        .children
        .iter()
        .filter(|&&c| nodes[c].body.is_some())
        .map(|&c| nodes[c].tokens)
        .collect();
    let cx = FnCx {
        toks,
        flow,
        consts,
        skip,
        sites: &call_sites[id],
        summaries,
        sig,
        is_closure: node.is_closure,
        captured,
    };
    let (envs, iterations, diverged) = cx.fixpoint();
    let events = cx.report(&envs);
    let summary = cx.summarize(&envs);
    (Some(FnAbsint { envs, events, iterations, diverged }), summary)
}

/// Per-function analysis context.
struct FnCx<'a> {
    toks: &'a [Token],
    flow: &'a FnFlow,
    consts: &'a BTreeMap<String, AbsVal>,
    /// Child item token ranges the evaluator must jump over.
    skip: Vec<(usize, usize)>,
    /// `(name token index, resolved callee ids)`, sorted by token.
    sites: &'a [(usize, Vec<usize>)],
    summaries: &'a [Option<FnSummary>],
    sig: (usize, usize),
    is_closure: bool,
    /// Entry bindings besides the parameters (a closure's captures).
    captured: Env,
}

impl<'a> FnCx<'a> {
    /// Resolves a call event through the summaries: join of every
    /// resolved callee's return value; ⊤ for out-of-workspace calls and
    /// for same-SCC callees (whose summary is still `None` — the
    /// recursion cut).
    fn resolve_ret(&self, at: usize) -> AbsVal {
        let Ok(pos) = self.sites.binary_search_by_key(&at, |e| e.0) else { return AbsVal::Top };
        let callees = &self.sites[pos].1;
        let mut out: Option<AbsVal> = None;
        for &callee in callees {
            let ret = match &self.summaries[callee] {
                Some(s) => s.ret,
                None => AbsVal::Top,
            };
            out = Some(match out {
                Some(v) => v.join(&ret),
                None => ret,
            });
        }
        out.unwrap_or(AbsVal::Top)
    }

    /// Evaluates `[lo, hi)` under `env`, appending events to `sink`.
    fn eval_range(&self, env: &Env, lo: usize, hi: usize, sink: &mut Vec<Event>) -> Evaled {
        let mut oracle = |at: usize, _: &str, _: &[AbsVal]| self.resolve_ret(at);
        let refine = |env: &Env, lo: usize, hi: usize, positive: bool| {
            self.refine_cond(env.clone(), lo, hi, positive)
        };
        let mut ev =
            Evaluator::new(self.toks, self.consts, &self.skip, &mut oracle).with_refiner(&refine);
        let out = ev.eval(env, lo, hi);
        sink.append(&mut ev.events);
        out
    }

    /// Evaluates `[lo, hi)` for its value only (events discarded) — used
    /// by refinement and summaries, which must not duplicate events.
    fn eval_quiet(&self, env: &Env, lo: usize, hi: usize) -> Evaled {
        let mut sink = Vec::new();
        self.eval_range(env, lo, hi, &mut sink)
    }

    /// The entry environment: the captures, then the parameters at their
    /// signature-declared types (⊤ where the type is not a scalar we
    /// track).
    fn param_env(&self) -> Env {
        let mut env = self.captured.clone();
        for name in &self.flow.params {
            let ty = param_type(self.toks, self.sig, name);
            env.insert(name.as_str().into(), apply_decl_type(AbsVal::Top, ty.as_deref()));
        }
        if let Some(index) = self.enumerate_item() {
            env.insert(index.into(), len_range());
        }
        env
    }

    /// The widening worklist followed by bounded narrowing. Returns the
    /// per-statement entry environments.
    fn fixpoint(&self) -> (Vec<Option<Env>>, usize, bool) {
        let n = self.flow.tree.stmts.len();
        let mut ins: Vec<Option<Env>> = vec![None; n];
        let mut joins = vec![0u32; n];
        let entry = self.flow.cfg.entry;
        let mut iterations = 0usize;
        let mut diverged = false;
        if entry >= n {
            return (ins, 0, false); // empty body
        }
        ins[entry] = Some(self.param_env());
        let cap = 64 * n + 256;
        let mut worklist: Vec<usize> = vec![entry];
        while let Some(s) = worklist.pop() {
            iterations += 1;
            if iterations > cap {
                diverged = true;
                break;
            }
            let env = ins[s].as_ref().expect("worklisted statements have environments");
            let out = self.transfer(s, env, None);
            for (t, flowed) in self.flow_into(s, out) {
                if t >= n {
                    continue; // virtual exit
                }
                let widen = matches!(self.flow.tree.stmts[t].kind, StmtKind::Loop { .. })
                    && joins[t] >= WIDEN_AFTER;
                let next = match &ins[t] {
                    None => flowed,
                    Some(old) => {
                        let joined = join_envs(old, &flowed);
                        if widen {
                            widen_envs(old, &joined)
                        } else {
                            joined
                        }
                    }
                };
                if ins[t].as_ref() != Some(&next) {
                    joins[t] += 1;
                    ins[t] = Some(next);
                    if !worklist.contains(&t) {
                        worklist.push(t);
                    }
                }
            }
        }

        // Narrowing: recompute each reached statement's entry from its
        // predecessors and pull over-widened infinite bounds back down.
        // The recomputed state is sound (transfer of sound states), and
        // narrowing only ever replaces an infinite bound with it.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (s, succs) in self.flow.cfg.succ.iter().enumerate().take(n) {
            for &t in succs {
                if t < n {
                    preds[t].push(s);
                }
            }
        }
        for _ in 0..NARROW_PASSES {
            let mut changed = false;
            for t in 0..n {
                if ins[t].is_none() {
                    continue;
                }
                let mut fresh: Option<Env> = (t == entry).then(|| self.param_env());
                for &p in &preds[t] {
                    let Some(p_env) = &ins[p] else { continue };
                    let out = self.transfer(p, p_env, None);
                    for (tt, flowed) in self.flow_into(p, out) {
                        if tt != t {
                            continue;
                        }
                        fresh = Some(match fresh {
                            Some(f) => join_envs(&f, &flowed),
                            None => flowed,
                        });
                    }
                }
                let Some(fresh) = fresh else { continue };
                let old = ins[t].as_ref().expect("checked above");
                let narrowed = narrow_envs(old, &fresh);
                if &narrowed != old {
                    changed = true;
                    ins[t] = Some(narrowed);
                }
            }
            if !changed {
                break;
            }
        }
        (ins, iterations, diverged)
    }

    /// The post-convergence reporting pass: one transfer per reached
    /// statement, in statement order, collecting events.
    fn report(&self, ins: &[Option<Env>]) -> Vec<(StmtId, Event)> {
        let mut events = Vec::new();
        for (s, env) in ins.iter().enumerate() {
            let Some(env) = env else { continue };
            let mut sink = Vec::new();
            self.transfer(s, env, Some(&mut sink));
            events.extend(sink.into_iter().map(|e| (s, e)));
        }
        events
    }

    /// Builds the function summary from the converged environments.
    fn summarize(&self, ins: &[Option<Env>]) -> FnSummary {
        let declared = declared_ret(self.toks, self.sig);
        // Return value: join every `return expr` with the tail expression.
        let mut ret: Option<AbsVal> = None;
        let mut add = |v: AbsVal| {
            ret = Some(match ret.take() {
                Some(r) => r.join(&v),
                None => v,
            });
        };
        for (s, stmt) in self.flow.tree.stmts.iter().enumerate() {
            if !matches!(stmt.kind, StmtKind::Return) {
                continue;
            }
            let Some(env) = ins.get(s).and_then(Option::as_ref) else { continue };
            if stmt.tokens.0 >= stmt.tokens.1 {
                add(AbsVal::Top); // bare `return;`
            } else {
                add(self.eval_quiet(env, stmt.tokens.0, stmt.tokens.1).val);
            }
        }
        if let Some(&tail) = self.flow.tree.root.last() {
            let stmt = &self.flow.tree.stmts[tail];
            if matches!(stmt.kind, StmtKind::Expr) {
                if let Some(env) = ins.get(tail).and_then(Option::as_ref) {
                    add(self.eval_quiet(env, stmt.tokens.0, stmt.tokens.1).val);
                }
            }
        }
        let ret = constrain_ret(ret.unwrap_or(AbsVal::Top), declared.as_deref());

        // Preconditions: leading root `assert!`/`debug_assert!` statements
        // refine the pristine parameter environment; any parameter that
        // strictly improves becomes a requirement on callers.
        let initial = self.param_env();
        let mut refined = initial.clone();
        for &s in self.flow.tree.root.iter().skip(1) {
            let stmt = &self.flow.tree.stmts[s];
            if !matches!(stmt.kind, StmtKind::Expr) {
                break;
            }
            let Some(cond) = assert_cond_range(self.toks, stmt.tokens) else { break };
            refined = self.refine_cond(refined, cond.0, cond.1, true);
        }
        let requires = self
            .changed_params(&initial, &refined)
            .map(|(idx, val)| (idx, self.flow.params[idx].clone(), val))
            .collect();

        // Predicate implications: a body that is one `bool` expression
        // over the parameters (`x.abs() <= EPS`) refines them by its
        // truth value at every call used as a condition.
        let (mut if_true, mut if_false) = (Vec::new(), Vec::new());
        if let ([_params, tail], Some("bool")) = (&self.flow.tree.root[..], declared.as_deref()) {
            let (lo, hi) = self.flow.tree.stmts[*tail].tokens;
            if matches!(self.flow.tree.stmts[*tail].kind, StmtKind::Expr) {
                let t = self.refine_cond(initial.clone(), lo, hi, true);
                let f = self.refine_cond(initial.clone(), lo, hi, false);
                if_true = self.changed_params(&initial, &t).collect();
                if_false = self.changed_params(&initial, &f).collect();
            }
        }
        FnSummary { ret, requires, params: self.flow.params.clone(), if_true, if_false }
    }

    /// Parameters whose value differs between two environments, with
    /// the value in `after`.
    fn changed_params<'e>(
        &'e self,
        before: &'e Env,
        after: &'e Env,
    ) -> impl Iterator<Item = (usize, AbsVal)> + 'e {
        self.flow.params.iter().enumerate().filter_map(|(idx, name)| {
            let (b, a) = (before.get(name.as_str())?, after.get(name.as_str())?);
            (a != b).then_some((idx, *a))
        })
    }

    /// The transfer function: out-environment of statement `s` given its
    /// entry environment. `sink` collects events when present (the
    /// reporting pass); fixpoint iterations pass `None`.
    fn transfer(&self, s: StmtId, env: &Env, sink: Option<&mut Vec<Event>>) -> Env {
        let stmt = &self.flow.tree.stmts[s];
        let (lo, hi) = stmt.tokens;
        let mut throwaway = Vec::new();
        let sink_ref: &mut Vec<Event> = match sink {
            Some(s) => s,
            None => &mut throwaway,
        };
        let mut out = env.clone();
        match &stmt.kind {
            StmtKind::Let => {
                if s == 0 && lo == hi {
                    return out; // synthetic parameter statement
                }
                let val = match find_depth0_angles(self.toks, lo, hi, |t| t.is_punct('=')) {
                    Some(eq) => {
                        let v = self.eval_range(env, eq + 1, hi, sink_ref).val;
                        let ty = find_depth0_angles(self.toks, lo, eq, |t| t.is_punct(':'))
                            .and_then(|colon| type_name_at(self.toks, colon + 1, eq));
                        apply_decl_type(v, ty.as_deref())
                    }
                    None => AbsVal::Top, // `let x;` or unparsed
                };
                for def in &stmt.defs {
                    kill_facts(&mut out, def);
                }
                if stmt.defs.len() == 1 {
                    out.insert(stmt.defs[0].as_str().into(), val);
                } else if let Some(elems) = tuple_binding(self.toks, lo, hi) {
                    // `let (a, b) = (x, y);` binds elementwise (evaluating
                    // the tuple above already collected the events).
                    for (name, (elo, ehi)) in elems {
                        out.insert(name.into(), self.eval_quiet(env, elo, ehi).val);
                    }
                } else {
                    for def in &stmt.defs {
                        out.insert(def.as_str().into(), AbsVal::Top);
                    }
                }
            }
            StmtKind::Assign { compound, target } => {
                let op_at = find_depth0_angles(self.toks, lo, hi, |t| {
                    t.is_punct('=')
                        || matches!(t, Tok::Op(o) if o.ends_with('=')
                            && !matches!(*o, "==" | "<=" | ">=" | "!=" | "=>"))
                });
                let val = match op_at {
                    Some(op_at) => {
                        let rhs = self.eval_range(env, op_at + 1, hi, sink_ref);
                        if *compound {
                            self.compound(env, op_at, target, rhs, sink_ref)
                        } else {
                            rhs.val
                        }
                    }
                    None => AbsVal::Top,
                };
                kill_facts(&mut out, target);
                // A fn-local `const NAME: T = v;` binds like a typed `let`.
                if matches!(self.keyword_at(lo), Some("const" | "static")) {
                    let ty = op_at.and_then(|eq| {
                        let colon = find_depth0_angles(self.toks, lo, eq, |t| t.is_punct(':'))?;
                        type_name_at(self.toks, colon + 1, eq)
                    });
                    out.insert(target.as_str().into(), apply_decl_type(val, ty.as_deref()));
                    return out;
                }
                // `x = v` binds; `x.field = v` / `x[i] = v` invalidates
                // (after its index expressions are evaluated for events).
                let simple = op_at == Some(lo + 1)
                    && matches!(&self.toks.get(lo).map(|t| &t.tok), Some(Tok::Ident(n)) if n == target);
                if let (false, Some(op_at)) = (simple, op_at) {
                    self.eval_range(env, lo, op_at, sink_ref);
                }
                out.insert(target.as_str().into(), if simple { val } else { AbsVal::Top });
            }
            StmtKind::Expr => {
                if let Some((clo, chi)) = assert_cond_range(self.toks, stmt.tokens) {
                    self.eval_range(env, clo, chi, sink_ref);
                    out = self.refine_cond(out, clo, chi, true);
                } else if let Some(((alo, ahi), (blo, bhi))) =
                    assert_eq_ranges(self.toks, stmt.tokens)
                {
                    let a = self.eval_range(env, alo, ahi, sink_ref);
                    let b = self.eval_range(env, blo, bhi, sink_ref);
                    // `assert_eq!(a, b)`: each single-ident side meets the
                    // other side's value.
                    for (side, other) in [(&a, &b.val), (&b, &a.val)] {
                        if let Some(name) = &side.name {
                            if out.contains_key(name.as_str()) {
                                let met = meet_vals(&side.val, other);
                                out.insert(name.as_str().into(), met);
                            }
                        }
                    }
                } else {
                    self.eval_range(env, lo, hi, sink_ref);
                }
            }
            StmtKind::If { .. } => {
                // Head is `if cond` (or `if let pat = expr`); the branch
                // environments are refined edge-wise in `flow_into`.
                if self.head_is_let(lo) {
                    if let Some(eq) = find_depth0_angles(self.toks, lo, hi, |t| t.is_punct('=')) {
                        self.eval_range(env, eq + 1, hi, sink_ref);
                    }
                } else {
                    self.eval_range(env, lo + 1, hi, sink_ref);
                }
            }
            StmtKind::Match { .. } => {
                self.eval_range(env, lo + 1, hi, sink_ref);
            }
            StmtKind::Loop { .. } => {
                let kw = self.keyword_at(lo);
                match kw {
                    Some("while") if !self.head_is_let(lo) => {
                        self.eval_range(env, lo + 1, hi, sink_ref);
                    }
                    Some("while") => {
                        if let Some(eq) = find_depth0_angles(self.toks, lo, hi, |t| t.is_punct('='))
                        {
                            self.eval_range(env, eq + 1, hi, sink_ref);
                        }
                    }
                    Some("for") => {
                        if let Some(in_at) = find_depth0(self.toks, lo, hi, |t| t.is_ident("in")) {
                            self.eval_range(env, in_at + 1, hi, sink_ref);
                        }
                    }
                    _ => {}
                }
            }
            StmtKind::Block { .. } => {}
            StmtKind::Return | StmtKind::Break | StmtKind::Continue => {
                if lo < hi {
                    self.eval_range(env, lo, hi, sink_ref);
                }
            }
        }
        // Any definition the cases above did not model precisely
        // (if-let / while-let / for / match bindings) is unknown.
        if matches!(stmt.kind, StmtKind::If { .. } | StmtKind::Match { .. } | StmtKind::Loop { .. })
        {
            for def in &stmt.defs {
                kill_facts(&mut out, def);
                out.insert(def.as_str().into(), AbsVal::Top);
            }
        }
        // Mutation the evaluator cannot see: `&mut x` arguments and
        // assignments inside child closures invalidate the variable.
        self.invalidate_hidden_writes(&mut out, lo, hi);
        out
    }

    /// Compound-assignment transfer (`x += e`, `x -= e`, …): the
    /// evaluator's binary operator, with `x` as the named left operand.
    fn compound(
        &self,
        env: &Env,
        op_at: usize,
        target: &str,
        rhs: Evaled,
        sink: &mut Vec<Event>,
    ) -> AbsVal {
        let cur = Evaled {
            val: env.get(target).copied().unwrap_or(AbsVal::Top),
            name: Some(target.to_owned()),
        };
        let mut oracle = |at: usize, _: &str, _: &[AbsVal]| self.resolve_ret(at);
        let mut ev = Evaluator::new(self.toks, self.consts, &self.skip, &mut oracle);
        let val = ev.apply_bin(op_at, cur, rhs).val;
        sink.append(&mut ev.events);
        val
    }

    /// Successor environments of statement `s` with edge refinement:
    /// then-branches meet the positive condition, else-branches and
    /// else-less fall-throughs the negated (single-conjunct) condition,
    /// `while` bodies the loop condition, `for x in a..b` bodies the
    /// iteration range of `x`.
    fn flow_into(&self, s: StmtId, out: Env) -> Vec<(usize, Env)> {
        let stmt = &self.flow.tree.stmts[s];
        let succ = &self.flow.cfg.succ[s];
        let (lo, hi) = stmt.tokens;
        let mut edges: Vec<(usize, Env)> = Vec::new();
        match &stmt.kind {
            StmtKind::If { branches, has_else } if !self.head_is_let(lo) => {
                let then_head = branches.first().and_then(|b| b.first()).copied();
                let else_head = (*has_else && branches.len() >= 2)
                    .then(|| branches.last().and_then(|b| b.first()).copied())
                    .flatten();
                // A target with two roles (empty branch) gets no refinement.
                let heads: Vec<usize> =
                    branches.iter().filter_map(|b| b.first().copied()).collect();
                for &t in succ {
                    let roles = usize::from(Some(t) == then_head)
                        + usize::from(Some(t) == else_head)
                        + usize::from(!heads.contains(&t)); // fall-through
                    let env = if roles != 1 {
                        out.clone()
                    } else if Some(t) == then_head {
                        self.refine_cond(out.clone(), lo + 1, hi, true)
                    } else if Some(t) == else_head || !*has_else {
                        self.refine_cond(out.clone(), lo + 1, hi, false)
                    } else {
                        out.clone()
                    };
                    edges.push((t, env));
                }
            }
            StmtKind::Loop { body, .. } => {
                let body_head = body.first().copied();
                let kw = self.keyword_at(lo);
                for &t in succ {
                    let mut env = out.clone();
                    if Some(t) == body_head && succ.iter().filter(|&&x| x == t).nth(1).is_none() {
                        match kw {
                            Some("while") if !self.head_is_let(lo) => {
                                env = self.refine_cond(env, lo + 1, hi, true);
                            }
                            Some("for") => {
                                env = self.refine_for(env, stmt);
                            }
                            _ => {}
                        }
                    }
                    edges.push((t, env));
                }
            }
            _ => {
                if let Some((&last, rest)) = succ.split_last() {
                    edges.extend(rest.iter().map(|&t| (t, out.clone())));
                    edges.push((last, out));
                }
            }
        }
        edges
    }

    /// `for PAT in ITER` body refinement: a single loop variable over
    /// `a..b` is bounded by the evaluated endpoints, and the index of an
    /// `(i, …)` pattern over `….enumerate()` is a `usize` count.
    fn refine_for(&self, mut env: Env, stmt: &crate::flow::stmt::Stmt) -> Env {
        let (lo, hi) = stmt.tokens;
        let Some(in_at) = find_depth0(self.toks, lo, hi, |t| t.is_ident("in")) else { return env };
        let bound = match &stmt.defs[..] {
            [var] => self.range_value(&env, in_at + 1, hi).map(|v| (var.clone(), v)),
            _ => enumerate_index(self.toks, lo + 1, hi).map(|i| (i, len_range())),
        };
        if let Some((var, val)) = bound {
            kill_facts(&mut env, &var);
            env.insert(var.into(), val);
        }
        env
    }

    /// The values a `a..b` / `a..=b` range over `[lo, hi)` yields, when
    /// both ends evaluate to integers and the range is not empty.
    fn range_value(&self, env: &Env, lo: usize, hi: usize) -> Option<AbsVal> {
        let dots = find_depth0(self.toks, lo, hi, |t| matches!(t, Tok::Op(".." | "..=")))?;
        let inclusive = matches!(&self.toks[dots].tok, Tok::Op("..="));
        let start = self.eval_quiet(env, lo, dots).val;
        let end = self.eval_quiet(env, dots + 1, hi).val;
        let (si, ei) = (start.interval()?, end.interval()?);
        let kind = match (start, end) {
            (AbsVal::Int { kind: Some(k), .. }, _) | (_, AbsVal::Int { kind: Some(k), .. }) => {
                Some(k)
            }
            _ => None,
        };
        // An exclusive end shifts the bound down — unless it is already a
        // widened infinity, which must not wrap into a finite bound.
        let upper =
            if inclusive || ei.hi == POS_INF || ei.hi == NEG_INF { ei.hi } else { ei.hi - 1 };
        // An empty range yields nothing; its body is still analyzed
        // conservatively.
        (si.lo <= upper).then(|| AbsVal::Int { iv: Interval::new(si.lo, upper), kind })
    }

    /// The index of a closure's `(i, …)` item pattern when the closure
    /// is passed to an item adaptor (`map`, `filter`, …) over
    /// `….enumerate()`: a `usize` count.
    fn enumerate_item(&self) -> Option<String> {
        if !self.is_closure {
            return None;
        }
        let toks = self.toks;
        let start = self.sig.0;
        let pat = start + 1 + usize::from(toks.get(start)?.tok.is_ident("move"));
        let method_at = start.checked_sub(2)?;
        let is_adaptor = toks[start - 1].tok.is_punct('(')
            && matches!(&toks[method_at].tok, Tok::Ident(m) if ITEM_ADAPTORS.contains(&m.as_str()))
            && toks.get(method_at.checked_sub(1)?)?.tok.is_punct('.');
        if !is_adaptor {
            return None;
        }
        enumerate_index(toks, pat, method_at - 1)
    }

    /// Refines `env` by the condition tokens `[lo, hi)` being `positive`.
    /// A true `a && b` applies both sides, a false `a || b` negates both;
    /// the other two shapes prove nothing about either side alone.
    fn refine_cond(&self, mut env: Env, lo: usize, hi: usize, positive: bool) -> Env {
        let toks = self.toks;
        // Strip one redundant paren layer.
        if hi > lo + 1 {
            let last = hi - 1;
            if toks[lo].tok.is_punct('(')
                && toks[last].tok.is_punct(')')
                && matching_close(toks, lo) == Some(last)
            {
                return self.refine_cond(env, lo + 1, last, positive);
            }
        }
        for (op, splits_when) in [("||", false), ("&&", true)] {
            let parts = split_at_op(toks, lo, hi, op);
            if parts.len() > 1 {
                if positive == splits_when {
                    for (plo, phi) in parts {
                        env = self.refine_cond(env, plo, phi, positive);
                    }
                }
                return env;
            }
        }
        // `!inner`: flip polarity.
        if toks.get(lo).is_some_and(|t| t.tok.is_punct('!')) {
            return self.refine_cond(env, lo + 1, hi, !positive);
        }
        // `xs.is_empty()` bounds `xs.len()` either way.
        if let Some(name) = method_test(toks, lo, hi, "is_empty") {
            let bound = if positive { Interval::exact(0) } else { Interval::new(1, POS_INF) };
            let key = len_key(&name);
            let cur = env.get(&key).copied().unwrap_or_else(len_range);
            let met = meet_vals(&cur, &AbsVal::Int { iv: bound, kind: Some(IntKind::Usize) });
            env.insert(key, met);
            return env;
        }
        // A workspace predicate: its summary says what its result proves
        // about each argument (`approx_zero(d)` false ⇒ `d != 0`).
        if let Some(refined) = self.refine_predicate(&env, lo, hi, positive) {
            return refined;
        }
        // `x.is_finite()` — only the positive direction carries a fact.
        if positive {
            if let Some(name) = method_test(toks, lo, hi, "is_finite") {
                if env.contains_key(name.as_str()) {
                    add_float_facts(
                        &mut env,
                        &name,
                        FloatFacts { finite: true, ..FloatFacts::TOP },
                    );
                }
                return env;
            }
            if let Some((name, range)) = contains_test(toks, lo, hi) {
                if env.contains_key(name.as_str()) {
                    return self.refine_contains(env, &name, range);
                }
                return env;
            }
        }
        // Comparison conjunct.
        let Some(cmp_at) = find_comparison(toks, lo, hi) else { return env };
        let op = cmp_text(&toks[cmp_at].tok);
        let op = if positive { op } else { negate_cmp(op) };
        let Some(op) = op else { return env };
        let lhs_name = single_ident(toks, lo, cmp_at);
        let rhs_name = single_ident(toks, cmp_at + 1, hi);
        let lhs = self.eval_quiet(&env, lo, cmp_at).val;
        let rhs = self.eval_quiet(&env, cmp_at + 1, hi).val;
        // Directed variable-pair facts: `a >= b` survives joins only if
        // proven on every path. Only *locals* (already bound in the env)
        // participate — refining a const's name would shadow its value.
        if let (Some(a), Some(b)) = (&lhs_name, &rhs_name) {
            if env.contains_key(a.as_str()) && env.contains_key(b.as_str()) {
                match op {
                    ">=" | ">" => {
                        env.insert(pair_key(a, b), AbsVal::Bool);
                    }
                    "<=" | "<" => {
                        env.insert(pair_key(b, a), AbsVal::Bool);
                    }
                    "==" => {
                        env.insert(pair_key(a, b), AbsVal::Bool);
                        env.insert(pair_key(b, a), AbsVal::Bool);
                    }
                    _ => {}
                }
            }
        }
        let sides = [
            (lo, cmp_at, op, &rhs, zero_literal(toks, cmp_at + 1, hi)),
            (cmp_at + 1, hi, flip_cmp(op), &lhs, zero_literal(toks, lo, cmp_at)),
        ];
        for (slo, shi, op, other, other_zero) in sides {
            if let Some(name) = single_ident(toks, slo, shi) {
                if env.contains_key(name.as_str()) {
                    refine_by_cmp(&mut env, &name, op, other, other_zero);
                }
            } else if let Some(name) = method_test(toks, slo, shi, "len") {
                let key = len_key(&name);
                env.entry(key.clone()).or_insert_with(len_range);
                refine_by_cmp(&mut env, &key, op, other, other_zero);
            } else if let Some(name) = method_test(toks, slo, shi, "abs") {
                // `|x| > c` with `c >= 0` proves `x != 0`, nothing more.
                let AbsVal::Float(c) = other else { continue };
                let nonzero = match op {
                    ">" => c.non_negative,
                    ">=" => c.non_negative && c.non_zero,
                    _ => false,
                };
                if nonzero && env.contains_key(name.as_str()) {
                    add_float_facts(
                        &mut env,
                        &name,
                        FloatFacts { non_zero: true, ..FloatFacts::TOP },
                    );
                }
            }
        }
        env
    }

    /// Refines the arguments of a uniquely resolved workspace predicate
    /// call spanning `[lo, hi)` (`approx_zero(d)`) by its summary's
    /// implications for the given polarity. `None` when the range is not
    /// such a call.
    fn refine_predicate(&self, env: &Env, lo: usize, hi: usize, positive: bool) -> Option<Env> {
        let toks = self.toks;
        let close = hi.checked_sub(1)?;
        let open = (lo + 1..close)
            .find(|&i| toks[i].tok.is_punct('(') && matching_close(toks, i) == Some(close))?;
        let pos = self.sites.binary_search_by_key(&(open - 1), |e| e.0).ok()?;
        let [callee] = self.sites[pos].1[..] else { return None };
        let summary = self.summaries[callee].as_ref()?;
        let implied = if positive { &summary.if_true } else { &summary.if_false };
        let args = split_at_op(toks, open + 1, close, ",");
        // Method-call syntax passes the receiver outside the parentheses.
        let offset = usize::from(
            summary.params.first().is_some_and(|p| p == "self")
                && open >= 2
                && toks[open - 2].tok.is_punct('.'),
        );
        let mut env = env.clone();
        for (idx, val) in implied {
            let Some(&(alo, ahi)) = idx.checked_sub(offset).and_then(|i| args.get(i)) else {
                continue;
            };
            let Some(name) = single_ident(toks, alo, ahi) else { continue };
            if let Some(cur) = env.get(name.as_str()) {
                let met = meet_vals(cur, val);
                env.insert(name.into(), met);
            }
        }
        Some(env)
    }

    /// `(a..=b).contains(&x)` being true bounds `x` on both sides — and
    /// excludes NaN, so bounded float ranges also prove finiteness.
    fn refine_contains(&self, mut env: Env, name: &str, (rlo, rhi): (usize, usize)) -> Env {
        if let Some(bound) = self.range_value(&env, rlo, rhi) {
            let cur = env.get(name).copied().unwrap_or(AbsVal::Top);
            env.insert(name.into(), meet_vals(&cur, &bound));
        } else if let Some(dots) =
            find_depth0(self.toks, rlo, rhi, |t| matches!(t, Tok::Op(".." | "..=")))
        {
            let start = self.eval_quiet(&env, rlo, dots).val;
            let end = self.eval_quiet(&env, dots + 1, rhi).val;
            if let (AbsVal::Float(s), AbsVal::Float(e)) = (start, end) {
                let facts = FloatFacts {
                    finite: s.finite && e.finite,
                    non_negative: s.non_negative,
                    le_one: e.le_one,
                    ..FloatFacts::TOP
                };
                add_float_facts(&mut env, name, facts);
            }
        }
        env
    }

    /// Variables written where the evaluator cannot see it — `&mut x`
    /// argument positions anywhere in the statement, and assignment
    /// targets inside child-closure token ranges — drop to ⊤; a
    /// shrinking call (`xs.pop()`) drops the receiver's length fact.
    fn invalidate_hidden_writes(&self, env: &mut Env, lo: usize, hi: usize) {
        let toks = self.toks;
        for name in shrunk_names(toks, lo, hi) {
            env.remove(&len_key(name));
        }
        for i in lo..hi.min(toks.len()) {
            // `& mut x` (also the first `&` of `&&mut x` via Op("&&")).
            let amp = toks[i].tok.is_punct('&') || toks[i].tok.is_op("&&");
            if amp && toks.get(i + 1).is_some_and(|t| t.tok.is_ident("mut")) {
                if let Some(Tok::Ident(name)) = toks.get(i + 2).map(|t| &t.tok) {
                    if env.contains_key(name.as_str()) {
                        kill_facts(env, name);
                        env.insert(name.as_str().into(), AbsVal::Top);
                    }
                }
            }
        }
        for &(slo, shi) in &self.skip {
            if shi <= lo || slo >= hi {
                continue;
            }
            for i in slo..shi.min(toks.len()) {
                let Tok::Ident(name) = &toks[i].tok else { continue };
                let writes = match toks.get(i + 1).map(|t| &t.tok) {
                    Some(Tok::Punct('=')) => {
                        // Assignment, not `==`/`=>` (those are Ops).
                        true
                    }
                    Some(Tok::Op(o)) => {
                        o.ends_with('=') && !matches!(*o, "==" | "<=" | ">=" | "!=" | "=>")
                    }
                    _ => false,
                };
                if writes && env.contains_key(name.as_str()) {
                    kill_facts(env, name);
                    env.insert(name.as_str().into(), AbsVal::Top);
                }
            }
        }
    }

    fn keyword_at(&self, at: usize) -> Option<&str> {
        match self.toks.get(at).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether an `if`/`while` head at `lo` is the `let`-pattern form.
    fn head_is_let(&self, lo: usize) -> bool {
        self.toks.get(lo + 1).is_some_and(|t| t.tok.is_ident("let"))
    }
}

// ---------------------------------------------------------------------
// Environment lattice operations.
// ---------------------------------------------------------------------

/// Merges two environments in one ordered pass over their keys. `f`
/// sees each key with its value on either side (at least one present)
/// and returns the merged value, or `None` to drop the key.
fn merge_envs(
    a: &Env,
    b: &Env,
    f: impl Fn(&str, Option<&AbsVal>, Option<&AbsVal>) -> Option<AbsVal>,
) -> Env {
    let (mut ia, mut ib) = (a.iter().peekable(), b.iter().peekable());
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    loop {
        // Advance whichever side holds the smaller key; both on a tie.
        let (take_a, take_b) = match (ia.peek(), ib.peek()) {
            (Some((ka, _)), Some((kb, _))) => (ka <= kb, kb <= ka),
            (ea, _) => (ea.is_some(), ea.is_none()),
        };
        let ea = if take_a { ia.next() } else { None };
        let eb = if take_b { ib.next() } else { None };
        let Some(&(k, _)) = ea.as_ref().or(eb.as_ref()) else { break };
        if let Some(v) = f(k, ea.map(|e| e.1), eb.map(|e| e.1)) {
            out.push((k.clone(), v));
        }
    }
    out.into_iter().collect()
}

/// Join of two environments. A variable missing on one side is unbound
/// on that path (any use there is impossible), so the bound side's value
/// survives; `#` guard facts are *proofs* and survive only when both
/// sides carry them.
fn join_envs(a: &Env, b: &Env) -> Env {
    merge_envs(a, b, |k, va, vb| match (va, vb) {
        (Some(va), Some(vb)) => Some(va.join(vb)),
        (Some(v), None) | (None, Some(v)) => (!is_fact_key(k)).then_some(*v),
        (None, None) => None,
    })
}

/// Widening join at a loop head (see [`AbsVal::widen`]).
fn widen_envs(old: &Env, new: &Env) -> Env {
    merge_envs(old, new, |_, vo, vn| {
        let vn = vn?;
        Some(vo.map_or(*vn, |vo| vn.widen(vo)))
    })
}

/// Narrowing: keep `old`'s finite bounds, adopt `fresh`'s bound wherever
/// `old` was widened to ±∞ (and adopt `fresh` wholesale for the finite
/// float/bool lattices, where re-iteration is already exact). Keys only
/// in `fresh` (a variable bound later than the widened snapshot saw) are
/// adopted as-is.
fn narrow_envs(old: &Env, fresh: &Env) -> Env {
    merge_envs(old, fresh, |_, vo, vf| match (vo, vf) {
        (Some(vo), Some(vf)) => Some(narrow_val(vo, vf)),
        (Some(v), None) | (None, Some(v)) => Some(*v),
        (None, None) => None,
    })
}

fn narrow_val(old: &AbsVal, fresh: &AbsVal) -> AbsVal {
    match (old, fresh) {
        (AbsVal::Int { iv: o, kind: ko }, AbsVal::Int { iv: f, kind: kf }) => {
            let lo = if o.lo == NEG_INF { f.lo } else { o.lo };
            let hi = if o.hi == POS_INF { f.hi } else { o.hi };
            if lo <= hi {
                AbsVal::Int { iv: Interval::new(lo, hi), kind: if ko == kf { *ko } else { *kf } }
            } else {
                *fresh
            }
        }
        _ => *fresh,
    }
}

/// Pointwise meet used by refinement; an empty intersection keeps the
/// refining side (the branch is unreachable, but we never prune edges —
/// the self-analysis invariant "every CFG-reachable statement has an
/// environment" stays simple and over-approximation stays sound).
fn meet_vals(a: &AbsVal, b: &AbsVal) -> AbsVal {
    match (a, b) {
        (AbsVal::Int { iv: ia, kind: ka }, AbsVal::Int { iv: ib, kind: kb }) => {
            AbsVal::Int { iv: ia.meet(ib).unwrap_or(*ib), kind: ka.or(*kb) }
        }
        (AbsVal::Float(fa), AbsVal::Float(fb)) => AbsVal::Float(fa.meet(fb)),
        (AbsVal::Top, other) | (other, AbsVal::Top) => *other,
        _ => *b,
    }
}

/// Removes the guard facts mentioning `name` (called when it is
/// redefined or mutably borrowed).
fn kill_facts(env: &mut Env, name: &str) {
    env.retain(|k, _| {
        if let Some(pair) = k.strip_prefix(PAIR_PREFIX) {
            let mut parts = pair.split(' ');
            parts.clone().next() != Some(name) && parts.nth(1) != Some(name)
        } else {
            k.strip_prefix(LEN_PREFIX) != Some(name)
        }
    });
}

fn add_float_facts(env: &mut Env, name: &str, facts: FloatFacts) {
    let cur = env.get(name).copied().unwrap_or(AbsVal::Top);
    let next = match cur {
        AbsVal::Float(f) => AbsVal::Float(f.meet(&facts)),
        AbsVal::Top => AbsVal::Float(facts),
        other => other,
    };
    env.insert(name.into(), next);
}

/// Meets `env[name]` against a comparison with abstract value `other`:
/// `name OP other` is known true. `other_zero` says `other` is a literal
/// zero, which float facts alone cannot express.
fn refine_by_cmp(env: &mut Env, name: &str, op: &str, other: &AbsVal, other_zero: bool) {
    let cur = env.get(name).copied().unwrap_or(AbsVal::Top);
    match other {
        AbsVal::Int { iv, .. } => {
            let bound = match op {
                "<" if iv.hi != POS_INF && iv.hi != NEG_INF => Interval::new(NEG_INF, iv.hi - 1),
                "<" => Interval::TOP,
                "<=" => Interval::new(NEG_INF, iv.hi),
                ">" if iv.lo != NEG_INF && iv.lo != POS_INF => Interval::new(iv.lo + 1, POS_INF),
                ">" => Interval::TOP,
                ">=" => Interval::new(iv.lo, POS_INF),
                "==" => *iv,
                // `x != k` (singleton rhs) trims `k` off whichever end of
                // `x`'s interval it sits on — the workhorse behind the
                // `if x == 0 { break } x -= 1` idiom. When the trim
                // contradicts the current interval entirely the edge is
                // infeasible, so the (vacuously sound) trimmed bound
                // still applies — `meet_vals` keeps it on empty meets.
                "!=" if iv.lo == iv.hi && iv.lo != NEG_INF && iv.lo != POS_INF => {
                    let k = iv.lo;
                    match cur {
                        AbsVal::Int { iv: c, .. } if c.lo == k => Interval::new(k + 1, POS_INF),
                        AbsVal::Int { iv: c, .. } if c.hi == k => Interval::new(NEG_INF, k - 1),
                        _ => Interval::TOP,
                    }
                }
                _ => Interval::TOP,
            };
            let kind = match other {
                AbsVal::Int { kind, .. } => *kind,
                _ => None,
            };
            let next = meet_vals(&cur, &AbsVal::Int { iv: bound, kind });
            env.insert(name.into(), next);
        }
        AbsVal::Float(facts) => {
            let proven = match op {
                ">=" => FloatFacts {
                    non_negative: facts.non_negative,
                    non_zero: facts.non_negative && facts.non_zero,
                    ..FloatFacts::TOP
                },
                ">" => FloatFacts {
                    non_negative: facts.non_negative,
                    non_zero: facts.non_negative,
                    ..FloatFacts::TOP
                },
                "<=" | "<" => FloatFacts { le_one: facts.le_one, ..FloatFacts::TOP },
                "==" => *facts,
                "!=" => FloatFacts { non_zero: other_zero, ..FloatFacts::TOP },
                _ => FloatFacts::TOP,
            };
            add_float_facts(env, name, proven);
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// Token-level helpers.
// ---------------------------------------------------------------------

/// First token in `[lo, hi)` at bracket depth 0 matching `pred`
/// (parens/brackets/braces only — use for conditions and operators).
fn find_depth0(toks: &[Token], lo: usize, hi: usize, pred: impl Fn(&Tok) -> bool) -> Option<usize> {
    let mut depth = 0usize;
    for (i, tok) in toks.iter().enumerate().take(hi.min(toks.len())).skip(lo) {
        match &tok.tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') => depth = depth.saturating_sub(1),
            t if depth == 0 && pred(t) => return Some(i),
            _ => {}
        }
    }
    None
}

/// Like [`find_depth0`] but also counting `<`/`>` as nesting (for type
/// positions: the `=` of `let x: Option<u64> = …`).
fn find_depth0_angles(
    toks: &[Token],
    lo: usize,
    hi: usize,
    pred: impl Fn(&Tok) -> bool,
) -> Option<usize> {
    let mut depth = 0isize;
    for (i, tok) in toks.iter().enumerate().take(hi.min(toks.len())).skip(lo) {
        let t = &tok.tok;
        if depth == 0 && pred(t) {
            return Some(i);
        }
        match t {
            Tok::Punct('(' | '[' | '{' | '<') => depth += 1,
            Tok::Punct(')' | ']' | '}' | '>') => depth -= 1,
            Tok::Op("<<") => depth += 2,
            Tok::Op(">>") => depth -= 2,
            _ => {}
        }
    }
    None
}

/// Index of the `)`/`]`/`}` matching the opener at `open`.
fn matching_close(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match &t.tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits `[lo, hi)` at top-level `op` (`&&`, `||`, `,`) into ranges.
fn split_at_op(toks: &[Token], lo: usize, hi: usize, op: &str) -> Vec<(usize, usize)> {
    let is_op = |t: &Tok| if op == "," { t.is_punct(',') } else { t.is_op(op) };
    let mut out = Vec::new();
    let mut start = lo;
    let mut at = lo;
    while let Some(i) = find_depth0(toks, at, hi, is_op) {
        // A `&&` directly after an operator or opener is a double
        // reference (`f(&&x)`), a `||` there a parameterless closure.
        let prefix = op != ","
            && (i == start
                || matches!(
                    toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                    Some(Tok::Punct('(' | '[' | '{' | ',' | '=')) | Some(Tok::Op(_))
                ));
        if prefix {
            at = i + 1;
            continue;
        }
        out.push((start, i));
        start = i + 1;
        at = i + 1;
    }
    out.push((start, hi));
    out
}

/// `let (a, mut b) = (x, y);` over the statement range `[lo, hi)`: each
/// bound name with its initializer element's range, when both sides are
/// flat, unannotated tuples of the same arity.
fn tuple_binding(toks: &[Token], lo: usize, hi: usize) -> Option<Vec<(String, (usize, usize))>> {
    let eq = find_depth0(toks, lo, hi, |t| t.is_punct('='))?;
    let inner = |open: usize| -> Option<(usize, usize)> {
        if !toks.get(open)?.tok.is_punct('(') {
            return None;
        }
        let close = matching_close(toks, open)?;
        Some((open + 1, close))
    };
    let (plo, phi) = inner(lo + 1).filter(|&(_, close)| close + 1 == eq)?;
    let (ilo, ihi) = inner(eq + 1)?;
    let pats = split_at_op(toks, plo, phi, ",");
    let inits = split_at_op(toks, ilo, ihi, ",");
    if pats.len() != inits.len() {
        return None;
    }
    pats.iter()
        .zip(inits)
        .map(|(&(a, b), init)| {
            let a = if toks[a].tok.is_ident("mut") { a + 1 } else { a };
            Some((single_ident(toks, a, b)?, init))
        })
        .collect()
}

/// The index name of an `(i, …)` item pattern starting at `pat` when the
/// iterator chain ending just before `chain_end` ends in `.enumerate()`.
fn enumerate_index(toks: &[Token], pat: usize, chain_end: usize) -> Option<String> {
    let tail = toks.get(chain_end.checked_sub(4)?..chain_end)?;
    let enumerates = tail[0].tok.is_punct('.')
        && tail[1].tok.is_ident("enumerate")
        && tail[2].tok.is_punct('(')
        && tail[3].tok.is_punct(')');
    let tuple = toks.get(pat)?.tok.is_punct('(') && toks.get(pat + 2)?.tok.is_punct(',');
    if !enumerates || !tuple {
        return None;
    }
    single_ident(toks, pat + 1, pat + 2)
}

/// Receivers of [`SHRINKING`] method calls in `[lo, hi)`.
fn shrunk_names(toks: &[Token], lo: usize, hi: usize) -> impl Iterator<Item = &str> {
    let hi = hi.min(toks.len());
    (lo..hi.saturating_sub(2)).filter_map(move |i| match (&toks[i].tok, &toks[i + 2].tok) {
        (Tok::Ident(recv), Tok::Ident(m))
            if toks[i + 1].tok.is_punct('.') && SHRINKING.contains(&m.as_str()) =>
        {
            Some(recv.as_str())
        }
        _ => None,
    })
}

/// Whether `[lo, hi)` is a single zero literal (`0`, `0.0`, `0f64`).
fn zero_literal(toks: &[Token], lo: usize, hi: usize) -> bool {
    hi == lo + 1
        && match toks.get(lo).map(|t| &t.tok) {
            Some(Tok::Float(text)) => {
                eval::parse_float_literal(text).is_some_and(|v| !FloatFacts::of_value(v).non_zero)
            }
            Some(Tok::Int(text)) => eval::parse_int_literal(text).is_some_and(|(v, _)| v == 0),
            _ => false,
        }
}

/// The single identifier a range consists of, parens stripped.
fn single_ident(toks: &[Token], lo: usize, hi: usize) -> Option<String> {
    let hi = hi.min(toks.len());
    if hi > lo + 1 {
        let last = hi - 1;
        if toks[lo].tok.is_punct('(')
            && toks[last].tok.is_punct(')')
            && matching_close(toks, lo) == Some(last)
        {
            return single_ident(toks, lo + 1, last);
        }
    }
    if hi != lo + 1 {
        return None;
    }
    match &toks[lo].tok {
        Tok::Ident(name) if !crate::parser::is_keyword(name) => Some(name.clone()),
        _ => None,
    }
}

/// Finds a top-level comparison operator. `<`/`>` are accepted only when
/// not plausibly generics (`::<`).
fn find_comparison(toks: &[Token], lo: usize, hi: usize) -> Option<usize> {
    find_depth0(toks, lo, hi, |t| {
        matches!(t, Tok::Op("==" | "!=" | "<=" | ">=")) || matches!(t, Tok::Punct('<' | '>'))
    })
    .filter(|&i| !(i > 0 && toks[i - 1].tok.is_op("::")))
}

fn cmp_text(tok: &Tok) -> Option<&'static str> {
    Some(match tok {
        Tok::Op("==") => "==",
        Tok::Op("!=") => "!=",
        Tok::Op("<=") => "<=",
        Tok::Op(">=") => ">=",
        Tok::Punct('<') => "<",
        Tok::Punct('>') => ">",
        _ => return None,
    })
}

fn negate_cmp(op: Option<&'static str>) -> Option<&'static str> {
    Some(match op? {
        "==" => "!=",
        "!=" => "==",
        "<" => ">=",
        ">=" => "<",
        ">" => "<=",
        "<=" => ">",
        _ => return None,
    })
}

fn flip_cmp(op: &'static str) -> &'static str {
    match op {
        "<" => ">",
        ">" => "<",
        "<=" => ">=",
        ">=" => "<=",
        other => other,
    }
}

/// Matches `name.method()` over the whole range; returns `name`.
fn method_test(toks: &[Token], lo: usize, hi: usize, method: &str) -> Option<String> {
    let hi = hi.min(toks.len());
    if hi != lo + 5 {
        return None;
    }
    let Tok::Ident(name) = &toks[lo].tok else { return None };
    if toks[lo + 1].tok.is_punct('.')
        && toks[lo + 2].tok.is_ident(method)
        && toks[lo + 3].tok.is_punct('(')
        && toks[lo + 4].tok.is_punct(')')
    {
        Some(name.clone())
    } else {
        None
    }
}

/// Matches `(range).contains(&name)`; returns `(name, range tokens)`.
fn contains_test(toks: &[Token], lo: usize, hi: usize) -> Option<(String, (usize, usize))> {
    let hi = hi.min(toks.len());
    if !toks.get(lo)?.tok.is_punct('(') {
        return None;
    }
    let close = matching_close(toks, lo)?;
    if close + 5 >= hi
        || !toks[close + 1].tok.is_punct('.')
        || !toks[close + 2].tok.is_ident("contains")
        || !toks[close + 3].tok.is_punct('(')
        || !toks[close + 4].tok.is_punct('&')
    {
        return None;
    }
    let Tok::Ident(name) = &toks[close + 5].tok else { return None };
    if close + 6 < hi && toks[close + 6].tok.is_punct(')') {
        Some((name.clone(), (lo + 1, close)))
    } else {
        None
    }
}

/// If the statement is `assert!(cond, …)` / `debug_assert!(cond, …)`,
/// the token range of `cond` (up to the first top-level `,`).
fn assert_cond_range(toks: &[Token], range: (usize, usize)) -> Option<(usize, usize)> {
    let (lo, hi) = range;
    let name = match toks.get(lo).map(|t| &t.tok) {
        Some(Tok::Ident(n)) => n.as_str(),
        _ => return None,
    };
    if !matches!(name, "assert" | "debug_assert") {
        return None;
    }
    if !toks.get(lo + 1)?.tok.is_punct('!') || !toks.get(lo + 2)?.tok.is_punct('(') {
        return None;
    }
    let close = matching_close(toks, lo + 2)?.min(hi);
    let comma = find_depth0(toks, lo + 3, close, |t| t.is_punct(',')).unwrap_or(close);
    Some((lo + 3, comma))
}

/// If the statement is `assert_eq!(a, b, …)` / `debug_assert_eq!`, the
/// ranges of `a` and `b`.
fn assert_eq_ranges(
    toks: &[Token],
    range: (usize, usize),
) -> Option<((usize, usize), (usize, usize))> {
    let (lo, hi) = range;
    let name = match toks.get(lo).map(|t| &t.tok) {
        Some(Tok::Ident(n)) => n.as_str(),
        _ => return None,
    };
    if !matches!(name, "assert_eq" | "debug_assert_eq") {
        return None;
    }
    if !toks.get(lo + 1)?.tok.is_punct('!') || !toks.get(lo + 2)?.tok.is_punct('(') {
        return None;
    }
    let close = matching_close(toks, lo + 2)?.min(hi);
    let c1 = find_depth0(toks, lo + 3, close, |t| t.is_punct(','))?;
    let c2 = find_depth0(toks, c1 + 1, close, |t| t.is_punct(',')).unwrap_or(close);
    Some(((lo + 3, c1), (c1 + 1, c2)))
}

/// The scalar type name at a type position, skipping refs/`mut`/
/// lifetimes: `&mut u64` → `u64`, `Option<f64>` → `Option`.
fn type_name_at(toks: &[Token], mut at: usize, hi: usize) -> Option<String> {
    while at < hi.min(toks.len()) {
        match &toks[at].tok {
            Tok::Punct('&' | '*') | Tok::Lifetime(_) => at += 1,
            Tok::Op("&&") => at += 1,
            Tok::Ident(s) if matches!(s.as_str(), "mut" | "dyn" | "const" | "impl") => at += 1,
            Tok::Ident(s) => return Some(s.clone()),
            _ => return None,
        }
    }
    None
}

/// Meets an evaluated value with a declared scalar type.
fn apply_decl_type(val: AbsVal, ty: Option<&str>) -> AbsVal {
    let Some(ty) = ty else { return val };
    if let Some(kind) = IntKind::from_name(ty) {
        return match val {
            AbsVal::Int { iv, .. } => {
                AbsVal::Int { iv: iv.meet(&kind.range()).unwrap_or(kind.range()), kind: Some(kind) }
            }
            _ => AbsVal::int_of_kind(kind),
        };
    }
    match ty {
        "f64" | "f32" => match val {
            AbsVal::Float(_) => val,
            _ => AbsVal::float_top(),
        },
        "bool" => AbsVal::Bool,
        _ => val,
    }
}

/// Constrains a computed return value by the declared return type.
fn constrain_ret(val: AbsVal, ty: Option<&str>) -> AbsVal {
    match ty {
        Some(ty) if IntKind::from_name(ty).is_some() || matches!(ty, "f64" | "f32" | "bool") => {
            apply_decl_type(val, Some(ty))
        }
        // `Option<T>`, references, unit, generics: no constraint — and no
        // *value* either, since the summary would claim too much.
        Some(_) => AbsVal::Top,
        None => val,
    }
}

/// The declared return type name from a signature range (`-> u64`).
fn declared_ret(toks: &[Token], sig: (usize, usize)) -> Option<String> {
    let arrow = find_depth0(toks, sig.0, sig.1, |t| t.is_op("->"))?;
    type_name_at(toks, arrow + 1, sig.1)
}

/// The declared type of parameter `name` in the signature: finds
/// `name: TYPE` at parameter-list depth, else the element of a tuple
/// pattern's tuple annotation that binds it (`(sum, n): (u64, u64)` types
/// `n` as `u64`, nested tuples included).
fn param_type(toks: &[Token], sig: (usize, usize), name: &str) -> Option<String> {
    let (lo, hi) = (sig.0, sig.1.min(toks.len()));
    for i in lo..hi {
        let Tok::Ident(n) = &toks[i].tok else { continue };
        if n != name || !toks.get(i + 1).is_some_and(|t| t.tok.is_punct(':')) {
            continue;
        }
        // Not a struct-literal / path position.
        if i > 0 && toks[i - 1].tok.is_op("::") {
            continue;
        }
        return type_name_at(toks, i + 2, hi);
    }
    (lo..hi).find_map(|open| {
        // A tuple pattern: not a call or tuple-struct pattern `Some(..)`.
        let after_ident = open > lo && matches!(toks[open - 1].tok, Tok::Ident(_));
        if !toks[open].tok.is_punct('(') || after_ident {
            return None;
        }
        let close = matching_close(toks, open)?;
        if close + 1 >= hi || !toks[close + 1].tok.is_punct(':') {
            return None;
        }
        tuple_element_type(toks, open, close + 2, hi, name)
    })
}

/// `name`'s type where the tuple pattern opening at `pat` meets the type
/// starting at `ty`, element by element.
fn tuple_element_type(
    toks: &[Token],
    pat: usize,
    ty: usize,
    hi: usize,
    name: &str,
) -> Option<String> {
    // Past `&`, `&&`, lifetimes, `mut` and `ref` — in patterns and types.
    let skip_refs = |mut at: usize| {
        while toks.get(at).is_some_and(|t| {
            matches!(t.tok, Tok::Punct('&') | Tok::Op("&&") | Tok::Lifetime(_))
                || t.tok.is_ident("mut")
                || t.tok.is_ident("ref")
        }) {
            at += 1;
        }
        at
    };
    let ty = skip_refs(ty);
    if !toks.get(ty)?.tok.is_punct('(') {
        return None;
    }
    let pats = paren_elements(toks, pat)?;
    let tys = paren_elements(toks, ty)?;
    pats.into_iter().zip(tys).find_map(|((plo, phi), (tlo, _))| {
        let p = skip_refs(plo);
        match &toks.get(p)?.tok {
            Tok::Ident(n) if n == name && p + 1 == phi => type_name_at(toks, tlo, hi),
            Tok::Punct('(') => tuple_element_type(toks, p, tlo, hi, name),
            _ => None,
        }
    })
}

/// The comma-separated elements of the parenthesized list opening at
/// `open` (angle brackets nest, so `(Vec<(u8, u8)>, u64)` has two).
fn paren_elements(toks: &[Token], open: usize) -> Option<Vec<(usize, usize)>> {
    let close = matching_close(toks, open)?;
    let mut out = Vec::new();
    let mut start = open + 1;
    while let Some(comma) = find_depth0_angles(toks, start, close, |t| t.is_punct(',')) {
        out.push((start, comma));
        start = comma + 1;
    }
    out.push((start, close));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::sema::Model;
    use crate::source::SourceFile;

    fn model_of(src: &str) -> (Vec<SourceFile>, Config) {
        (
            vec![SourceFile::parse("crates/core/src/x.rs", src)],
            Config { sema_roots: vec!["run_study".into()], ..Config::default() },
        )
    }

    fn env_at<'m>(model: &'m Model, fn_name: &str, stmt: usize) -> &'m Env {
        let id = model.nodes.iter().position(|n| n.simple == fn_name).expect("node");
        model.absint.fns[id]
            .as_ref()
            .expect("analyzed")
            .envs
            .get(stmt)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("stmt {stmt} of {fn_name} unreached"))
    }

    fn summary<'m>(model: &'m Model, fn_name: &str) -> &'m FnSummary {
        let id = model.nodes.iter().position(|n| n.simple == fn_name).expect("node");
        model.absint.summaries[id].as_ref().expect("summary")
    }

    #[test]
    fn straight_line_intervals_and_types() {
        let (files, cfg) = model_of(
            "pub fn run_study(n: u64) -> u64 {\n\
                 let base: u64 = 100;\n\
                 let scaled = base / 4;\n\
                 scaled + 1\n\
             }\n",
        );
        let model = Model::build(&files, &cfg);
        let env = env_at(&model, "run_study", 3);
        assert_eq!(
            env.get("scaled"),
            Some(&AbsVal::Int { iv: Interval::exact(25), kind: Some(IntKind::U64) })
        );
        assert_eq!(
            env.get("n"),
            Some(&AbsVal::Int { iv: IntKind::U64.range(), kind: Some(IntKind::U64) })
        );
        let s = summary(&model, "run_study");
        assert_eq!(s.ret, AbsVal::Int { iv: Interval::exact(26), kind: Some(IntKind::U64) });
    }

    #[test]
    fn tuple_pattern_params_take_their_element_types() {
        let toks = crate::lexer::lex(
            "|(sum, (n, w)): &(u64, (usize, Vec<(u8, u8)>)), &(mut a, ref b): &(f64, u32), \
              Some(x): Option<u8>, y| y",
        )
        .tokens;
        let ty = |name| param_type(&toks, (0, toks.len()), name);
        assert_eq!(ty("sum").as_deref(), Some("u64"));
        assert_eq!(ty("n").as_deref(), Some("usize"));
        assert_eq!(ty("w").as_deref(), Some("Vec"));
        assert_eq!(ty("a").as_deref(), Some("f64"));
        assert_eq!(ty("b").as_deref(), Some("u32"));
        assert_eq!(ty("x"), None, "a tuple-struct pattern is not a tuple");
        assert_eq!(ty("y"), None);
    }

    #[test]
    fn branch_refinement_bounds_the_variable() {
        let (files, cfg) = model_of(
            "const SCALE: u64 = 1000;\n\
             pub fn run_study(sum: u64) -> u64 {\n\
                 if sum < SCALE {\n\
                     let rest = SCALE - sum;\n\
                     rest\n\
                 } else {\n\
                     0\n\
                 }\n\
             }\n",
        );
        let model = Model::build(&files, &cfg);
        assert_eq!(
            model.absint.consts.get("SCALE"),
            Some(&AbsVal::Int { iv: Interval::exact(1000), kind: Some(IntKind::U64) })
        );
        let id = model.nodes.iter().position(|n| n.simple == "run_study").expect("node");
        let fa = model.absint.fns[id].as_ref().expect("analyzed");
        // Inside the branch `sum` is refined to [0, 999], so the
        // subtraction event is provable and the result is bounded.
        let let_stmt = fa
            .envs
            .iter()
            .position(|e| {
                e.as_ref().is_some_and(|env| {
                    env.get("sum")
                        == Some(&AbsVal::Int {
                            iv: Interval::new(0, 999),
                            kind: Some(IntKind::U64),
                        })
                })
            })
            .expect("refined branch env exists");
        let env = fa.envs[let_stmt].as_ref().expect("present");
        assert!(env.get("rest").is_none(), "rest is defined after this statement");
        let subs: Vec<_> = fa
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                Event::UncheckedSub { lhs, rhs, .. } => Some((*lhs, *rhs)),
                _ => None,
            })
            .collect();
        assert_eq!(subs.len(), 1, "{:?}", fa.events);
        let (lhs, rhs) = subs[0];
        assert!(
            lhs.interval().expect("int").lo >= rhs.interval().expect("int").hi,
            "the refined operands prove the subtraction: {} - {}",
            lhs.render(),
            rhs.render()
        );
    }

    #[test]
    fn guard_pairs_survive_the_right_paths() {
        let (files, cfg) = model_of(
            "pub fn run_study(a: u64, b: u64) -> u64 {\n\
                 if a >= b {\n\
                     let d = a - b;\n\
                     return d;\n\
                 }\n\
                 let e = b - a;\n\
                 e\n\
             }\n",
        );
        let model = Model::build(&files, &cfg);
        let id = model.nodes.iter().position(|n| n.simple == "run_study").expect("node");
        let fa = model.absint.fns[id].as_ref().expect("analyzed");
        let pair_envs: Vec<(usize, bool, bool)> = fa
            .envs
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                e.as_ref().map(|env| {
                    (
                        i,
                        env.contains_key(&pair_key("a", "b")),
                        env.contains_key(&pair_key("b", "a")),
                    )
                })
            })
            .collect();
        assert!(
            pair_envs.iter().any(|&(_, ab, _)| ab),
            "the then-branch proves a >= b: {pair_envs:?}"
        );
        assert!(
            pair_envs.iter().any(|&(_, _, ba)| ba),
            "the fall-through proves b >= a (negated guard): {pair_envs:?}"
        );
    }

    #[test]
    fn neq_refinement_trims_the_interval_ends() {
        let (files, cfg) = model_of(
            "pub fn run_study(n: u64) -> u64 {\n\
                 let m = n.min(10);\n\
                 if m != 0 {\n\
                     let inside = m;\n\
                     return inside;\n\
                 }\n\
                 m\n\
             }\n",
        );
        let model = Model::build(&files, &cfg);
        let id = model.nodes.iter().position(|n| n.simple == "run_study").expect("node");
        let fa = model.absint.fns[id].as_ref().expect("analyzed");
        let intervals: Vec<Interval> = fa
            .envs
            .iter()
            .flatten()
            .filter_map(|env| env.get("m").and_then(AbsVal::interval))
            .collect();
        // `m != 0` on [0, 10] trims the matching end inside the branch …
        assert!(
            intervals.contains(&Interval::new(1, 10)),
            "then-branch trims the lower end: {intervals:?}"
        );
        // … and the negated edge pins the fall-through to the singleton.
        assert!(
            intervals.contains(&Interval::exact(0)),
            "fall-through keeps only the excluded point: {intervals:?}"
        );
    }

    #[test]
    fn loops_widen_to_the_type_fence_and_terminate() {
        let (files, cfg) = model_of(
            "pub fn run_study(xs: &[u64]) -> u64 {\n\
                 let mut total: u64 = 0;\n\
                 for x in 0..10 {\n\
                     total = total + x;\n\
                 }\n\
                 total\n\
             }\n",
        );
        let model = Model::build(&files, &cfg);
        let id = model.nodes.iter().position(|n| n.simple == "run_study").expect("node");
        let fa = model.absint.fns[id].as_ref().expect("analyzed");
        assert!(!fa.diverged, "widening terminates the loop");
        // The loop variable is range-refined inside the body.
        let body_env = fa
            .envs
            .iter()
            .flatten()
            .find(|env| env.get("x").and_then(AbsVal::interval) == Some(Interval::new(0, 9)));
        assert!(body_env.is_some(), "for-range refinement binds x to [0, 9]");
    }

    #[test]
    fn interprocedural_summaries_flow_to_callers() {
        let (files, cfg) = model_of(
            "fn cap(x: u64) -> u64 { x.min(16) }\n\
             pub fn run_study(n: u64) -> u64 {\n\
                 let c = cap(n);\n\
                 c + 1\n\
             }\n",
        );
        let model = Model::build(&files, &cfg);
        assert_eq!(
            summary(&model, "cap").ret,
            AbsVal::Int { iv: Interval::new(0, 16), kind: Some(IntKind::U64) }
        );
        assert_eq!(
            summary(&model, "run_study").ret,
            AbsVal::Int { iv: Interval::new(1, 17), kind: Some(IntKind::U64) }
        );
    }

    #[test]
    fn recursion_is_cut_at_top_not_diverging() {
        let (files, cfg) = model_of(
            "pub fn run_study(n: u64) -> u64 {\n\
                 if n == 0 { return 1; }\n\
                 run_study(n - 1) * 2\n\
             }\n",
        );
        let model = Model::build(&files, &cfg);
        assert!(model.absint.max_scc_len >= 1);
        let s = summary(&model, "run_study");
        // The recursive call is ⊤, so the product wraps to the type range
        // — but the summary still carries the type.
        assert_eq!(s.ret, AbsVal::Int { iv: IntKind::U64.range(), kind: Some(IntKind::U64) });
        let id = model.nodes.iter().position(|n| n.simple == "run_study").expect("node");
        assert!(!model.absint.fns[id].as_ref().expect("analyzed").diverged);
    }

    #[test]
    fn assert_preconditions_become_requirements() {
        let (files, cfg) = model_of(
            "pub fn weigh(share: f64) -> f64 {\n\
                 debug_assert!(share.is_finite() && share >= 0.0);\n\
                 share\n\
             }\n\
             pub fn run_study(x: f64) -> f64 { weigh(x) }\n",
        );
        let model = Model::build(&files, &cfg);
        let s = summary(&model, "weigh");
        assert_eq!(s.requires.len(), 1, "{:?}", s.requires);
        let (idx, name, req) = &s.requires[0];
        assert_eq!((*idx, name.as_str()), (0, "share"));
        let AbsVal::Float(f) = req else { panic!("{req:?}") };
        assert!(f.finite && f.non_negative, "{f}");
    }

    #[test]
    fn narrowing_recovers_a_widened_bound() {
        let (files, cfg) = model_of(
            "pub fn run_study(xs: &[u64]) -> usize {\n\
                 let mut i: usize = 0;\n\
                 while i < 10 {\n\
                     i += 1;\n\
                 }\n\
                 i\n\
             }\n",
        );
        let model = Model::build(&files, &cfg);
        let s = summary(&model, "run_study");
        let iv = s.ret.interval().expect("int return");
        assert_eq!(iv.lo, 0);
        assert!(
            iv.hi <= IntKind::Usize.range().hi,
            "the widened bound narrows back below the fence: {iv}"
        );
    }

    #[test]
    fn consts_cross_reference_and_join_collisions() {
        let files = vec![
            SourceFile::parse(
                "crates/core/src/a.rs",
                "pub const BASE: u64 = 250;\npub const LIMIT: u64 = BASE * 4;\n",
            ),
            SourceFile::parse("crates/core/src/b.rs", "pub const LIMIT: u64 = 2000;\n"),
        ];
        let cfg = Config { sema_roots: vec!["nothing".into()], ..Config::default() };
        let model = Model::build(&files, &cfg);
        assert_eq!(
            model.absint.consts.get("BASE").and_then(AbsVal::interval),
            Some(Interval::exact(250))
        );
        assert_eq!(
            model.absint.consts.get("LIMIT").and_then(AbsVal::interval),
            Some(Interval::new(1000, 2000)),
            "colliding names join"
        );
    }
}
