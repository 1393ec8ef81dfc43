//! Semantic analysis: the workspace symbol table, the intra-workspace
//! call graph with closure-capture edges, and the transitive rule family
//! that enforces the repo's determinism contract.
//!
//! The F-Box pipeline stakes its correctness on byte-identical
//! reproduction: parallel cube builds and fault-injected crawls must
//! equal their serial oracles bit for bit. The lexical rules catch a
//! nondeterministic *token* where it is written; the rules in this module
//! catch one where it *matters* — a `HashMap` iteration three helpers
//! deep in a function reachable from a cube build is just as fatal as one
//! in the build loop itself. Every semantic finding therefore carries the
//! full call path from the pipeline root to the violation.
//!
//! Resolution is deliberately conservative and name-based (no type
//! inference): free calls resolve through module paths and `use` imports,
//! `self.m(…)` and `Type::m(…)` resolve within the named impl, and bare
//! `x.m(…)` method calls over-approximate to every workspace method of
//! that name. Over-approximation can only add paths, never hide one.

use std::collections::BTreeMap;

use crate::absint;
use crate::config::Config;
use crate::flow::{self, FnFlow};
use crate::lexer::Tok;
use crate::parser::{is_keyword, Item, ItemKind};
use crate::rules::{Finding, Severity};
use crate::source::SourceFile;

mod atomic_relaxed_handoff;
mod det_env_read;
mod det_hash_iter;
mod det_wall_clock;
mod par_float_reduce;
mod par_panic;
mod par_shared_capture;
mod race_static_mut;

pub use atomic_relaxed_handoff::AtomicRelaxedHandoff;
pub use det_env_read::DetEnvRead;
pub use det_hash_iter::DetHashIter;
pub use det_wall_clock::DetWallClock;
pub use par_float_reduce::ParFloatReduceOrder;
pub use par_panic::ParPanicReachable;
pub use par_shared_capture::ParSharedCapture;
pub use race_static_mut::RaceStaticMut;

/// The `fbox-par` fan-out entry points whose closure arguments become
/// [`par-panic-reachable`](ParPanicReachable) roots.
pub const PAR_ENTRY_POINTS: &[&str] = &["par_map", "par_chunks", "scope", "with_threads"];

/// Default determinism roots: the cube builds and the reference cubes
/// they are tested bit-for-bit against, the crawls, the study
/// drivers, the durable-store ingest/publish entry points, and the
/// report-emitting experiment entry points. Overridable via
/// `[sema] roots = […]` in `Lint.toml`; patterns are `::`-separated
/// suffixes matched against qualified function names.
pub const DEFAULT_DET_ROOTS: &[&str] = &[
    "FBox::from_search",
    "FBox::from_market",
    "reference::search_cube",
    "reference::market_cube",
    "crawl::crawl",
    "crawl::crawl_resilient",
    "study::run_study",
    "study::run_study_resilient",
    "ingest::crawl_durable",
    "ingest::crawl_durable_with_plan",
    "ingest::study_durable",
    "ingest::study_durable_with_plan",
    "EpochStore::ingest_market",
    "EpochStore::publish",
    "taskrabbit_quant::run",
    "taskrabbit_compare::run",
    "google_quant::run",
    "google_compare::run",
    "figures::run",
    "hypotheses::run",
    "mitigate::run",
    "rerank::rerank_market",
    "rerank::rerank_search",
    "Report::diff",
];

/// A semantic (whole-workspace) rule. Unlike [`crate::rules::Rule`],
/// these see the call graph, not one file at a time; the engine applies
/// severities, path scoping, suppressions, and baselines identically for
/// both families.
pub trait SemaRule {
    /// Stable kebab-case identifier.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules` and docs.
    fn summary(&self) -> &'static str;
    /// Default severity when `Lint.toml` says nothing.
    fn default_severity(&self) -> Severity;
    /// Emits findings over the whole-workspace model.
    fn check(&self, model: &Model, out: &mut Vec<Finding>);
}

/// Every shipped semantic rule, in display order.
pub fn all_sema_rules() -> Vec<Box<dyn SemaRule>> {
    vec![
        Box::new(DetHashIter),
        Box::new(DetEnvRead),
        Box::new(DetWallClock),
        Box::new(ParPanicReachable),
        Box::new(RaceStaticMut),
        Box::new(ParSharedCapture),
        Box::new(ParFloatReduceOrder),
        Box::new(AtomicRelaxedHandoff),
        Box::new(absint::rules::ArithUncheckedSub),
        Box::new(absint::rules::ArithWideningNeeded),
        Box::new(absint::rules::RangeInvariantEscape),
        Box::new(absint::rules::CastTruncatingUnproven),
        Box::new(absint::rules::FlowUncheckedDiv),
    ]
}

/// How one call-graph edge came to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Free-function or path call (`f(…)`, `module::f(…)`, `Type::m(…)`).
    Call,
    /// Method call (`x.m(…)`, `self.m(…)`).
    Method,
    /// Closure capture: the enclosing function to the closures it owns.
    Capture,
}

/// One function-like node: a free fn, a method, a nested fn, or a
/// closure.
#[derive(Debug)]
pub struct FnNode {
    /// Qualified name, e.g. `core::fbox::FBox::from_search` or
    /// `…::from_search::{closure@54}`.
    pub qname: String,
    /// Last segment (`from_search`, `{closure@54}`).
    pub simple: String,
    /// Index into [`Model::files`].
    pub file: usize,
    /// 1-based declaration line.
    pub line: u32,
    /// Token range of the whole item (signature + body).
    pub tokens: (usize, usize),
    /// Token range of the body, when present.
    pub body: Option<(usize, usize)>,
    /// Enclosing function node for closures and nested fns.
    pub parent: Option<usize>,
    /// Child node ids (nested fns + closures), for own-token iteration.
    pub children: Vec<usize>,
    /// Impl (or trait) type name for methods.
    pub impl_type: Option<String>,
    /// For closures: the `fbox-par` entry point this closure is an
    /// argument of, when any (makes it a `par-panic-reachable` root).
    pub par_entry: Option<String>,
    /// Whether the node is a closure.
    pub is_closure: bool,
    /// Whether the declaration sits in `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
}

/// BFS reachability with shortest-path parent pointers.
#[derive(Debug)]
pub struct Reachability {
    parent: Vec<Option<usize>>,
    reached: Vec<bool>,
    roots: Vec<bool>,
}

impl Reachability {
    fn compute(graph: &[Vec<(usize, EdgeKind)>], roots: &[usize]) -> Reachability {
        let n = graph.len();
        let mut r =
            Reachability { parent: vec![None; n], reached: vec![false; n], roots: vec![false; n] };
        let mut queue = std::collections::VecDeque::new();
        for &root in roots {
            if !r.reached[root] {
                r.reached[root] = true;
                r.roots[root] = true;
                queue.push_back(root);
            }
        }
        while let Some(at) = queue.pop_front() {
            for &(to, _) in &graph[at] {
                if !r.reached[to] {
                    r.reached[to] = true;
                    r.parent[to] = Some(at);
                    queue.push_back(to);
                }
            }
        }
        r
    }

    /// Whether `node` is reachable from any root.
    pub fn reached(&self, node: usize) -> bool {
        self.reached.get(node).copied().unwrap_or(false)
    }

    /// Shortest root → `node` chain of node ids (inclusive), when
    /// reachable.
    pub fn path_to(&self, node: usize) -> Option<Vec<usize>> {
        if !self.reached(node) {
            return None;
        }
        let mut path = vec![node];
        let mut at = node;
        while !self.roots[at] {
            at = self.parent[at]?;
            path.push(at);
        }
        path.reverse();
        Some(path)
    }
}

/// The whole-workspace semantic model: every function-like node, the
/// call graph over them, and the two reachability closures the rules
/// share (determinism roots and parallel-closure roots).
pub struct Model<'a> {
    /// Every scanned source file, in engine walk order.
    pub files: &'a [SourceFile],
    /// All function-like nodes across the workspace.
    pub nodes: Vec<FnNode>,
    /// Adjacency: `graph[caller] = [(callee, kind)…]`, sorted by callee.
    pub graph: Vec<Vec<(usize, EdgeKind)>>,
    /// Reachability from the determinism roots.
    pub det: Reachability,
    /// Reachability from closures passed to `fbox-par` entry points.
    pub par: Reachability,
    /// Resolved determinism root node ids.
    pub det_roots: Vec<usize>,
    /// Resolved parallel-closure root node ids.
    pub par_roots: Vec<usize>,
    /// Per-node body flow analysis (`None` for bodiless declarations).
    pub flows: Vec<Option<FnFlow>>,
    /// Per-node resolved call sites: `(callee name token, callee node
    /// ids)`, sorted by token index. This is the same resolution the
    /// call graph is built from, but keyed by position so the abstract
    /// interpreter can look a call event up by its name token.
    pub call_sites: Vec<Vec<(usize, Vec<usize>)>>,
    /// The interprocedural abstract interpretation (fourth pass).
    pub absint: absint::Analysis,
}

impl<'a> Model<'a> {
    /// Builds the symbol table, call graph, and reachability closures.
    pub fn build(files: &'a [SourceFile], config: &Config) -> Model<'a> {
        let mut builder = Builder::default();
        for (file_idx, file) in files.iter().enumerate() {
            let base = module_path(&file.path);
            for item in &file.items.items {
                builder.collect(file, file_idx, item, &base, None, None);
            }
        }
        let nodes = builder.nodes;

        // Index nodes for resolution.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, node) in nodes.iter().enumerate() {
            if node.is_closure {
                continue;
            }
            if node.impl_type.is_some() {
                methods_by_name.entry(node.simple.as_str()).or_default().push(id);
            } else {
                free_by_name.entry(node.simple.as_str()).or_default().push(id);
            }
        }

        // Extract and resolve call edges; closure-capture edges connect
        // each function to the closures it owns.
        let mut graph: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); nodes.len()];
        let mut call_sites: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); nodes.len()];
        for caller in 0..nodes.len() {
            let node = &nodes[caller];
            let file = &files[node.file];
            let mut edges: Vec<(usize, EdgeKind)> = Vec::new();
            let mut sites: Vec<(usize, Vec<usize>)> = Vec::new();
            for (at, call) in calls_in_node(file, &nodes, caller) {
                let kind = match call {
                    CallSite::Method { .. } => EdgeKind::Method,
                    _ => EdgeKind::Call,
                };
                let callees = resolve(&call, node, &nodes, files, &free_by_name, &methods_by_name);
                for &callee in &callees {
                    edges.push((callee, kind));
                }
                if !callees.is_empty() {
                    sites.push((at, callees));
                }
            }
            for &child in &node.children {
                edges.push((child, EdgeKind::Capture));
            }
            edges.sort_unstable_by_key(|&(to, _)| to);
            edges.dedup_by_key(|&mut (to, _)| to);
            graph[caller] = edges;
            sites.sort_unstable_by_key(|&(at, _)| at);
            call_sites[caller] = sites;
        }

        // Determinism roots come from `[sema] roots` or the defaults.
        let patterns: Vec<&str> = if config.sema_roots.is_empty() {
            DEFAULT_DET_ROOTS.to_vec()
        } else {
            config.sema_roots.iter().map(String::as_str).collect()
        };
        let det_roots: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.in_test && !n.is_closure)
            .filter(|(_, n)| patterns.iter().any(|p| qname_matches(&n.qname, p)))
            .map(|(id, _)| id)
            .collect();
        let par_roots: Vec<usize> =
            (0..nodes.len()).filter(|&id| nodes[id].par_entry.is_some()).collect();

        let det = Reachability::compute(&graph, &det_roots);
        let par = Reachability::compute(&graph, &par_roots);

        // Body-level flow analysis for every node with a body. Nested
        // *named* fns are separate nodes and are skipped inside their
        // parent; closures stay inline (captured uses must remain
        // visible) *and* get their own flow.
        let flows: Vec<Option<FnFlow>> = nodes
            .iter()
            .map(|node| {
                let body = node.body?;
                let toks = &files[node.file].lexed.tokens;
                let skip: Vec<(usize, usize)> = node
                    .children
                    .iter()
                    .filter(|&&c| !nodes[c].is_closure)
                    .map(|&c| nodes[c].tokens)
                    .collect();
                Some(flow::analyze(
                    toks,
                    (node.tokens.0, body.0),
                    body,
                    node.is_closure,
                    &skip,
                    node.line,
                ))
            })
            .collect();

        // Fourth pass: interprocedural abstract interpretation over the
        // flows and the resolved call sites.
        let plain_graph: Vec<Vec<usize>> =
            graph.iter().map(|edges| edges.iter().map(|&(to, _)| to).collect()).collect();
        let absint = absint::analyze(files, &nodes, &plain_graph, &flows, &call_sites);

        Model { files, nodes, graph, det, par, det_roots, par_roots, flows, call_sites, absint }
    }

    /// Total number of call-graph edges (for telemetry).
    pub fn edge_count(&self) -> usize {
        self.graph.iter().map(Vec::len).sum()
    }

    /// Renders a statement-level path hop for a statement of `node`:
    /// the source line's code (trailing comment stripped) plus its
    /// `file:line` position, e.g. `` `total += part;` (crates/…:42)``.
    pub fn stmt_hop(&self, node: usize, stmt: &flow::stmt::Stmt) -> String {
        let file = &self.files[self.nodes[node].file];
        let snippet = file.snippet(stmt.line);
        let code = snippet.split("//").next().unwrap_or_default().trim();
        format!("`{}` ({}:{})", code, file.path, stmt.line)
    }

    /// Renders a reachability path as `qname (file:line)` hops.
    pub fn render_path(&self, ids: &[usize]) -> Vec<String> {
        ids.iter()
            .map(|&id| {
                let node = &self.nodes[id];
                format!("{} ({}:{})", node.qname, self.files[node.file].path, node.line)
            })
            .collect()
    }

    /// Emits a path-carrying finding at `line` of file index `file`
    /// unless an inline or item-scoped suppression covers it.
    pub fn emit(
        &self,
        rule: &dyn SemaRule,
        file: usize,
        line: u32,
        path: Vec<String>,
        out: &mut Vec<Finding>,
    ) {
        let file = &self.files[file];
        if file.is_suppressed(line, rule.id()) {
            return;
        }
        out.push(Finding {
            rule: rule.id().to_owned(),
            file: file.path.clone(),
            line,
            snippet: file.snippet(line),
            path,
        });
    }
}

/// A call site extracted from a function body.
#[derive(Debug)]
enum CallSite {
    /// `name(…)` with no path or receiver.
    Free { name: String },
    /// `seg₀::…::segₙ::name(…)`.
    Path { segments: Vec<String>, name: String },
    /// `recv.name(…)`; `self_recv` when the receiver is literally `self`.
    Method { name: String, self_recv: bool },
}

/// Token ranges belonging to `id` itself: its body minus the token
/// ranges of child nodes (nested fns and closures own their tokens).
fn own_token_ranges(nodes: &[FnNode], id: usize) -> Vec<(usize, usize)> {
    let node = &nodes[id];
    let Some((lo, hi)) = node.body else { return Vec::new() };
    let mut holes: Vec<(usize, usize)> =
        node.children.iter().filter_map(|&c| nodes[c].body).collect();
    holes.sort_unstable();
    let mut ranges = Vec::new();
    let mut at = lo;
    for (clo, chi) in holes {
        if clo > at {
            ranges.push((at, clo.min(hi)));
        }
        at = at.max(chi);
    }
    if at < hi {
        ranges.push((at, hi));
    }
    ranges
}

/// Extracts every call site in `caller`'s own tokens, keyed by the
/// callee name's token index.
fn calls_in_node(file: &SourceFile, nodes: &[FnNode], caller: usize) -> Vec<(usize, CallSite)> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    for (lo, hi) in own_token_ranges(nodes, caller) {
        for i in lo..hi.min(toks.len()) {
            let Tok::Ident(name) = &toks[i].tok else { continue };
            if is_keyword(name) {
                continue;
            }
            if !matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('('))) {
                continue;
            }
            match (i > 0).then(|| &toks[i - 1].tok) {
                Some(Tok::Punct('.')) => {
                    let self_recv = i >= 2 && toks[i - 2].tok.is_ident("self");
                    out.push((i, CallSite::Method { name: name.clone(), self_recv }));
                }
                Some(Tok::Op("::")) => {
                    // Walk back over `seg::seg::…`.
                    let mut segments = Vec::new();
                    let mut j = i - 1; // at the `::` before the name
                    while j >= 1 {
                        let Tok::Ident(seg) = &toks[j - 1].tok else { break };
                        segments.push(seg.clone());
                        if j >= 3 && toks[j - 2].tok.is_op("::") {
                            j -= 2;
                        } else {
                            break;
                        }
                    }
                    segments.reverse();
                    out.push((i, CallSite::Path { segments, name: name.clone() }));
                }
                Some(Tok::Punct('!')) => {} // macro invocation, not a call
                _ => out.push((i, CallSite::Free { name: name.clone() })),
            }
        }
    }
    out
}

/// Resolves one call site to candidate node ids. Over-approximates when
/// names are ambiguous; returns nothing for names that resolve outside
/// the workspace (std and shim surfaces).
fn resolve(
    call: &CallSite,
    caller: &FnNode,
    nodes: &[FnNode],
    files: &[SourceFile],
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    methods_by_name: &BTreeMap<&str, Vec<usize>>,
) -> Vec<usize> {
    match call {
        CallSite::Free { name } => {
            let Some(candidates) = free_by_name.get(name.as_str()) else { return Vec::new() };
            // Same file beats same crate beats everything.
            let same_file: Vec<usize> =
                candidates.iter().copied().filter(|&c| nodes[c].file == caller.file).collect();
            if !same_file.is_empty() {
                return same_file;
            }
            // A `use …::name;` in the caller's file pins the module.
            let file = &files[caller.file];
            for use_path in &file.items.uses {
                let segs: Vec<&str> = use_path.split("::").collect();
                let n_segs = segs.len();
                if segs.last() == Some(&name.as_str()) && n_segs >= 2 {
                    let pattern = normalize_path(&segs[n_segs - 2..]).join("::");
                    let narrowed: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&c| qname_matches(&nodes[c].qname, &pattern))
                        .collect();
                    if !narrowed.is_empty() {
                        return narrowed;
                    }
                }
            }
            let caller_crate = caller.qname.split("::").next().unwrap_or_default();
            let same_crate: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| nodes[c].qname.split("::").next() == Some(caller_crate))
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
            candidates.clone()
        }
        CallSite::Path { segments, name } => {
            let segments: Vec<&str> = segments.iter().map(String::as_str).collect();
            let segments = normalize_path(&segments);
            // `Type::assoc(…)` — the last segment names a type.
            if let Some(type_seg) = segments.last() {
                if type_seg.chars().next().is_some_and(char::is_uppercase) || type_seg == "Self" {
                    let type_name: &str = if type_seg == "Self" {
                        caller.impl_type.as_deref().unwrap_or_default()
                    } else {
                        type_seg
                    };
                    let Some(methods) = methods_by_name.get(name.as_str()) else {
                        return Vec::new();
                    };
                    return methods
                        .iter()
                        .copied()
                        .filter(|&m| nodes[m].impl_type.as_deref() == Some(type_name))
                        .collect();
                }
            }
            // Module path call: suffix-match `…::segs::name`.
            let Some(candidates) = free_by_name.get(name.as_str()) else { return Vec::new() };
            let mut suffix = segments.clone();
            suffix.push(name.clone());
            let pattern = suffix.join("::");
            candidates
                .iter()
                .copied()
                .filter(|&c| qname_matches(&nodes[c].qname, &pattern))
                .collect()
        }
        CallSite::Method { name, self_recv } => {
            let Some(methods) = methods_by_name.get(name.as_str()) else { return Vec::new() };
            if *self_recv {
                if let Some(ty) = &caller.impl_type {
                    let own: Vec<usize> = methods
                        .iter()
                        .copied()
                        .filter(|&m| nodes[m].impl_type.as_deref() == Some(ty.as_str()))
                        .collect();
                    if !own.is_empty() {
                        return own;
                    }
                }
            }
            // Receiver type unknown: over-approximate to every method of
            // that name in the workspace.
            methods.clone()
        }
    }
}

/// Maps `fbox_xxx` package segments to their in-tree crate directory
/// names and drops `crate`/`self`/`super` prefixes (resolution is
/// suffix-based, so dropping them only widens the candidate set).
fn normalize_path(segments: &[&str]) -> Vec<String> {
    segments
        .iter()
        .filter(|s| !matches!(**s, "crate" | "self" | "super"))
        .map(|s| s.strip_prefix("fbox_").unwrap_or(s).to_owned())
        .collect()
}

/// Whether `qname`'s trailing `::` segments equal `pattern`'s.
pub fn qname_matches(qname: &str, pattern: &str) -> bool {
    let q: Vec<&str> = qname.split("::").collect();
    let p: Vec<&str> = pattern.split("::").collect();
    let (qn, pn) = (q.len(), p.len());
    if pn > qn {
        return false;
    }
    q[qn - pn..] == p[..]
}

/// Derives the root module path of a file from its workspace-relative
/// path: `crates/core/src/measures/emd.rs` → `["core", "measures",
/// "emd"]`, with `lib.rs` / `main.rs` / `mod.rs` contributing no segment.
fn module_path(path: &str) -> Vec<String> {
    let mut segs: Vec<&str> = path.split('/').collect();
    let file = segs.pop().unwrap_or_default();
    let mut out: Vec<String> = Vec::new();
    match segs.first() {
        Some(&"crates") | Some(&"shims") => {
            if segs.len() >= 2 {
                out.push(segs[1].to_owned());
            }
            for seg in segs.iter().skip(2).filter(|s| **s != "src") {
                out.push((*seg).to_owned());
            }
        }
        _ => {
            out.push("fbox".to_owned());
            for seg in segs.iter().filter(|s| **s != "src") {
                out.push((*seg).to_owned());
            }
        }
    }
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    if !matches!(stem, "lib" | "main" | "mod") {
        out.push(stem.to_owned());
    }
    out
}

/// Recursive node collector.
#[derive(Default)]
struct Builder {
    nodes: Vec<FnNode>,
}

impl Builder {
    /// Walks one item, creating nodes for fn-like items and recursing
    /// into modules, impls, traits, bodies, and closures.
    fn collect(
        &mut self,
        file: &SourceFile,
        file_idx: usize,
        item: &Item,
        module: &[String],
        impl_type: Option<&str>,
        parent: Option<usize>,
    ) {
        match &item.kind {
            ItemKind::Mod => {
                let mut inner = module.to_vec();
                inner.push(item.name.clone());
                for child in &item.children {
                    self.collect(file, file_idx, child, &inner, impl_type, parent);
                }
            }
            ItemKind::Impl { type_name, .. } => {
                for child in &item.children {
                    self.collect(file, file_idx, child, module, Some(type_name), parent);
                }
            }
            ItemKind::Trait => {
                for child in &item.children {
                    self.collect(file, file_idx, child, module, Some(&item.name), parent);
                }
            }
            ItemKind::Fn => {
                let qname = match impl_type {
                    Some(ty) => format!("{}::{}::{}", module.join("::"), ty, item.name),
                    None => format!("{}::{}", module.join("::"), item.name),
                };
                let id = self.push_node(
                    file,
                    file_idx,
                    item,
                    qname,
                    item.name.clone(),
                    impl_type,
                    parent,
                    None,
                );
                for child in &item.children {
                    self.collect_body_child(file, file_idx, child, impl_type, id);
                }
            }
            // Closures only occur inside fn bodies (`collect_body_child`);
            // other item kinds own no executable code.
            _ => {}
        }
    }

    /// Children found inside fn bodies: nested fns and closures.
    fn collect_body_child(
        &mut self,
        file: &SourceFile,
        file_idx: usize,
        item: &Item,
        impl_type: Option<&str>,
        parent: usize,
    ) {
        let (qname, simple, par_entry) = match &item.kind {
            ItemKind::Fn => {
                (format!("{}::{}", self.nodes[parent].qname, item.name), item.name.clone(), None)
            }
            ItemKind::Closure { enclosing_call } => {
                let simple = format!("{{closure@{}}}", item.line);
                (
                    format!("{}::{}", self.nodes[parent].qname, simple),
                    simple,
                    enclosing_call
                        .as_deref()
                        .filter(|c| PAR_ENTRY_POINTS.contains(c))
                        .map(str::to_owned),
                )
            }
            _ => return,
        };
        let id =
            self.push_node(file, file_idx, item, qname, simple, impl_type, Some(parent), par_entry);
        for child in &item.children {
            self.collect_body_child(file, file_idx, child, impl_type, id);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_node(
        &mut self,
        file: &SourceFile,
        file_idx: usize,
        item: &Item,
        qname: String,
        simple: String,
        impl_type: Option<&str>,
        parent: Option<usize>,
        par_entry: Option<String>,
    ) -> usize {
        let id = self.nodes.len();
        self.nodes.push(FnNode {
            qname,
            simple,
            file: file_idx,
            line: item.line,
            tokens: item.tokens,
            body: item.body,
            parent,
            children: Vec::new(),
            impl_type: impl_type.map(str::to_owned),
            par_entry,
            is_closure: matches!(item.kind, ItemKind::Closure { .. }),
            in_test: file.in_test_span(item.line),
        });
        if let Some(p) = parent {
            self.nodes[p].children.push(id);
        }
        id
    }
}

/// Shared sink-scan helper: iterates every node's own tokens outside
/// test spans, calling `scan(node_id, token_index)` for each.
pub(crate) fn for_each_own_token(model: &Model, mut scan: impl FnMut(usize, usize)) {
    for id in 0..model.nodes.len() {
        let node = &model.nodes[id];
        let file = &model.files[node.file];
        for (lo, hi) in own_token_ranges(&model.nodes, id) {
            for tok in lo..hi.min(file.lexed.tokens.len()) {
                if file.in_test_span(file.lexed.tokens[tok].line) {
                    continue;
                }
                scan(id, tok);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths_from_file_paths() {
        assert_eq!(module_path("crates/core/src/lib.rs"), vec!["core"]);
        assert_eq!(module_path("crates/core/src/measures/emd.rs"), vec!["core", "measures", "emd"]);
        assert_eq!(module_path("crates/core/src/algo/mod.rs"), vec!["core", "algo"]);
        assert_eq!(
            module_path("crates/repro/src/bin/repro-all.rs"),
            vec!["repro", "bin", "repro-all"]
        );
        assert_eq!(module_path("src/lib.rs"), vec!["fbox"]);
        assert_eq!(module_path("tests/chaos.rs"), vec!["fbox", "tests", "chaos"]);
        assert_eq!(module_path("shims/rand/src/lib.rs"), vec!["rand"]);
    }

    #[test]
    fn qname_suffix_matching() {
        assert!(qname_matches("core::fbox::FBox::from_search", "FBox::from_search"));
        assert!(qname_matches("core::fbox::FBox::from_search", "from_search"));
        assert!(!qname_matches("core::fbox::FBox::from_searches", "from_search"));
        assert!(!qname_matches("a::b", "a::b::c"));
        assert!(qname_matches("a::b::c", "a::b::c"));
    }

    fn model_files(sources: &[(&str, &str)]) -> Vec<SourceFile> {
        sources.iter().map(|(p, t)| SourceFile::parse(p, t)).collect()
    }

    fn config_with_roots(roots: &[&str]) -> Config {
        Config { sema_roots: roots.iter().map(|s| (*s).to_owned()).collect(), ..Config::default() }
    }

    #[test]
    fn call_graph_resolves_free_method_and_path_calls() {
        let files = model_files(&[(
            "crates/core/src/x.rs",
            "pub fn root() { helper(); T::assoc(); }\n\
             fn helper() { let t = T; t.step(); }\n\
             pub struct T;\n\
             impl T {\n\
                 pub fn assoc() {}\n\
                 pub fn step(&self) { self.inner(); }\n\
                 fn inner(&self) {}\n\
             }\n",
        )]);
        let cfg = config_with_roots(&["root"]);
        let model = Model::build(&files, &cfg);
        let q = |name: &str| {
            model
                .nodes
                .iter()
                .position(|n| n.simple == name)
                .unwrap_or_else(|| panic!("node {name} exists"))
        };
        assert!(model.det.reached(q("helper")), "free call edge");
        assert!(model.det.reached(q("assoc")), "Type::assoc edge");
        assert!(model.det.reached(q("step")), "method call edge");
        assert!(model.det.reached(q("inner")), "self-call edge");
        let path = model.det.path_to(q("inner")).expect("inner is reachable");
        let names: Vec<&str> = path.iter().map(|&i| model.nodes[i].simple.as_str()).collect();
        assert_eq!(names, ["root", "helper", "step", "inner"]);
    }

    #[test]
    fn closures_get_capture_edges_and_par_roots() {
        let files = model_files(&[(
            "crates/core/src/x.rs",
            "pub fn build(xs: &[u64]) {\n\
                 par_map(xs, |x| helper(x));\n\
                 let f = |y: u64| y + 1;\n\
             }\n\
             fn helper(x: &u64) -> u64 { *x }\n",
        )]);
        let cfg = config_with_roots(&["build"]);
        let model = Model::build(&files, &cfg);
        assert_eq!(model.par_roots.len(), 1, "only the par_map closure is a par root");
        let closure = model.par_roots[0];
        assert!(
            model.nodes[closure].qname.contains("{closure@2}"),
            "{}",
            model.nodes[closure].qname
        );
        let helper = model.nodes.iter().position(|n| n.simple == "helper").expect("helper node");
        assert!(model.par.reached(helper), "par reachability flows through the closure");
        assert!(model.det.reached(closure), "capture edge from build to its closure");
    }

    #[test]
    fn test_code_is_not_a_root() {
        let files = model_files(&[(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    pub fn run_study() { helper(); }\n}\n\
             pub fn helper() {}\n",
        )]);
        let cfg = config_with_roots(&["run_study"]);
        let model = Model::build(&files, &cfg);
        assert!(model.det_roots.is_empty(), "roots inside #[cfg(test)] do not count");
    }
}
