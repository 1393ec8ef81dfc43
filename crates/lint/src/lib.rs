//! # fbox-lint
//!
//! Zero-dependency, domain-aware static analysis for the F-Box
//! workspace.
//!
//! The pipeline is numeric ranking code end to end — Kendall/Jaccard
//! distances, EMD over relevance histograms, exposure shares — where a
//! NaN-unsafe comparator, a raw `f64 ==`, a zero divisor or a truncating
//! cast silently corrupts the unfairness cube. The container has no crates.io access, so dylint and
//! clippy plugins are unavailable; this crate hand-rolls the three pieces
//! such a tool needs:
//!
//! - [`lexer`] — a comment/string/attribute-aware Rust token scanner
//!   (no full parse);
//! - [`parser`] — a lightweight item-level parser over the token stream
//!   (modules, fns, impls, use-trees, closures) feeding [`sema`];
//! - [`rules`] — the [`Rule`](rules::Rule) engine with domain-tailored
//!   lexical rules (see `fbox-lint --list-rules`);
//! - [`flow`] — body-level analysis: a tolerant statement parser and
//!   per-function CFGs with def/use sets;
//! - [`sema`] — the workspace symbol table, the intra-workspace call
//!   graph with closure-capture edges, per-node [`flow`] results, and
//!   the transitive determinism / concurrency rule family (`det-*`,
//!   `par-*`, `race-static-mut`, `atomic-relaxed-handoff`) whose
//!   findings carry the full root → violation path down to the
//!   statement level;
//! - [`absint`] — the fourth pass and the one numeric-safety engine:
//!   interprocedural abstract interpretation over the [`flow`] CFGs
//!   (integer intervals with widening/narrowing, float range facts,
//!   bottom-up function summaries over the call graph) powering the
//!   `arith-*`, `range-invariant-escape`, `cast-truncating-unproven`
//!   (every float→int cast) and `flow-unchecked-div` (every division)
//!   rules;
//! - [`engine`] + [`config`] + [`baseline`] — the workspace walker,
//!   `Lint.toml` severity/scoping configuration, and the
//!   `lint-baseline.json` allowlist with stale-entry detection.
//!
//! Each question has one owning rule: clock reads belong to the lexical
//! `instant-outside-telemetry`, library panics to `unwrap-in-lib` and
//! `panic-in-lib`, numeric safety to [`absint`]. The whole run is
//! single-threaded. Scan metrics are published through `fbox-telemetry`,
//! so `--metrics` output reuses the same table/JSON sinks as the rest of
//! the pipeline.

pub mod absint;
pub mod baseline;
pub mod config;
pub mod engine;
pub mod flow;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sema;
pub mod source;
