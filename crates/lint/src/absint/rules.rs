//! The interval-powered rules. Each one consumes the events the
//! reporting pass collected and keeps only what the converged intervals
//! *cannot* prove safe — the finding's final path hop renders the
//! offending values, so the report shows exactly what the analysis knew
//! at the site. Every rule rides the determinism/parallel cones except
//! float→int casts, which are checked in all library and binary code.

use crate::rules::{Finding, Severity};
use crate::sema::{Model, SemaRule};

use super::domain::{AbsVal, IntKind};
use super::eval::Event;
use super::pair_key;

/// `arith-unchecked-sub` — unsigned subtraction the intervals cannot
/// prove non-wrapping (the `normalize_to_units` bug class: panics in
/// debug, wraps to ~2⁶⁴ in release).
pub struct ArithUncheckedSub;

/// `arith-widening-needed` — a 64-bit `+`/`*` whose operands are both
/// genuinely bounded yet whose result interval still escapes the type,
/// so the expression needs an i128 widening, not a shrug.
pub struct ArithWideningNeeded;

/// `range-invariant-escape` — an argument flowing into a function whose
/// leading asserts demand a range (`[0, 1]` shares, finite weights) the
/// caller's interval cannot prove, through a path with no clamp.
pub struct RangeInvariantEscape;

/// `cast-truncating-unproven` — an `as` cast to an integer type the
/// operand's range does not prove lossless: a float that is not proven
/// finite, integer-valued and (for unsigned targets) non-negative, or an
/// integer whose interval escapes a narrower target.
pub struct CastTruncatingUnproven;

/// `flow-unchecked-div` — a `/` or `/=` whose divisor the analysis
/// cannot prove nonzero: an integer interval containing 0 (a panic) or
/// a float without the `!=0` fact (a silent `NaN`/`inf` that poisons
/// every downstream cube cell).
pub struct FlowUncheckedDiv;

/// One event site: the node and statement it fired in, and whether the
/// node sits in the det/par cones.
struct Site<'m, 'a> {
    model: &'m Model<'a>,
    id: usize,
    stmt_id: usize,
    in_cone: bool,
}

impl Site<'_, '_> {
    /// Emits a finding at token `at` with the path root → node →
    /// statement → `last_hop` (nodes outside the cones are their own
    /// root).
    fn emit(&self, rule: &dyn SemaRule, at: usize, last_hop: String, out: &mut Vec<Finding>) {
        let model = self.model;
        let node = &model.nodes[self.id];
        let ids = model
            .det
            .path_to(self.id)
            .or_else(|| model.par.path_to(self.id))
            .unwrap_or_else(|| vec![self.id]);
        let mut path = model.render_path(&ids);
        if let Some(flow) = model.flows[self.id].as_ref() {
            path.push(model.stmt_hop(self.id, flow.stmt(self.stmt_id)));
        }
        path.push(last_hop);
        let line = model.files[node.file].lexed.tokens[at].line;
        model.emit(rule, node.file, line, path, out);
    }
}

/// Shared per-node iteration: test gate and event loop. Rules that ride
/// the cones check [`Site::in_cone`] themselves.
fn for_each_event(model: &Model, mut visit: impl FnMut(&Site, &Event)) {
    for id in 0..model.nodes.len() {
        let node = &model.nodes[id];
        if node.in_test {
            continue;
        }
        let Some(fa) = model.absint.fns[id].as_ref() else { continue };
        let file = &model.files[node.file];
        let in_cone = model.det.reached(id) || model.par.reached(id);
        for &(stmt_id, ref event) in &fa.events {
            if file.in_test_span(file.lexed.tokens[event.at()].line) {
                continue;
            }
            visit(&Site { model, id, stmt_id, in_cone }, event);
        }
    }
}

impl SemaRule for ArithUncheckedSub {
    fn id(&self) -> &'static str {
        "arith-unchecked-sub"
    }

    fn summary(&self) -> &'static str {
        "unsigned subtraction whose operand intervals cannot prove lhs >= rhs"
    }

    fn default_severity(&self) -> Severity {
        Severity::Deny
    }

    fn check(&self, model: &Model, out: &mut Vec<Finding>) {
        for_each_event(model, |site, event| {
            let Event::UncheckedSub { at, lhs, rhs, lhs_name, rhs_name } = event else { return };
            if !site.in_cone {
                return;
            }
            // Interval proof: the smallest lhs is at least the largest rhs.
            if let (Some(li), Some(ri)) = (lhs.interval(), rhs.interval()) {
                if li.lo >= ri.hi {
                    return;
                }
            }
            // Guard proof: a dominating `lhs >= rhs` comparison.
            if let (Some(l), Some(r)) = (lhs_name, rhs_name) {
                let proven = model.absint.fns[site.id]
                    .as_ref()
                    .and_then(|fa| fa.envs.get(site.stmt_id).and_then(Option::as_ref))
                    .is_some_and(|env| env.contains_key(&pair_key(l, r)));
                if proven {
                    return;
                }
            }
            let hop = format!(
                "cannot prove lhs >= rhs: lhs in {}, rhs in {}",
                lhs.render(),
                rhs.render()
            );
            site.emit(self, *at, hop, out);
        });
    }
}

impl SemaRule for ArithWideningNeeded {
    fn id(&self) -> &'static str {
        "arith-widening-needed"
    }

    fn summary(&self) -> &'static str {
        "64-bit add/mul of bounded operands whose result interval escapes the type without i128 widening"
    }

    fn default_severity(&self) -> Severity {
        Severity::Deny
    }

    fn check(&self, model: &Model, out: &mut Vec<Finding>) {
        for_each_event(model, |site, event| {
            let Event::Overflow { at, op, kind, lhs, rhs, result } = event else { return };
            if !site.in_cone {
                return;
            }
            // Only the widest native types: narrower ones have an obvious
            // in-language fix (use the next size up) that the compiler's
            // own lints already push toward, and usize/isize arithmetic
            // is dominated by indexing, where i128 widening is noise.
            if kind.bits() != 64 || matches!(kind, IntKind::Usize | IntKind::Isize) {
                return;
            }
            // Both operands must be *genuinely* bounded below the type
            // fence — an operand the analysis knows nothing about always
            // "escapes", and flagging every unknown u64 would be noise,
            // not analysis.
            let fence = kind.range();
            if lhs.hi >= fence.hi || rhs.hi >= fence.hi {
                return;
            }
            let hop = format!(
                "{} {op} {} gives {result}, escaping {}; widen to i128",
                lhs,
                rhs,
                kind.name()
            );
            site.emit(self, *at, hop, out);
        });
    }
}

impl SemaRule for RangeInvariantEscape {
    fn id(&self) -> &'static str {
        "range-invariant-escape"
    }

    fn summary(&self) -> &'static str {
        "argument cannot prove the documented range a callee's leading asserts require"
    }

    fn default_severity(&self) -> Severity {
        Severity::Deny
    }

    fn check(&self, model: &Model, out: &mut Vec<Finding>) {
        for_each_event(model, |site, event| {
            let Event::Call { at, args } = event else { return };
            if !site.in_cone {
                return;
            }
            // Unique resolution only: over-approximated method candidates
            // would blame a caller for every same-named method's asserts.
            let sites = &model.call_sites[site.id];
            let Ok(pos) = sites.binary_search_by_key(at, |e| e.0) else { return };
            let [callee] = sites[pos].1[..] else { return };
            let Some(summary) = model.absint.summaries[callee].as_ref() else { return };
            // Method calls pass the receiver outside the argument list.
            let offset = usize::from(summary.params.first().is_some_and(|p| p == "self"));
            for (idx, name, required) in &summary.requires {
                let Some(arg_pos) = idx.checked_sub(offset) else { continue };
                let Some(arg) = args.get(arg_pos) else { continue };
                let satisfied = match (arg, required) {
                    (AbsVal::Float(have), AbsVal::Float(want)) => have.implies(want),
                    (AbsVal::Int { iv: have, .. }, AbsVal::Int { iv: want, .. }) => {
                        have.within(want)
                    }
                    // Type confusion between caller and summary means the
                    // name-based resolution guessed wrong; stay quiet.
                    (AbsVal::Top, _) => false,
                    _ => true,
                };
                if satisfied {
                    continue;
                }
                let hop = format!(
                    "argument `{name}` in {} cannot prove {} required by {}",
                    arg.render(),
                    required.render(),
                    model.nodes[callee].qname
                );
                site.emit(self, *at, hop, out);
            }
        });
    }
}

impl SemaRule for CastTruncatingUnproven {
    fn id(&self) -> &'static str {
        "cast-truncating-unproven"
    }

    fn summary(&self) -> &'static str {
        "`as` cast the operand's computed interval does not prove lossless"
    }

    fn default_severity(&self) -> Severity {
        Severity::Deny
    }

    fn check(&self, model: &Model, out: &mut Vec<Finding>) {
        for_each_event(model, |site, event| {
            let Event::Cast { at, from, to, proven, from_float } = event else { return };
            if *proven {
                return;
            }
            // Float sources are in scope in all runtime code: truncation
            // toward zero, saturation and NaN → 0 are silent anywhere.
            // Int sources only inside the cones and only when the cast
            // actually narrows — an unknown u32 "failing" to prove a
            // u32→u64 widening is a vacuous finding.
            if *from_float {
                let file = &model.files[model.nodes[site.id].file];
                if !site.in_cone && !file.is_runtime_code(file.lexed.tokens[*at].line) {
                    return;
                }
            } else {
                let narrows = matches!(
                    from,
                    AbsVal::Int { kind: Some(k), .. } if k.bits() > to.bits()
                );
                if !narrows || !site.in_cone {
                    return;
                }
            }
            let hop = format!("cast of {} to {} not proven lossless", from.render(), to.name());
            site.emit(self, *at, hop, out);
        });
    }
}

impl SemaRule for FlowUncheckedDiv {
    fn id(&self) -> &'static str {
        "flow-unchecked-div"
    }

    fn summary(&self) -> &'static str {
        "division whose divisor's interval or float facts do not exclude zero"
    }

    fn default_severity(&self) -> Severity {
        Severity::Deny
    }

    fn check(&self, model: &Model, out: &mut Vec<Finding>) {
        for_each_event(model, |site, event| {
            let Event::Div { at, divisor } = event else { return };
            if !site.in_cone {
                return;
            }
            let proven = match divisor {
                AbsVal::Int { iv, .. } => !iv.contains(0),
                AbsVal::Float(facts) => facts.non_zero,
                // A divisor of unknown type (a field, an opaque call, a
                // user type with its own `Div`) is out of scope.
                AbsVal::Top | AbsVal::Bool => true,
            };
            if !proven {
                let hop = format!("divisor in {} not proven nonzero", divisor.render());
                site.emit(self, *at, hop, out);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::source::SourceFile;

    fn findings(rule: &dyn SemaRule, src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse("crates/core/src/x.rs", src)];
        let cfg = Config { sema_roots: vec!["run_study".into()], ..Default::default() };
        let model = Model::build(&files, &cfg);
        let mut out = Vec::new();
        rule.check(&model, &mut out);
        out
    }

    #[test]
    fn unguarded_unsigned_sub_is_flagged_with_intervals() {
        let out =
            findings(&ArithUncheckedSub, "pub fn run_study(a: u64, b: u64) -> u64 { a - b }\n");
        assert_eq!(out.len(), 1, "{out:?}");
        let last = out[0].path.last().expect("interval hop");
        assert!(last.contains("cannot prove lhs >= rhs"), "{last}");
        assert!(last.contains("u64 [0, 18446744073709551615]"), "{last}");
    }

    #[test]
    fn guard_or_interval_proofs_silence_the_sub() {
        let guarded = "pub fn run_study(a: u64, b: u64) -> u64 {\n\
                           if a >= b { a - b } else { 0 }\n\
                       }\n";
        // The whole `if` is a tail expression — statement-level analysis
        // sees the guarded subtraction only when it is a statement:
        let stmt_guarded = "pub fn run_study(a: u64, b: u64) -> u64 {\n\
                                if a < b { return 0; }\n\
                                let d = a - b;\n\
                                d\n\
                            }\n";
        let clamped = "pub fn run_study(a: u64, b: u64) -> u64 {\n\
                           let lo = b.min(10);\n\
                           let hi = a.max(10);\n\
                           hi - lo\n\
                       }\n";
        assert!(findings(&ArithUncheckedSub, guarded).is_empty());
        assert!(findings(&ArithUncheckedSub, stmt_guarded).is_empty(), "negated guard proves it");
        assert!(findings(&ArithUncheckedSub, clamped).is_empty(), "hi in [10,inf], lo in [0,10]");
    }

    #[test]
    fn bounded_mul_escaping_u64_wants_widening() {
        let out = findings(
            &ArithWideningNeeded,
            "pub fn run_study(a: u64, b: u64) -> u64 {\n\
                 let x = a.min(1_000_000_000_000);\n\
                 let y = b.min(1_000_000_000_000);\n\
                 x * y\n\
             }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].path.last().expect("hop").contains("widen to i128"));
        let safe = findings(
            &ArithWideningNeeded,
            "pub fn run_study(a: u64, b: u64) -> u64 {\n\
                 let x = a.min(1_000_000);\n\
                 let y = b.min(1_000_000);\n\
                 x * y\n\
             }\n",
        );
        assert!(safe.is_empty(), "{safe:?}");
    }

    #[test]
    fn assert_requirements_catch_unproven_arguments() {
        let src = "fn weigh(share: f64) -> f64 {\n\
                       debug_assert!(share.is_finite() && share >= 0.0 && share <= 1.0);\n\
                       share\n\
                   }\n\
                   pub fn run_study(x: f64) -> f64 { weigh(x) }\n";
        let out = findings(&RangeInvariantEscape, src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].path.last().expect("hop").contains("`share`"));
        // `clamp` alone cannot prove finiteness (NaN passes through), so
        // the caller needs the guard too.
        let clamped = "fn weigh(share: f64) -> f64 {\n\
                           debug_assert!(share.is_finite() && share >= 0.0 && share <= 1.0);\n\
                           share\n\
                       }\n\
                       pub fn run_study(x: f64) -> f64 {\n\
                           if !x.is_finite() { return 0.0; }\n\
                           weigh(x.clamp(0.0, 1.0))\n\
                       }\n";
        let out = findings(&RangeInvariantEscape, clamped);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn casts_are_silenced_exactly_when_proven() {
        let unproven = "pub fn run_study(x: f64) -> u64 { x as u64 }\n";
        let out = findings(&CastTruncatingUnproven, unproven);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].path.last().expect("hop").contains("not proven lossless"));
        let proven = "pub fn run_study(x: f64) -> u64 {\n\
                          debug_assert!(x.is_finite() && x >= 0.0);\n\
                          x.max(0.0).floor() as u64\n\
                      }\n";
        assert!(findings(&CastTruncatingUnproven, proven).is_empty());
        let narrowing = "pub fn run_study(n: u64) -> u32 { n as u32 }\n";
        assert_eq!(findings(&CastTruncatingUnproven, narrowing).len(), 1);
        let bounded = "pub fn run_study(n: u64) -> u32 { n.min(65_535) as u32 }\n";
        assert!(findings(&CastTruncatingUnproven, bounded).is_empty());
    }

    #[test]
    fn divisions_need_a_fact_about_their_own_divisor() {
        // `top_k(…, qs.len(), …)` may return fewer entries than asked
        // for: asserting `qs` non-empty says nothing about `entries`.
        let other = "pub fn run_study(qs: &[u32], entries: &[f64]) -> f64 {\n\
                         assert!(!qs.is_empty());\n\
                         entries.iter().sum::<f64>() / entries.len() as f64\n\
                     }\n";
        let out = findings(&FlowUncheckedDiv, other);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].path.last().expect("hop").ends_with("not proven nonzero"));
        let own = other.replace("!qs.is_empty()", "!entries.is_empty()");
        assert!(findings(&FlowUncheckedDiv, &own).is_empty());
    }
}
