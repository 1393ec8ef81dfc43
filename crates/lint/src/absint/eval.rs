//! A tolerant abstract *expression* evaluator over statement-head token
//! ranges. It mirrors Rust's precedence (postfix > unary > `as` >
//! arithmetic > shifts > bitwise > comparisons > lazy boolean > range),
//! maps every construct it understands to an [`AbsVal`] transfer
//! function, and maps everything else to ⊤ after skipping it with
//! balanced-delimiter recovery — an unknown construct can only *lose*
//! precision, never produce an unsound bound.
//!
//! While evaluating, the cursor emits [`Event`]s at the token positions
//! the absint rules care about: unsigned subtractions, typed add/mul
//! results escaping their type, `as` casts with their provenness, and
//! call sites with their abstract argument values, and divisions with
//! their divisor's value. Events are positional facts; whether one
//! becomes a finding is entirely the rules' decision.

use std::collections::BTreeMap;

use crate::lexer::{Tok, Token};
use crate::parser::is_keyword;

use super::domain::{AbsVal, FloatFacts, IntKind, Interval, POS_INF};

/// Variable environment: name → abstract value. Missing names are
/// uninitialized-on-this-path (treated as absent at joins) and evaluate
/// to ⊤.
pub type Env = BTreeMap<String, AbsVal>;

/// Refines an environment by the condition tokens `[lo, hi)` being
/// `true` (`positive`) or `false`.
pub type Refiner<'a> = &'a dyn Fn(&Env, usize, usize, bool) -> Env;

/// A positional fact the evaluator observed. `at` is a token index into
/// the file's token stream; the line is `toks[at].line`.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// `lhs - rhs` where the inferred kind is unsigned: wraps below zero
    /// in release, panics in debug. The names (when the operands were
    /// simple idents or consts) let rules consult must-compared facts.
    UncheckedSub {
        /// Token index of the `-`.
        at: usize,
        /// Abstract left operand.
        lhs: AbsVal,
        /// Abstract right operand.
        rhs: AbsVal,
        /// Simple name of the left operand, when it was one.
        lhs_name: Option<String>,
        /// Simple name of the right operand, when it was one.
        rhs_name: Option<String>,
    },
    /// A typed `+`/`*` whose mathematically-exact result interval
    /// escapes the operand type's range.
    Overflow {
        /// Token index of the operator.
        at: usize,
        /// `'+'` or `'*'`.
        op: char,
        /// The operand machine type.
        kind: IntKind,
        /// Left operand interval.
        lhs: Interval,
        /// Right operand interval.
        rhs: Interval,
        /// The exact (pre-wrap) result interval.
        result: Interval,
    },
    /// An `as` cast to an integer type.
    Cast {
        /// Token index of the `as`.
        at: usize,
        /// Abstract source value.
        from: AbsVal,
        /// Target integer type.
        to: IntKind,
        /// Whether the interval/facts prove the cast lossless.
        proven: bool,
        /// Whether the source was a float (float→int casts are in scope
        /// everywhere, integer narrowing only inside the cones).
        from_float: bool,
    },
    /// A `/` or `/=` with the divisor's abstract value (before ⊤ is
    /// promoted against the dividend's type, so ⊤ means "type unknown").
    Div {
        /// Token index of the operator.
        at: usize,
        /// Abstract divisor.
        divisor: AbsVal,
    },
    /// A call site with evaluated argument values. `at` is the callee
    /// name token, which keys into the model's resolved call-site map.
    Call {
        /// Token index of the callee name.
        at: usize,
        /// Abstract argument values in order.
        args: Vec<AbsVal>,
    },
}

impl Event {
    /// The token index the event anchors to.
    pub fn at(&self) -> usize {
        match self {
            Event::UncheckedSub { at, .. }
            | Event::Overflow { at, .. }
            | Event::Cast { at, .. }
            | Event::Div { at, .. }
            | Event::Call { at, .. } => *at,
        }
    }
}

/// An evaluated expression: its value plus, when the expression was a
/// single identifier (possibly parenthesized), that name — used to tie
/// subtraction operands back to must-compared guard facts.
#[derive(Debug, Clone)]
pub struct Evaled {
    /// The abstract value.
    pub val: AbsVal,
    /// Simple source name, when the expression was one identifier.
    pub name: Option<String>,
}

impl Evaled {
    fn anon(val: AbsVal) -> Evaled {
        Evaled { val, name: None }
    }
}

/// Parses an integer literal's text (`42`, `0xff`, `1_000u64`) into its
/// value and suffix kind. Values past `i128::MAX` saturate to the +∞
/// sentinel (only reachable via u128 literals).
pub fn parse_int_literal(text: &str) -> Option<(i128, Option<IntKind>)> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    // Split a trailing type suffix: the earliest `u`/`i` followed only by
    // digits/`size` to the end. Hex digits collide with nothing: suffixes
    // never start mid-number because we scan from the first non-digit of
    // the radix.
    let (radix, digits) = match clean.as_bytes() {
        [b'0', b'x', ..] => (16, &clean[2..]),
        [b'0', b'o', ..] => (8, &clean[2..]),
        [b'0', b'b', ..] => (2, &clean[2..]),
        _ => (10, clean.as_str()),
    };
    let is_digit = |c: char| c.is_digit(radix);
    let split = digits.find(|c: char| !is_digit(c)).unwrap_or(digits.len());
    let (num, suffix) = digits.split_at(split);
    let kind = IntKind::from_name(suffix);
    if !suffix.is_empty() && kind.is_none() {
        return None; // malformed suffix; not a literal we understand
    }
    let value = match u128::from_str_radix(num, radix) {
        Ok(v) => i128::try_from(v).unwrap_or(i128::MAX),
        Err(_) => return None,
    };
    Some((value, kind))
}

/// Parses a float literal's text (`1.0`, `1.`, `2e-3`, `1_000f64`).
pub fn parse_float_literal(text: &str) -> Option<f64> {
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    let clean = clean.strip_suffix("f64").or_else(|| clean.strip_suffix("f32")).unwrap_or(&clean);
    clean.parse::<f64>().ok()
}

/// Infix binding powers (higher binds tighter). `as` casts sit above all
/// of these and are handled in the postfix/cast layer.
fn precedence(tok: &Tok) -> Option<u8> {
    Some(match tok {
        Tok::Punct('*') | Tok::Punct('/') | Tok::Punct('%') => 10,
        Tok::Punct('+') | Tok::Punct('-') => 9,
        Tok::Op("<<") | Tok::Op(">>") => 8,
        Tok::Punct('&') => 7,
        Tok::Punct('^') => 6,
        Tok::Punct('|') => 5,
        Tok::Op("==") | Tok::Op("!=") | Tok::Op("<=") | Tok::Op(">=") => 4,
        Tok::Punct('<') | Tok::Punct('>') => 4,
        Tok::Op("&&") => 3,
        Tok::Op("||") => 2,
        Tok::Op("..") | Tok::Op("..=") => 1,
        _ => return None,
    })
}

/// The abstract evaluator. One instance is scoped to a single function
/// body; `skip` holds child-closure token ranges (closures are separate
/// call-graph nodes with their own analysis — evaluating them inline
/// would double-report their events).
pub struct Evaluator<'a> {
    toks: &'a [Token],
    consts: &'a BTreeMap<String, AbsVal>,
    skip: &'a [(usize, usize)],
    /// Resolves a call at name-token `at` with evaluated args.
    oracle: &'a mut dyn FnMut(usize, &str, &[AbsVal]) -> AbsVal,
    /// Refines an environment by the condition tokens `[lo, hi)` being
    /// true or false (for `if` expressions); without one they are ⊤.
    refine: Option<Refiner<'a>>,
    /// Events observed since construction, in evaluation order.
    pub events: Vec<Event>,
    pos: usize,
    end: usize,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over `toks` with const values and an oracle
    /// for workspace calls.
    pub fn new(
        toks: &'a [Token],
        consts: &'a BTreeMap<String, AbsVal>,
        skip: &'a [(usize, usize)],
        oracle: &'a mut dyn FnMut(usize, &str, &[AbsVal]) -> AbsVal,
    ) -> Evaluator<'a> {
        Evaluator { toks, consts, skip, oracle, refine: None, events: Vec::new(), pos: 0, end: 0 }
    }

    /// Enables branch refinement inside `if` expressions.
    pub fn with_refiner(mut self, refine: Refiner<'a>) -> Evaluator<'a> {
        self.refine = Some(refine);
        self
    }

    /// Evaluates the token range `[lo, hi)` as one expression under
    /// `env`. Unparseable leftovers are ignored (the range then
    /// contributes ⊤).
    pub fn eval(&mut self, env: &Env, lo: usize, hi: usize) -> Evaled {
        self.pos = lo;
        self.end = hi.min(self.toks.len());
        if self.pos >= self.end {
            return Evaled::anon(AbsVal::Top);
        }
        self.expr(env, 0)
    }

    fn tok(&self, at: usize) -> Option<&'a Tok> {
        if at < self.end {
            self.toks.get(at).map(|t| &t.tok)
        } else {
            None
        }
    }

    fn peek(&self) -> Option<&'a Tok> {
        self.tok(self.pos)
    }

    /// Jumps over any child-closure range containing the cursor.
    fn skip_closure_range(&mut self) -> bool {
        if let Some(&(_, hi)) = self.skip.iter().find(|&&(lo, hi)| lo <= self.pos && self.pos < hi)
        {
            self.pos = hi.min(self.end);
            return true;
        }
        false
    }

    /// Skips one balanced `(…)` / `[…]` / `{…}` group with the opener at
    /// the cursor.
    fn skip_group(&mut self) {
        let mut depth = 0usize;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct('(' | '[' | '{') => depth += 1,
                Tok::Punct(')' | ']' | '}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        self.pos += 1;
                        return;
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Skips a `<…>` generic-argument group with the `<` at the cursor.
    fn skip_angles(&mut self) {
        let mut depth = 0isize;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') => depth -= 1,
                Tok::Op("<<") => depth += 2,
                Tok::Op(">>") => depth -= 2,
                _ => {}
            }
            self.pos += 1;
            if depth <= 0 {
                return;
            }
        }
    }

    /// Precedence-climbing expression parse.
    fn expr(&mut self, env: &Env, min_prec: u8) -> Evaled {
        let start = self.pos;
        let mut lhs = self.cast_level(env);
        while let Some(tok) = self.peek() {
            let Some(prec) = precedence(tok) else { break };
            if prec < min_prec {
                break;
            }
            let op_at = self.pos;
            self.pos += 1;
            // Short-circuit: the right side of `a && b` runs only when
            // `a` holds, that of `a || b` only when it does not.
            let lazy = match tok {
                Tok::Op("&&") => Some(true),
                Tok::Op("||") => Some(false),
                _ => None,
            };
            // Range ends are optional (`..`, `a..`, `..b`): an absent or
            // unparseable right side is fine, ranges are ⊤ anyway.
            let rhs = match (lazy, self.refine) {
                (Some(holds), Some(refine)) => {
                    self.expr(&refine(env, start, op_at, holds), prec + 1)
                }
                _ => self.expr(env, prec + 1),
            };
            lhs = self.apply_bin(op_at, lhs, rhs);
        }
        lhs
    }

    /// The `as`-cast level: a unary operand followed by zero or more
    /// `as Type` casts.
    fn cast_level(&mut self, env: &Env) -> Evaled {
        let mut out = self.unary(env);
        while matches!(self.peek(), Some(t) if t.is_ident("as")) {
            let as_at = self.pos;
            self.pos += 1;
            out = self.apply_cast(as_at, out);
        }
        out
    }

    /// Consumes the type tokens after `as` and applies the cast transfer.
    fn apply_cast(&mut self, as_at: usize, operand: Evaled) -> Evaled {
        // Type grammar (tolerant): pointer/ref sigils, then a path whose
        // last ident names the type; generics skipped.
        let mut last_ident: Option<&str> = None;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct('*' | '&') => self.pos += 1,
                Tok::Ident(s) if matches!(s.as_str(), "const" | "mut" | "dyn") => self.pos += 1,
                Tok::Ident(s) => {
                    last_ident = Some(s.as_str());
                    self.pos += 1;
                    if matches!(self.peek(), Some(t) if t.is_op("::")) {
                        self.pos += 1;
                        continue;
                    }
                    if matches!(self.peek(), Some(t) if t.is_punct('<')) {
                        self.skip_angles();
                    }
                    break;
                }
                _ => break,
            }
        }
        let Some(type_name) = last_ident else { return Evaled::anon(AbsVal::Top) };
        if let Some(kind) = IntKind::from_name(type_name) {
            return Evaled::anon(self.cast_to_int(as_at, &operand.val, kind));
        }
        if matches!(type_name, "f64" | "f32") {
            return Evaled::anon(match operand.val {
                AbsVal::Int { iv, .. } => int_as_float(iv),
                AbsVal::Float(facts) => AbsVal::Float(facts),
                _ => AbsVal::float_top(),
            });
        }
        Evaled::anon(AbsVal::Top)
    }

    /// Int-target cast transfer + event.
    fn cast_to_int(&mut self, as_at: usize, from: &AbsVal, to: IntKind) -> AbsVal {
        let range = to.range();
        match from {
            AbsVal::Int { iv, .. } => {
                let proven = iv.within(&range);
                self.events.push(Event::Cast {
                    at: as_at,
                    from: *from,
                    to,
                    proven,
                    from_float: false,
                });
                let iv = if proven { *iv } else { range };
                AbsVal::Int { iv, kind: Some(to) }
            }
            AbsVal::Float(facts) => {
                // `as` float→int truncates toward zero and saturates, so
                // losslessness needs an integer-valued finite source and,
                // for unsigned targets, non-negativity.
                let proven =
                    facts.finite && facts.int_valued && (!to.is_unsigned() || facts.non_negative);
                self.events.push(Event::Cast {
                    at: as_at,
                    from: *from,
                    to,
                    proven,
                    from_float: true,
                });
                let lo = if facts.non_negative { 0.max(range.lo) } else { range.lo };
                let hi =
                    if facts.le_one && facts.non_negative { 1.min(range.hi) } else { range.hi };
                AbsVal::Int { iv: Interval::new(lo, hi), kind: Some(to) }
            }
            // Bool/char/enum casts are always in range; unknown sources
            // stay unknown-but-typed without an event (we cannot tell a
            // numeric narrowing from a `b as usize`).
            _ => AbsVal::int_of_kind(to),
        }
    }

    /// Prefix operators, then a postfix chain.
    fn unary(&mut self, env: &Env) -> Evaled {
        match self.peek() {
            Some(Tok::Punct('-')) => {
                self.pos += 1;
                let operand = self.unary(env);
                Evaled::anon(match operand.val {
                    AbsVal::Int { iv, kind } => {
                        let raw = iv.neg();
                        let fence = kind.map(IntKind::range).unwrap_or(Interval::TOP);
                        AbsVal::Int { iv: raw.meet(&fence).unwrap_or(fence), kind }
                    }
                    AbsVal::Float(f) => AbsVal::Float(FloatFacts {
                        finite: f.finite,
                        non_negative: false,
                        le_one: f.non_negative,
                        non_zero: f.non_zero,
                        int_valued: f.int_valued,
                    }),
                    _ => AbsVal::Top,
                })
            }
            Some(Tok::Punct('!')) => {
                self.pos += 1;
                let operand = self.unary(env);
                Evaled::anon(match operand.val {
                    AbsVal::Bool => AbsVal::Bool,
                    AbsVal::Int { kind, .. } => {
                        AbsVal::Int { iv: kind.map_or(Interval::TOP, IntKind::range), kind }
                    }
                    _ => AbsVal::Top,
                })
            }
            // References and derefs are value-transparent here.
            Some(Tok::Punct('*' | '&')) | Some(Tok::Op("&&")) => {
                self.pos += 1;
                if matches!(self.peek(), Some(t) if t.is_ident("mut")) {
                    self.pos += 1;
                }
                self.unary(env)
            }
            _ => self.postfix(env),
        }
    }

    /// A primary followed by method calls, fields, indexing, `?`, and
    /// struct-literal tails.
    fn postfix(&mut self, env: &Env) -> Evaled {
        let mut out = self.primary(env);
        loop {
            match self.peek() {
                Some(Tok::Punct('.')) => {
                    self.pos += 1;
                    // A method turbofish (`.sum::<f64>()`) sits between the
                    // name and its arguments.
                    let turbofish = matches!(self.tok(self.pos + 1), Some(t) if t.is_op("::"))
                        && matches!(self.tok(self.pos + 2), Some(t) if t.is_punct('<'));
                    match self.peek() {
                        Some(Tok::Ident(name))
                            if turbofish
                                || matches!(self.tok(self.pos + 1), Some(t) if t.is_punct('(')) =>
                        {
                            let name = name.clone();
                            let name_at = self.pos;
                            self.pos += 1;
                            if turbofish {
                                self.pos += 1;
                                self.skip_angles();
                            }
                            let args = self.parse_args(env);
                            self.events.push(Event::Call { at: name_at, args: args.clone() });
                            // A tested local's length: `xs.is_empty()` false.
                            let len_fact = match (&out.name, name.as_str()) {
                                (Some(recv), "len") => env.get(&super::len_key(recv)).copied(),
                                _ => None,
                            };
                            let val = len_fact
                                .or_else(|| self.builtin_method(&name, &out.val, &args))
                                .unwrap_or_else(|| (self.oracle)(name_at, &name, &args));
                            out = Evaled::anon(val);
                        }
                        Some(Tok::Ident(_)) | Some(Tok::Int(_)) | Some(Tok::Float(_)) => {
                            // Field access / tuple index / `x.0.1` / `.await`.
                            self.pos += 1;
                            out = Evaled::anon(AbsVal::Top);
                        }
                        _ => return out,
                    }
                }
                Some(Tok::Punct('[')) => {
                    // Evaluate the index expression for its events (an
                    // `xs[i - 1]` underflow is still an underflow), then
                    // resync at the matching bracket.
                    let open = self.pos;
                    self.pos += 1;
                    self.expr(env, 0);
                    self.pos = open;
                    self.skip_group();
                    out = Evaled::anon(AbsVal::Top);
                }
                Some(Tok::Punct('?')) => {
                    self.pos += 1;
                    out = Evaled::anon(AbsVal::Top);
                }
                Some(Tok::Punct('{')) => {
                    // `Name { … }` struct literal after an uppercase path;
                    // any other `{` belongs to an enclosing construct.
                    let looks_like_struct = out
                        .name
                        .as_deref()
                        .is_some_and(|n| n.chars().next().is_some_and(char::is_uppercase));
                    if !looks_like_struct {
                        return out;
                    }
                    self.parse_list(env, true);
                    out = Evaled::anon(AbsVal::Top);
                }
                Some(Tok::Punct('(')) => {
                    // Calling a non-path value (closure variable, fn
                    // pointer): evaluate args for events, result unknown.
                    let args = self.parse_args(env);
                    let _ = args;
                    out = Evaled::anon(AbsVal::Top);
                }
                _ => return out,
            }
        }
    }

    /// Argument list with the cursor at `(`.
    fn parse_args(&mut self, env: &Env) -> Vec<AbsVal> {
        if !matches!(self.peek(), Some(t) if t.is_punct('(')) {
            return Vec::new();
        }
        self.parse_list(env, false)
    }

    /// A delimited, comma-separated list with the cursor at its opener:
    /// call arguments, tuple and array elements, macro arguments, struct
    /// literal fields (`labels` skips each `name:`). Tolerant: each
    /// element is evaluated, then the cursor resyncs to the next
    /// top-level `,` or the closer.
    fn parse_list(&mut self, env: &Env, labels: bool) -> Vec<AbsVal> {
        let mut args = Vec::new();
        self.pos += 1;
        loop {
            if self.skip_closure_range() {
                args.push(AbsVal::Top);
                // The closure may be trailed by `)` or `,`; fall through
                // to the resync below.
            } else {
                match self.peek() {
                    None => return args,
                    Some(Tok::Punct(')' | ']' | '}')) => {
                        self.pos += 1;
                        return args;
                    }
                    _ => {
                        let labeled = matches!(self.peek(), Some(Tok::Ident(_)))
                            && matches!(self.tok(self.pos + 1), Some(t) if t.is_punct(':'));
                        if labels && labeled {
                            self.pos += 2;
                        } else if labels && matches!(self.peek(), Some(t) if t.is_op("..")) {
                            self.pos += 1; // `..base`
                        }
                        args.push(self.expr(env, 0).val);
                    }
                }
            }
            // Resync: skip whatever the expression parse did not consume.
            let mut depth = 0usize;
            loop {
                if self.skip_closure_range() {
                    continue;
                }
                match self.peek() {
                    None => return args,
                    Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                    Some(Tok::Punct(')' | ']' | '}')) => {
                        if depth == 0 {
                            self.pos += 1;
                            return args;
                        }
                        depth -= 1;
                    }
                    Some(Tok::Punct(',')) if depth == 0 => {
                        self.pos += 1;
                        break;
                    }
                    Some(_) => {}
                }
                self.pos += 1;
            }
        }
    }

    /// Atoms: literals, paths, calls, parens, opaque constructs.
    fn primary(&mut self, env: &Env) -> Evaled {
        if self.skip_closure_range() {
            return Evaled::anon(AbsVal::Top);
        }
        let Some(tok) = self.peek() else { return Evaled::anon(AbsVal::Top) };
        match tok {
            Tok::Int(text) => {
                let text = text.clone();
                self.pos += 1;
                match parse_int_literal(&text) {
                    Some((v, kind)) => Evaled::anon(AbsVal::Int { iv: Interval::exact(v), kind }),
                    None => Evaled::anon(AbsVal::int_top()),
                }
            }
            Tok::Float(text) => {
                let text = text.clone();
                self.pos += 1;
                match parse_float_literal(&text) {
                    Some(v) => Evaled::anon(AbsVal::Float(FloatFacts::of_value(v))),
                    None => Evaled::anon(AbsVal::float_top()),
                }
            }
            Tok::Str(_) | Tok::Char | Tok::Lifetime(_) => {
                self.pos += 1;
                Evaled::anon(AbsVal::Top)
            }
            Tok::Punct('(') => {
                let (open, seen) = (self.pos, self.events.len());
                self.pos += 1;
                let inner = self.expr(env, 0);
                if matches!(self.peek(), Some(Tok::Punct(')'))) {
                    self.pos += 1;
                    return inner; // parens preserve the value *and* the name
                }
                // A tuple (or an unparsed remainder): evaluate every
                // element for its events.
                self.events.truncate(seen);
                self.pos = open;
                self.parse_list(env, false);
                Evaled::anon(AbsVal::Top)
            }
            Tok::Punct('[') => {
                self.parse_list(env, false);
                Evaled::anon(AbsVal::Top)
            }
            Tok::Punct('|') | Tok::Op("||") => {
                // A closure not registered as a child range (macro-body
                // closures): skip its parameter list, give up on the rest.
                self.pos += 1;
                while let Some(tok) = self.peek() {
                    let done = tok.is_punct('|');
                    self.pos += 1;
                    if done {
                        break;
                    }
                }
                Evaled::anon(AbsVal::Top)
            }
            Tok::Ident(name) => {
                let name = name.clone();
                match name.as_str() {
                    "true" | "false" => {
                        self.pos += 1;
                        Evaled::anon(AbsVal::Bool)
                    }
                    "if" if !matches!(self.tok(self.pos + 1), Some(t) if t.is_ident("let")) => {
                        self.if_expr(env)
                    }
                    "if" | "match" | "loop" | "while" | "unsafe" | "for" => {
                        self.opaque_construct();
                        Evaled::anon(AbsVal::Top)
                    }
                    "move" => {
                        self.pos += 1;
                        self.primary(env)
                    }
                    "return" | "break" | "continue" => {
                        self.pos += 1;
                        Evaled::anon(AbsVal::Top)
                    }
                    _ if is_keyword(&name) && name != "self" && name != "Self" => {
                        self.pos += 1;
                        Evaled::anon(AbsVal::Top)
                    }
                    _ => self.path_or_call(env),
                }
            }
            _ => {
                self.pos += 1;
                Evaled::anon(AbsVal::Top)
            }
        }
    }

    /// An `if cond { a } else { b }` expression (not `if let`): each
    /// branch is evaluated under the condition's refinement of `env`, and
    /// the value is their join. A branch block holding statements, or a
    /// missing `else`, makes the value ⊤; statement blocks stay opaque
    /// (their statements are analyzed when they appear in statement
    /// position).
    fn if_expr(&mut self, env: &Env) -> Evaled {
        let start = self.pos;
        self.pos += 1; // `if`
        let cond = self.pos;
        let mut depth = 0usize;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct('(' | '[') => depth += 1,
                Tok::Punct(')' | ']') => match depth.checked_sub(1) {
                    Some(d) => depth = d,
                    None => break, // an enclosing closer: malformed
                },
                Tok::Punct('{' | ';') if depth == 0 => break,
                _ => {}
            }
            self.pos += 1;
        }
        let (Some(refine), Some(Tok::Punct('{'))) = (self.refine, self.peek()) else {
            self.pos = start;
            self.opaque_construct();
            return Evaled::anon(AbsVal::Top);
        };
        let head_end = self.pos;
        self.sub_eval(env, cond, head_end);
        let then_val = self.branch(&refine(env, cond, head_end, true));
        if !matches!(self.peek(), Some(t) if t.is_ident("else")) {
            return Evaled::anon(AbsVal::Top);
        }
        self.pos += 1;
        let else_env = refine(env, cond, head_end, false);
        let else_val = if matches!(self.peek(), Some(t) if t.is_ident("if")) {
            self.primary(&else_env).val
        } else {
            self.branch(&else_env)
        };
        Evaled::anon(then_val.join(&else_val))
    }

    /// A `{ … }` branch block at the cursor: its value when it is a
    /// single expression, ⊤ (and skipped) otherwise.
    fn branch(&mut self, env: &Env) -> AbsVal {
        let open = self.pos;
        self.skip_group();
        let close = self.pos - 1;
        let single = self.toks[close].tok.is_punct('}')
            && open + 1 < close
            && !(open + 1..close).any(|i| {
                matches!(self.toks[i].tok, Tok::Punct(';'))
                    && self.skip.iter().all(|&(lo, hi)| i < lo || i >= hi)
            });
        if !single {
            return AbsVal::Top;
        }
        let val = self.sub_eval(env, open + 1, close).val;
        self.pos = close + 1;
        val
    }

    /// Evaluates `[lo, hi)` as one expression, restoring the cursor.
    fn sub_eval(&mut self, env: &Env, lo: usize, hi: usize) -> Evaled {
        let (pos, end) = (self.pos, self.end);
        self.pos = lo;
        self.end = hi.min(end);
        let out = self.expr(env, 0);
        self.pos = pos;
        self.end = end;
        out
    }

    /// Skips an `if`/`match`/`loop`/`while`/`for`/`unsafe` *expression*:
    /// consumes up to and including its brace block(s), `else` chains
    /// included. Values from such constructs are ⊤ (their inner
    /// statements are analyzed when they appear in statement position —
    /// the flow parser splits them there; here they are mid-expression).
    fn opaque_construct(&mut self) {
        self.pos += 1; // the keyword
        loop {
            // Head tokens to the opening brace.
            let mut depth = 0usize;
            while let Some(tok) = self.peek() {
                match tok {
                    Tok::Punct('(' | '[') => depth += 1,
                    Tok::Punct(')' | ']') => {
                        if depth == 0 {
                            return; // enclosing closer: malformed, bail
                        }
                        depth -= 1;
                    }
                    Tok::Punct('{') if depth == 0 => break,
                    Tok::Punct(';') if depth == 0 => return,
                    _ => {}
                }
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(t) if t.is_punct('{')) {
                return;
            }
            self.skip_group();
            if matches!(self.peek(), Some(t) if t.is_ident("else")) {
                self.pos += 1;
                if matches!(self.peek(), Some(t) if t.is_ident("if")) {
                    self.pos += 1;
                    continue;
                }
                if matches!(self.peek(), Some(t) if t.is_punct('{')) {
                    self.skip_group();
                }
            }
            return;
        }
    }

    /// Path expressions: `ident`, `a::b::c`, `Type::CONST`, and calls.
    fn path_or_call(&mut self, env: &Env) -> Evaled {
        let mut segments: Vec<String> = Vec::new();
        let mut last_at = self.pos;
        while let Some(Tok::Ident(seg)) = self.peek() {
            segments.push(seg.clone());
            last_at = self.pos;
            self.pos += 1;
            match self.peek() {
                Some(t) if t.is_op("::") => {
                    self.pos += 1;
                    if matches!(self.peek(), Some(t) if t.is_punct('<')) {
                        self.skip_angles(); // turbofish
                        if matches!(self.peek(), Some(t) if t.is_op("::")) {
                            self.pos += 1;
                        }
                    }
                }
                _ => break,
            }
        }
        let Some(name) = segments.last().cloned() else { return Evaled::anon(AbsVal::Top) };

        // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`. The
        // arguments are evaluated for their events, the value is ⊤.
        if matches!(self.peek(), Some(t) if t.is_punct('!')) {
            self.pos += 1;
            if matches!(self.peek(), Some(t) if t.is_punct('(') || t.is_punct('[') || t.is_punct('{'))
            {
                self.parse_list(env, false);
            }
            return Evaled::anon(AbsVal::Top);
        }

        // Call: arguments, then conversion builtins or the oracle.
        if matches!(self.peek(), Some(t) if t.is_punct('(')) {
            let args = self.parse_args(env);
            self.events.push(Event::Call { at: last_at, args: args.clone() });
            if segments.len() == 2 && name == "from" {
                if let Some(kind) = IntKind::from_name(&segments[0]) {
                    // `u64::from(x)`: a `From` int conversion only widens.
                    let val = match args.first() {
                        Some(AbsVal::Int { iv, .. }) => AbsVal::Int {
                            iv: iv.meet(&kind.range()).unwrap_or(kind.range()),
                            kind: Some(kind),
                        },
                        _ => AbsVal::int_of_kind(kind),
                    };
                    return Evaled::anon(val);
                }
                if matches!(segments[0].as_str(), "f64" | "f32") {
                    let val = match args.first() {
                        Some(AbsVal::Int { iv, .. }) => int_as_float(*iv),
                        Some(AbsVal::Float(f)) => AbsVal::Float(*f),
                        _ => AbsVal::float_top(),
                    };
                    return Evaled::anon(val);
                }
            }
            let val = (self.oracle)(last_at, &name, &args);
            return Evaled::anon(val);
        }

        // Plain path value.
        if segments.len() == 1 {
            let val =
                env.get(&name).or_else(|| self.consts.get(&name)).copied().unwrap_or(AbsVal::Top);
            return Evaled { val, name: Some(name) };
        }
        let n_segs = segments.len();
        if n_segs >= 2 {
            let type_seg = &segments[n_segs - 2];
            if let Some(kind) = IntKind::from_name(type_seg) {
                let range = kind.range();
                match name.as_str() {
                    "MAX" => {
                        return Evaled {
                            val: AbsVal::Int { iv: Interval::exact(range.hi), kind: Some(kind) },
                            name: Some(name),
                        };
                    }
                    "MIN" => {
                        return Evaled {
                            val: AbsVal::Int { iv: Interval::exact(range.lo), kind: Some(kind) },
                            name: Some(name),
                        };
                    }
                    _ => {}
                }
            }
            if matches!(type_seg.as_str(), "f64" | "f32") {
                let value = match name.as_str() {
                    "INFINITY" => Some(f64::INFINITY),
                    "NEG_INFINITY" => Some(f64::NEG_INFINITY),
                    "NAN" => Some(f64::NAN),
                    "MAX" => Some(f64::MAX),
                    "MIN" => Some(f64::MIN),
                    "MIN_POSITIVE" => Some(f64::MIN_POSITIVE),
                    "EPSILON" => Some(f64::EPSILON),
                    _ => None,
                };
                if let Some(v) = value {
                    return Evaled {
                        val: AbsVal::Float(FloatFacts::of_value(v)),
                        name: Some(name),
                    };
                }
            }
        }
        // Qualified const (`config::LIMIT`): the const map is keyed by
        // simple name (collisions join), so the last segment suffices.
        let val = self.consts.get(&name).copied().unwrap_or(AbsVal::Top);
        Evaled { val, name: Some(name) }
    }

    /// Standard-library method transfer functions. `None` falls through
    /// to the oracle (workspace method summaries).
    fn builtin_method(&mut self, name: &str, recv: &AbsVal, args: &[AbsVal]) -> Option<AbsVal> {
        let arg = |i: usize| args.get(i).copied().unwrap_or(AbsVal::Top);
        Some(match (name, recv) {
            ("max", AbsVal::Int { iv, kind }) => match arg(0) {
                AbsVal::Int { iv: b, .. } => AbsVal::Int { iv: iv.int_max(&b), kind: *kind },
                _ => AbsVal::Int {
                    iv: Interval::new(iv.lo, kind.map_or(Interval::TOP, IntKind::range).hi),
                    kind: *kind,
                },
            },
            ("min", AbsVal::Int { iv, kind }) => match arg(0) {
                AbsVal::Int { iv: b, .. } => AbsVal::Int { iv: iv.int_min(&b), kind: *kind },
                _ => AbsVal::Int {
                    iv: Interval::new(kind.map_or(Interval::TOP, IntKind::range).lo, iv.hi),
                    kind: *kind,
                },
            },
            ("max", AbsVal::Float(f)) => {
                let b = match arg(0) {
                    AbsVal::Float(b) => b,
                    _ => FloatFacts::TOP,
                };
                // f64::max ignores a NaN operand, so the other side's
                // lower-bound facts win; upper-bound facts need both. A
                // proven-positive side keeps the result positive.
                let positive = |x: FloatFacts| x.finite && x.non_negative && x.non_zero;
                AbsVal::Float(FloatFacts {
                    finite: f.finite && b.finite,
                    non_negative: f.non_negative || b.non_negative,
                    le_one: f.le_one && b.le_one,
                    non_zero: (f.non_zero && b.non_zero) || positive(*f) || positive(b),
                    int_valued: f.int_valued && b.int_valued,
                })
            }
            // An untyped receiver (a field, an indexed element) cannot
            // fall below its `max` floor either.
            ("max", AbsVal::Top) => match arg(0) {
                AbsVal::Int { iv, kind } => {
                    let hi = kind.map_or(POS_INF, |k| k.range().hi);
                    AbsVal::Int { iv: Interval::new(iv.lo.min(hi), hi), kind }
                }
                AbsVal::Float(_) => return self.builtin_method(name, &AbsVal::float_top(), args),
                _ => return None,
            },
            ("min", AbsVal::Float(f)) => {
                let b = match arg(0) {
                    AbsVal::Float(b) => b,
                    _ => FloatFacts::TOP,
                };
                AbsVal::Float(FloatFacts {
                    finite: f.finite && b.finite,
                    non_negative: f.non_negative && b.non_negative,
                    le_one: f.le_one || b.le_one,
                    non_zero: f.non_zero && b.non_zero,
                    int_valued: f.int_valued && b.int_valued,
                })
            }
            ("clamp", AbsVal::Int { kind, .. }) => {
                let (lo, hi) = match (arg(0), arg(1)) {
                    (AbsVal::Int { iv: a, .. }, AbsVal::Int { iv: b, .. }) => (a.lo, b.hi),
                    _ => {
                        return Some(AbsVal::Int {
                            iv: kind.map_or(Interval::TOP, IntKind::range),
                            kind: *kind,
                        })
                    }
                };
                if lo <= hi {
                    AbsVal::Int { iv: Interval::new(lo, hi), kind: *kind }
                } else {
                    AbsVal::Int { iv: kind.map_or(Interval::TOP, IntKind::range), kind: *kind }
                }
            }
            ("clamp", AbsVal::Float(f)) => {
                // NaN passes through f64::clamp, so `finite` survives only
                // from the receiver; the bound facts come from the bounds.
                let (lo, hi) = match (arg(0), arg(1)) {
                    (AbsVal::Float(a), AbsVal::Float(b)) => (a, b),
                    _ => return Some(AbsVal::float_top()),
                };
                AbsVal::Float(FloatFacts {
                    finite: f.finite && lo.finite && hi.finite,
                    non_negative: lo.non_negative,
                    le_one: hi.le_one,
                    non_zero: f.non_zero && lo.non_negative && lo.non_zero,
                    int_valued: false,
                })
            }
            ("abs", AbsVal::Int { iv, kind }) => AbsVal::Int { iv: iv.abs(), kind: *kind },
            ("abs", AbsVal::Float(f)) => AbsVal::Float(FloatFacts {
                finite: f.finite,
                non_negative: true,
                le_one: f.le_one && f.non_negative,
                non_zero: f.non_zero,
                int_valued: f.int_valued,
            }),
            ("floor" | "ceil" | "round" | "trunc", AbsVal::Float(f)) => AbsVal::Float(FloatFacts {
                finite: f.finite,
                non_negative: f.non_negative,
                le_one: f.le_one,
                non_zero: false,
                int_valued: true,
            }),
            // Only floats round: an untyped receiver (a closure parameter)
            // still yields an integer-valued float.
            ("floor" | "ceil" | "round" | "trunc", AbsVal::Top) => {
                AbsVal::Float(FloatFacts { int_valued: true, ..FloatFacts::TOP })
            }
            ("sqrt", AbsVal::Float(f)) => AbsVal::Float(FloatFacts {
                finite: f.finite && f.non_negative,
                non_negative: true,
                le_one: f.le_one && f.non_negative,
                non_zero: false,
                int_valued: false,
            }),
            ("exp", AbsVal::Float(f)) => AbsVal::Float(FloatFacts {
                finite: false,
                non_negative: true,
                le_one: false,
                non_zero: f.finite,
                int_valued: false,
            }),
            // Slice/collection lengths are bounded by isize::MAX.
            ("len" | "count", _) => super::len_range(),
            ("signum", AbsVal::Int { kind, .. }) => {
                AbsVal::Int { iv: Interval::new(-1, 1), kind: *kind }
            }
            ("saturating_sub", AbsVal::Int { iv, kind }) => {
                self.saturating(iv.sub(&arg(0).interval().unwrap_or(Interval::TOP)), *kind)
            }
            ("saturating_add", AbsVal::Int { iv, kind }) => {
                self.saturating(iv.add(&arg(0).interval().unwrap_or(Interval::TOP)), *kind)
            }
            ("saturating_mul", AbsVal::Int { iv, kind }) => {
                self.saturating(iv.mul(&arg(0).interval().unwrap_or(Interval::TOP)), *kind)
            }
            (
                "wrapping_add" | "wrapping_sub" | "wrapping_mul" | "pow",
                AbsVal::Int { kind, .. },
            ) => AbsVal::Int { iv: kind.map_or(Interval::TOP, IntKind::range), kind: *kind },
            ("div_ceil", AbsVal::Int { iv, kind }) => {
                let raw =
                    iv.div(&arg(0).interval().unwrap_or(Interval::TOP)).add(&Interval::new(0, 1));
                self.saturating(raw, *kind)
            }
            ("rem_euclid", AbsVal::Int { iv, kind }) => {
                let d = arg(0).interval().unwrap_or(Interval::TOP);
                if d.lo > 0 && d.is_bounded() {
                    AbsVal::Int { iv: Interval::new(0, d.hi - 1), kind: *kind }
                } else {
                    let _ = iv;
                    AbsVal::Int { iv: kind.map_or(Interval::TOP, IntKind::range), kind: *kind }
                }
            }
            ("clone" | "to_owned" | "copied" | "cloned", _) => *recv,
            (n, _) if n.starts_with("is_") => AbsVal::Bool,
            ("contains" | "starts_with" | "ends_with" | "eq" | "ne" | "any" | "all", _) => {
                AbsVal::Bool
            }
            _ => return None,
        })
    }

    /// Clamps a raw interval into a kind's range (saturating-op results).
    fn saturating(&self, raw: Interval, kind: Option<IntKind>) -> AbsVal {
        match kind {
            Some(k) => {
                let r = k.range();
                AbsVal::Int {
                    iv: Interval::new(raw.lo.clamp(r.lo, r.hi), raw.hi.clamp(r.lo, r.hi)),
                    kind,
                }
            }
            None => AbsVal::Int { iv: Interval::TOP, kind: None },
        }
    }

    /// Binary operator transfer + events. `op_at` is a binary operator
    /// or a compound assignment (`+=` applies `+`).
    pub(crate) fn apply_bin(&mut self, op_at: usize, lhs: Evaled, rhs: Evaled) -> Evaled {
        let tok = &self.toks[op_at].tok;
        // Comparisons, lazy booleans and ranges.
        let Some(op) = arith_op(tok) else {
            let cmp = matches!(tok, Tok::Op("==" | "!=" | "<=" | ">=" | "&&" | "||"))
                || matches!(tok, Tok::Punct('<' | '>'));
            return Evaled::anon(if cmp { AbsVal::Bool } else { AbsVal::Top });
        };
        if op == '/' {
            self.events.push(Event::Div { at: op_at, divisor: rhs.val });
        }

        // Arithmetic. Promote ⊤ against a typed integer operand: both
        // sides of a Rust arithmetic op share one type, so an unknown
        // operand still has the known side's type (full range).
        let (a, b) = (lhs.val, rhs.val);
        let (a, b) = match (a, b) {
            (AbsVal::Int { iv, kind: Some(k) }, AbsVal::Top) => {
                (AbsVal::Int { iv, kind: Some(k) }, AbsVal::int_of_kind(k))
            }
            (AbsVal::Top, AbsVal::Int { iv, kind: Some(k) }) => {
                (AbsVal::int_of_kind(k), AbsVal::Int { iv, kind: Some(k) })
            }
            (AbsVal::Float(f), AbsVal::Top) => (AbsVal::Float(f), AbsVal::float_top()),
            (AbsVal::Top, AbsVal::Float(f)) => (AbsVal::float_top(), AbsVal::Float(f)),
            other => other,
        };
        match (a, b) {
            (AbsVal::Int { iv: ia, kind: ka }, AbsVal::Int { iv: ib, kind: kb }) => {
                let kind = ka.or(kb);
                Evaled::anon(self.int_bin(op_at, op, kind, ia, ib, &lhs.name, &rhs.name))
            }
            (AbsVal::Float(fa), AbsVal::Float(fb)) => {
                Evaled::anon(AbsVal::Float(float_bin(op, fa, fb)))
            }
            _ => Evaled::anon(AbsVal::Top),
        }
    }

    /// Integer arithmetic transfer with wrap semantics and events.
    #[allow(clippy::too_many_arguments)]
    fn int_bin(
        &mut self,
        op_at: usize,
        op: char,
        kind: Option<IntKind>,
        a: Interval,
        b: Interval,
        a_name: &Option<String>,
        b_name: &Option<String>,
    ) -> AbsVal {
        let raw = match op {
            '+' => a.add(&b),
            '-' => a.sub(&b),
            '*' => a.mul(&b),
            '/' => a.div(&b),
            '%' => a.rem(&b),
            '<' => a.shl(&b),
            '>' => a.shr(&b),
            '&' => a.bitand(&b),
            _ => a.bitor_xor(&b), // `|` and `^`
        };
        let Some(kind) = kind else {
            return AbsVal::Int { iv: raw, kind: None };
        };
        if op == '-' && kind.is_unsigned() {
            self.events.push(Event::UncheckedSub {
                at: op_at,
                lhs: AbsVal::Int { iv: a, kind: Some(kind) },
                rhs: AbsVal::Int { iv: b, kind: Some(kind) },
                lhs_name: a_name.clone(),
                rhs_name: b_name.clone(),
            });
        }
        let fence = kind.range();
        if raw.within(&fence) {
            return AbsVal::Int { iv: raw, kind: Some(kind) };
        }
        if matches!(op, '+' | '*') {
            self.events.push(Event::Overflow { at: op_at, op, kind, lhs: a, rhs: b, result: raw });
        }
        // Wrapping lands the result somewhere in the type's range.
        AbsVal::Int { iv: fence, kind: Some(kind) }
    }
}

/// The arithmetic operator a binary or compound-assignment token applies
/// (`+` for both `+` and `+=`; `<`/`>` stand for the shifts).
fn arith_op(tok: &Tok) -> Option<char> {
    match tok {
        Tok::Punct(c @ ('+' | '-' | '*' | '/' | '%' | '&' | '|' | '^')) => Some(*c),
        Tok::Op("<<" | "<<=") => Some('<'),
        Tok::Op(">>" | ">>=") => Some('>'),
        Tok::Op(o) if o.len() == 2 && o.ends_with('=') => {
            o.chars().next().filter(|c| "+-*/%&|^".contains(*c))
        }
        _ => None,
    }
}

/// The facts an integer keeps as an `f64` (`n as f64`, `f64::from(n)`).
fn int_as_float(iv: Interval) -> AbsVal {
    AbsVal::Float(FloatFacts {
        finite: true,
        non_negative: iv.lo >= 0,
        le_one: iv.hi <= 1,
        non_zero: !iv.contains(0),
        int_valued: true,
    })
}

/// Float arithmetic fact transfer (sound under NaN/±∞ per the fact
/// definitions in [`FloatFacts`]).
fn float_bin(op: char, a: FloatFacts, b: FloatFacts) -> FloatFacts {
    let unit = |f: FloatFacts| f.in_unit_range();
    match op {
        '+' => FloatFacts {
            // Two [0,1] values sum within [0,2]: finite, but not ≤1.
            finite: unit(a) && unit(b),
            non_negative: a.non_negative && b.non_negative,
            le_one: false,
            non_zero: false,
            int_valued: a.int_valued && b.int_valued,
        },
        '-' => FloatFacts {
            finite: unit(a) && unit(b),
            non_negative: false,
            le_one: a.le_one && b.non_negative,
            non_zero: false,
            int_valued: a.int_valued && b.int_valued,
        },
        '*' => FloatFacts {
            // |x·y| ≤ |y| when x ∈ [0,1] (and vice versa).
            finite: (unit(a) && b.finite) || (unit(b) && a.finite),
            non_negative: a.non_negative && b.non_negative,
            le_one: unit(a) && unit(b),
            non_zero: false, // underflow can hit zero
            int_valued: a.int_valued && b.int_valued,
        },
        '/' => FloatFacts {
            finite: false, // divisor may be subnormal → ±∞
            non_negative: a.non_negative && b.non_negative,
            le_one: false,
            non_zero: false,
            int_valued: false,
        },
        '%' => FloatFacts {
            finite: false,
            non_negative: a.non_negative,
            le_one: false,
            non_zero: false,
            int_valued: a.int_valued && b.int_valued,
        },
        _ => FloatFacts::TOP,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn eval_str(src: &str, env: &[(&str, AbsVal)]) -> (AbsVal, Vec<Event>) {
        let lexed = lex(src);
        let consts = BTreeMap::new();
        let mut oracle = |_: usize, _: &str, _: &[AbsVal]| AbsVal::Top;
        let mut ev = Evaluator::new(&lexed.tokens, &consts, &[], &mut oracle);
        let env: Env = env.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
        let out = ev.eval(&env, 0, lexed.tokens.len());
        (out.val, ev.events)
    }

    fn iv(lo: i128, hi: i128) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn literals_and_precedence() {
        let (v, _) = eval_str("1 + 2 * 3", &[]);
        assert_eq!(v, AbsVal::Int { iv: iv(7, 7), kind: None });
        let (v, _) = eval_str("(1 + 2) * 3", &[]);
        assert_eq!(v, AbsVal::Int { iv: iv(9, 9), kind: None });
        let (v, _) = eval_str("1u64 << 32", &[]);
        assert_eq!(v, AbsVal::Int { iv: iv(1 << 32, 1 << 32), kind: Some(IntKind::U64) });
        let (v, _) = eval_str("0xff & 0x0f", &[]);
        assert_eq!(v, AbsVal::Int { iv: iv(0, 15), kind: None });
    }

    #[test]
    fn env_lookup_and_typed_promotion() {
        let x = AbsVal::Int { iv: iv(0, 10), kind: Some(IntKind::U64) };
        let (v, _) = eval_str("x + 1", &[("x", x)]);
        assert_eq!(v, AbsVal::Int { iv: iv(1, 11), kind: Some(IntKind::U64) });
        // Unknown operand against a typed one: full type range, wraps.
        let (v, events) = eval_str("x + y", &[("x", x)]);
        assert_eq!(v, AbsVal::Int { iv: IntKind::U64.range(), kind: Some(IntKind::U64) });
        assert!(
            events.iter().any(|e| matches!(e, Event::Overflow { op: '+', .. })),
            "u64 + unknown u64 may overflow: {events:?}"
        );
    }

    #[test]
    fn unsigned_sub_emits_event_with_names() {
        let x = AbsVal::Int { iv: iv(0, 100), kind: Some(IntKind::U32) };
        let y = AbsVal::Int { iv: iv(0, 50), kind: Some(IntKind::U32) };
        let (_, events) = eval_str("x - y", &[("x", x), ("y", y)]);
        let [Event::UncheckedSub { lhs_name, rhs_name, .. }] = &events[..] else {
            panic!("one sub event, got {events:?}");
        };
        assert_eq!(lhs_name.as_deref(), Some("x"));
        assert_eq!(rhs_name.as_deref(), Some("y"));
        // Provable case still emits (the rule filters on provability).
        let a = AbsVal::Int { iv: iv(50, 100), kind: Some(IntKind::U32) };
        let (v, events) = eval_str("a - b", &[("a", a), ("b", y)]);
        assert!(matches!(&events[..], [Event::UncheckedSub { .. }]));
        assert_eq!(v, AbsVal::Int { iv: iv(0, 100), kind: Some(IntKind::U32) });
    }

    #[test]
    fn casts_prove_with_intervals_and_facts() {
        let small = AbsVal::Int { iv: iv(0, 255), kind: Some(IntKind::U64) };
        let (v, events) = eval_str("x as u8", &[("x", small)]);
        assert!(matches!(&events[..], [Event::Cast { proven: true, from_float: false, .. }]));
        assert_eq!(v, AbsVal::Int { iv: iv(0, 255), kind: Some(IntKind::U8) });

        let big = AbsVal::Int { iv: iv(0, 65536), kind: Some(IntKind::U64) };
        let (_, events) = eval_str("x as u16", &[("x", big)]);
        assert!(matches!(&events[..], [Event::Cast { proven: false, .. }]));

        // Shift+mask proofs: `(h >> 32) as u32` is lossless.
        let h = AbsVal::int_of_kind(IntKind::U64);
        let (_, events) = eval_str("(h >> 32) as u32", &[("h", h)]);
        assert!(matches!(&events[..], [Event::Cast { proven: true, .. }]));

        // Float→int: unproven without facts, proven with them.
        let (_, events) = eval_str("f as u64", &[("f", AbsVal::float_top())]);
        assert!(matches!(&events[..], [Event::Cast { proven: false, from_float: true, .. }]));
        // Finite and non-negative is not enough: a fraction truncates.
        let fraction =
            AbsVal::Float(FloatFacts { finite: true, non_negative: true, ..FloatFacts::TOP });
        let (_, events) = eval_str("f as u64", &[("f", fraction)]);
        assert!(matches!(&events[..], [Event::Cast { proven: false, from_float: true, .. }]));
        let (_, events) = eval_str("0.75 as usize", &[]);
        assert!(matches!(&events[..], [Event::Cast { proven: false, from_float: true, .. }]));
        let good = AbsVal::Float(FloatFacts {
            finite: true,
            non_negative: true,
            int_valued: true,
            ..FloatFacts::TOP
        });
        let (v, events) = eval_str("f as u64", &[("f", good)]);
        assert!(matches!(&events[..], [Event::Cast { proven: true, from_float: true, .. }]));
        assert_eq!(v, AbsVal::Int { iv: IntKind::U64.range(), kind: Some(IntKind::U64) });
    }

    #[test]
    fn method_transfer_max_clamp_len() {
        let f = AbsVal::float_top();
        let (v, _) = eval_str("x.max(0.0)", &[("x", f)]);
        let AbsVal::Float(facts) = v else { panic!("{v:?}") };
        assert!(facts.non_negative && !facts.finite, "max(0.0) proves >=0 only");

        let (v, _) = eval_str("x.clamp(0.0, 1.0)", &[("x", f)]);
        let AbsVal::Float(facts) = v else { panic!("{v:?}") };
        assert!(facts.non_negative && facts.le_one, "clamp proves the bounds");
        assert!(!facts.finite, "NaN passes through clamp");

        let (v, _) = eval_str("xs.len()", &[]);
        assert_eq!(v, AbsVal::Int { iv: iv(0, i64::MAX as i128), kind: Some(IntKind::Usize) });

        let x = AbsVal::int_of_kind(IntKind::U64);
        let (v, _) = eval_str("x.min(16)", &[("x", x)]);
        assert_eq!(v, AbsVal::Int { iv: iv(0, 16), kind: Some(IntKind::U64) });

        let (v, _) = eval_str("x.saturating_sub(1)", &[("x", x)]);
        // Even on a full-range operand the transfer is exact: the
        // maximum u64 minus one cannot reach u64::MAX again.
        assert_eq!(v, AbsVal::Int { iv: iv(0, (u64::MAX - 1) as i128), kind: Some(IntKind::U64) });
        let small = AbsVal::Int { iv: iv(0, 10), kind: Some(IntKind::U64) };
        let (v, events) = eval_str("x.saturating_sub(1)", &[("x", small)]);
        assert_eq!(v, AbsVal::Int { iv: iv(0, 9), kind: Some(IntKind::U64) });
        assert!(
            !events.iter().any(|e| matches!(e, Event::UncheckedSub { .. })),
            "saturating_sub is not an unchecked subtraction"
        );
    }

    #[test]
    fn type_consts_and_conversions() {
        let (v, _) = eval_str("u32::MAX", &[]);
        assert_eq!(
            v,
            AbsVal::Int { iv: iv(u32::MAX as i128, u32::MAX as i128), kind: Some(IntKind::U32) }
        );
        let (v, _) = eval_str("f64::NAN", &[]);
        let AbsVal::Float(facts) = v else { panic!() };
        assert!(!facts.finite && facts.non_negative, "NaN is not negative");
        let n = AbsVal::Int { iv: iv(1, 5), kind: Some(IntKind::U32) };
        let (v, _) = eval_str("u64::from(n)", &[("n", n)]);
        assert_eq!(v, AbsVal::Int { iv: iv(1, 5), kind: Some(IntKind::U64) });
        let (v, _) = eval_str("f64::from(n)", &[("n", n)]);
        let AbsVal::Float(facts) = v else { panic!() };
        assert!(facts.finite && facts.non_negative && facts.non_zero && facts.int_valued);
    }

    #[test]
    fn float_arithmetic_fact_transfer() {
        let p = AbsVal::Float(FloatFacts::of_value(0.25));
        let q = AbsVal::Float(FloatFacts {
            finite: true,
            non_negative: true,
            le_one: true,
            non_zero: false,
            int_valued: false,
        });
        let (v, _) = eval_str("p * q", &[("p", p), ("q", q)]);
        let AbsVal::Float(f) = v else { panic!() };
        assert!(f.finite && f.non_negative && f.le_one, "[0,1]×[0,1] stays in [0,1]");
        let (v, _) = eval_str("p + q", &[("p", p), ("q", q)]);
        let AbsVal::Float(f) = v else { panic!() };
        assert!(f.finite && f.non_negative && !f.le_one, "[0,1]+[0,1] is [0,2]");
        let (v, _) = eval_str("p / q", &[("p", p), ("q", q)]);
        let AbsVal::Float(f) = v else { panic!() };
        assert!(!f.finite && f.non_negative, "division may blow up");
    }

    #[test]
    fn tolerance_unknown_constructs_are_top() {
        let (v, _) = eval_str("if c { 1 } else { 2 }", &[]);
        assert_eq!(v, AbsVal::Top);
        let (v, _) = eval_str("Foo { a: 1, b: 2 }", &[]);
        assert_eq!(v, AbsVal::Top);
        let (v, _) = eval_str("matches!(x, Some(_))", &[]);
        assert_eq!(v, AbsVal::Top);
        let (v, _) = eval_str("xs.iter().map(|v| v + 1).sum::<u64>()", &[]);
        assert_eq!(v, AbsVal::Top);
        // Events still fire inside an index expression.
        let i = AbsVal::int_of_kind(IntKind::Usize);
        let (_, events) = eval_str("xs[i - 1]", &[("i", i)]);
        assert!(events.iter().any(|e| matches!(e, Event::UncheckedSub { .. })));
    }

    #[test]
    fn call_events_carry_argument_values() {
        let lexed = lex("weigh(share, 1.0)");
        let consts = BTreeMap::new();
        let mut seen = Vec::new();
        let mut oracle = |at: usize, name: &str, args: &[AbsVal]| {
            seen.push((at, name.to_owned(), args.to_vec()));
            AbsVal::Top
        };
        let mut ev = Evaluator::new(&lexed.tokens, &consts, &[], &mut oracle);
        let env: Env =
            [("share".to_owned(), AbsVal::Float(FloatFacts::of_value(0.5)))].into_iter().collect();
        ev.eval(&env, 0, lexed.tokens.len());
        let has_call_event = ev.events.iter().any(|e| matches!(e, Event::Call { at: 0, .. }));
        drop(ev);
        assert!(has_call_event);
        assert_eq!(seen.len(), 1);
        let (at, name, args) = &seen[0];
        assert_eq!((*at, name.as_str()), (0, "weigh"));
        assert_eq!(args.len(), 2);
        assert!(matches!(args[0], AbsVal::Float(f) if f.in_unit_range()));
    }

    #[test]
    fn literal_parsers() {
        assert_eq!(parse_int_literal("42"), Some((42, None)));
        assert_eq!(parse_int_literal("0xff"), Some((255, None)));
        assert_eq!(parse_int_literal("1_000u64"), Some((1000, Some(IntKind::U64))));
        assert_eq!(parse_int_literal("0b1010"), Some((10, None)));
        assert_eq!(parse_int_literal("7usize"), Some((7, Some(IntKind::Usize))));
        assert_eq!(parse_float_literal("1."), Some(1.0));
        assert_eq!(parse_float_literal("2e-3"), Some(0.002));
        assert_eq!(parse_float_literal("1_0.5f64"), Some(10.5));
    }
}
