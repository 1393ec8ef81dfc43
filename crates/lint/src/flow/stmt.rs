//! A tolerant statement/expression parser over function-body token
//! ranges. Like `lint::parser` it never fails: unrecognized token runs
//! become `Expr` statements, and genuinely stuck positions are recorded
//! as [`FlowError`]s while the scan advances. The output is a flat arena
//! of [`Stmt`]s whose control-flow kinds carry child statement lists —
//! the shape [`super::cfg`] lowers into a graph.

use crate::lexer::{Tok, Token};

use super::defuse;

/// Index into [`BodyTree::stmts`].
pub type StmtId = usize;

/// One statement: its kind, source position, head token range, and the
/// variable names it defines and uses. For control statements the head
/// range covers the keyword and its condition/scrutinee, not the nested
/// blocks — those are separate statements reachable through the kind.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Statement shape, with nested statement lists for control flow.
    pub kind: StmtKind,
    /// 1-based source line of the statement's first token.
    pub line: u32,
    /// Half-open token range of the statement head.
    pub tokens: (usize, usize),
    /// Variables this statement binds or writes.
    pub defs: Vec<String>,
    /// Variables this statement reads.
    pub uses: Vec<String>,
}

/// Statement shapes the tolerant grammar distinguishes.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `let PAT = init;` — also the synthetic parameter statement at id 0.
    Let,
    /// `target = expr;` / `target op= expr;`.
    Assign {
        /// Whether the operator was compound (`+=`, `*=`, …).
        compound: bool,
        /// Base variable of the assignment target (`x` in `x.field = …`).
        target: String,
    },
    /// Any other expression statement (calls, macros, tail expressions).
    Expr,
    /// `if` / `if let` chain: one child list per branch.
    If {
        /// Then branch, then each `else if` / `else` branch in order.
        branches: Vec<Vec<StmtId>>,
        /// Whether a final `else` exists (no fallthrough past the arms).
        has_else: bool,
    },
    /// `match`: one child list per arm.
    Match {
        /// Arm bodies in source order.
        arms: Vec<Vec<StmtId>>,
    },
    /// `loop` / `while` / `while let` / `for`.
    Loop {
        /// Loop body statements.
        body: Vec<StmtId>,
        /// Whether the loop can exit from its head (`while` / `for`);
        /// bare `loop` exits only via `break`.
        conditional: bool,
    },
    /// A bare `{ … }` block (including `unsafe { … }`).
    Block {
        /// Block statements.
        body: Vec<StmtId>,
    },
    /// `return expr?;`
    Return,
    /// `break label? expr?;`
    Break,
    /// `continue label?;`
    Continue,
}

/// A position the tolerant parser could not make sense of.
#[derive(Debug, Clone)]
pub struct FlowError {
    /// 1-based source line.
    pub line: u32,
    /// What went wrong.
    pub msg: String,
}

/// A parsed function body: statement arena plus the top-level statement
/// list. Statement id 0 is always the synthetic parameter definition.
#[derive(Debug, Clone)]
pub struct BodyTree {
    /// All statements, in creation order.
    pub stmts: Vec<Stmt>,
    /// Top-level statement ids in execution order (starts with 0).
    pub root: Vec<StmtId>,
    /// Recovered-from parse problems (empty on well-formed code).
    pub errors: Vec<FlowError>,
}

/// Parses the body token range of a function into a [`BodyTree`].
/// `body` is the range produced by `lint::parser` — braces included for
/// block bodies, a bare expression range for expression-bodied closures.
/// `params` seeds the synthetic definition statement at id 0; `skip`
/// lists token ranges of nested *named* fns, which are separate call-graph
/// nodes and must not contribute statements here.
pub fn parse_body(
    toks: &[Token],
    body: (usize, usize),
    params: Vec<String>,
    skip: &[(usize, usize)],
    decl_line: u32,
) -> BodyTree {
    let (lo, hi) = if body.1 > body.0 && toks[body.0].tok.is_punct('{') {
        (body.0 + 1, body.1.saturating_sub(1))
    } else {
        body
    };
    let mut p = Parser {
        toks,
        pos: lo,
        end: hi.min(toks.len()),
        skip,
        stmts: Vec::new(),
        errors: Vec::new(),
    };
    p.stmts.push(Stmt {
        kind: StmtKind::Let,
        line: decl_line,
        tokens: (body.0, body.0),
        defs: params,
        uses: Vec::new(),
    });
    let mut root = vec![0];
    root.extend(p.stmt_list());
    BodyTree { stmts: p.stmts, root, errors: p.errors }
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    end: usize,
    skip: &'a [(usize, usize)],
    stmts: Vec<Stmt>,
    errors: Vec<FlowError>,
}

impl<'a> Parser<'a> {
    fn tok(&self, at: usize) -> Option<&'a Tok> {
        if at < self.end {
            self.toks.get(at).map(|t| &t.tok)
        } else {
            None
        }
    }

    fn line(&self, at: usize) -> u32 {
        self.toks.get(at.min(self.toks.len().saturating_sub(1))).map(|t| t.line).unwrap_or(0)
    }

    fn at_punct(&self, c: char) -> bool {
        matches!(self.tok(self.pos), Some(t) if t.is_punct(c))
    }

    fn at_ident(&self, name: &str) -> bool {
        matches!(self.tok(self.pos), Some(t) if t.is_ident(name))
    }

    /// Jumps over any nested-fn range containing the cursor.
    fn skip_nested(&mut self) -> bool {
        if let Some(&(_, hi)) = self.skip.iter().find(|&&(lo, hi)| lo <= self.pos && self.pos < hi)
        {
            self.pos = hi;
            return true;
        }
        false
    }

    /// Consumes stray semicolons and `#[…]` attributes.
    fn skip_trivia(&mut self) {
        loop {
            if self.at_punct(';') {
                self.pos += 1;
            } else if self.at_punct('#')
                && matches!(self.tok(self.pos + 1), Some(t) if t.is_punct('['))
            {
                self.pos += 2;
                let mut depth = 1usize;
                while depth > 0 {
                    match self.tok(self.pos) {
                        Some(Tok::Punct('[')) => depth += 1,
                        Some(Tok::Punct(']')) => depth -= 1,
                        Some(_) => {}
                        None => return,
                    }
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    /// Statements until the enclosing `}` (not consumed) or `self.end`.
    fn stmt_list(&mut self) -> Vec<StmtId> {
        let mut ids = Vec::new();
        loop {
            self.skip_trivia();
            if self.skip_nested() {
                continue;
            }
            if self.pos >= self.end || self.at_punct('}') {
                break;
            }
            let before = self.pos;
            if let Some(id) = self.stmt() {
                ids.push(id);
            }
            if self.pos == before {
                self.errors.push(FlowError {
                    line: self.line(self.pos),
                    msg: format!("stuck at token {:?}", self.tok(self.pos)),
                });
                self.pos += 1;
            }
        }
        ids
    }

    /// A `{ … }` block: consumes both braces.
    fn block(&mut self) -> Vec<StmtId> {
        if !self.at_punct('{') {
            self.errors.push(FlowError {
                line: self.line(self.pos),
                msg: format!("expected block, found {:?}", self.tok(self.pos)),
            });
            return Vec::new();
        }
        self.pos += 1;
        let ids = self.stmt_list();
        if self.at_punct('}') {
            self.pos += 1;
        }
        ids
    }

    fn push(&mut self, stmt: Stmt) -> StmtId {
        let id = self.stmts.len();
        self.stmts.push(stmt);
        id
    }

    fn stmt(&mut self) -> Option<StmtId> {
        match self.tok(self.pos)? {
            // Loop label: `'outer: loop { … }`.
            Tok::Lifetime(_) if matches!(self.tok(self.pos + 1), Some(t) if t.is_punct(':')) => {
                self.pos += 2;
                self.stmt()
            }
            Tok::Ident(s) => match s.as_str() {
                "let" => Some(self.let_stmt()),
                "if" => Some(self.if_stmt()),
                "match" => Some(self.match_stmt()),
                "while" => Some(self.while_stmt()),
                "for" => Some(self.for_stmt()),
                "loop" => Some(self.loop_stmt()),
                "return" => Some(self.jump_stmt(StmtKind::Return)),
                "break" => Some(self.jump_stmt(StmtKind::Break)),
                "continue" => Some(self.jump_stmt(StmtKind::Continue)),
                "unsafe" if matches!(self.tok(self.pos + 1), Some(t) if t.is_punct('{')) => {
                    let start = self.pos;
                    self.pos += 1;
                    let body = self.block();
                    Some(self.push(Stmt {
                        kind: StmtKind::Block { body },
                        line: self.line(start),
                        tokens: (start, start + 1),
                        defs: Vec::new(),
                        uses: Vec::new(),
                    }))
                }
                _ => Some(self.expr_or_assign(false)),
            },
            Tok::Punct('{') => {
                let start = self.pos;
                let body = self.block();
                Some(self.push(Stmt {
                    kind: StmtKind::Block { body },
                    line: self.line(start),
                    tokens: (start, start + 1),
                    defs: Vec::new(),
                    uses: Vec::new(),
                }))
            }
            _ => Some(self.expr_or_assign(false)),
        }
    }

    /// Scans an expression from the cursor to its terminator: `;` or (if
    /// `stop_comma`) `,` at depth 0, or a depth-0 closer that belongs to
    /// an enclosing construct. The terminator is not consumed. Returns
    /// the scanned range.
    fn scan_expr(&mut self, stop_comma: bool) -> (usize, usize) {
        let start = self.pos;
        let mut depth = 0usize;
        while let Some(tok) = self.tok(self.pos) {
            if self.skip_nested() {
                continue;
            }
            match tok {
                Tok::Punct('(' | '[' | '{') => depth += 1,
                Tok::Punct(')' | ']' | '}') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                Tok::Punct(';') if depth == 0 => break,
                Tok::Punct(',') if depth == 0 && stop_comma => break,
                _ => {}
            }
            self.pos += 1;
        }
        (start, self.pos)
    }

    fn let_stmt(&mut self) -> StmtId {
        let start = self.pos;
        self.pos += 1; // `let`
                       // Pattern (and optional type annotation) up to a top-level `=`.
        let pat_start = self.pos;
        let mut depth = 0usize;
        let mut eq = None;
        while let Some(tok) = self.tok(self.pos) {
            match tok {
                Tok::Punct('(' | '[' | '{' | '<') => depth += 1,
                Tok::Punct(')' | ']' | '}' | '>') => depth = depth.saturating_sub(1),
                // Closing generics lex as shifts: `Vec<Vec<u8>>`.
                Tok::Op("<<") => depth += 2,
                Tok::Op(">>") => depth = depth.saturating_sub(2),
                Tok::Punct('=') if depth == 0 => {
                    eq = Some(self.pos);
                    break;
                }
                Tok::Punct(';') if depth == 0 => break,
                _ => {}
            }
            self.pos += 1;
        }
        let pat_end = self.pos;
        let defs = defuse::pattern_bindings(
            self.toks,
            pat_start,
            strip_annotation(self.toks, pat_start, pat_end),
        );
        let mut uses = Vec::new();
        if eq.is_some() {
            self.pos += 1; // `=`
            let (lo, hi) = self.scan_expr(false);
            uses = defuse::idents_in(self.toks, lo, hi);
        }
        if self.at_punct(';') {
            self.pos += 1;
        }
        self.push(Stmt {
            kind: StmtKind::Let,
            line: self.line(start),
            tokens: (start, self.pos),
            defs,
            uses,
        })
    }

    /// Condition/scrutinee scan: to a `{` at paren/bracket depth 0.
    fn head_to_brace(&mut self) -> (usize, usize) {
        let start = self.pos;
        let mut depth = 0usize;
        while let Some(tok) = self.tok(self.pos) {
            match tok {
                Tok::Punct('(' | '[') => depth += 1,
                Tok::Punct(')' | ']') => depth = depth.saturating_sub(1),
                Tok::Punct('{') if depth == 0 => break,
                Tok::Punct('}' | ';') if depth == 0 => break, // malformed; recover
                _ => {}
            }
            self.pos += 1;
        }
        (start, self.pos)
    }

    fn if_stmt(&mut self) -> StmtId {
        let start = self.pos;
        self.pos += 1; // `if`
        let (mut defs, cond_uses) = self.condition_head();
        let head_end = self.pos;
        let mut branches = vec![self.block()];
        let mut has_else = false;
        if self.at_ident("else") {
            has_else = true;
            self.pos += 1;
            if self.at_ident("if") {
                // `else if …`: the whole chain nests as one statement.
                if let Some(id) = self.stmt() {
                    branches.push(vec![id]);
                } else {
                    branches.push(Vec::new());
                }
            } else {
                branches.push(self.block());
            }
        }
        defs.dedup();
        self.push(Stmt {
            kind: StmtKind::If { branches, has_else },
            line: self.line(start),
            tokens: (start, head_end),
            defs,
            uses: cond_uses,
        })
    }

    /// `if`/`while` condition, handling the `let PAT = scrutinee` form.
    /// Returns pattern bindings (defs) and condition uses.
    fn condition_head(&mut self) -> (Vec<String>, Vec<String>) {
        if self.at_ident("let") {
            self.pos += 1;
            let pat_start = self.pos;
            let mut depth = 0usize;
            while let Some(tok) = self.tok(self.pos) {
                match tok {
                    Tok::Punct('(' | '[' | '<') => depth += 1,
                    Tok::Punct(')' | ']' | '>') => depth = depth.saturating_sub(1),
                    Tok::Op("<<") => depth += 2,
                    Tok::Op(">>") => depth = depth.saturating_sub(2),
                    Tok::Punct('=') if depth == 0 => break,
                    Tok::Punct('{') if depth == 0 => break, // malformed
                    _ => {}
                }
                self.pos += 1;
            }
            let defs = defuse::pattern_bindings(self.toks, pat_start, self.pos);
            if self.at_punct('=') {
                self.pos += 1;
            }
            let (lo, hi) = self.head_to_brace();
            (defs, defuse::idents_in(self.toks, lo, hi))
        } else {
            let (lo, hi) = self.head_to_brace();
            (Vec::new(), defuse::idents_in(self.toks, lo, hi))
        }
    }

    fn match_stmt(&mut self) -> StmtId {
        let start = self.pos;
        self.pos += 1; // `match`
        let (lo, hi) = self.head_to_brace();
        let mut uses = defuse::idents_in(self.toks, lo, hi);
        let mut defs: Vec<String> = Vec::new();
        let mut arms = Vec::new();
        if self.at_punct('{') {
            self.pos += 1;
            loop {
                self.skip_trivia();
                if self.pos >= self.end || self.at_punct('}') {
                    break;
                }
                // Pattern + optional guard up to `=>`.
                let head_start = self.pos;
                let mut depth = 0usize;
                let mut guard_at = None;
                // `<` / `>` stay uncounted here: guards contain comparisons
                // (`n if n > limit =>`), which would unbalance the depth.
                while let Some(tok) = self.tok(self.pos) {
                    match tok {
                        Tok::Punct('(' | '[' | '{') => depth += 1,
                        Tok::Punct(')' | ']' | '}') => {
                            if depth == 0 {
                                break; // malformed arm; recover at the brace
                            }
                            depth -= 1;
                        }
                        Tok::Op("=>") if depth == 0 => break,
                        Tok::Ident(s) if s == "if" && depth == 0 && guard_at.is_none() => {
                            guard_at = Some(self.pos);
                        }
                        _ => {}
                    }
                    self.pos += 1;
                }
                let head_end = self.pos;
                let pat_end = guard_at.unwrap_or(head_end);
                defs.extend(defuse::pattern_bindings(self.toks, head_start, pat_end));
                if let Some(g) = guard_at {
                    uses.extend(defuse::idents_in(self.toks, g + 1, head_end));
                }
                if matches!(self.tok(self.pos), Some(t) if t.is_op("=>")) {
                    self.pos += 1;
                }
                // Arm body: a block, a control statement, or an expression
                // up to the next top-level `,`.
                let body = if self.at_punct('{') {
                    self.block()
                } else if matches!(
                    self.tok(self.pos),
                    Some(Tok::Ident(s)) if matches!(
                        s.as_str(),
                        "if" | "match" | "while" | "for" | "loop" | "return" | "break" | "continue"
                    )
                ) {
                    self.stmt().into_iter().collect()
                } else {
                    vec![self.expr_or_assign(true)]
                };
                arms.push(body);
                if self.at_punct(',') {
                    self.pos += 1;
                }
            }
            if self.at_punct('}') {
                self.pos += 1;
            }
        }
        defs.sort();
        defs.dedup();
        uses.sort();
        uses.dedup();
        self.push(Stmt {
            kind: StmtKind::Match { arms },
            line: self.line(start),
            tokens: (start, hi),
            defs,
            uses,
        })
    }

    fn while_stmt(&mut self) -> StmtId {
        let start = self.pos;
        self.pos += 1; // `while`
        let (defs, uses) = self.condition_head();
        let head_end = self.pos;
        let body = self.block();
        self.push(Stmt {
            kind: StmtKind::Loop { body, conditional: true },
            line: self.line(start),
            tokens: (start, head_end),
            defs,
            uses,
        })
    }

    fn for_stmt(&mut self) -> StmtId {
        let start = self.pos;
        self.pos += 1; // `for`
                       // Pattern up to a top-level `in`.
        let pat_start = self.pos;
        let mut depth = 0usize;
        while let Some(tok) = self.tok(self.pos) {
            match tok {
                Tok::Punct('(' | '[' | '<') => depth += 1,
                Tok::Punct(')' | ']' | '>') => depth = depth.saturating_sub(1),
                Tok::Ident(s) if s == "in" && depth == 0 => break,
                Tok::Punct('{') if depth == 0 => break, // malformed
                _ => {}
            }
            self.pos += 1;
        }
        let defs = defuse::pattern_bindings(self.toks, pat_start, self.pos);
        if self.at_ident("in") {
            self.pos += 1;
        }
        let (lo, hi) = self.head_to_brace();
        let head_end = self.pos;
        let body = self.block();
        self.push(Stmt {
            kind: StmtKind::Loop { body, conditional: true },
            line: self.line(start),
            tokens: (start, head_end),
            defs,
            uses: defuse::idents_in(self.toks, lo, hi),
        })
    }

    fn loop_stmt(&mut self) -> StmtId {
        let start = self.pos;
        self.pos += 1; // `loop`
        let body = self.block();
        self.push(Stmt {
            kind: StmtKind::Loop { body, conditional: false },
            line: self.line(start),
            tokens: (start, start + 1),
            defs: Vec::new(),
            uses: Vec::new(),
        })
    }

    fn jump_stmt(&mut self, kind: StmtKind) -> StmtId {
        let start = self.pos;
        self.pos += 1; // keyword
        if matches!(self.tok(self.pos), Some(Tok::Lifetime(_))) {
            self.pos += 1; // `break 'label`
        }
        let (lo, hi) = self.scan_expr(true);
        if self.at_punct(';') {
            self.pos += 1;
        }
        self.push(Stmt {
            kind,
            line: self.line(start),
            tokens: (start, hi),
            defs: Vec::new(),
            uses: defuse::idents_in(self.toks, lo, hi),
        })
    }

    /// Expression statement, classified as an assignment when a top-level
    /// `=` or compound-assign operator splits it.
    fn expr_or_assign(&mut self, stop_comma: bool) -> StmtId {
        let start = self.pos;
        let mut depth = 0usize;
        let mut assign_at: Option<(usize, bool)> = None;
        while let Some(tok) = self.tok(self.pos) {
            if self.skip_nested() {
                continue;
            }
            match tok {
                Tok::Punct('(' | '[' | '{') => depth += 1,
                Tok::Punct(')' | ']' | '}') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                Tok::Punct(';') if depth == 0 => break,
                Tok::Punct(',') if depth == 0 && stop_comma => break,
                Tok::Punct('=') if depth == 0 && assign_at.is_none() => {
                    assign_at = Some((self.pos, false));
                }
                Tok::Op("+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=")
                    if depth == 0 && assign_at.is_none() =>
                {
                    assign_at = Some((self.pos, true));
                }
                _ => {}
            }
            self.pos += 1;
        }
        let end = self.pos;
        if self.at_punct(';') {
            self.pos += 1;
        }
        let line = self.line(start);
        match assign_at {
            Some((op, compound)) => {
                let target = defuse::first_ident(self.toks, start, op);
                match target {
                    Some(base) => {
                        let mut uses = defuse::idents_in(self.toks, op + 1, end);
                        for extra in defuse::idents_in(self.toks, start, op) {
                            if extra != base && !uses.contains(&extra) {
                                uses.push(extra); // index/field path reads
                            }
                        }
                        if compound && !uses.contains(&base) {
                            uses.push(base.clone());
                        }
                        self.push(Stmt {
                            kind: StmtKind::Assign { compound, target: base.clone() },
                            line,
                            tokens: (start, end),
                            defs: vec![base],
                            uses,
                        })
                    }
                    None => self.push(Stmt {
                        kind: StmtKind::Expr,
                        line,
                        tokens: (start, end),
                        defs: Vec::new(),
                        uses: defuse::idents_in(self.toks, start, end),
                    }),
                }
            }
            None => self.push(Stmt {
                kind: StmtKind::Expr,
                line,
                tokens: (start, end),
                defs: Vec::new(),
                uses: defuse::idents_in(self.toks, start, end),
            }),
        }
    }
}

/// For `let PAT: Type = …` patterns: returns the end of the pattern part,
/// cutting a top-level `:` type annotation (struct-pattern field colons
/// sit at depth > 0 and survive).
fn strip_annotation(toks: &[Token], lo: usize, hi: usize) -> usize {
    let mut depth = 0usize;
    for (at, t) in toks.iter().enumerate().take(hi).skip(lo) {
        match &t.tok {
            Tok::Punct('(' | '[' | '{' | '<') => depth += 1,
            Tok::Punct(')' | ']' | '}' | '>') => depth = depth.saturating_sub(1),
            Tok::Punct(':') if depth == 0 => return at,
            _ => {}
        }
    }
    hi
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    /// Parses `src` as a file, takes the first item's body, and runs the
    /// statement parser over it with the given params.
    pub(crate) fn tree_of(src: &str, params: &[&str]) -> BodyTree {
        let lexed = lex(src);
        let items = parse(&lexed);
        let item = &items.items[0];
        let body = item.body.expect("fixture fn has a body");
        let skip: Vec<(usize, usize)> = item
            .children
            .iter()
            .filter(|c| !matches!(c.kind, crate::parser::ItemKind::Closure { .. }))
            .map(|c| c.tokens)
            .collect();
        parse_body(
            &lexed.tokens,
            body,
            params.iter().map(|s| s.to_string()).collect(),
            &skip,
            item.line,
        )
    }

    fn kinds(tree: &BodyTree) -> Vec<&'static str> {
        tree.root
            .iter()
            .map(|&id| match tree.stmts[id].kind {
                StmtKind::Let => "let",
                StmtKind::Assign { .. } => "assign",
                StmtKind::Expr => "expr",
                StmtKind::If { .. } => "if",
                StmtKind::Match { .. } => "match",
                StmtKind::Loop { .. } => "loop",
                StmtKind::Block { .. } => "block",
                StmtKind::Return => "return",
                StmtKind::Break => "break",
                StmtKind::Continue => "continue",
            })
            .collect()
    }

    #[test]
    fn straight_line_lets_and_calls() {
        let t =
            tree_of("fn f(a: u32) -> u32 {\n    let b = a + 1;\n    emit(b);\n    b\n}\n", &["a"]);
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        assert_eq!(kinds(&t), vec!["let", "let", "expr", "expr"]);
        assert_eq!(t.stmts[1].defs, vec!["b"]);
        assert_eq!(t.stmts[1].uses, vec!["a"]);
        assert_eq!(t.stmts[2].uses, vec!["emit", "b"]);
    }

    #[test]
    fn if_else_and_match_nest() {
        let t = tree_of(
            "fn f(x: i64) -> i64 {\n\
                 let mut y = 0;\n\
                 if x > 0 { y = x; } else { y = -x; }\n\
                 match y { 0 => return 0, n if n > 2 => y = n, _ => {} }\n\
                 y\n\
             }\n",
            &["x"],
        );
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        assert_eq!(kinds(&t), vec!["let", "let", "if", "match", "expr"]);
        // Children are pushed before their control statement: resolve
        // through `root` rather than assuming arena order.
        let if_s = &t.stmts[t.root[2]];
        let StmtKind::If { branches, has_else } = &if_s.kind else { panic!() };
        assert_eq!(branches.len(), 2);
        assert!(has_else);
        let match_s = &t.stmts[t.root[3]];
        let StmtKind::Match { arms } = &match_s.kind else { panic!() };
        assert_eq!(arms.len(), 3);
        assert!(match_s.defs.contains(&"n".to_string()));
        // The guard read is a use of the match statement.
        assert!(match_s.uses.contains(&"n".to_string()));
        // Arm 0 is a `return`, arm 1 an assignment.
        assert!(matches!(t.stmts[arms[0][0]].kind, StmtKind::Return));
        assert!(
            matches!(&t.stmts[arms[1][0]].kind, StmtKind::Assign { target, .. } if target == "y")
        );
    }

    #[test]
    fn loops_breaks_and_labels() {
        let t = tree_of(
            "fn f(xs: &[u32]) -> u32 {\n\
                 let mut acc = 0;\n\
                 'outer: for x in xs {\n\
                     while acc < 10 { acc += x; }\n\
                     if *x == 0 { break 'outer; }\n\
                 }\n\
                 loop { acc += 1; if acc > 3 { break; } }\n\
                 acc\n\
             }\n",
            &["xs"],
        );
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        assert_eq!(kinds(&t), vec!["let", "let", "loop", "loop", "expr"]);
        let for_s = &t.stmts[t.root[2]];
        let StmtKind::Loop { body, conditional } = &for_s.kind else { panic!() };
        assert!(*conditional);
        assert_eq!(body.len(), 2);
        assert_eq!(for_s.defs, vec!["x"]);
        let StmtKind::Loop { conditional, .. } = &t.stmts[t.root[3]].kind else { panic!() };
        assert!(!conditional, "bare loop");
    }

    #[test]
    fn compound_assign_reads_its_target() {
        let t = tree_of("fn f() { let mut s = 0.0; s += delta(); s = 1.0; }\n", &[]);
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        let plus = &t.stmts[2];
        assert!(matches!(&plus.kind, StmtKind::Assign { compound: true, target } if target == "s"));
        assert!(plus.uses.contains(&"s".to_string()));
        let plain = &t.stmts[3];
        assert!(
            matches!(&plain.kind, StmtKind::Assign { compound: false, target } if target == "s")
        );
        assert!(!plain.uses.contains(&"s".to_string()));
    }

    #[test]
    fn nested_fns_are_opaque_but_closures_are_not() {
        let t = tree_of(
            "fn f(xs: &[u32]) -> u32 {\n\
                 fn helper(v: u32) -> u32 { v * 2 }\n\
                 let total = xs.iter().map(|x| helper(*x)).sum();\n\
                 total\n\
             }\n",
            &["xs"],
        );
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        // helper's body contributes no statements; the closure's tokens
        // stay inline so captured uses remain visible.
        assert_eq!(kinds(&t), vec!["let", "let", "expr"]);
        assert!(t.stmts[1].uses.contains(&"xs".to_string()));
        assert!(t.stmts[1].uses.contains(&"helper".to_string()));
    }

    #[test]
    fn let_else_and_struct_patterns() {
        let t = tree_of(
            "fn f(o: Option<Point>) -> i64 {\n\
                 let Some(Point { x: px, y }) = o else { return 0; };\n\
                 let v: Vec<u32> = Vec::new();\n\
                 px + y + v.len() as i64\n\
             }\n",
            &["o"],
        );
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        let lets = &t.stmts[1];
        assert_eq!(lets.defs, vec!["px", "y"], "field name x is not a binding");
        let annotated = &t.stmts[2];
        assert_eq!(annotated.defs, vec!["v"], "type annotation stripped");
    }

    #[test]
    fn expression_bodied_closure_parses_as_statements() {
        let lexed = lex("fn f(xs: &[u32]) -> Vec<u32> { par_map(xs, |x| x + base) }\n");
        let items = parse(&lexed);
        let closure = &items.items[0].children[0];
        let t =
            parse_body(&lexed.tokens, closure.body.unwrap(), vec!["x".into()], &[], closure.line);
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        assert_eq!(t.root.len(), 2, "params stmt + one expression");
        assert_eq!(t.stmts[1].uses, vec!["x", "base"]);
    }
}
