//! A lightweight item-level parser on top of the [`lexer`](crate::lexer)
//! token stream.
//!
//! This is *not* a Rust grammar: it recovers exactly the structure the
//! semantic rules need — the item tree (modules, functions, impls,
//! traits, statics, use-trees) with line spans and token ranges, function
//! bodies, nested functions, and closures (including which call each
//! closure is an argument of, so `par_map(…, |x| …)` closures can become
//! call-graph roots). Everything it does not understand is skipped
//! token-by-token and recorded as a [`ParseError`]; the self-analysis
//! test asserts the real workspace parses with zero errors.

use crate::lexer::{Lexed, Tok};

/// Parsed structure of one source file.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Flattened `use` imports: each is a `::`-separated path, expanded
    /// from grouped use-trees (`use a::{b, c::d}` yields two entries).
    pub uses: Vec<String>,
    /// Constructs the parser had to skip over.
    pub errors: Vec<ParseError>,
}

/// One recovery event: a token the item grammar could not place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: u32,
    /// What was found.
    pub msg: String,
}

/// Item kinds the parser distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` or `mod name;`.
    Mod,
    /// `fn name(…) { … }` (free function, method, or nested fn).
    Fn,
    /// `impl Type { … }` / `impl Trait for Type { … }`.
    Impl {
        /// Last path segment of the implemented type (`Self` target).
        type_name: String,
        /// Last path segment of the trait, for trait impls.
        trait_name: Option<String>,
    },
    /// `trait Name { … }` (default-bodied methods become child `Fn`s).
    Trait,
    /// One `use …;` item (paths are collected in [`ItemTree::uses`]).
    Use,
    /// `static NAME: T = …;`.
    Static {
        /// Whether this is `static mut`.
        mutable: bool,
        /// Type tokens between `:` and `=`, joined with spaces.
        ty: String,
    },
    /// `const NAME: T = …;`.
    Const,
    /// `struct` / `enum` / `union` definition.
    TypeDef,
    /// `type Name = …;` alias.
    TypeAlias,
    /// `macro_rules! name { … }`.
    MacroDef,
    /// An item-position macro invocation (`thread_local! { … }`).
    MacroCall,
    /// `extern "C" { … }` / `extern crate …;`.
    Extern,
    /// A closure literal inside a function body.
    Closure {
        /// Name of the innermost pending call the closure is an argument
        /// of (`par_map` in `par_map(&xs, |x| …)`), when syntactically
        /// evident.
        enclosing_call: Option<String>,
    },
}

/// One parsed item with its span, token range, and children.
#[derive(Debug)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// Declared name (`""` for impls, closures, extern blocks).
    pub name: String,
    /// 1-based line of the introducing keyword (`fn`, `impl`, …).
    pub line: u32,
    /// 1-based line where the item starts including its attributes
    /// (`== line` when there are none). Item-scoped suppressions attach
    /// here.
    pub attr_line: u32,
    /// 1-based last line of the item.
    pub end_line: u32,
    /// Half-open token index range `[start, end)` covering the whole
    /// item, attributes included.
    pub tokens: (usize, usize),
    /// Token range of the body block for fn-like items (`{ … }` content
    /// boundaries included) or the closure body expression.
    pub body: Option<(usize, usize)>,
    /// Nested items: module contents, impl/trait members, nested fns and
    /// closures inside bodies.
    pub children: Vec<Item>,
}

impl Item {
    /// Depth-first traversal over this item and all descendants.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Item)) {
        visit(self);
        for child in &self.children {
            child.walk(visit);
        }
    }
}

impl ItemTree {
    /// Depth-first traversal over every item in the tree.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Item)) {
        for item in &self.items {
            item.walk(visit);
        }
    }
}

/// Keywords that can never start an expression call (`if (…)` is not a
/// call of a function named `if`).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while", "yield",
];

/// Whether `name` is a Rust keyword.
pub fn is_keyword(name: &str) -> bool {
    KEYWORDS.contains(&name)
}

/// Parses the token stream of one file into an [`ItemTree`].
pub fn parse(lexed: &Lexed) -> ItemTree {
    let mut p = Parser { lexed, pos: 0, tree: ItemTree::default() };
    let items = p.items_until(None);
    p.tree.items = items;
    p.tree
}

struct Parser<'a> {
    lexed: &'a Lexed,
    pos: usize,
    tree: ItemTree,
}

impl<'a> Parser<'a> {
    fn tok(&self, at: usize) -> Option<&'a Tok> {
        self.lexed.tokens.get(at).map(|t| &t.tok)
    }

    fn line(&self, at: usize) -> u32 {
        self.lexed
            .tokens
            .get(at.min(self.lexed.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(1)
    }

    /// Line of the last token strictly before `at` (for end-of-item spans).
    fn line_before(&self, at: usize) -> u32 {
        self.line(at.saturating_sub(1))
    }

    fn is_ident(&self, at: usize, name: &str) -> bool {
        matches!(self.tok(at), Some(Tok::Ident(s)) if s == name)
    }

    fn ident(&self, at: usize) -> Option<&'a str> {
        match self.tok(at) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    /// Parses items until `close` (a closing brace) or end of input.
    /// `self.pos` ends *on* the closing token, not past it.
    fn items_until(&mut self, close: Option<char>) -> Vec<Item> {
        let mut items = Vec::new();
        while let Some(tok) = self.tok(self.pos) {
            if let (Some(c), Tok::Punct(p)) = (close, tok) {
                if *p == c {
                    break;
                }
            }
            match self.item() {
                Some(item) => items.push(item),
                None => {
                    // Recovery: record and skip one token.
                    let line = self.line(self.pos);
                    if let Some(tok) = self.tok(self.pos) {
                        self.tree
                            .errors
                            .push(ParseError { line, msg: format!("unexpected token {tok:?}") });
                    }
                    self.pos += 1;
                }
            }
        }
        items
    }

    /// Skips `#[…]` / `#![…]` attributes at `self.pos`, returning the
    /// line of the first one (or `None` when there is no attribute).
    fn skip_attributes(&mut self) -> Option<u32> {
        let mut first = None;
        while matches!(self.tok(self.pos), Some(Tok::Punct('#'))) {
            let mut i = self.pos + 1;
            if matches!(self.tok(i), Some(Tok::Punct('!'))) {
                i += 1;
            }
            if !matches!(self.tok(i), Some(Tok::Punct('['))) {
                break;
            }
            first.get_or_insert(self.line(self.pos));
            let mut depth = 0usize;
            while let Some(tok) = self.tok(i) {
                match tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            self.pos = i + 1;
        }
        first
    }

    /// Skips visibility/linkage modifiers (`pub`, `pub(crate)`, `unsafe`,
    /// `async`, `default`, `extern "C"` before `fn`).
    fn skip_modifiers(&mut self) {
        loop {
            match self.ident(self.pos) {
                Some("pub") => {
                    self.pos += 1;
                    if matches!(self.tok(self.pos), Some(Tok::Punct('('))) {
                        self.skip_balanced('(', ')');
                    }
                }
                Some("unsafe" | "async" | "default") => self.pos += 1,
                Some("extern")
                    if matches!(self.tok(self.pos + 1), Some(Tok::Str(_)))
                        && self.is_ident(self.pos + 2, "fn") =>
                {
                    self.pos += 2;
                }
                _ => return,
            }
        }
    }

    /// From an opening delimiter at `self.pos`, advances past its match.
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0usize;
        while let Some(tok) = self.tok(self.pos) {
            match tok {
                Tok::Punct(c) if *c == open => depth += 1,
                Tok::Punct(c) if *c == close => {
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

    /// Skips a generic parameter/argument list starting at `<`. `<<`/`>>`
    /// lex as shift operators, so they count twice.
    fn skip_generics(&mut self) {
        let mut depth = 0isize;
        while let Some(tok) = self.tok(self.pos) {
            match tok {
                Tok::Punct('<') => depth += 1,
                Tok::Op("<<") => depth += 2,
                Tok::Punct('>') => depth -= 1,
                Tok::Op(">>") => depth -= 2,
                _ => {}
            }
            self.pos += 1;
            if depth <= 0 {
                return;
            }
        }
    }

    /// Tries to parse one item at `self.pos`. Returns `None` (with
    /// `self.pos` unchanged) when the next token cannot start an item.
    fn item(&mut self) -> Option<Item> {
        let start = self.pos;
        let attr_line = self.skip_attributes();
        self.skip_modifiers();
        let kw_pos = self.pos;
        let result = match self.ident(kw_pos) {
            Some("mod") => self.item_mod(start, attr_line),
            Some("fn") => self.item_fn(start, attr_line),
            Some("impl") => self.item_impl(start, attr_line),
            Some("trait") => self.item_trait(start, attr_line),
            Some("use") => self.item_use(start, attr_line),
            Some("static") => self.item_static(start, attr_line),
            Some("const") if !self.is_ident(kw_pos + 1, "fn") => self.item_const(start, attr_line),
            Some("const") => {
                self.pos += 1; // `const fn`
                self.item_fn(start, attr_line)
            }
            Some("struct" | "enum" | "union") => self.item_typedef(start, attr_line),
            Some("type") => self.item_semi(start, attr_line, ItemKind::TypeAlias, true),
            Some("macro_rules") => self.item_macro_def(start, attr_line),
            Some("extern") => self.item_extern(start, attr_line),
            Some(name) if !is_keyword(name) => self.item_macro_call(start, attr_line),
            Some("crate" | "self" | "super")
                if matches!(self.tok(kw_pos + 1), Some(Tok::Op("::"))) =>
            {
                self.item_macro_call(start, attr_line)
            }
            _ => None,
        };
        if result.is_none() {
            self.pos = start;
        }
        result
    }

    // One parameter per `Item` field being assembled; bundling them
    // into a builder would just rename the problem.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        kind: ItemKind,
        name: String,
        start: usize,
        attr_line: Option<u32>,
        kw_pos: usize,
        body: Option<(usize, usize)>,
        children: Vec<Item>,
    ) -> Item {
        let line = self.line(kw_pos);
        Item {
            kind,
            name,
            line,
            attr_line: attr_line.unwrap_or(line),
            end_line: self.line_before(self.pos),
            tokens: (start, self.pos),
            body,
            children,
        }
    }

    /// `mod name;` or `mod name { items }`.
    fn item_mod(&mut self, start: usize, attr_line: Option<u32>) -> Option<Item> {
        let kw = self.pos;
        self.pos += 1;
        let name = self.ident(self.pos)?.to_owned();
        self.pos += 1;
        let children = match self.tok(self.pos) {
            Some(Tok::Punct(';')) => {
                self.pos += 1;
                Vec::new()
            }
            Some(Tok::Punct('{')) => {
                self.pos += 1;
                let items = self.items_until(Some('}'));
                self.pos += 1; // closing brace
                items
            }
            _ => return None,
        };
        Some(self.finish(ItemKind::Mod, name, start, attr_line, kw, None, children))
    }

    /// `fn name …(…) … { body }` or a bodiless trait-method `fn …;`.
    fn item_fn(&mut self, start: usize, attr_line: Option<u32>) -> Option<Item> {
        let kw = self.pos;
        self.pos += 1;
        let name = self.ident(self.pos)?.to_owned();
        self.pos += 1;
        if matches!(self.tok(self.pos), Some(Tok::Punct('<'))) {
            self.skip_generics();
        }
        if !matches!(self.tok(self.pos), Some(Tok::Punct('('))) {
            return None;
        }
        self.skip_balanced('(', ')');
        // Return type / where clause: scan to the body `{` or a `;`.
        // Bracketed groups are skipped whole — an array return type
        // like `[f64; 3]` carries a `;` that must not end the item.
        loop {
            match self.tok(self.pos) {
                Some(Tok::Punct('{')) => break,
                Some(Tok::Punct(';')) => {
                    self.pos += 1;
                    return Some(self.finish(
                        ItemKind::Fn,
                        name,
                        start,
                        attr_line,
                        kw,
                        None,
                        vec![],
                    ));
                }
                Some(Tok::Punct('<')) => self.skip_generics(),
                Some(Tok::Punct('(')) => self.skip_balanced('(', ')'),
                Some(Tok::Punct('[')) => self.skip_balanced('[', ']'),
                Some(_) => self.pos += 1,
                None => {
                    return Some(self.finish(
                        ItemKind::Fn,
                        name,
                        start,
                        attr_line,
                        kw,
                        None,
                        vec![],
                    ))
                }
            }
        }
        let (body, children) = self.fn_body();
        Some(self.finish(ItemKind::Fn, name, start, attr_line, kw, Some(body), children))
    }

    /// Parses a `{ … }` function body at `self.pos`, collecting nested
    /// fns and closures as children. Returns the body token range.
    fn fn_body(&mut self) -> ((usize, usize), Vec<Item>) {
        let open = self.pos;
        self.pos += 1; // `{`
        let mut children = Vec::new();
        let mut depth = 1usize;
        // Innermost pending call names: `par_map(` pushes, `)` pops.
        let mut calls: Vec<Option<String>> = Vec::new();
        let mut ctx = MatchCtx::new();
        while let Some(tok) = self.tok(self.pos) {
            ctx.see(tok);
            match tok {
                Tok::Punct('{') => {
                    depth += 1;
                    self.pos += 1;
                }
                Tok::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    self.pos += 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Punct('(') => {
                    let callee = match self.ident(self.pos.wrapping_sub(1)) {
                        Some(name) if !is_keyword(name) => Some(name.to_owned()),
                        _ => None,
                    };
                    calls.push(callee);
                    self.pos += 1;
                }
                Tok::Punct(')') => {
                    calls.pop();
                    self.pos += 1;
                }
                Tok::Ident(s) if s == "fn" => {
                    let start = self.pos;
                    match self.item_fn(start, None) {
                        Some(item) => children.push(item),
                        None => self.pos = start + 1,
                    }
                }
                Tok::Punct('|') | Tok::Op("||") if self.closure_starts_here() => {
                    if ctx.pipe_is_pattern(self.tok(self.pos.wrapping_sub(1))) {
                        // Leading `|` of a match-arm or-pattern, not a closure.
                        self.pos += 1;
                    } else if let Some(item) = self.closure(calls.last().cloned().flatten()) {
                        children.push(item);
                    } else {
                        self.pos += 1;
                    }
                }
                _ => self.pos += 1,
            }
        }
        ((open, self.pos), children)
    }

    /// Whether the `|` / `||` at `self.pos` begins a closure rather than a
    /// binary/bitwise or. A closure can only follow a token that *ends
    /// nothing*: an opening delimiter, a separator, an operator, or the
    /// `move`/`return`/`else`/`in` keywords. After an identifier, literal,
    /// or closing delimiter, `|` is an operator.
    ///
    /// One residual ambiguity needs more than lookbehind: after `{` or `,`
    /// a `|` is a closure opener in expression position but the *leading
    /// pipe of an or-pattern* inside a match body (`match x { | A | B =>`).
    /// [`MatchCtx`] carries the one extra token of memory required — was
    /// the innermost brace opened by a `match` scrutinee? — see DESIGN.md.
    fn closure_starts_here(&self) -> bool {
        let Some(prev) = self.tok(self.pos.wrapping_sub(1)) else {
            return true; // body start
        };
        match prev {
            Tok::Punct('(' | '{' | '[' | ',' | ';' | '=' | ':') => true,
            Tok::Op("=>" | "==" | "&&" | "||" | "+=" | "-=" | "..") => true,
            Tok::Ident(s) => matches!(s.as_str(), "move" | "return" | "else" | "in" | "box"),
            _ => false,
        }
    }

    /// Parses a closure at `self.pos` (`|params| body` / `|| body` /
    /// preceded by `move`). The body is either a brace block (parsed like
    /// a fn body) or a bare expression, which extends to the first `,`,
    /// `)`, `]`, `}` or `;` at the closure's own nesting depth.
    fn closure(&mut self, enclosing_call: Option<String>) -> Option<Item> {
        let start = self.pos;
        match self.tok(self.pos) {
            Some(Tok::Op("||")) => self.pos += 1,
            Some(Tok::Punct('|')) => {
                self.pos += 1;
                // Parameter list: scan to the closing `|` at depth 0.
                let mut depth = 0usize;
                loop {
                    match self.tok(self.pos) {
                        Some(Tok::Punct('(' | '[' | '<')) => depth += 1,
                        Some(Tok::Punct(')' | ']' | '>')) => depth = depth.saturating_sub(1),
                        Some(Tok::Punct('|')) if depth == 0 => {
                            self.pos += 1;
                            break;
                        }
                        Some(_) => {}
                        None => return None,
                    }
                    self.pos += 1;
                }
            }
            _ => return None,
        }
        // Optional return type `-> T` before a brace body.
        while matches!(self.tok(self.pos), Some(Tok::Op("->")))
            || matches!(self.tok(self.pos), Some(Tok::Ident(_) | Tok::Op("::")))
                && matches!(self.tok(self.pos.wrapping_sub(1)), Some(Tok::Op("->" | "::")))
        {
            self.pos += 1;
        }
        let (body, children) = if matches!(self.tok(self.pos), Some(Tok::Punct('{'))) {
            self.fn_body()
        } else {
            self.expression_body()
        };
        let kind = ItemKind::Closure { enclosing_call };
        let line = self.line(start);
        Some(Item {
            kind,
            name: String::new(),
            line,
            attr_line: line,
            end_line: self.line_before(self.pos),
            tokens: (start, self.pos),
            body: Some(body),
            children,
        })
    }

    /// An expression-bodied closure body: consumed until the enclosing
    /// delimiter closes or a top-level `,` / `;` ends the expression.
    /// Nested closures inside it are still collected.
    fn expression_body(&mut self) -> ((usize, usize), Vec<Item>) {
        let open = self.pos;
        let mut children = Vec::new();
        let mut depth = 0usize;
        let mut calls: Vec<Option<String>> = Vec::new();
        let mut ctx = MatchCtx::new();
        while let Some(tok) = self.tok(self.pos) {
            ctx.see(tok);
            match tok {
                Tok::Punct('(' | '[') => {
                    if matches!(tok, Tok::Punct('(')) {
                        let callee = match self.ident(self.pos.wrapping_sub(1)) {
                            Some(name) if !is_keyword(name) => Some(name.to_owned()),
                            _ => None,
                        };
                        calls.push(callee);
                    }
                    depth += 1;
                    self.pos += 1;
                }
                Tok::Punct('{') => {
                    depth += 1;
                    self.pos += 1;
                }
                Tok::Punct(')' | ']' | '}') => {
                    if depth == 0 {
                        break;
                    }
                    if matches!(tok, Tok::Punct(')')) {
                        calls.pop();
                    }
                    depth -= 1;
                    self.pos += 1;
                }
                Tok::Punct(',' | ';') if depth == 0 => break,
                Tok::Punct('|') | Tok::Op("||") if self.closure_starts_here() => {
                    if ctx.pipe_is_pattern(self.tok(self.pos.wrapping_sub(1))) {
                        // Leading `|` of a match-arm or-pattern, not a closure.
                        self.pos += 1;
                    } else if let Some(item) = self.closure(calls.last().cloned().flatten()) {
                        children.push(item);
                    } else {
                        self.pos += 1;
                    }
                }
                _ => self.pos += 1,
            }
        }
        ((open, self.pos), children)
    }

    /// `impl …` with optional generics and `Trait for` prefix.
    fn item_impl(&mut self, start: usize, attr_line: Option<u32>) -> Option<Item> {
        let kw = self.pos;
        self.pos += 1;
        if matches!(self.tok(self.pos), Some(Tok::Punct('<'))) {
            self.skip_generics();
        }
        // Collect path idents up to `for`, `where`, or `{`.
        let mut first_path: Vec<String> = Vec::new();
        let mut second_path: Vec<String> = Vec::new();
        let mut saw_for = false;
        loop {
            match self.tok(self.pos) {
                Some(Tok::Punct('{')) => break,
                Some(Tok::Ident(s)) if s == "for" => {
                    saw_for = true;
                    self.pos += 1;
                }
                Some(Tok::Ident(s)) if s == "where" => {
                    // Skip the where clause to the body.
                    while !matches!(self.tok(self.pos), Some(Tok::Punct('{')) | None) {
                        if matches!(self.tok(self.pos), Some(Tok::Punct('<'))) {
                            self.skip_generics();
                        } else {
                            self.pos += 1;
                        }
                    }
                }
                Some(Tok::Ident(s)) => {
                    let target = if saw_for { &mut second_path } else { &mut first_path };
                    target.push(s.clone());
                    self.pos += 1;
                }
                Some(Tok::Punct('<')) => self.skip_generics(),
                Some(_) => self.pos += 1,
                None => return None,
            }
        }
        let (type_name, trait_name) = if saw_for {
            (second_path.pop().unwrap_or_default(), first_path.pop())
        } else {
            (first_path.pop().unwrap_or_default(), None)
        };
        self.pos += 1; // `{`
        let children = self.items_until(Some('}'));
        self.pos += 1; // `}`
        let kind = ItemKind::Impl { type_name, trait_name };
        Some(self.finish(kind, String::new(), start, attr_line, kw, None, children))
    }

    /// `trait Name … { members }`.
    fn item_trait(&mut self, start: usize, attr_line: Option<u32>) -> Option<Item> {
        let kw = self.pos;
        self.pos += 1;
        let name = self.ident(self.pos)?.to_owned();
        self.pos += 1;
        loop {
            match self.tok(self.pos) {
                Some(Tok::Punct('{')) => break,
                Some(Tok::Punct('<')) => self.skip_generics(),
                Some(_) => self.pos += 1,
                None => return None,
            }
        }
        self.pos += 1;
        let children = self.items_until(Some('}'));
        self.pos += 1;
        Some(self.finish(ItemKind::Trait, name, start, attr_line, kw, None, children))
    }

    /// `use path::{tree};` — expands the tree into [`ItemTree::uses`].
    fn item_use(&mut self, start: usize, attr_line: Option<u32>) -> Option<Item> {
        let kw = self.pos;
        self.pos += 1;
        let mut prefix: Vec<String> = Vec::new();
        let mut stack: Vec<usize> = Vec::new(); // prefix lengths at `{`
        let mut uses: Vec<String> = Vec::new();
        // Whether the prefix ends in a leaf not yet emitted — cleared when
        // a group opens or closes so `use a::{b, c};` emits only `a::b`
        // and `a::c`, never the bare `a` prefix.
        let mut pending = false;
        loop {
            match self.tok(self.pos) {
                Some(Tok::Punct(';')) | None => {
                    if pending && !prefix.is_empty() {
                        uses.push(prefix.join("::"));
                    }
                    self.pos += 1;
                    break;
                }
                Some(Tok::Ident(s)) if s == "as" => {
                    // Alias: the aliased name replaces the last segment for
                    // resolution purposes; keep the real path, skip alias.
                    self.pos += 2;
                }
                Some(Tok::Ident(s)) => {
                    prefix.push(s.clone());
                    pending = true;
                    self.pos += 1;
                }
                Some(Tok::Punct('*')) => {
                    prefix.push("*".to_owned());
                    pending = true;
                    self.pos += 1;
                }
                Some(Tok::Op("::")) => self.pos += 1,
                Some(Tok::Punct('{')) => {
                    stack.push(prefix.len());
                    pending = false;
                    self.pos += 1;
                }
                Some(Tok::Punct(',')) => {
                    if pending && !prefix.is_empty() {
                        uses.push(prefix.join("::"));
                    }
                    let keep = stack.last().copied().unwrap_or(0);
                    prefix.truncate(keep);
                    pending = false;
                    self.pos += 1;
                }
                Some(Tok::Punct('}')) => {
                    if pending && !prefix.is_empty() {
                        uses.push(prefix.join("::"));
                    }
                    let keep = stack.pop().unwrap_or(0);
                    prefix.truncate(keep);
                    pending = false;
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
            }
        }
        self.tree.uses.extend(uses);
        Some(self.finish(ItemKind::Use, String::new(), start, attr_line, kw, None, vec![]))
    }

    /// `static [mut] NAME: Type = …;`.
    fn item_static(&mut self, start: usize, attr_line: Option<u32>) -> Option<Item> {
        let kw = self.pos;
        self.pos += 1;
        let mutable = self.is_ident(self.pos, "mut");
        if mutable {
            self.pos += 1;
        }
        let name = self.ident(self.pos)?.to_owned();
        self.pos += 1;
        // Type tokens between `:` and `=` (or `;`).
        let mut ty = String::new();
        if matches!(self.tok(self.pos), Some(Tok::Punct(':'))) {
            self.pos += 1;
            while let Some(tok) = self.tok(self.pos) {
                match tok {
                    Tok::Punct('=') | Tok::Punct(';') => break,
                    Tok::Ident(s) => {
                        if !ty.is_empty() {
                            ty.push(' ');
                        }
                        ty.push_str(s);
                        self.pos += 1;
                    }
                    _ => self.pos += 1,
                }
            }
        }
        self.skip_to_semi();
        let kind = ItemKind::Static { mutable, ty };
        Some(self.finish(kind, name, start, attr_line, kw, None, vec![]))
    }

    /// `const NAME: Type = …;`.
    fn item_const(&mut self, start: usize, attr_line: Option<u32>) -> Option<Item> {
        let kw = self.pos;
        self.pos += 1;
        // `const _: () = …;` uses `_`, which lexes as an ident.
        let name = self.ident(self.pos)?.to_owned();
        self.pos += 1;
        self.skip_to_semi();
        Some(self.finish(ItemKind::Const, name, start, attr_line, kw, None, vec![]))
    }

    /// `struct` / `enum` / `union` with `;`, `(…);` or `{…}` body.
    fn item_typedef(&mut self, start: usize, attr_line: Option<u32>) -> Option<Item> {
        let kw = self.pos;
        self.pos += 1;
        let name = self.ident(self.pos)?.to_owned();
        self.pos += 1;
        loop {
            match self.tok(self.pos) {
                Some(Tok::Punct(';')) => {
                    self.pos += 1;
                    break;
                }
                Some(Tok::Punct('{')) => {
                    self.skip_balanced('{', '}');
                    break;
                }
                Some(Tok::Punct('(')) => {
                    self.skip_balanced('(', ')');
                    // Tuple struct: consume the trailing `;` (and any
                    // where clause before it).
                }
                Some(Tok::Punct('<')) => self.skip_generics(),
                Some(_) => self.pos += 1,
                None => break,
            }
        }
        Some(self.finish(ItemKind::TypeDef, name, start, attr_line, kw, None, vec![]))
    }

    /// `type Name … = …;` and other single-semicolon items.
    fn item_semi(
        &mut self,
        start: usize,
        attr_line: Option<u32>,
        kind: ItemKind,
        named: bool,
    ) -> Option<Item> {
        let kw = self.pos;
        self.pos += 1;
        let name = if named { self.ident(self.pos)?.to_owned() } else { String::new() };
        self.skip_to_semi();
        Some(self.finish(kind, name, start, attr_line, kw, None, vec![]))
    }

    /// `macro_rules! name { … }`.
    fn item_macro_def(&mut self, start: usize, attr_line: Option<u32>) -> Option<Item> {
        let kw = self.pos;
        self.pos += 1; // macro_rules
        if !matches!(self.tok(self.pos), Some(Tok::Punct('!'))) {
            return None;
        }
        self.pos += 1;
        let name = self.ident(self.pos)?.to_owned();
        self.pos += 1;
        if !matches!(self.tok(self.pos), Some(Tok::Punct('{'))) {
            return None;
        }
        self.skip_balanced('{', '}');
        Some(self.finish(ItemKind::MacroDef, name, start, attr_line, kw, None, vec![]))
    }

    /// An item-position macro invocation: `path::name! { … }` or
    /// `name!(…);`. Only accepted when the `!` is present — anything else
    /// is not an item and falls through to recovery.
    fn item_macro_call(&mut self, start: usize, attr_line: Option<u32>) -> Option<Item> {
        let kw = self.pos;
        // Path segments: ident (:: ident)*.
        self.pos += 1;
        while matches!(self.tok(self.pos), Some(Tok::Op("::")))
            && matches!(self.tok(self.pos + 1), Some(Tok::Ident(_)))
        {
            self.pos += 2;
        }
        if !matches!(self.tok(self.pos), Some(Tok::Punct('!'))) {
            return None;
        }
        self.pos += 1;
        match self.tok(self.pos) {
            Some(Tok::Punct('{')) => self.skip_balanced('{', '}'),
            Some(Tok::Punct('(')) => {
                self.skip_balanced('(', ')');
                self.skip_to_semi();
            }
            Some(Tok::Punct('[')) => {
                self.skip_balanced('[', ']');
                self.skip_to_semi();
            }
            _ => return None,
        }
        Some(self.finish(ItemKind::MacroCall, String::new(), start, attr_line, kw, None, vec![]))
    }

    /// `extern crate name;` or `extern "C" { … }`.
    fn item_extern(&mut self, start: usize, attr_line: Option<u32>) -> Option<Item> {
        let kw = self.pos;
        self.pos += 1;
        if self.is_ident(self.pos, "crate") {
            self.skip_to_semi();
        } else {
            if matches!(self.tok(self.pos), Some(Tok::Str(_))) {
                self.pos += 1;
            }
            if matches!(self.tok(self.pos), Some(Tok::Punct('{'))) {
                self.skip_balanced('{', '}');
            } else {
                self.skip_to_semi();
            }
        }
        Some(self.finish(ItemKind::Extern, String::new(), start, attr_line, kw, None, vec![]))
    }

    /// Advances past the next `;` at brace/paren depth 0 (initializer
    /// expressions may contain `;` inside nested blocks).
    fn skip_to_semi(&mut self) {
        let mut depth = 0usize;
        while let Some(tok) = self.tok(self.pos) {
            match tok {
                Tok::Punct('{' | '(' | '[') => depth += 1,
                Tok::Punct('}' | ')' | ']') => depth = depth.saturating_sub(1),
                Tok::Punct(';') if depth == 0 => {
                    self.pos += 1;
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }
}

/// Tracks, per open brace, whether it opened a `match` body — the one
/// token of memory needed to tell a leading or-pattern pipe
/// (`match x { | A | B => … }`) from a closure opener, since both can
/// follow `{` or `,`. The decision cannot be made from lookbehind alone:
/// it depends on *why* the innermost brace was opened.
///
/// A brace opens a match body exactly when a `match` keyword was seen at
/// the same paren/bracket depth and no `;` intervened; parens reset the
/// question (`f(a, |x| x)` inside an arm is a closure again because its
/// group depth differs from the arm's).
struct MatchCtx {
    /// Current paren/bracket nesting depth.
    group_depth: usize,
    /// Group depth of a `match` keyword whose body brace has not opened yet.
    pending: Option<usize>,
    /// One entry per open `{`: `Some(group_depth)` when it opened a match
    /// body at that depth.
    braces: Vec<Option<usize>>,
}

impl MatchCtx {
    fn new() -> MatchCtx {
        MatchCtx { group_depth: 0, pending: None, braces: Vec::new() }
    }

    /// Observes one token about to be consumed by the body scanner. Multi-
    /// token constructs the scanner hands off whole (nested fns, closures)
    /// are invisible here, which is fine: they are brace-balanced, so the
    /// stack stays consistent.
    fn see(&mut self, tok: &Tok) {
        match tok {
            Tok::Punct('(' | '[') => self.group_depth += 1,
            Tok::Punct(')' | ']') => self.group_depth = self.group_depth.saturating_sub(1),
            Tok::Punct('{') => {
                let is_match = self.pending == Some(self.group_depth);
                self.pending = None;
                self.braces.push(is_match.then_some(self.group_depth));
            }
            Tok::Punct('}') => {
                self.braces.pop();
            }
            Tok::Punct(';') => self.pending = None,
            Tok::Ident(s) if s == "match" => self.pending = Some(self.group_depth),
            _ => {}
        }
    }

    /// Whether a `|` preceded by `prev` is the leading pipe of a match-arm
    /// or-pattern: directly after `{` or `,` while the innermost brace is a
    /// match body at the current group depth.
    fn pipe_is_pattern(&self, prev: Option<&Tok>) -> bool {
        matches!(prev, Some(Tok::Punct('{' | ',')))
            && self.braces.last() == Some(&Some(self.group_depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ItemTree {
        parse(&lex(src))
    }

    fn kinds(tree: &ItemTree) -> Vec<String> {
        tree.items.iter().map(|i| format!("{}:{}", discr(&i.kind), i.name)).collect()
    }

    fn discr(kind: &ItemKind) -> &'static str {
        match kind {
            ItemKind::Mod => "Mod",
            ItemKind::Fn => "Fn",
            ItemKind::Impl { .. } => "Impl",
            ItemKind::Trait => "Trait",
            ItemKind::Use => "Use",
            ItemKind::Static { .. } => "Static",
            ItemKind::Const => "Const",
            ItemKind::TypeDef => "TypeDef",
            ItemKind::TypeAlias => "TypeAlias",
            ItemKind::MacroDef => "MacroDef",
            ItemKind::MacroCall => "MacroCall",
            ItemKind::Extern => "Extern",
            ItemKind::Closure { .. } => "Closure",
        }
    }

    #[test]
    fn parses_the_common_item_shapes() {
        let tree = parsed(
            "use std::collections::{HashMap, hash_map::Entry};\n\
             pub mod inner { pub fn f() {} }\n\
             #[derive(Debug)]\npub struct S { x: u32 }\n\
             pub enum E { A, B(u32) }\n\
             impl S { pub fn m(&self) -> u32 { self.x } }\n\
             impl Clone for S { fn clone(&self) -> S { S { x: self.x } } }\n\
             pub trait T { fn req(&self); fn def(&self) {} }\n\
             static mut COUNTER: u32 = 0;\n\
             const LIMIT: usize = 8;\n\
             type Alias = Vec<u32>;\n\
             pub fn free<T: Clone>(x: T) -> T { x.clone() }\n",
        );
        assert!(tree.errors.is_empty(), "parse errors: {:?}", tree.errors);
        assert_eq!(
            kinds(&tree),
            vec![
                "Use:",
                "Mod:inner",
                "TypeDef:S",
                "TypeDef:E",
                "Impl:",
                "Impl:",
                "Trait:T",
                "Static:COUNTER",
                "Const:LIMIT",
                "TypeAlias:Alias",
                "Fn:free"
            ]
        );
        assert_eq!(
            tree.uses,
            vec!["std::collections::HashMap", "std::collections::hash_map::Entry"]
        );
        let imp = &tree.items[4];
        assert_eq!(imp.kind, ItemKind::Impl { type_name: "S".into(), trait_name: None });
        assert_eq!(imp.children.len(), 1);
        let timp = &tree.items[5];
        assert_eq!(
            timp.kind,
            ItemKind::Impl { type_name: "S".into(), trait_name: Some("Clone".into()) }
        );
        let st = &tree.items[7];
        assert_eq!(st.kind, ItemKind::Static { mutable: true, ty: "u32".into() });
    }

    #[test]
    fn path_qualified_item_macro_calls_parse() {
        let tree = parsed(
            "crate::object!(S { x });\n\
             self::m!(a);\n\
             super::outer::m! { b }\n\
             pub fn after() {}\n",
        );
        assert!(tree.errors.is_empty(), "parse errors: {:?}", tree.errors);
        assert_eq!(kinds(&tree), vec!["MacroCall:", "MacroCall:", "MacroCall:", "Fn:after"]);
    }

    #[test]
    fn nested_fns_and_closures_become_children() {
        let tree = parsed(
            "pub fn outer(xs: &[u32]) -> Vec<u32> {\n\
                 fn helper(x: u32) -> u32 { x + 1 }\n\
                 let ys = par_map(xs, |&x| helper(x));\n\
                 ys.iter().map(|y| y * 2).collect()\n\
             }\n",
        );
        assert!(tree.errors.is_empty(), "parse errors: {:?}", tree.errors);
        let outer = &tree.items[0];
        assert_eq!(outer.children.len(), 3, "helper + two closures: {:#?}", outer.children);
        assert_eq!(outer.children[0].name, "helper");
        assert_eq!(
            outer.children[1].kind,
            ItemKind::Closure { enclosing_call: Some("par_map".into()) }
        );
        assert_eq!(
            outer.children[2].kind,
            ItemKind::Closure { enclosing_call: Some("map".into()) }
        );
    }

    #[test]
    fn array_and_tuple_return_types_keep_the_body() {
        // The `;` inside an array type must not end the fn as bodiless.
        let tree = parsed(
            "pub fn breakdown(xs: &[u64]) -> (f64, [f64; 3]) {\n\
                 helper();\n\
                 (0.0, [0.0; 3])\n\
             }\n\
             fn shape() -> [u8; 4] { [0; 4] }\n\
             fn helper() {}\n",
        );
        assert!(tree.errors.is_empty(), "parse errors: {:?}", tree.errors);
        assert_eq!(kinds(&tree), vec!["Fn:breakdown", "Fn:shape", "Fn:helper"]);
        assert!(tree.items[0].body.is_some(), "breakdown keeps its body");
        assert!(tree.items[1].body.is_some(), "shape keeps its body");
    }

    #[test]
    fn pipes_as_operators_are_not_closures() {
        let tree = parsed("pub fn f(a: u32, b: u32) -> u32 { let c = a | b; c || 3 > 2; a }\n");
        assert!(tree.errors.is_empty());
        // `a | b` and `c || …` after identifiers are operators.
        assert!(tree.items[0].children.is_empty(), "{:#?}", tree.items[0].children);
    }

    #[test]
    fn spans_are_monotonic_and_nested() {
        let tree = parsed(
            "pub fn a() { body(); }\n\n\
             pub mod m {\n    pub fn b() {\n        inner();\n    }\n}\n",
        );
        assert!(tree.errors.is_empty());
        let a = &tree.items[0];
        let m = &tree.items[1];
        assert_eq!((a.line, a.end_line), (1, 1));
        assert_eq!((m.line, m.end_line), (3, 7));
        let b = &m.children[0];
        assert_eq!((b.line, b.end_line), (4, 6));
        assert!(b.line >= m.line && b.end_line <= m.end_line);
    }

    #[test]
    fn match_arm_pipes_do_not_start_closures() {
        let tree = parsed(
            "pub fn f(x: Option<u32>) -> u32 {\n\
                 match x { Some(0) | None => 0, Some(n) => n }\n\
             }\n",
        );
        assert!(tree.errors.is_empty(), "parse errors: {:?}", tree.errors);
        assert!(tree.items[0].children.is_empty(), "{:#?}", tree.items[0].children);
    }

    #[test]
    fn leading_or_pattern_pipes_do_not_start_closures() {
        // A leading `|` after `{` or `,` inside a match body is a pattern
        // pipe; the same tokens in expression position open a closure.
        let tree = parsed(
            "pub fn f(x: Option<u32>) -> u32 {\n\
                 match x {\n\
                     | Some(0) | Some(1) => 0,\n\
                     | Some(n) => n,\n\
                     | None => 1,\n\
                 }\n\
             }\n",
        );
        assert!(tree.errors.is_empty(), "parse errors: {:?}", tree.errors);
        assert!(tree.items[0].children.is_empty(), "{:#?}", tree.items[0].children);
    }

    #[test]
    fn closures_in_call_args_inside_match_arms_still_parse() {
        // Inside an arm, a `|` after `(` or after `,` at a deeper group
        // depth is back in expression position: these ARE closures.
        let tree = parsed(
            "pub fn f(x: Option<Vec<u32>>) -> u32 {\n\
                 match x {\n\
                     | Some(v) => v.iter().map(|y| y + 1).sum(),\n\
                     | None => apply(0, |z| z),\n\
                 }\n\
             }\n",
        );
        assert!(tree.errors.is_empty(), "parse errors: {:?}", tree.errors);
        let kinds: Vec<_> = tree.items[0].children.iter().map(|c| c.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                ItemKind::Closure { enclosing_call: Some("map".into()) },
                ItemKind::Closure { enclosing_call: Some("apply".into()) },
            ],
            "{:#?}",
            tree.items[0].children
        );
    }

    #[test]
    fn or_pattern_inside_par_map_closure_keeps_capture_edges() {
        // Regression: the leading pipe used to be misparsed as a closure
        // opener, swallowing the rest of the match and misattributing the
        // `par_map` capture edge.
        let tree = parsed(
            "pub fn f(xs: &[Option<u32>]) -> Vec<u32> {\n\
                 par_map(xs, |x| match x {\n\
                     | Some(v) => *v,\n\
                     | None => 0,\n\
                 })\n\
             }\n",
        );
        assert!(tree.errors.is_empty(), "parse errors: {:?}", tree.errors);
        let outer = &tree.items[0];
        assert_eq!(outer.children.len(), 1, "{:#?}", outer.children);
        assert_eq!(
            outer.children[0].kind,
            ItemKind::Closure { enclosing_call: Some("par_map".into()) }
        );
        assert!(outer.children[0].children.is_empty(), "{:#?}", outer.children[0].children);
    }
}
