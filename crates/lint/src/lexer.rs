//! A small hand-rolled Rust lexer: enough fidelity for line-accurate,
//! comment/string/attribute-aware pattern rules, with no attempt at a
//! full parse.
//!
//! The token stream drops comments (they are collected separately as
//! [`Comment`] trivia so rules like `unsafe-needs-safety-comment` and the
//! inline `// fbox-lint: allow(...)` suppressions can still see them) and
//! collapses every literal's text it does not need. What it does keep
//! precise is the thing the rules depend on: float vs. integer literals,
//! lifetimes vs. char literals, raw/byte strings, nested block comments,
//! and multi-character operators such as `==`, `::` and `->`.

/// One lexical token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token payload.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// Token payload kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `unsafe`, `partial_cmp`, ...).
    Ident(String),
    /// Lifetime such as `'a` (label or lifetime position).
    Lifetime(String),
    /// Integer literal (`42`, `0xff`, `1_000u64`).
    Int(String),
    /// Float literal (`0.0`, `1.`, `2e-3`, `1f64`).
    Float(String),
    /// Any string literal (`"..."`, `r#"..."#`, `b"..."`). The content is
    /// elided; only its character count is kept (rules distinguish
    /// `expect("named invariant")` from `expect("")` by emptiness).
    Str(usize),
    /// Char or byte literal (`'x'`, `b'\n'`); content elided.
    Char,
    /// Multi-character operator (`==`, `!=`, `::`, `->`, `..`, ...).
    Op(&'static str),
    /// Single punctuation character (`.`, `(`, `#`, `{`, ...).
    Punct(char),
}

impl Tok {
    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        matches!(self, Tok::Ident(s) if s == name)
    }

    /// Whether this token is the multi-char operator `op`.
    pub fn is_op(&self, op: &str) -> bool {
        matches!(self, Tok::Op(s) if *s == op)
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }
}

/// A comment, kept out-of-band from the token stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (same as `line` for `//`).
    pub end_line: u32,
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
}

/// Lexer output: the token stream plus comment trivia.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Multi-character operators, longest first so greedy matching is correct.
const OPS: &[&str] = &[
    "..=", "<<=", ">>=", "...", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Lexes `src` into tokens and comments. Unterminated constructs are
/// tolerated (the remainder of the file is consumed as that construct);
/// a lexical analyzer for a linter must never panic on weird input.
pub fn lex(src: &str) -> Lexed {
    Lexer { chars: src.chars().collect(), pos: 0, line: 1, out: Lexed::default() }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                'r' | 'b' if self.raw_or_byte_literal() => {}
                '\'' => self.lifetime_or_char(),
                c if c.is_ascii_digit() => self.number(),
                c if c.is_alphabetic() || c == '_' => self.ident(),
                _ => self.operator(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push(&mut self, tok: Tok, line: u32) {
        self.out.tokens.push(Token { tok, line });
    }

    fn line_comment(&mut self) {
        let (start, line) = (self.pos, self.line);
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.out.comments.push(Comment { line, end_line: line, text });
    }

    fn block_comment(&mut self) {
        let (start, line) = (self.pos, self.line);
        self.pos += 2;
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (Some('\n'), _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                (Some(_), _) => self.pos += 1,
                (None, _) => break,
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.out.comments.push(Comment { line, end_line: self.line, text });
    }

    /// Skips a `\x` escape, counting the line when the escaped character
    /// is a newline (string-literal line continuations).
    fn skip_escape(&mut self) {
        self.pos += 1;
        if self.peek(0) == Some('\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    /// Consumes a `"..."` string body (opening quote at `self.pos`).
    fn string(&mut self) {
        let line = self.line;
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => self.skip_escape(),
                '"' => break,
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        let len = self.pos - start;
        self.pos += 1; // closing quote (or EOF)
        self.push(Tok::Str(len), line);
    }

    /// Handles `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, `b'x'`.
    /// Returns `false` when the `r`/`b` is just an identifier start.
    fn raw_or_byte_literal(&mut self) -> bool {
        let mut i = 1; // chars after the leading r/b
        let first = self.peek(0).unwrap_or(' ');
        if first == 'b' && self.peek(1) == Some('r') {
            i = 2;
        }
        if first == 'b' && self.peek(1) == Some('\'') {
            // byte char literal b'x'
            let line = self.line;
            self.pos += 2;
            while let Some(c) = self.peek(0) {
                match c {
                    '\\' => self.skip_escape(),
                    '\'' => {
                        self.pos += 1;
                        break;
                    }
                    _ => self.pos += 1,
                }
            }
            self.push(Tok::Char, line);
            return true;
        }
        // Count `#`s between the prefix and the opening quote.
        let mut hashes = 0usize;
        while self.peek(i + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(i + hashes) != Some('"') {
            return false; // plain identifier like `radius` or `bins`
        }
        let raw = first == 'r' || self.peek(1) == Some('r');
        let line = self.line;
        self.pos += i + hashes + 1;
        let content_start = self.pos;
        let mut len = None;
        // Scan until closing quote followed by the same number of hashes.
        while let Some(c) = self.peek(0) {
            match c {
                '\\' if !raw => self.skip_escape(),
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                '"' => {
                    let mut ok = true;
                    for h in 0..hashes {
                        if self.peek(1 + h) != Some('#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        len = Some(self.pos - content_start);
                        self.pos += 1 + hashes;
                        break;
                    }
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        // Unterminated literal: the rest of the file is the content.
        let len = len.unwrap_or_else(|| self.pos.saturating_sub(content_start));
        self.push(Tok::Str(len), line);
        true
    }

    /// Disambiguates lifetimes (`'a`) from char literals (`'a'`, `'\n'`).
    fn lifetime_or_char(&mut self) {
        let line = self.line;
        let next = self.peek(1);
        let is_lifetime = match next {
            Some(c) if c.is_alphabetic() || c == '_' => self.peek(2) != Some('\''),
            _ => false,
        };
        if is_lifetime {
            self.pos += 1;
            let start = self.pos;
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let name: String = self.chars[start..self.pos].iter().collect();
            self.push(Tok::Lifetime(name), line);
        } else {
            self.pos += 1;
            while let Some(c) = self.peek(0) {
                match c {
                    '\\' => self.skip_escape(),
                    '\'' => {
                        self.pos += 1;
                        break;
                    }
                    '\n' => break, // stray quote; bail rather than eat the file
                    _ => self.pos += 1,
                }
            }
            self.push(Tok::Char, line);
        }
    }

    fn number(&mut self) {
        let (start, line) = (self.pos, self.line);
        let mut is_float = false;
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            self.pos += 2;
            while matches!(self.peek(0), Some(c) if c.is_ascii_hexdigit() || c == '_') {
                self.pos += 1;
            }
        } else {
            self.digits();
            // A `.` continues the float only when NOT `..` (range) and NOT
            // `.ident` (method call / field access on an integer).
            if self.peek(0) == Some('.') {
                let after = self.peek(1);
                let method_or_range =
                    matches!(after, Some(c) if c.is_alphabetic() || c == '_' || c == '.');
                if !method_or_range {
                    is_float = true;
                    self.pos += 1;
                    self.digits();
                }
            }
            if matches!(self.peek(0), Some('e' | 'E'))
                && matches!(self.peek(1), Some(c) if c.is_ascii_digit() || c == '+' || c == '-')
            {
                is_float = true;
                self.pos += 1;
                if matches!(self.peek(0), Some('+' | '-')) {
                    self.pos += 1;
                }
                self.digits();
            }
        }
        // Type suffix (`u64`, `f32`, `usize`, ...).
        let suffix_start = self.pos;
        while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
            self.pos += 1;
        }
        let suffix: String = self.chars[suffix_start..self.pos].iter().collect();
        if suffix.starts_with('f') {
            is_float = true;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(if is_float { Tok::Float(text) } else { Tok::Int(text) }, line);
    }

    fn digits(&mut self) {
        while matches!(self.peek(0), Some(c) if c.is_ascii_digit() || c == '_') {
            self.pos += 1;
        }
    }

    fn ident(&mut self) {
        let (start, line) = (self.pos, self.line);
        while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
            self.pos += 1;
        }
        let name: String = self.chars[start..self.pos].iter().collect();
        self.push(Tok::Ident(name), line);
    }

    fn operator(&mut self) {
        let line = self.line;
        let first = self.chars[self.pos];
        for op in OPS.iter().filter(|op| op.starts_with(first)) {
            if op.chars().enumerate().all(|(i, c)| self.peek(i) == Some(c)) {
                self.pos += op.len();
                self.push(Tok::Op(op), line);
                return;
            }
        }
        self.pos += 1;
        self.push(Tok::Punct(first), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).tokens.into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn floats_vs_ints_vs_ranges_vs_methods() {
        assert_eq!(
            toks("1.0 1. 2e-3 1f64 42 0xff 0..10 1.max(2)"),
            vec![
                Tok::Float("1.0".into()),
                Tok::Float("1.".into()),
                Tok::Float("2e-3".into()),
                Tok::Float("1f64".into()),
                Tok::Int("42".into()),
                Tok::Int("0xff".into()),
                Tok::Int("0".into()),
                Tok::Op(".."),
                Tok::Int("10".into()),
                Tok::Int("1".into()),
                Tok::Punct('.'),
                Tok::Ident("max".into()),
                Tok::Punct('('),
                Tok::Int("2".into()),
                Tok::Punct(')'),
            ]
        );
    }

    #[test]
    fn strings_and_comments_do_not_leak_tokens() {
        let lexed =
            lex("let x = \"a == 0.0 //\"; // trailing == 1.0\n/* block\n0.0 == y */ fn f() {}");
        assert!(!lexed.tokens.iter().any(|t| matches!(t.tok, Tok::Float(_))));
        assert!(!lexed.tokens.iter().any(|t| t.tok.is_op("==")));
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[1].end_line, 3);
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let lexed = lex("r#\"raw \" quote\"# b\"bytes\" 'a' '\\n' fn f<'a>(x: &'a str) {}");
        let strs = lexed.tokens.iter().filter(|t| matches!(t.tok, Tok::Str(_))).count();
        let chars = lexed.tokens.iter().filter(|t| t.tok == Tok::Char).count();
        let lifetimes = lexed.tokens.iter().filter(|t| matches!(t.tok, Tok::Lifetime(_))).count();
        assert_eq!((strs, chars, lifetimes), (2, 2, 2));
    }

    #[test]
    fn multi_char_operators_are_single_tokens() {
        assert_eq!(
            toks("a == b != c :: d -> e => f"),
            vec![
                Tok::Ident("a".into()),
                Tok::Op("=="),
                Tok::Ident("b".into()),
                Tok::Op("!="),
                Tok::Ident("c".into()),
                Tok::Op("::"),
                Tok::Ident("d".into()),
                Tok::Op("->"),
                Tok::Ident("e".into()),
                Tok::Op("=>"),
                Tok::Ident("f".into()),
            ]
        );
    }

    #[test]
    fn escaped_newline_in_string_still_counts_the_line() {
        // `"a\` + newline + `b"` — a line-continuation escape.
        let lexed = lex("\"a\\\nb\"\nx");
        assert_eq!(lexed.tokens[1].line, 3);
    }

    #[test]
    fn lines_are_tracked_through_every_construct() {
        let lexed = lex("a\n\"multi\nline\"\n/* c\n*/\nb");
        let a = &lexed.tokens[0];
        let b = &lexed.tokens[2];
        assert_eq!((a.line, b.line), (1, 6));
    }

    #[test]
    fn string_literals_carry_their_content_length() {
        let lexed = lex("\"\" \"abc\" r#\"xy\"# b\"q\"");
        let lens: Vec<usize> = lexed
            .tokens
            .iter()
            .filter_map(|t| match t.tok {
                Tok::Str(n) => Some(n),
                _ => None,
            })
            .collect();
        assert_eq!(lens, vec![0, 3, 2, 1]);
    }
}
