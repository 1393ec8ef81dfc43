//! Token-level def/use scanners shared by the statement parser and the
//! flow rules: which identifiers a pattern binds and which a range
//! reads.

use crate::lexer::{Tok, Token};
use crate::parser::is_keyword;

/// Non-keyword identifiers in `toks[lo..hi]`, deduplicated in first-use
/// order. `self` counts: captured receivers matter to the flow rules.
pub fn idents_in(toks: &[Token], lo: usize, hi: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for tok in &toks[lo.min(toks.len())..hi.min(toks.len())] {
        if let Tok::Ident(s) = &tok.tok {
            if (s == "self" || !is_keyword(s)) && !out.iter().any(|o| o == s) {
                out.push(s.clone());
            }
        }
    }
    out
}

/// The first variable-ish identifier in `toks[lo..hi]` (`self` included,
/// other keywords skipped): the base of an assignment target like
/// `self.cells[i].total`.
pub fn first_ident(toks: &[Token], lo: usize, hi: usize) -> Option<String> {
    for tok in &toks[lo.min(toks.len())..hi.min(toks.len())] {
        if let Tok::Ident(s) = &tok.tok {
            if s == "self" || !is_keyword(s) {
                return Some(s.clone());
            }
        }
    }
    None
}

/// Identifiers a pattern range *binds*: lowercase/underscore-leading
/// idents that are not keywords, not struct-pattern field names
/// (followed by `:`), and not path segments (adjacent to `::`).
pub fn pattern_bindings(toks: &[Token], lo: usize, hi: usize) -> Vec<String> {
    let lo = lo.min(toks.len());
    let hi = hi.min(toks.len());
    let mut out: Vec<String> = Vec::new();
    for at in lo..hi {
        let Tok::Ident(s) = &toks[at].tok else { continue };
        if is_keyword(s) && s != "self" {
            continue;
        }
        if !s.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') && s != "self" {
            continue; // types, enum variants, consts
        }
        if s == "_" {
            continue;
        }
        // Adjacency checks stay inside the range: a `:` just past it is
        // a stripped type annotation, not a struct-pattern field colon.
        let next = (at + 1 < hi).then(|| &toks[at + 1].tok);
        if matches!(next, Some(t) if t.is_punct(':') || t.is_op("::")) {
            continue; // field name or path segment
        }
        let prev = toks[lo..at].last().map(|t| &t.tok);
        if matches!(prev, Some(t) if t.is_op("::")) {
            continue; // path tail (`module::constant`)
        }
        if !out.iter().any(|o| o == s) {
            out.push(s.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).tokens
    }

    #[test]
    fn idents_and_bindings() {
        let t = toks("let Some(Point { x: px, y }) = opt;");
        let all = idents_in(&t, 0, t.len());
        assert!(all.contains(&"px".to_string()) && all.contains(&"opt".to_string()));
        let binds = pattern_bindings(&t, 0, t.len() - 2);
        assert_eq!(binds, vec!["px", "y"]);
    }
}
