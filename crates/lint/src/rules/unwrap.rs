//! `unwrap-in-lib`: panicking extractors in library code.
//!
//! A single stray `unwrap()` in the measure or cube layer turns a
//! recoverable "this group has no observations" condition into a crash of
//! the whole study run. Library code must return `Result`/`Option` or use
//! a contextual `expect` whose message names the invariant: exactly one
//! non-empty string literal, `.expect("shares are bounded")`. A bare
//! `expect` — an empty literal, a computed message, a formatted one — is
//! an `unwrap` by another name and is flagged with it.

use crate::lexer::{Tok, Token};
use crate::rules::{emit, Finding, Rule, Severity};
use crate::source::SourceFile;

/// Flags `.unwrap()` and bare `.expect(…)` in library (non-test, non-bin)
/// code.
pub struct UnwrapInLib;

impl Rule for UnwrapInLib {
    fn id(&self) -> &'static str {
        "unwrap-in-lib"
    }

    fn summary(&self) -> &'static str {
        "`.unwrap()`/bare `.expect(…)` in library code: return Result/Option or name the invariant"
    }

    fn default_severity(&self) -> Severity {
        Severity::Deny
    }

    /// Matches `.unwrap(` / `.expect(` method-call syntax. The leading
    /// `.` distinguishes calls from definitions (`fn unwrap`) and paths
    /// (`Option::unwrap`); flagging only call sites keeps the rule
    /// actionable.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        let toks = &file.lexed.tokens;
        for i in 1..toks.len() {
            let Tok::Ident(name) = &toks[i].tok else { continue };
            let panics = match name.as_str() {
                "unwrap" => true,
                "expect" => !names_invariant(toks, i),
                _ => false,
            };
            if panics
                && toks[i - 1].tok.is_punct('.')
                && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                && file.is_library_code(toks[i].line)
            {
                emit(self, file, toks[i].line, out);
            }
        }
    }
}

/// Whether the `expect` at `i` takes exactly one non-empty string literal.
fn names_invariant(toks: &[Token], i: usize) -> bool {
    matches!(
        (toks.get(i + 2).map(|t| &t.tok), toks.get(i + 3).map(|t| &t.tok)),
        (Some(Tok::Str(n)), Some(Tok::Punct(')'))) if *n > 0
    )
}
