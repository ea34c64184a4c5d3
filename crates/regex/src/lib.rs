//! # cfg-regex — token-pattern regular expressions
//!
//! The token list of a Lex/Yacc-style grammar defines each terminal as a
//! regular expression over bytes (e.g. `STRING [a-zA-Z0-9]+` or a quoted
//! literal such as `"<methodCall>"`). This crate implements the regex
//! subset used by the paper *Context-Free-Grammar based Token Tagger in
//! Reconfigurable Devices* (Cho, Moscola, Lockwood, 2006):
//!
//! * byte literals and escape sequences,
//! * character classes `[a-zA-Z0-9]`, negated classes `[^>]`,
//! * the `.` wildcard (any byte except `\n`, as in Lex),
//! * postfix `?` (one-or-none), `+` (one-or-more), `*` (zero-or-more)
//!   — the templates of Figure 6 of the paper,
//! * prefix `!` (single-byte complement — Figure 6b),
//! * grouping `( … )` and alternation `|` inside groups.
//!
//! Two evaluation models are provided and cross-checked by tests:
//!
//! * [`nfa`] — a software matcher over the Glushkov position automaton,
//!   the *reference semantics* (also used by the software-lexer baseline),
//! * [`template`] — the Glushkov construction itself ([`Template`]), which
//!   is exactly the structure the hardware generator lowers into pipelined
//!   AND-gate chains: **one position = one flip-flop**, the `follow`
//!   relation = the wiring between stages, and the `last` set = the match
//!   taps (with the Figure 7 longest-match lookahead derived from the
//!   follow classes).
//!
//! ```
//! use cfg_regex::{Pattern, MatchSemantics};
//!
//! let p = Pattern::parse("[+-]?[0-9]+").unwrap();
//! assert!(p.is_full_match(b"-42"));
//! assert_eq!(p.find_longest_at(b"123abc", 0, MatchSemantics::GlobalLongest), Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod classes;
pub mod nfa;
pub mod parse;
pub mod template;

pub use ast::Ast;
pub use classes::ByteSet;
pub use nfa::{Match, MatchSemantics, Nfa};
pub use parse::ParseError;
pub use template::Template;

use std::sync::Arc;

/// Most Glushkov positions a pattern, or a whole compiled grammar, may
/// hold. Table 1's largest design has 3,000 pattern bytes. The bound
/// stops a short pattern such as `a{1000000000}` from expanding without
/// limit, and caps the position × position masks built over a grammar.
pub const MAX_POSITIONS: usize = 8192;

/// A compiled token pattern: the parsed AST plus its Glushkov template and
/// a ready-to-run NFA. This is the unit the grammar layer stores per token.
///
/// Clones share one compiled pattern, so the grammar transforms that copy
/// a token per context (or per replica) allocate nothing for its pattern.
#[derive(Debug, Clone)]
pub struct Pattern(Arc<Compiled>);

#[derive(Debug)]
struct Compiled {
    /// The original pattern text, kept for diagnostics and VHDL comments.
    source: String,
    /// Parsed syntax tree.
    ast: Ast,
    /// Glushkov position automaton (the hardware structure).
    template: Template,
    /// Software matcher over the same automaton.
    nfa: Nfa,
}

impl Pattern {
    /// Parse a pattern from its textual form.
    pub fn parse(src: &str) -> Result<Self, ParseError> {
        let ast = parse::parse(src)?;
        Self::from_ast(src.to_owned(), ast)
    }

    /// Build a pattern that matches exactly the given literal bytes.
    ///
    /// Quoted strings in the grammar (`"<methodCall>"`) take this path; no
    /// metacharacter interpretation is performed.
    pub fn literal(bytes: &[u8]) -> Self {
        let ast = Ast::literal(bytes);
        // A literal can always be compiled; the only failure mode of
        // `from_ast` is an empty-language pattern, which a literal is not.
        Self::from_ast(String::from_utf8_lossy(bytes).into_owned(), ast)
            .expect("literal patterns always compile")
    }

    fn from_ast(source: String, ast: Ast) -> Result<Self, ParseError> {
        let template = Template::build(&ast);
        if template.positions.is_empty() && !template.nullable {
            return Err(ParseError::EmptyLanguage);
        }
        if template.nullable {
            // A token that can match the empty string would never consume a
            // byte and cannot be detected by a pipeline stage; Lex rejects
            // such token definitions too.
            return Err(ParseError::NullableToken);
        }
        let nfa = Nfa::from_template(&template);
        Ok(Self(Arc::new(Compiled { source, ast, template, nfa })))
    }

    /// The original pattern text.
    pub fn source(&self) -> &str {
        &self.0.source
    }

    /// The parsed AST.
    pub fn ast(&self) -> &Ast {
        &self.0.ast
    }

    /// The Glushkov template consumed by the hardware generator.
    pub fn template(&self) -> &Template {
        &self.0.template
    }

    /// The software matcher.
    pub fn nfa(&self) -> &Nfa {
        &self.0.nfa
    }

    /// Does the pattern match the whole input?
    pub fn is_full_match(&self, input: &[u8]) -> bool {
        self.0.nfa.is_full_match(input)
    }

    /// Longest match starting at `start`; returns the match length.
    pub fn find_longest_at(
        &self,
        input: &[u8],
        start: usize,
        semantics: MatchSemantics,
    ) -> Option<usize> {
        self.0.nfa.find_longest_at(input, start, semantics)
    }

    /// Number of "pattern bytes" this token contributes, following the
    /// paper's §4.3 accounting (the XML-RPC grammar is "approximately 300
    /// bytes of pattern data"): one byte per character *position* of the
    /// pattern, i.e. per pipeline register in the generated tokenizer.
    pub fn pattern_bytes(&self) -> usize {
        self.0.template.positions.len()
    }

    /// If the pattern is a plain literal, return its bytes.
    pub fn as_literal(&self) -> Option<Vec<u8>> {
        self.0.ast.as_literal()
    }
}

impl PartialEq for Pattern {
    fn eq(&self, other: &Self) -> bool {
        self.0.ast == other.0.ast
    }
}

impl Eq for Pattern {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_roundtrip() {
        let p = Pattern::literal(b"<methodCall>");
        assert!(p.is_full_match(b"<methodCall>"));
        assert!(!p.is_full_match(b"<methodCall"));
        assert_eq!(p.pattern_bytes(), 12);
        assert_eq!(p.as_literal().unwrap(), b"<methodCall>");
    }

    #[test]
    fn parsed_pattern_matches() {
        let p = Pattern::parse("[a-zA-Z0-9]+").unwrap();
        assert!(p.is_full_match(b"deposit42"));
        assert!(!p.is_full_match(b""));
        assert!(!p.is_full_match(b"with space"));
        assert_eq!(p.pattern_bytes(), 1);
        assert!(p.as_literal().is_none());
    }

    #[test]
    fn nullable_token_rejected() {
        assert!(matches!(Pattern::parse("a*"), Err(ParseError::NullableToken)));
        assert!(matches!(Pattern::parse("a?"), Err(ParseError::NullableToken)));
        assert!(matches!(Pattern::parse(""), Err(ParseError::NullableToken)));
    }

    #[test]
    fn pattern_bytes_counts_positions() {
        // [+-]?[0-9]+\.[0-9]+ has four positions: the sign, the integer
        // digits, the dot, the fraction digits.
        let p = Pattern::parse(r"[+-]?[0-9]+\.[0-9]+").unwrap();
        assert_eq!(p.pattern_bytes(), 4);
    }
}
