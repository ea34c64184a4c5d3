//! Parser for the Lex/Yacc-flavoured grammar text format.
//!
//! The paper's generator consumes "the input format that is used with the
//! Lex and Yacc tools" (§4.1). We accept the same shape as Figure 14:
//!
//! ```text
//! # token definitions: NAME <pattern to end of line>
//! STRING            [a-zA-Z0-9]+
//! INT               [+-]?[0-9]+
//! %delim            [ \t\r\n]          # optional delimiter override
//! %%
//! methodCall: "<methodCall>" methodName params "</methodCall>";
//! params:     "<params>" param "</params>";
//! param:      | "<param>" value "</param>" param;   # empty alternative
//! value:      i4 | int | string;
//! ...
//! %%
//! ```
//!
//! * Quoted strings (`"…"`) and char literals (`'c'`) in productions
//!   define literal tokens implicitly (deduplicated by content).
//! * An identifier reference is a *token* if it was defined in the
//!   definitions section, otherwise a *nonterminal*.
//! * The start symbol is the left-hand side of the first rule, unless a
//!   `%start <name>` directive (Yacc-style) overrides it.
//! * `#` and `//` start comments.

use crate::ast::{Grammar, NtId, Production, Symbol, TokenDef, TokenId};
use cfg_regex::{ByteSet, ParseError, Pattern, MAX_POSITIONS};
use std::collections::HashMap;
use std::fmt;

/// Errors from grammar parsing and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// A token pattern failed to parse.
    BadPattern {
        /// Token name.
        token: String,
        /// Underlying regex error.
        error: ParseError,
    },
    /// A `%delim` directive pattern was not a single byte class.
    BadDelimiter,
    /// Missing `%%` separator / no rules section.
    MissingRules,
    /// Syntax error at a line of the rules section.
    RuleSyntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A nonterminal is referenced but has no production.
    UndefinedNonterminal(String),
    /// Duplicate token definition name.
    DuplicateToken(String),
    /// The grammar has no productions.
    Empty,
    /// `%start` names a nonterminal with no production.
    UnknownStartName(String),
    /// Internal index out of range (only reachable via `Grammar::new`).
    BadSymbolIndex,
    /// Start symbol index out of range (only reachable via `Grammar::new`).
    UnknownStart,
    /// The tokens need more than [`MAX_POSITIONS`] Glushkov positions
    /// between them; refused as each token is added, before the next one
    /// is compiled. `TokenTagger::compile` applies the same bound to the
    /// grammar after context duplication.
    TooManyPositions {
        /// Positions the grammar would hold.
        positions: usize,
    },
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::BadPattern { token, error } => {
                write!(f, "bad pattern for token {token}: {error}")
            }
            GrammarError::BadDelimiter => {
                write!(f, "%delim pattern must be a single byte class")
            }
            GrammarError::MissingRules => write!(f, "missing %% rules section"),
            GrammarError::RuleSyntax { line, message } => {
                write!(f, "rule syntax error at line {line}: {message}")
            }
            GrammarError::UndefinedNonterminal(n) => {
                write!(f, "nonterminal {n} has no production")
            }
            GrammarError::DuplicateToken(n) => write!(f, "duplicate token definition {n}"),
            GrammarError::Empty => write!(f, "grammar has no productions"),
            GrammarError::UnknownStartName(n) => {
                write!(f, "%start names unknown nonterminal {n}")
            }
            GrammarError::BadSymbolIndex => write!(f, "symbol index out of range"),
            GrammarError::UnknownStart => write!(f, "start symbol out of range"),
            GrammarError::TooManyPositions { positions } => {
                write!(f, "grammar needs {positions} positions; the limit is {MAX_POSITIONS}")
            }
        }
    }
}

impl std::error::Error for GrammarError {}

/// Parse grammar text into a [`Grammar`].
pub fn parse(src: &str) -> Result<Grammar, GrammarError> {
    let stripped: Vec<String> = src.lines().map(strip_comment).collect();
    let mut sections = stripped.split(|l| l.trim() == "%%");

    let defs_section = sections.next().ok_or(GrammarError::MissingRules)?;
    let rules_section = sections.next().ok_or(GrammarError::MissingRules)?;

    let mut tokens: Vec<TokenDef> = Vec::new();
    let mut token_index: HashMap<String, TokenId> = HashMap::new();
    let mut delimiters = ByteSet::whitespace();
    let mut start_name: Option<String> = None;
    let mut positions = 0usize;

    for line in defs_section {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (name, rest) = split_def(line);
        let pattern_src = rest.trim();
        if name == "%start" {
            start_name = Some(pattern_src.to_owned());
            continue;
        }
        if name == "%delim" {
            let pat = Pattern::parse(pattern_src).map_err(|_| GrammarError::BadDelimiter)?;
            let t = pat.template();
            if t.positions.len() != 1 {
                return Err(GrammarError::BadDelimiter);
            }
            delimiters = t.positions[0];
            continue;
        }
        if token_index.contains_key(name) {
            return Err(GrammarError::DuplicateToken(name.to_owned()));
        }
        let pattern = Pattern::parse(pattern_src)
            .map_err(|error| GrammarError::BadPattern { token: name.to_owned(), error })?;
        add_positions(&mut positions, pattern.pattern_bytes())?;
        token_index.insert(name.to_owned(), TokenId(tokens.len() as u32));
        tokens.push(TokenDef {
            name: name.to_owned(),
            pattern,
            from_literal: false,
            context: None,
        });
    }

    // --- rules section ---
    // Join lines, then split statements on ';'. Line numbers are tracked
    // approximately (first line of the statement) for error messages.
    let mut nonterminals: Vec<String> = Vec::new();
    let mut nt_index: HashMap<String, NtId> = HashMap::new();
    let mut productions: Vec<Production> = Vec::new();
    let defs_lines = defs_section.len() + 1; // +1 for the %% line

    let mut intern_nt = |name: &str, nonterminals: &mut Vec<String>| -> NtId {
        if let Some(&id) = nt_index.get(name) {
            return id;
        }
        let id = NtId(nonterminals.len() as u32);
        nt_index.insert(name.to_owned(), id);
        nonterminals.push(name.to_owned());
        id
    };

    let mut statement = String::new();
    let mut stmt_line = 0usize;
    for (i, line) in rules_section.iter().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if statement.is_empty() {
            stmt_line = defs_lines + i + 1;
        }
        statement.push_str(trimmed);
        statement.push(' ');
        // Statements end with ';' outside quotes.
        if ends_statement(&statement) {
            parse_rule(
                &statement,
                stmt_line,
                &mut positions,
                &mut tokens,
                &mut token_index,
                &mut nonterminals,
                &mut intern_nt,
                &mut productions,
            )?;
            statement.clear();
        }
    }
    if !statement.trim().is_empty() {
        return Err(GrammarError::RuleSyntax {
            line: stmt_line,
            message: "rule not terminated with ';'".into(),
        });
    }
    if productions.is_empty() {
        return Err(GrammarError::Empty);
    }
    // intern_nt borrows nt_index; end its region before the lookup.
    #[allow(clippy::drop_non_drop)]
    drop(intern_nt);

    let start = match start_name {
        Some(name) => *nt_index.get(&name).ok_or(GrammarError::UnknownStartName(name))?,
        None => productions[0].lhs,
    };
    Grammar::new(tokens, nonterminals, productions, start, delimiters)
}

/// Add a token's positions to the grammar's running total, refusing a
/// total past [`MAX_POSITIONS`].
fn add_positions(total: &mut usize, positions: usize) -> Result<(), GrammarError> {
    *total += positions;
    if *total > MAX_POSITIONS {
        return Err(GrammarError::TooManyPositions { positions: *total });
    }
    Ok(())
}

fn strip_comment(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut in_str: Option<u8> = None;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match in_str {
            Some(q) => {
                if b == q {
                    in_str = None;
                }
            }
            None => match b {
                b'"' | b'\'' => in_str = Some(b),
                b'#' => break,
                b'/' if bytes.get(i + 1) == Some(&b'/') => break,
                _ => {}
            },
        }
        out.push(b as char);
        i += 1;
    }
    out
}

fn split_def(line: &str) -> (&str, &str) {
    match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], &line[i..]),
        None => (line, ""),
    }
}

fn ends_statement(s: &str) -> bool {
    let mut in_str: Option<u8> = None;
    let mut last_semi = false;
    for &b in s.as_bytes() {
        match in_str {
            Some(q) => {
                if b == q {
                    in_str = None;
                }
                last_semi = false;
            }
            None => match b {
                b'"' | b'\'' => {
                    in_str = Some(b);
                    last_semi = false;
                }
                b';' => last_semi = true,
                b' ' | b'\t' => {}
                _ => last_semi = false,
            },
        }
    }
    last_semi
}

#[allow(clippy::too_many_arguments)]
fn parse_rule(
    stmt: &str,
    line: usize,
    positions: &mut usize,
    tokens: &mut Vec<TokenDef>,
    token_index: &mut HashMap<String, TokenId>,
    nonterminals: &mut Vec<String>,
    intern_nt: &mut impl FnMut(&str, &mut Vec<String>) -> NtId,
    productions: &mut Vec<Production>,
) -> Result<(), GrammarError> {
    let stmt = stmt.trim().trim_end_matches(';').trim();
    let colon = stmt
        .find(':')
        .ok_or_else(|| GrammarError::RuleSyntax { line, message: "missing ':' in rule".into() })?;
    let lhs_name = stmt[..colon].trim();
    if lhs_name.is_empty() || !is_ident(lhs_name) {
        return Err(GrammarError::RuleSyntax {
            line,
            message: format!("bad rule name {lhs_name:?}"),
        });
    }
    let lhs = intern_nt(lhs_name, nonterminals);
    let body = &stmt[colon + 1..];

    for alt in split_alternatives(body) {
        let mut rhs = Vec::new();
        for item in tokenize_alt(&alt, line)? {
            let sym = match item {
                Item::Literal(bytes) => {
                    if bytes.is_empty() {
                        return Err(GrammarError::RuleSyntax {
                            line,
                            message: "empty literal token".into(),
                        });
                    }
                    let name = String::from_utf8_lossy(&bytes).into_owned();
                    if let Some(&id) = token_index.get(&name) {
                        Symbol::T(id)
                    } else {
                        // One position per byte: bound it before compiling.
                        add_positions(positions, bytes.len())?;
                        let id = TokenId(tokens.len() as u32);
                        token_index.insert(name.clone(), id);
                        tokens.push(TokenDef {
                            name,
                            pattern: Pattern::literal(&bytes),
                            from_literal: true,
                            context: None,
                        });
                        Symbol::T(id)
                    }
                }
                Item::Ident(name) => match token_index.get(&name) {
                    Some(&id) => Symbol::T(id),
                    None => Symbol::Nt(intern_nt(&name, nonterminals)),
                },
            };
            rhs.push(sym);
        }
        productions.push(Production { lhs, rhs });
    }
    Ok(())
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

/// Split a rule body on `|` outside quotes. An empty segment is an
/// ε-alternative (Figure 14's `param: | "<param>" …`).
fn split_alternatives(body: &str) -> Vec<String> {
    let mut alts = Vec::new();
    let mut cur = String::new();
    let mut in_str: Option<char> = None;
    for c in body.chars() {
        match in_str {
            Some(q) => {
                cur.push(c);
                if c == q {
                    in_str = None;
                }
            }
            None => match c {
                '"' | '\'' => {
                    in_str = Some(c);
                    cur.push(c);
                }
                '|' => {
                    alts.push(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            },
        }
    }
    alts.push(cur);
    alts
}

enum Item {
    Literal(Vec<u8>),
    Ident(String),
}

fn tokenize_alt(alt: &str, line: usize) -> Result<Vec<Item>, GrammarError> {
    let mut items = Vec::new();
    let bytes = alt.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b' ' | b'\t' => i += 1,
            q @ (b'"' | b'\'') => {
                let start = i + 1;
                let mut j = start;
                let mut lit = Vec::new();
                loop {
                    if j >= bytes.len() {
                        return Err(GrammarError::RuleSyntax {
                            line,
                            message: "unterminated string literal".into(),
                        });
                    }
                    match bytes[j] {
                        b if b == q => break,
                        b'\\' if j + 1 < bytes.len() => {
                            lit.push(match bytes[j + 1] {
                                b'n' => b'\n',
                                b't' => b'\t',
                                b'r' => b'\r',
                                b'0' => 0,
                                other => other,
                            });
                            j += 2;
                        }
                        b => {
                            lit.push(b);
                            j += 1;
                        }
                    }
                }
                items.push(Item::Literal(lit));
                i = j + 1;
            }
            _ => {
                let start = i;
                while i < bytes.len() && !matches!(bytes[i], b' ' | b'\t' | b'"' | b'\'') {
                    i += 1;
                }
                let word = &alt[start..i];
                if !is_ident(word) {
                    return Err(GrammarError::RuleSyntax {
                        line,
                        message: format!("bad symbol {word:?}"),
                    });
                }
                items.push(Item::Ident(word.to_owned()));
            }
        }
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Symbol;

    #[test]
    fn parses_if_then_else() {
        // Figure 9 of the paper.
        let g = Grammar::parse(
            r#"
            %%
            E: "if" C "then" E "else" E | "go" | "stop";
            C: "true" | "false";
            %%
            "#,
        )
        .unwrap();
        let names: Vec<&str> = g.tokens().iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["if", "then", "else", "go", "stop", "true", "false"]);
        assert_eq!(g.nonterminals(), &["E".to_string(), "C".to_string()]);
        assert_eq!(g.productions().len(), 5);
        assert_eq!(g.start(), NtId(0));
    }

    #[test]
    fn parses_named_tokens_and_literals() {
        let g = Grammar::parse(
            r#"
            STRING [a-zA-Z0-9]+
            %%
            methodName: "<methodName>" STRING "</methodName>";
            %%
            "#,
        )
        .unwrap();
        assert_eq!(g.tokens().len(), 3);
        assert!(g.token_by_name("STRING").is_some());
        assert!(g.token_by_name("<methodName>").is_some());
        let p = &g.productions()[0];
        assert_eq!(p.rhs.len(), 3);
        assert!(matches!(p.rhs[1], Symbol::T(t) if g.token_name(t) == "STRING"));
    }

    #[test]
    fn empty_alternative_is_epsilon() {
        let g = Grammar::parse(
            r#"
            %%
            params: "<params>" param "</params>";
            param: | "<param>" param;
            %%
            "#,
        )
        .unwrap();
        let eps: Vec<_> = g.productions().iter().filter(|p| p.rhs.is_empty()).collect();
        assert_eq!(eps.len(), 1);
        assert_eq!(g.nt_name(eps[0].lhs), "param");
    }

    #[test]
    fn literal_tokens_are_deduplicated() {
        let g = Grammar::parse(
            r#"
            %%
            a: "x" b "x";
            b: "x";
            %%
            "#,
        )
        .unwrap();
        assert_eq!(g.tokens().len(), 1);
    }

    #[test]
    fn char_literals() {
        let g = Grammar::parse(
            r#"
            D [0-9]
            %%
            time: D ':' D;
            %%
            "#,
        )
        .unwrap();
        assert!(g.token_by_name(":").is_some());
    }

    #[test]
    fn multiline_rules() {
        let g = Grammar::parse(
            r#"
            %%
            value: "<i4>"
                 | "<int>"
                 | "<string>";
            %%
            "#,
        )
        .unwrap();
        assert_eq!(g.productions().len(), 3);
    }

    /// A grammar's tokens share one position bound, counted as each is
    /// added: named patterns, and quoted literals before they compile.
    #[test]
    fn positions_are_bounded_across_tokens() {
        let over = |src: &str| match Grammar::parse(src) {
            Err(GrammarError::TooManyPositions { positions }) => positions,
            other => panic!("{other:?}"),
        };
        assert_eq!(over("A a{5000}\nB b{5000}\n%%\ns: A B;\n%%\n"), 10_000);
        let long = "x".repeat(MAX_POSITIONS);
        assert_eq!(over(&format!("%%\ns: \"{long}\" \"y\";\n%%\n")), MAX_POSITIONS + 1);
        assert_eq!(over(&format!("A a{{8000}}\n%%\ns: A \"{}\";\n%%\n", &long[..200])), 8200);
        // A repeated literal is one token, counted once.
        let g = Grammar::parse(&format!("%%\ns: \"{long}\" \"{long}\";\n%%\n")).unwrap();
        assert_eq!(g.pattern_bytes(), MAX_POSITIONS);
        assert_eq!(
            GrammarError::TooManyPositions { positions: 10_000 }.to_string(),
            "grammar needs 10000 positions; the limit is 8192"
        );
    }

    #[test]
    fn delim_override() {
        let g = Grammar::parse("%delim [,;]\n%%\ns: \"a\";\n%%\n").unwrap();
        assert!(g.delimiters().contains(b','));
        assert!(!g.delimiters().contains(b' '));
    }

    #[test]
    fn comments_are_stripped() {
        let g = Grammar::parse(
            r#"
            NUM [0-9]+   # trailing comment
            // full-line comment
            %%
            s: NUM;      # comment after rule
            %%
            "#,
        )
        .unwrap();
        assert_eq!(g.tokens().len(), 1);
    }

    #[test]
    fn hash_inside_literal_is_kept() {
        let g = Grammar::parse("%%\ns: \"a#b\";\n%%\n").unwrap();
        assert!(g.token_by_name("a#b").is_some());
    }

    #[test]
    fn errors() {
        assert!(matches!(Grammar::parse("just text"), Err(GrammarError::MissingRules)));
        assert!(matches!(Grammar::parse("%%\n%%\n"), Err(GrammarError::Empty)));
        assert!(matches!(
            Grammar::parse("%%\ns: undefined_nt;\n%%\n"),
            Err(GrammarError::UndefinedNonterminal(n)) if n == "undefined_nt"
        ));
        assert!(matches!(
            Grammar::parse("T [\n%%\ns: T;\n%%\n"),
            Err(GrammarError::BadPattern { .. })
        ));
        assert!(matches!(
            Grammar::parse("A x\nA y\n%%\ns: A;\n%%\n"),
            Err(GrammarError::DuplicateToken(_))
        ));
        assert!(matches!(
            Grammar::parse("%%\ns: \"a\"\n%%\n"),
            Err(GrammarError::RuleSyntax { .. })
        ));
        assert!(matches!(
            Grammar::parse("%%\nno_colon_here \"a\";\n%%\n"),
            Err(GrammarError::RuleSyntax { .. })
        ));
    }

    #[test]
    fn start_directive() {
        let g = Grammar::parse(
            "%start real_start\n%%\nhelper: \"x\";\nreal_start: helper \"y\";\n%%\n",
        )
        .unwrap();
        assert_eq!(g.nt_name(g.start()), "real_start");
        let a = g.analyze();
        let names: Vec<&str> = a.start_set.iter().map(|t| g.token_name(t)).collect();
        assert_eq!(names, ["x"]);
        // Unknown name errors.
        assert!(matches!(
            Grammar::parse("%start nope\n%%\ns: \"a\";\n%%\n"),
            Err(GrammarError::UnknownStartName(n)) if n == "nope"
        ));
    }

    #[test]
    fn unterminated_string_is_rule_syntax_error() {
        // The '"a;' literal swallows the ';' so the statement never ends.
        let err = Grammar::parse("%%\ns: \"a;\n%%\n").unwrap_err();
        assert!(matches!(err, GrammarError::RuleSyntax { .. }));
    }
}
