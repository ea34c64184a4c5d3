//! Parser for the Lex-style pattern subset.
//!
//! Grammar:
//!
//! ```text
//! pattern  := alt
//! alt      := seq ('|' seq)*            (alternation binds loosest)
//! seq      := elem*
//! elem     := base postfix*
//! base     := '!' base                  (single-byte complement, Fig. 6b)
//!           | '(' alt ')'
//!           | '[' class ']'
//!           | '.'                       (any byte except \n, as in Lex)
//!           | escape | plain-byte
//! postfix  := '+' | '*' | '?' | '{' n (',' m?)? '}'
//! ```
//!
//! Escapes: `\n \r \t \0 \\` plus any escaped metacharacter, `\xNN` hex
//! bytes, and the class shorthands `\d \w \s` (digits, word, whitespace).

use crate::ast::Ast;
use crate::classes::ByteSet;
use crate::MAX_POSITIONS;
use std::fmt;

/// Errors produced while parsing a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Input ended where more pattern was expected.
    UnexpectedEnd,
    /// An unexpected byte at the given offset.
    Unexpected {
        /// Byte offset in the pattern source.
        offset: usize,
        /// The offending byte.
        byte: u8,
        /// What the parser was doing.
        context: &'static str,
    },
    /// `[z-a]` style range with reversed endpoints.
    BadRange {
        /// Range start byte.
        lo: u8,
        /// Range end byte.
        hi: u8,
    },
    /// `\x` escape without two hex digits.
    BadHexEscape,
    /// `{n,m}` with `m < n` (or an unparseable count).
    BadCount {
        /// Minimum repetitions.
        min: usize,
        /// Maximum repetitions.
        max: usize,
    },
    /// A postfix operator with nothing to apply to, e.g. a leading `+`.
    DanglingPostfix(char),
    /// `!` applied to something other than a single-byte element.
    BadComplement,
    /// The pattern denotes the empty language.
    EmptyLanguage,
    /// The pattern can match the empty string; tokens must consume at
    /// least one byte.
    NullableToken,
    /// The pattern needs more than [`MAX_POSITIONS`] positions. A
    /// counted repetition is refused from its counts, before it expands.
    TooManyPositions {
        /// Positions the pattern would hold.
        positions: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedEnd => write!(f, "pattern ended unexpectedly"),
            ParseError::Unexpected { offset, byte, context } => write!(
                f,
                "unexpected byte {:?} at offset {offset} while parsing {context}",
                *byte as char
            ),
            ParseError::BadRange { lo, hi } => {
                write!(f, "bad class range {:?}-{:?}", *lo as char, *hi as char)
            }
            ParseError::BadHexEscape => write!(f, "\\x escape requires two hex digits"),
            ParseError::BadCount { min, max } => {
                write!(f, "bad repetition count {{{min},{max}}}")
            }
            ParseError::DanglingPostfix(c) => write!(f, "postfix '{c}' has nothing to repeat"),
            ParseError::BadComplement => {
                write!(f, "'!' applies only to a single-byte element")
            }
            ParseError::EmptyLanguage => write!(f, "pattern matches nothing"),
            ParseError::NullableToken => {
                write!(f, "token pattern may match the empty string")
            }
            ParseError::TooManyPositions { positions } => {
                write!(f, "pattern needs {positions} positions; the limit is {MAX_POSITIONS}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse a pattern string into an [`Ast`].
pub fn parse(src: &str) -> Result<Ast, ParseError> {
    let mut p = Parser { src: src.as_bytes(), pos: 0, positions: 0 };
    let ast = p.alt()?;
    if p.pos != p.src.len() {
        return Err(ParseError::Unexpected {
            offset: p.pos,
            byte: p.src[p.pos],
            context: "end of pattern",
        });
    }
    Ok(ast)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    /// Positions (class leaves) in everything parsed so far, counted
    /// repetitions expanded.
    positions: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, ParseError> {
        let b = self.peek().ok_or(ParseError::UnexpectedEnd)?;
        self.pos += 1;
        Ok(b)
    }

    /// Move the position count to `positions`, unless that passes
    /// [`MAX_POSITIONS`].
    fn grow(&mut self, positions: usize) -> Result<(), ParseError> {
        if positions > MAX_POSITIONS {
            return Err(ParseError::TooManyPositions { positions });
        }
        self.positions = positions;
        Ok(())
    }

    fn alt(&mut self) -> Result<Ast, ParseError> {
        let mut branches = vec![self.seq()?];
        while self.peek() == Some(b'|') {
            self.pos += 1;
            branches.push(self.seq()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Ast::Alt(branches)
        })
    }

    fn seq(&mut self) -> Result<Ast, ParseError> {
        let mut parts = Vec::new();
        loop {
            match self.peek() {
                None | Some(b'|') | Some(b')') => break,
                Some(c @ (b'+' | b'*' | b'?')) => {
                    return Err(ParseError::DanglingPostfix(c as char));
                }
                Some(_) => parts.push(self.elem()?),
            }
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("one part"),
            _ => Ast::Concat(parts),
        })
    }

    fn elem(&mut self) -> Result<Ast, ParseError> {
        let mut base = self.base()?;
        while let Some(op) = self.peek() {
            match op {
                b'?' => {
                    self.pos += 1;
                    base = Ast::Optional(Box::new(base));
                }
                b'+' => {
                    self.pos += 1;
                    base = Ast::Repeat { inner: Box::new(base), min_zero: false };
                }
                b'*' => {
                    self.pos += 1;
                    base = Ast::Repeat { inner: Box::new(base), min_zero: true };
                }
                b'{' => {
                    self.pos += 1;
                    base = self.counted(base)?;
                }
                _ => break,
            }
        }
        Ok(base)
    }

    /// Lex-style counted repetition `{n}`, `{n,}`, `{n,m}` — expanded
    /// structurally (each copy becomes its own pipeline positions, which
    /// is exactly what the hardware needs), once the expansion is known
    /// to keep the pattern within [`MAX_POSITIONS`].
    fn counted(&mut self, base: Ast) -> Result<Ast, ParseError> {
        let n = self.number()?;
        let m = match self.bump()? {
            b'}' => Some(n),
            b',' => match self.peek() {
                Some(b'}') => {
                    self.pos += 1;
                    None // {n,} = n or more
                }
                _ => {
                    let m = self.number()?;
                    match self.bump()? {
                        b'}' => Some(m),
                        byte => {
                            return Err(ParseError::Unexpected {
                                offset: self.pos - 1,
                                byte,
                                context: "counted repetition close",
                            })
                        }
                    }
                }
            },
            byte => {
                return Err(ParseError::Unexpected {
                    offset: self.pos - 1,
                    byte,
                    context: "counted repetition",
                })
            }
        };
        if let Some(m) = m {
            if m < n {
                return Err(ParseError::BadCount { min: n, max: m });
            }
        }
        let each = base.position_count();
        if each == 0 {
            // Only the empty string: every repetition of it is itself.
            return Ok(base);
        }
        // m copies, or n and a starred one for {n,}; `base` is counted once.
        let copies = m.unwrap_or(n.saturating_add(1));
        self.grow((self.positions - each).saturating_add(each.saturating_mul(copies)))?;
        // n mandatory copies…
        let mut parts: Vec<Ast> = std::iter::repeat_n(base.clone(), n).collect();
        match m {
            // …then (m - n) optional copies…
            Some(m) => {
                for _ in n..m {
                    parts.push(Ast::Optional(Box::new(base.clone())));
                }
            }
            // …or an unbounded tail for {n,}.
            None => parts.push(Ast::Repeat { inner: Box::new(base), min_zero: true }),
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("one part"),
            _ => Ast::Concat(parts),
        })
    }

    fn number(&mut self) -> Result<usize, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(ParseError::Unexpected {
                offset: self.pos,
                byte: self.peek().unwrap_or(0),
                context: "repetition count",
            });
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("digits are utf8");
        text.parse().map_err(|_| ParseError::BadCount { min: usize::MAX, max: 0 })
    }

    fn base(&mut self) -> Result<Ast, ParseError> {
        let class = match self.bump()? {
            b'!' => {
                // Figure 6b: the complement of a single-byte element,
                // which takes the place of (and the count of) its operand.
                let inner = self.base()?;
                return match inner {
                    Ast::Class(s) => Ok(Ast::Class(s.complement())),
                    _ => Err(ParseError::BadComplement),
                };
            }
            b'(' => {
                let inner = self.alt()?;
                return match self.bump()? {
                    b')' => Ok(inner),
                    byte => Err(ParseError::Unexpected {
                        offset: self.pos - 1,
                        byte,
                        context: "group close",
                    }),
                };
            }
            b'[' => self.class()?,
            b'.' => ByteSet::dot(),
            b'\\' => self.escape()?,
            b')' => {
                return Err(ParseError::Unexpected {
                    offset: self.pos - 1,
                    byte: b')',
                    context: "element",
                })
            }
            b => ByteSet::singleton(b),
        };
        self.grow(self.positions + 1)?;
        Ok(Ast::Class(class))
    }

    fn escape(&mut self) -> Result<ByteSet, ParseError> {
        Ok(match self.bump()? {
            b'n' => ByteSet::singleton(b'\n'),
            b'r' => ByteSet::singleton(b'\r'),
            b't' => ByteSet::singleton(b'\t'),
            b'0' => ByteSet::singleton(0),
            b'd' => ByteSet::digits(),
            b'w' => ByteSet::word(),
            b's' => ByteSet::whitespace(),
            b'x' => {
                let hi = self.bump()?;
                let lo = self.bump()?;
                let hex = |c: u8| (c as char).to_digit(16);
                match (hex(hi), hex(lo)) {
                    (Some(h), Some(l)) => ByteSet::singleton((h * 16 + l) as u8),
                    _ => return Err(ParseError::BadHexEscape),
                }
            }
            b => ByteSet::singleton(b),
        })
    }

    fn class(&mut self) -> Result<ByteSet, ParseError> {
        let negated = if self.peek() == Some(b'^') {
            self.pos += 1;
            true
        } else {
            false
        };
        let mut set = ByteSet::EMPTY;
        let mut first = true;
        loop {
            let b = self.bump()?;
            if b == b']' && !first {
                break;
            }
            first = false;
            let lo_set = match b {
                b'\\' => self.escape()?,
                b']' => ByteSet::singleton(b']'), // leading ']' is literal, as in Lex
                b => ByteSet::singleton(b),
            };
            // Range only applies to single-byte left sides followed by '-x'.
            if let Some(lo) = lo_set.as_singleton() {
                if self.peek() == Some(b'-') && self.src.get(self.pos + 1) != Some(&b']') {
                    self.pos += 1; // consume '-'
                    let hb = self.bump()?;
                    let hi_set = if hb == b'\\' { self.escape()? } else { ByteSet::singleton(hb) };
                    let hi = hi_set.as_singleton().ok_or(ParseError::BadRange { lo, hi: 0 })?;
                    if hi < lo {
                        return Err(ParseError::BadRange { lo, hi });
                    }
                    set = set.union(ByteSet::range(lo, hi));
                    continue;
                }
            }
            set = set.union(lo_set);
        }
        let set = if negated { set.complement() } else { set };
        if set.is_empty() {
            return Err(ParseError::EmptyLanguage);
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_of(src: &str) -> ByteSet {
        match parse(src).unwrap() {
            Ast::Class(s) => s,
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn single_bytes_and_literals() {
        assert_eq!(parse("a").unwrap(), Ast::Class(ByteSet::singleton(b'a')));
        let abc = parse("abc").unwrap();
        assert_eq!(abc.as_literal().unwrap(), b"abc");
    }

    #[test]
    fn classes_and_ranges() {
        assert_eq!(class_of("[a-z]"), ByteSet::range(b'a', b'z'));
        assert_eq!(class_of("[a-zA-Z0-9]"), ByteSet::alphanumeric());
        assert_eq!(class_of("[+-]"), ByteSet::from_iter([b'+', b'-']));
        assert_eq!(class_of("[+/A-Za-z0-9]").len(), 64); // base64 alphabet
        assert_eq!(class_of("[^>]"), ByteSet::singleton(b'>').complement());
        // Trailing '-' is a literal dash.
        assert_eq!(class_of("[a-]"), ByteSet::from_iter([b'a', b'-']));
        // Leading ']' is a literal bracket.
        assert_eq!(class_of("[]a]"), ByteSet::from_iter([b']', b'a']));
    }

    #[test]
    fn shorthand_classes() {
        assert_eq!(class_of(r"\d"), ByteSet::digits());
        assert_eq!(class_of(r"\s"), ByteSet::whitespace());
        assert_eq!(class_of(r"\w"), ByteSet::word());
        assert_eq!(class_of(r"\x41"), ByteSet::singleton(b'A'));
        assert_eq!(class_of(r"[\d\-]"), {
            let mut s = ByteSet::digits();
            s.insert(b'-');
            s
        });
    }

    #[test]
    fn postfix_operators() {
        let p = parse("[0-9]+").unwrap();
        assert!(matches!(p, Ast::Repeat { min_zero: false, .. }));
        let p = parse("x*").unwrap();
        assert!(matches!(p, Ast::Repeat { min_zero: true, .. }));
        let p = parse("x?").unwrap();
        assert!(matches!(p, Ast::Optional(_)));
        // Stacked postfix: (x+)? parses as Optional(Repeat).
        let p = parse("x+?").unwrap();
        assert!(matches!(p, Ast::Optional(_)));
    }

    #[test]
    fn complement_element() {
        assert_eq!(class_of("!a"), ByteSet::singleton(b'a').complement());
        assert_eq!(parse("!(ab)"), Err(ParseError::BadComplement));
    }

    #[test]
    fn groups_and_alternation() {
        let p = parse("(go|stop)").unwrap();
        assert!(matches!(p, Ast::Alt(ref v) if v.len() == 2));
        let p = parse("a(b|c)d").unwrap();
        assert_eq!(p.position_count(), 4);
    }

    #[test]
    fn dot_is_lex_dot() {
        assert_eq!(class_of("."), ByteSet::dot());
        assert_eq!(class_of(r"\."), ByteSet::singleton(b'.'));
    }

    #[test]
    fn errors() {
        assert_eq!(parse("[z-a]"), Err(ParseError::BadRange { lo: b'z', hi: b'a' }));
        assert_eq!(parse("+a"), Err(ParseError::DanglingPostfix('+')));
        assert_eq!(parse("(a"), Err(ParseError::UnexpectedEnd));
        assert_eq!(parse(r"\xg1"), Err(ParseError::BadHexEscape));
        assert!(matches!(parse("a)b"), Err(ParseError::Unexpected { .. })));
        assert_eq!(parse("[abc"), Err(ParseError::UnexpectedEnd));
    }

    #[test]
    fn counted_repetition() {
        // {n}: YEAR could be written [0-9]{4}.
        let p = parse("[0-9]{4}").unwrap();
        assert_eq!(p.position_count(), 4);
        assert!(!p.nullable());
        // {n,m}: between 2 and 4 letters.
        let p = parse("[a-z]{2,4}").unwrap();
        assert_eq!(p.position_count(), 4);
        // {n,}: 2 or more — two mandatory positions plus a star tail.
        let p = parse("a{2,}").unwrap();
        assert_eq!(p.position_count(), 3);
        // {0,1} behaves like '?'.
        let p = parse("xa{0,1}").unwrap();
        assert_eq!(p.position_count(), 2);
        // Errors.
        assert!(matches!(parse("a{3,2}"), Err(ParseError::BadCount { min: 3, max: 2 })));
        assert!(matches!(parse("a{x}"), Err(ParseError::Unexpected { .. })));
        assert!(matches!(parse("a{2"), Err(ParseError::UnexpectedEnd)));
    }

    #[test]
    fn counted_repetition_is_bounded_before_expansion() {
        let limit = MAX_POSITIONS;
        assert_eq!(parse(&format!("a{{{limit}}}")).unwrap().position_count(), limit);
        let over = |src: &str| match parse(src) {
            Err(ParseError::TooManyPositions { positions }) => positions,
            other => panic!("{src}: {:?}", other.map(|ast| ast.position_count())),
        };
        assert_eq!(over(&format!("a{{{}}}", limit + 1)), limit + 1);
        // Refused from the counts alone: nothing of 10^9 copies is built.
        assert_eq!(over("a{1000000000}"), 1_000_000_000);
        assert_eq!(over("[0-9]{20000}"), 20_000);
        // Nested and sequenced repetitions count against one pattern.
        assert_eq!(over("(ab{100}){90}"), 9090);
        assert_eq!(over("(a{100}){100}"), 10_000);
        assert_eq!(over(&format!("xa{{{}}}b{{{}}}", limit / 2, limit / 2)), limit + 1);
        assert_eq!(over("a{2,}{8192}"), 3 * 8192);
        assert_eq!(
            parse("a{20000}").unwrap_err().to_string(),
            "pattern needs 20000 positions; the limit is 8192"
        );
        // A group with no positions repeats to itself, however often.
        assert_eq!(parse("(){1000000000}").unwrap(), Ast::Empty);
        assert_eq!(parse("x(){1000000000,}").unwrap().position_count(), 1);
        // Complements and ranges count one position each.
        assert_eq!(parse("!a[b-z]{8190}").unwrap().position_count(), 8191);
        // Plain pattern text is held to the same bound.
        assert_eq!(parse(&"a".repeat(limit)).unwrap().position_count(), limit);
        assert_eq!(over(&"ab".repeat(limit)), limit + 1);
    }

    #[test]
    fn counted_repetition_matches() {
        use crate::Pattern;
        let p = Pattern::parse("[0-9]{4}").unwrap();
        assert!(p.is_full_match(b"1998"));
        assert!(!p.is_full_match(b"199"));
        assert!(!p.is_full_match(b"19985"));
        let p = Pattern::parse("[a-z]{2,4}").unwrap();
        assert!(!p.is_full_match(b"a"));
        assert!(p.is_full_match(b"ab"));
        assert!(p.is_full_match(b"abcd"));
        assert!(!p.is_full_match(b"abcde"));
        let p = Pattern::parse("a{2,}").unwrap();
        assert!(!p.is_full_match(b"a"));
        assert!(p.is_full_match(b"aa"));
        assert!(p.is_full_match(b"aaaaaa"));
    }

    #[test]
    fn paper_figure14_patterns_parse() {
        for src in [
            "[a-zA-Z0-9]+",
            "[+-]?[0-9]+",
            r"[+-]?[0-9]+\.[0-9]+",
            "[0-9][0-9][0-9][0-9]",
            "[0-9][0-9]",
            "[+/A-Za-z0-9]",
        ] {
            parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
    }
}
