//! Pattern syntax trees.
//!
//! The AST mirrors the regular-expression functions the paper's hardware
//! templates implement (Figure 6): sequencing, single-byte classes
//! (including `!`-complemented ones), one-or-none (`?`), one-or-more (`+`)
//! and zero-or-more (`*`), plus grouping and alternation.

use crate::classes::ByteSet;

/// A parsed regular expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ast {
    /// Matches the empty string. Produced only for empty groups/branches.
    Empty,
    /// Matches one byte from the set (Figure 6a/6b primitive — a `!a`
    /// element parses directly into the complemented set).
    Class(ByteSet),
    /// Matches the concatenation of the parts (Figure 6a chains).
    Concat(Vec<Ast>),
    /// Matches any one of the branches.
    Alt(Vec<Ast>),
    /// `inner?` — one or none (Figure 6c).
    Optional(Box<Ast>),
    /// `inner+` (`min_zero == false`) or `inner*` (`min_zero == true`) —
    /// Figure 6d.
    Repeat {
        /// Repeated sub-pattern.
        inner: Box<Ast>,
        /// `true` for `*`, `false` for `+`.
        min_zero: bool,
    },
}

impl Ast {
    /// An AST matching exactly the given byte string.
    pub fn literal(bytes: &[u8]) -> Ast {
        match bytes.len() {
            0 => Ast::Empty,
            1 => Ast::Class(ByteSet::singleton(bytes[0])),
            _ => Ast::Concat(bytes.iter().map(|&b| Ast::Class(ByteSet::singleton(b))).collect()),
        }
    }

    /// If this AST is a fixed byte string, return it.
    pub fn as_literal(&self) -> Option<Vec<u8>> {
        match self {
            Ast::Empty => Some(Vec::new()),
            Ast::Class(s) => s.as_singleton().map(|b| vec![b]),
            Ast::Concat(parts) => {
                let mut out = Vec::with_capacity(parts.len());
                for p in parts {
                    out.extend(p.as_literal()?);
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// Can this AST match the empty string?
    pub fn nullable(&self) -> bool {
        match self {
            Ast::Empty => true,
            Ast::Class(_) => false,
            Ast::Concat(parts) => parts.iter().all(Ast::nullable),
            Ast::Alt(branches) => branches.iter().any(Ast::nullable),
            Ast::Optional(_) => true,
            Ast::Repeat { min_zero, inner } => *min_zero || inner.nullable(),
        }
    }

    /// Number of character positions (leaf [`Ast::Class`] nodes). Each
    /// position becomes one pipeline register in the generated tokenizer,
    /// and one "pattern byte" in the paper's §4.3 accounting.
    pub fn position_count(&self) -> usize {
        match self {
            Ast::Empty => 0,
            Ast::Class(_) => 1,
            Ast::Concat(parts) => parts.iter().map(Ast::position_count).sum(),
            Ast::Alt(branches) => branches.iter().map(Ast::position_count).sum(),
            Ast::Optional(inner) => inner.position_count(),
            Ast::Repeat { inner, .. } => inner.position_count(),
        }
    }

    /// FOLLOW edges the Glushkov construction ([`crate::Template`]) adds
    /// for this AST, counted from the tree without building it. An edge
    /// counts each time it is added (a repeat nested in a repeat adds
    /// its loop twice), so this bounds the template's edges from above.
    /// The count saturates at `usize::MAX`.
    pub fn follow_edges(&self) -> usize {
        self.shape().edges
    }

    /// What [`crate::Template::build`] derives for this AST, as sizes.
    fn shape(&self) -> Shape {
        match self {
            Ast::Empty => Shape::EMPTY,
            Ast::Class(_) => Shape { nullable: false, first: 1, last: 1, edges: 0 },
            // last(acc) × first(part) edges at each junction.
            Ast::Concat(parts) => parts.iter().fold(Shape::EMPTY, |acc, part| {
                let f = part.shape();
                Shape {
                    nullable: acc.nullable && f.nullable,
                    first: if acc.nullable { acc.first + f.first } else { acc.first },
                    last: if f.nullable { acc.last + f.last } else { f.last },
                    edges: acc
                        .edges
                        .saturating_add(f.edges)
                        .saturating_add(acc.last.saturating_mul(f.first)),
                }
            }),
            Ast::Alt(branches) => {
                branches.iter().fold(Shape { nullable: false, ..Shape::EMPTY }, |acc, br| {
                    let f = br.shape();
                    Shape {
                        nullable: acc.nullable || f.nullable,
                        first: acc.first + f.first,
                        last: acc.last + f.last,
                        edges: acc.edges.saturating_add(f.edges),
                    }
                })
            }
            Ast::Optional(inner) => Shape { nullable: true, ..inner.shape() },
            // last × first loop edges.
            Ast::Repeat { inner, min_zero } => {
                let f = inner.shape();
                Shape {
                    nullable: f.nullable || *min_zero,
                    edges: f.edges.saturating_add(f.last.saturating_mul(f.first)),
                    ..f
                }
            }
        }
    }

    /// Union of all byte classes appearing in the pattern. The hardware
    /// generator uses this to decide which character decoders to emit.
    pub fn alphabet(&self) -> ByteSet {
        match self {
            Ast::Empty => ByteSet::EMPTY,
            Ast::Class(s) => *s,
            Ast::Concat(parts) | Ast::Alt(parts) => {
                parts.iter().fold(ByteSet::EMPTY, |acc, p| acc.union(p.alphabet()))
            }
            Ast::Optional(inner) | Ast::Repeat { inner, .. } => inner.alphabet(),
        }
    }
}

/// Nullability, `first` and `last` set sizes and FOLLOW edges of a
/// subexpression (see [`Ast::follow_edges`]).
#[derive(Clone, Copy)]
struct Shape {
    nullable: bool,
    first: usize,
    last: usize,
    edges: usize,
}

impl Shape {
    /// The empty sequence: nullable, with no positions.
    const EMPTY: Shape = Shape { nullable: true, first: 0, last: 0, edges: 0 };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_construction() {
        assert_eq!(Ast::literal(b""), Ast::Empty);
        assert_eq!(Ast::literal(b"a"), Ast::Class(ByteSet::singleton(b'a')));
        let ab = Ast::literal(b"ab");
        assert_eq!(ab.position_count(), 2);
        assert_eq!(ab.as_literal().unwrap(), b"ab");
    }

    #[test]
    fn nullable_rules() {
        assert!(Ast::Empty.nullable());
        assert!(!Ast::literal(b"x").nullable());
        assert!(Ast::Optional(Box::new(Ast::literal(b"x"))).nullable());
        assert!(Ast::Repeat { inner: Box::new(Ast::literal(b"x")), min_zero: true }.nullable());
        assert!(!Ast::Repeat { inner: Box::new(Ast::literal(b"x")), min_zero: false }.nullable());
        let alt = Ast::Alt(vec![Ast::literal(b"x"), Ast::Empty]);
        assert!(alt.nullable());
    }

    #[test]
    fn alphabet_union() {
        let a =
            Ast::Concat(vec![Ast::Class(ByteSet::digits()), Ast::Class(ByteSet::singleton(b'.'))]);
        let alpha = a.alphabet();
        assert!(alpha.contains(b'5'));
        assert!(alpha.contains(b'.'));
        assert!(!alpha.contains(b'a'));
    }

    #[test]
    fn non_literal_returns_none() {
        let a = Ast::Class(ByteSet::digits());
        assert!(a.as_literal().is_none());
    }
}
