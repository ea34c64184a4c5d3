//! Glushkov position automaton — the hardware template.
//!
//! The paper's tokenizers (Figures 6 and 7) are pipelines with **one
//! flip-flop per character occurrence** of the pattern. The Glushkov
//! (position) construction produces exactly that structure from a regular
//! expression without ε-transitions:
//!
//! * every leaf byte-class occurrence is a *position* (one register),
//! * `first` positions are those that can start a match (wired to the
//!   tokenizer's enable input),
//! * `follow(p)` are the positions that can consume the next byte after
//!   `p` fired (the AND-gate chain wiring, including the self-loops that
//!   realise `+`/`*`),
//! * `last` positions are those whose firing completes a match (the taps
//!   feeding the token's detection output).
//!
//! The Figure 7 *longest-match lookahead* is also derived here:
//! [`Template::continuation_class`] gives, per last position, the byte
//! class that would extend the token — the hardware ANDs the match tap
//! with the inverted decoder of that class, one pipeline stage later.

use crate::ast::Ast;
use crate::classes::ByteSet;

/// The position automaton of one token pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// Byte class of each position, indexed by position id.
    pub positions: Vec<ByteSet>,
    /// Positions that may consume the first byte of a match.
    pub first: Vec<usize>,
    /// Positions whose firing completes a match.
    pub last: Vec<usize>,
    /// `follow[p]` = positions that may consume the byte after `p`.
    pub follow: Vec<Vec<usize>>,
    /// Whether the pattern matches the empty string (tokens reject this,
    /// but the construction supports it for composability).
    pub nullable: bool,
}

/// Transpose per-position byte classes into a 256-row position-mask ROM.
fn rom_of(classes: &[ByteSet]) -> Vec<u64> {
    let words = classes.len().div_ceil(64);
    let mut rom = vec![0u64; 256 * words];
    for (p, class) in classes.iter().enumerate() {
        for b in class.iter() {
            rom[b as usize * words + (p >> 6)] |= 1u64 << (p & 63);
        }
    }
    rom
}

/// first/last/nullable of a subexpression during construction.
struct Facts {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<usize>,
}

impl Template {
    /// Build the position automaton for an AST.
    pub fn build(ast: &Ast) -> Template {
        let mut t = Template {
            positions: Vec::new(),
            first: Vec::new(),
            last: Vec::new(),
            follow: Vec::new(),
            nullable: false,
        };
        let facts = t.walk(ast);
        t.first = facts.first;
        t.last = facts.last;
        t.nullable = facts.nullable;
        t.first.sort_unstable();
        t.last.sort_unstable();
        for f in &mut t.follow {
            f.sort_unstable();
            f.dedup();
        }
        t
    }

    fn walk(&mut self, ast: &Ast) -> Facts {
        match ast {
            Ast::Empty => Facts { nullable: true, first: vec![], last: vec![] },
            Ast::Class(set) => {
                let p = self.positions.len();
                self.positions.push(*set);
                self.follow.push(Vec::new());
                Facts { nullable: false, first: vec![p], last: vec![p] }
            }
            Ast::Concat(parts) => {
                let mut acc = Facts { nullable: true, first: vec![], last: vec![] };
                for part in parts {
                    let f = self.walk(part);
                    // last(acc) can be followed by first(f).
                    for &l in &acc.last {
                        self.follow[l].extend_from_slice(&f.first);
                    }
                    if acc.nullable {
                        acc.first.extend_from_slice(&f.first);
                    }
                    if f.nullable {
                        acc.last.extend_from_slice(&f.last);
                    } else {
                        acc.last = f.last;
                    }
                    acc.nullable &= f.nullable;
                }
                acc
            }
            Ast::Alt(branches) => {
                let mut acc = Facts { nullable: false, first: vec![], last: vec![] };
                for br in branches {
                    let f = self.walk(br);
                    acc.nullable |= f.nullable;
                    acc.first.extend(f.first);
                    acc.last.extend(f.last);
                }
                acc
            }
            Ast::Optional(inner) => {
                let f = self.walk(inner);
                Facts { nullable: true, ..f }
            }
            Ast::Repeat { inner, min_zero } => {
                let f = self.walk(inner);
                // last may loop back to first.
                for &l in &f.last {
                    let firsts = f.first.clone();
                    self.follow[l].extend(firsts);
                }
                Facts { nullable: f.nullable || *min_zero, first: f.first, last: f.last }
            }
        }
    }

    /// Union of the byte classes of the follow positions of `p`: the set
    /// of bytes that would *continue* a token after position `p` fired.
    /// The Figure 7 longest-match gate is `match(p) AND NOT decode(this)`.
    pub fn continuation_class(&self, p: usize) -> ByteSet {
        self.follow[p].iter().fold(ByteSet::EMPTY, |acc, &q| acc.union(self.positions[q]))
    }

    /// True if some last position has a non-empty continuation, i.e. the
    /// token needs the Figure 7 lookahead register to report only the
    /// longest match.
    pub fn needs_lookahead(&self) -> bool {
        self.last.iter().any(|&p| !self.continuation_class(p).is_empty())
    }

    /// Union of all byte classes used by the pattern.
    pub fn alphabet(&self) -> ByteSet {
        self.positions.iter().fold(ByteSet::EMPTY, |acc, s| acc.union(*s))
    }

    /// Number of `u64` words needed to hold one position bitmask.
    pub fn mask_words(&self) -> usize {
        self.positions.len().div_ceil(64)
    }

    /// The byte→positions decode ROM: 256 rows of [`Template::mask_words`]
    /// words, row `b` holding bit `p` iff `positions[p]` contains byte
    /// `b`. This transposes the per-position decoder truth tables
    /// ([`ByteSet::as_words`]) into the lookup a bit-parallel scanner
    /// performs per input byte — the software analogue of the paper's
    /// §3.2 character decoders, evaluated for all positions at once.
    pub fn decode_rom(&self) -> Vec<u64> {
        rom_of(&self.positions)
    }

    /// The continuation ROM: same layout as [`Template::decode_rom`],
    /// but row `b` holds bit `p` iff byte `b` *extends* a match ending
    /// at position `p` (the Figure 7 longest-match lookahead class).
    pub fn continuation_rom(&self) -> Vec<u64> {
        let classes: Vec<ByteSet> =
            (0..self.positions.len()).map(|p| self.continuation_class(p)).collect();
        rom_of(&classes)
    }

    /// The reversed automaton: recognises the mirror language. `first`
    /// and `last` swap and the follow relation inverts. Used to recover
    /// a lexeme's *start* from its end position (the hardware only
    /// reports ends; the back-end runs the reverse automaton over the
    /// buffered stream, §3.4's "identification accomplished in
    /// software").
    pub fn reversed(&self) -> Template {
        let n = self.positions.len();
        let mut follow = vec![Vec::new(); n];
        for (p, fs) in self.follow.iter().enumerate() {
            for &q in fs {
                follow[q].push(p);
            }
        }
        for f in &mut follow {
            f.sort_unstable();
        }
        Template {
            positions: self.positions.clone(),
            first: self.last.clone(),
            last: self.first.clone(),
            follow,
            nullable: self.nullable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn template(src: &str) -> Template {
        Template::build(&parse(src).unwrap())
    }

    #[test]
    fn ast_counts_the_edges_the_template_adds() {
        let edges = |t: &Template| t.follow.iter().map(Vec::len).sum::<usize>();
        for src in ["abc", "a+", "[+-]?[0-9]+", "go|stop", "(ab|c)*d", "(a?b){5}", "x(y|z)+w?"] {
            let ast = parse(src).unwrap();
            assert_eq!(ast.follow_edges(), edges(&Template::build(&ast)), "{src}");
        }
        // A nested repeat re-adds its loop, which the template dedups.
        let ast = parse("(a+)+").unwrap();
        assert_eq!((ast.follow_edges(), edges(&Template::build(&ast))), (2, 1));
    }

    #[test]
    fn literal_chain() {
        let t = template("abc");
        assert_eq!(t.positions.len(), 3);
        assert_eq!(t.first, vec![0]);
        assert_eq!(t.last, vec![2]);
        assert_eq!(t.follow[0], vec![1]);
        assert_eq!(t.follow[1], vec![2]);
        assert!(t.follow[2].is_empty());
        assert!(!t.nullable);
        assert!(!t.needs_lookahead());
    }

    #[test]
    fn one_or_more_self_loop() {
        // a+ — Figure 6d/7 of the paper: a single position with a
        // self-loop; lookahead needed because 'a' continues the run.
        let t = template("a+");
        assert_eq!(t.positions.len(), 1);
        assert_eq!(t.follow[0], vec![0]);
        assert_eq!(t.first, vec![0]);
        assert_eq!(t.last, vec![0]);
        assert!(t.needs_lookahead());
        assert_eq!(t.continuation_class(0), ByteSet::singleton(b'a'));
    }

    #[test]
    fn optional_skips() {
        // [+-]?[0-9]+ — first = {sign, digit}, last = {digit}.
        let t = template("[+-]?[0-9]+");
        assert_eq!(t.positions.len(), 2);
        assert_eq!(t.first, vec![0, 1]);
        assert_eq!(t.last, vec![1]);
        assert_eq!(t.follow[0], vec![1]);
        assert_eq!(t.follow[1], vec![1]);
    }

    #[test]
    fn alternation_shares_ends() {
        let t = template("go|stop");
        assert_eq!(t.positions.len(), 6);
        assert_eq!(t.first, vec![0, 2]);
        assert_eq!(t.last, vec![1, 5]);
    }

    #[test]
    fn double_pattern_structure() {
        // [+-]?[0-9]+\.[0-9]+ — positions: sign, int digits, dot, frac.
        let t = template(r"[+-]?[0-9]+\.[0-9]+");
        assert_eq!(t.positions.len(), 4);
        assert_eq!(t.first, vec![0, 1]);
        assert_eq!(t.last, vec![3]);
        assert_eq!(t.follow[1], vec![1, 2]);
        assert_eq!(t.follow[2], vec![3]);
        assert_eq!(t.follow[3], vec![3]);
        // Longest-match continuation after the final digit is a digit.
        assert_eq!(t.continuation_class(3), ByteSet::digits());
    }

    #[test]
    fn star_inside_concat() {
        // ab*c: follow(a) = {b, c}; follow(b) = {b, c}.
        let t = template("ab*c");
        assert_eq!(t.follow[0], vec![1, 2]);
        assert_eq!(t.follow[1], vec![1, 2]);
        assert_eq!(t.first, vec![0]);
        assert_eq!(t.last, vec![2]);
    }

    #[test]
    fn nullable_whole_pattern() {
        let t = template("a*");
        assert!(t.nullable);
        assert_eq!(t.first, vec![0]);
        assert_eq!(t.last, vec![0]);
    }

    #[test]
    fn reversed_template_matches_mirror_language() {
        use crate::nfa::Nfa;
        for (pattern, sample) in [
            ("abc", &b"abc"[..]),
            ("[+-]?[0-9]+", b"-42"),
            ("(ab)+", b"ababab"),
            ("go|stop", b"stop"),
        ] {
            let t = template(pattern);
            let rev = t.reversed();
            let fwd_nfa = Nfa::from_template(&t);
            let rev_nfa = Nfa::from_template(&rev);
            let mirrored: Vec<u8> = sample.iter().rev().copied().collect();
            assert!(fwd_nfa.is_full_match(sample), "{pattern}");
            assert!(rev_nfa.is_full_match(&mirrored), "{pattern} reversed");
            // Double reversal is the identity.
            assert_eq!(rev.reversed(), t, "{pattern}");
        }
    }

    #[test]
    fn decode_rom_transposes_position_classes() {
        let t = template(r"[+-]?[0-9]+\.[0-9]+");
        let words = t.mask_words();
        assert_eq!(words, 1);
        let rom = t.decode_rom();
        assert_eq!(rom.len(), 256 * words);
        for b in 0..=255u8 {
            for (p, class) in t.positions.iter().enumerate() {
                let bit = rom[b as usize * words + (p >> 6)] >> (p & 63) & 1;
                assert_eq!(bit == 1, class.contains(b), "byte {b} position {p}");
            }
        }
        // Row '5' lights both digit positions; row '.' only the dot.
        assert_eq!(rom[b'5' as usize], 0b1010);
        assert_eq!(rom[b'.' as usize], 0b0100);
    }

    #[test]
    fn continuation_rom_mirrors_continuation_classes() {
        let t = template("a+");
        let rom = t.continuation_rom();
        // After the single position, only 'a' extends the run.
        assert_eq!(rom[b'a' as usize], 0b1);
        assert_eq!(rom[b'b' as usize], 0);
    }

    #[test]
    fn nested_repeat_group() {
        // (ab)+ — follow(b) includes a (loop) ; last = {b}.
        let t = template("(ab)+");
        assert_eq!(t.follow[1], vec![0]);
        assert_eq!(t.first, vec![0]);
        assert_eq!(t.last, vec![1]);
        assert!(t.needs_lookahead());
        assert_eq!(t.continuation_class(1), ByteSet::singleton(b'a'));
    }
}
