//! Software matcher over the Glushkov position automaton.
//!
//! This is the *reference semantics* for token patterns: the hardware
//! tokenizers, the fast functional engine and the software-lexer baseline
//! must all agree with it (property tests in the respective crates).
//!
//! Two match semantics are exposed because the hardware differs subtly
//! from a classical maximal-munch lexer:
//!
//! * [`MatchSemantics::GlobalLongest`] — classical Lex behaviour: run the
//!   automaton to exhaustion and report the longest accepted prefix.
//! * [`MatchSemantics::HardwareLookahead`] — Figure 7 behaviour: a match
//!   is asserted at byte `i` iff some *last* position fires at `i` and the
//!   byte at `i + 1` cannot extend the token **from that position**. For
//!   patterns like `ab|abc` the hardware may assert at both lengths; the
//!   paper (§3.3) resolves this by parallel paths and back-end priority.

use crate::classes::ByteSet;
use crate::template::Template;

/// How matches are selected; see module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchSemantics {
    /// Classical maximal munch.
    GlobalLongest,
    /// The paper's per-position lookahead (Figure 7).
    HardwareLookahead,
}

/// A match found by [`Nfa::hardware_ends`] or the lexer baselines: the
/// half-open byte span `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Match {
    /// First byte of the lexeme.
    pub start: usize,
    /// One past the last byte of the lexeme.
    pub end: usize,
}

impl Match {
    /// Length of the lexeme in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the span is empty (never true for token matches).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Fixed-size bitset over automaton positions.
type Blocks = Vec<u64>;

/// A compiled Glushkov automaton with per-byte transition masks.
///
/// The byte and FOLLOW masks are each one flat row-major array of
/// `blocks`-word rows, so building or cloning an automaton allocates a
/// handful of vectors whatever its size.
#[derive(Debug, Clone)]
pub struct Nfa {
    n: usize,
    blocks: usize,
    /// Row `b` (256 rows) = positions whose class contains byte `b`.
    byte_mask: Vec<u64>,
    /// Row `p` (`n` rows) = positions that may fire after `p`.
    follow_mask: Vec<u64>,
    first_mask: Blocks,
    last_mask: Blocks,
    nullable: bool,
    /// Per position: bytes that extend the token after this position.
    continuation: Vec<ByteSet>,
}

impl Nfa {
    /// Compile a template into transition masks.
    pub fn from_template(t: &Template) -> Nfa {
        let n = t.positions.len();
        let blocks = n.div_ceil(64).max(1);
        let mut byte_mask = vec![0u64; 256 * blocks];
        for (p, class) in t.positions.iter().enumerate() {
            for b in class.iter() {
                byte_mask[b as usize * blocks + p / 64] |= 1 << (p % 64);
            }
        }
        let mut follow_mask = vec![0u64; n * blocks];
        for (p, follows) in t.follow.iter().enumerate() {
            for &q in follows {
                follow_mask[p * blocks + q / 64] |= 1 << (q % 64);
            }
        }
        let mut first_mask = vec![0u64; blocks];
        for &p in &t.first {
            first_mask[p / 64] |= 1 << (p % 64);
        }
        let mut last_mask = vec![0u64; blocks];
        for &p in &t.last {
            last_mask[p / 64] |= 1 << (p % 64);
        }
        let continuation = (0..n).map(|p| t.continuation_class(p)).collect();
        Nfa {
            n,
            blocks,
            byte_mask,
            follow_mask,
            first_mask,
            last_mask,
            nullable: t.nullable,
            continuation,
        }
    }

    /// Number of automaton positions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the automaton has no positions.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Does the pattern match the entire input?
    pub fn is_full_match(&self, input: &[u8]) -> bool {
        if input.is_empty() {
            return self.nullable;
        }
        let mut candidates = self.first_mask.clone();
        let mut fired = vec![0u64; self.blocks];
        for (i, &b) in input.iter().enumerate() {
            let mask = self.byte_row(b);
            let mut any = 0u64;
            for k in 0..self.blocks {
                fired[k] = candidates[k] & mask[k];
                any |= fired[k];
            }
            if any == 0 {
                return false;
            }
            if i + 1 == input.len() {
                return (0..self.blocks).any(|k| fired[k] & self.last_mask[k] != 0);
            }
            self.advance(&fired, &mut candidates);
        }
        unreachable!("loop returns on last byte");
    }

    /// Longest match starting at `start`, as a length in bytes.
    pub fn find_longest_at(
        &self,
        input: &[u8],
        start: usize,
        semantics: MatchSemantics,
    ) -> Option<usize> {
        match semantics {
            MatchSemantics::GlobalLongest => self.global_longest(input, start),
            MatchSemantics::HardwareLookahead => {
                self.hardware_ends(input, start).into_iter().max().map(|e| e - start)
            }
        }
    }

    fn global_longest(&self, input: &[u8], start: usize) -> Option<usize> {
        let mut best = if self.nullable { Some(0) } else { None };
        let mut candidates = self.first_mask.clone();
        let mut fired = vec![0u64; self.blocks];
        for (off, &b) in input[start..].iter().enumerate() {
            let mask = self.byte_row(b);
            let mut any = 0u64;
            for k in 0..self.blocks {
                fired[k] = candidates[k] & mask[k];
                any |= fired[k];
            }
            if any == 0 {
                break;
            }
            if (0..self.blocks).any(|k| fired[k] & self.last_mask[k] != 0) {
                best = Some(off + 1);
            }
            self.advance(&fired, &mut candidates);
        }
        best
    }

    /// All end offsets (exclusive) the *hardware* would assert for a token
    /// started at `start`: a last position fires and the next input byte
    /// does not continue from it (Figure 7 lookahead). End-of-input counts
    /// as "no continuation".
    #[allow(clippy::needless_range_loop)] // k also derives bit positions
    pub fn hardware_ends(&self, input: &[u8], start: usize) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut candidates = self.first_mask.clone();
        let mut fired = vec![0u64; self.blocks];
        for (off, &b) in input[start..].iter().enumerate() {
            let mask = self.byte_row(b);
            let mut any = 0u64;
            for ((f, c), m) in fired.iter_mut().zip(&candidates).zip(mask) {
                *f = c & m;
                any |= *f;
            }
            if any == 0 {
                break;
            }
            let next = input.get(start + off + 1).copied();
            'blocks: for k in 0..self.blocks {
                let mut lasts = fired[k] & self.last_mask[k];
                while lasts != 0 {
                    let p = k * 64 + lasts.trailing_zeros() as usize;
                    lasts &= lasts - 1;
                    let continues = match next {
                        Some(nb) => self.continuation[p].contains(nb),
                        None => false,
                    };
                    if !continues {
                        // One assertion per byte is enough; further last
                        // positions at the same offset duplicate it.
                        ends.push(start + off + 1);
                        break 'blocks;
                    }
                }
            }
            self.advance(&fired, &mut candidates);
        }
        ends
    }

    /// Every end offset (exclusive) at which a match starting at `start`
    /// is accepted — the full ambiguity set, unfiltered by lookahead.
    /// Used by the stack-augmented exact parser, which must consider all
    /// tokenisations.
    pub fn all_match_ends(&self, input: &[u8], start: usize) -> Vec<usize> {
        let mut ends = Vec::new();
        if self.nullable {
            ends.push(start);
        }
        let mut candidates = self.first_mask.clone();
        let mut fired = vec![0u64; self.blocks];
        for (off, &b) in input[start..].iter().enumerate() {
            let mask = self.byte_row(b);
            let mut any = 0u64;
            for ((f, c), m) in fired.iter_mut().zip(&candidates).zip(mask) {
                *f = c & m;
                any |= *f;
            }
            if any == 0 {
                break;
            }
            if (0..self.blocks).any(|k| fired[k] & self.last_mask[k] != 0) {
                ends.push(start + off + 1);
            }
            self.advance(&fired, &mut candidates);
        }
        ends
    }

    /// Run this automaton over `input[..end]` in reverse (last byte
    /// first) and return the longest match length. Pass the NFA of a
    /// [`Template::reversed`] automaton to recover a lexeme's *start*
    /// from its end position without copying the buffer.
    ///
    /// [`Template::reversed`]: crate::template::Template::reversed
    pub fn find_longest_rev(&self, input: &[u8], end: usize) -> Option<usize> {
        self.find_longest_rev_where(input, end, |_| true)
    }

    /// [`Nfa::find_longest_rev`] restricted to matches whose start
    /// (`end - len`) satisfies `may_start` — for callers that know where
    /// a lexeme could have begun, e.g. from a circuit's enable wires.
    pub fn find_longest_rev_where(
        &self,
        input: &[u8],
        end: usize,
        may_start: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let mut best = if self.nullable && may_start(end) { Some(0) } else { None };
        let mut candidates = self.first_mask.clone();
        let mut fired = vec![0u64; self.blocks];
        for (off, &b) in input[..end].iter().rev().enumerate() {
            let mask = self.byte_row(b);
            let mut any = 0u64;
            for k in 0..self.blocks {
                fired[k] = candidates[k] & mask[k];
                any |= fired[k];
            }
            if any == 0 {
                break;
            }
            if (0..self.blocks).any(|k| fired[k] & self.last_mask[k] != 0)
                && may_start(end - off - 1)
            {
                best = Some(off + 1);
            }
            self.advance(&fired, &mut candidates);
        }
        best
    }

    /// The positions whose class contains byte `b`.
    #[inline]
    fn byte_row(&self, b: u8) -> &[u64] {
        &self.byte_mask[b as usize * self.blocks..][..self.blocks]
    }

    #[inline]
    #[allow(clippy::needless_range_loop)] // k also derives bit positions
    fn advance(&self, fired: &Blocks, candidates: &mut Blocks) {
        candidates.iter_mut().for_each(|w| *w = 0);
        for k in 0..self.blocks {
            let mut word = fired[k];
            while word != 0 {
                let p = k * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let follows = &self.follow_mask[p * self.blocks..][..self.blocks];
                for (c, f) in candidates.iter_mut().zip(follows) {
                    *c |= f;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn nfa(src: &str) -> Nfa {
        Nfa::from_template(&Template::build(&parse(src).unwrap()))
    }

    #[test]
    fn full_match_literal() {
        let n = nfa("<param>");
        assert!(n.is_full_match(b"<param>"));
        assert!(!n.is_full_match(b"<param"));
        assert!(!n.is_full_match(b"<params>"));
        assert!(!n.is_full_match(b""));
    }

    #[test]
    fn longest_match_repeat() {
        let n = nfa("[0-9]+");
        assert_eq!(n.find_longest_at(b"12345x", 0, MatchSemantics::GlobalLongest), Some(5));
        assert_eq!(n.find_longest_at(b"12345x", 2, MatchSemantics::GlobalLongest), Some(3));
        assert_eq!(n.find_longest_at(b"x123", 0, MatchSemantics::GlobalLongest), None);
    }

    #[test]
    fn hardware_matches_global_on_unambiguous_patterns() {
        let n = nfa("[a-z]+");
        for input in [&b"abc "[..], b"a", b"zz9", b"hello world"] {
            assert_eq!(
                n.find_longest_at(input, 0, MatchSemantics::GlobalLongest),
                n.find_longest_at(input, 0, MatchSemantics::HardwareLookahead),
                "input {input:?}"
            );
        }
    }

    #[test]
    fn hardware_asserts_once_per_longest_run() {
        // Figure 7: a+ on "aaab" asserts exactly once, at the end of the run.
        let n = nfa("a+");
        assert_eq!(n.hardware_ends(b"aaab", 0), vec![3]);
        assert_eq!(n.hardware_ends(b"aaa", 0), vec![3]);
        assert_eq!(n.hardware_ends(b"b", 0), Vec::<usize>::new());
    }

    #[test]
    fn hardware_may_assert_twice_on_prefix_ambiguity() {
        // ab|abc: the 'ab' branch's last position has empty continuation,
        // so the hardware asserts at length 2 even when 'abc' also
        // matches — the §3.3 "two or more tokenizers accept" case.
        let n = nfa("ab|abc");
        assert_eq!(n.hardware_ends(b"abc", 0), vec![2, 3]);
        assert_eq!(n.find_longest_at(b"abc", 0, MatchSemantics::GlobalLongest), Some(3));
        assert_eq!(n.find_longest_at(b"abc", 0, MatchSemantics::HardwareLookahead), Some(3));
    }

    #[test]
    fn double_pattern_hardware_lookahead() {
        let n = nfa(r"[+-]?[0-9]+\.[0-9]+");
        assert_eq!(n.hardware_ends(b"-12.5x", 0), vec![5]);
        // A trailing digit keeps the run alive: no assertion until it ends.
        assert_eq!(n.hardware_ends(b"-12.55", 0), vec![6]);
        assert!(n.is_full_match(b"3.14"));
        assert!(!n.is_full_match(b"3."));
    }

    #[test]
    fn empty_input_and_nullable() {
        let n = Nfa::from_template(&Template::build(&parse("a*").unwrap()));
        assert!(n.is_full_match(b""));
        assert_eq!(n.find_longest_at(b"", 0, MatchSemantics::GlobalLongest), Some(0));
        assert_eq!(n.find_longest_at(b"aa", 0, MatchSemantics::GlobalLongest), Some(2));
    }

    #[test]
    fn wide_pattern_multi_block() {
        // More than 64 positions to exercise multi-word bitsets.
        let long: String = "ab".repeat(40);
        let n = nfa(&long);
        let input = "ab".repeat(40);
        assert!(n.is_full_match(input.as_bytes()));
        assert!(!n.is_full_match(&input.as_bytes()[..79]));
        assert_eq!(n.len(), 80);
    }

    #[test]
    fn reverse_longest_recovers_start() {
        // Recover the start of "[0-9]+" lexemes from their end.
        let t = Template::build(&parse("[0-9]+").unwrap());
        let rev = Nfa::from_template(&t.reversed());
        let input = b"ab 1234 cd";
        // Lexeme "1234" ends at 7.
        assert_eq!(rev.find_longest_rev(input, 7), Some(4));
        // Lexeme "-42": sign is optional backwards too.
        let t = Template::build(&parse("[+-]?[0-9]+").unwrap());
        let rev = Nfa::from_template(&t.reversed());
        assert_eq!(rev.find_longest_rev(b"x-42", 4), Some(3));
        assert_eq!(rev.find_longest_rev(b"x-42", 1), None);
        // A start the caller rules out falls back to the next-longest.
        assert_eq!(rev.find_longest_rev_where(b"x-42", 4, |s| s != 1), Some(2));
        assert_eq!(rev.find_longest_rev_where(b"x-42", 4, |_| false), None);
    }

    #[test]
    fn base64_class() {
        let n = nfa("[+/A-Za-z0-9]");
        assert!(n.is_full_match(b"+"));
        assert!(n.is_full_match(b"Q"));
        assert!(!n.is_full_match(b"="));
        assert!(!n.is_full_match(b"QQ"));
    }
}
