//! Seeded random grammars, sentences and mutants — a shared substrate
//! for property tests, fuzzers and benches.
//!
//! [`RandomGrammar::generate`] draws a small CFG from a `u64` seed: 3–12
//! tokens over overlapping byte classes (literals that are prefixes of
//! one another and of class tokens, and now and then two tokens with one
//! pattern), recursive and nullable productions, and tokens reused in
//! several productions so the §3.2 context duplication fires.
//! [`RandomGrammar::sentence`] derives a conforming token sequence and
//! draws a lexeme for each token; [`mutate`] drops, duplicates or swaps
//! one word of it, as the Figure 2 experiment does; [`join`] spells the
//! words with random delimiters.
//!
//! The stream is SplitMix64, so the crate takes no dependency and a seed
//! names the same grammar on every platform.
//!
//! ```
//! use cfg_grammar::random::{join, RandomGrammar, Rng};
//!
//! let g = RandomGrammar::generate(7);
//! assert!((3..=12).contains(&g.grammar.tokens().len()));
//! let mut rng = Rng::new(7);
//! let words = g.sentence(&mut rng);
//! let _input: Vec<u8> = join(&words, &mut rng);
//! ```

use crate::ast::{Grammar, TokenId};

/// A SplitMix64 stream: small, fast and seedable.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

/// One piece of a token's lexeme: literal bytes, or between `min` and
/// `max` bytes drawn from a class.
#[derive(Debug, Clone, Copy)]
enum Piece {
    Lit(&'static [u8]),
    Class(&'static [u8], usize, usize),
}

use Piece::{Class, Lit};

const DIGITS: &[u8] = b"0123456789";

/// The token menu: a pattern and how to draw its lexemes. The classes
/// overlap (`a` ⊂ `ab` ⊂ `[a-c]+` ⊂ `[a-c0-9]+`, `x` and `x[0-9]*`,
/// `<a>` and `<[ab]+>`), so tokens that fire together and longest match
/// across them both occur.
const MENU: &[(&str, &[Piece])] = &[
    ("a", &[Lit(b"a")]),
    ("ab", &[Lit(b"ab")]),
    ("abc", &[Lit(b"abc")]),
    ("ba", &[Lit(b"ba")]),
    ("cab", &[Lit(b"cab")]),
    ("x", &[Lit(b"x")]),
    ("<a>", &[Lit(b"<a>")]),
    ("=", &[Lit(b"=")]),
    ("a?c", &[Class(b"a", 0, 1), Lit(b"c")]),
    ("[a-c]+", &[Class(b"abc", 1, 4)]),
    ("[ab]+", &[Class(b"ab", 1, 4)]),
    ("[0-9]+", &[Class(DIGITS, 1, 3)]),
    ("[a-c0-9]+", &[Class(b"abc0123456789", 1, 4)]),
    ("x[0-9]*", &[Lit(b"x"), Class(DIGITS, 0, 3)]),
    ("b[ab]*", &[Lit(b"b"), Class(b"ab", 0, 3)]),
    ("[0-9]+=", &[Class(DIGITS, 1, 2), Lit(b"=")]),
    ("<[ab]+>", &[Lit(b"<"), Class(b"ab", 1, 3), Lit(b">")]),
];

/// A sentence longer than this many words closes every open
/// nonterminal with its terminating alternative.
const MAX_WORDS: usize = 40;

/// Derivations deeper than this take the terminating alternative.
const MAX_DEPTH: usize = 8;

/// A generated grammar, its source text, and how to draw sentences.
#[derive(Debug, Clone)]
pub struct RandomGrammar {
    /// The grammar, parsed from [`RandomGrammar::text`].
    pub grammar: Grammar,
    /// The source text, in the Lex/Yacc-flavoured format.
    pub text: String,
    /// Per token: its menu entry.
    menu: Vec<usize>,
    /// Per nonterminal: alternatives as symbol lists. Alternative 0
    /// terminates: it names only tokens and higher-numbered
    /// nonterminals.
    rules: Vec<Vec<Vec<Sym>>>,
}

#[derive(Debug, Clone, Copy)]
enum Sym {
    T(usize),
    N(usize),
}

impl RandomGrammar {
    /// The grammar for `seed`.
    pub fn generate(seed: u64) -> RandomGrammar {
        let mut rng = Rng::new(seed);
        let tokens = 3 + rng.below(10);
        let menu: Vec<usize> = (0..tokens).map(|_| rng.below(MENU.len())).collect();
        let nts = 2 + rng.below(4);
        let mut rules = Vec::with_capacity(nts);
        for i in 0..nts {
            let mut alts = Vec::new();
            // The terminating alternative: tokens, and nonterminals
            // further down (whose own alternative 0 terminates).
            let base = (0..1 + rng.below(3))
                .map(|_| {
                    if i + 1 < nts && rng.chance(30) {
                        Sym::N(i + 1 + rng.below(nts - i - 1))
                    } else {
                        Sym::T(rng.below(tokens))
                    }
                })
                .collect();
            alts.push(base);
            for _ in 0..rng.below(3) {
                if rng.chance(25) {
                    // Nullable.
                    alts.push(Vec::new());
                    continue;
                }
                // Anything, the nonterminal itself included: recursion.
                let alt = (0..1 + rng.below(4))
                    .map(|_| {
                        if rng.chance(35) {
                            Sym::N(rng.below(nts))
                        } else {
                            Sym::T(rng.below(tokens))
                        }
                    })
                    .collect();
                alts.push(alt);
            }
            rules.push(alts);
        }

        let mut text = String::new();
        for (t, &m) in menu.iter().enumerate() {
            text.push_str(&format!("T{t} {}\n", MENU[m].0));
        }
        text.push_str("%%\n");
        for (i, alts) in rules.iter().enumerate() {
            let alts: Vec<String> = alts
                .iter()
                .map(|alt| {
                    let syms: Vec<String> = alt
                        .iter()
                        .map(|s| match s {
                            Sym::T(t) => format!("T{t}"),
                            Sym::N(n) => format!("n{n}"),
                        })
                        .collect();
                    syms.join(" ")
                })
                .collect();
            text.push_str(&format!("n{i}: {};\n", alts.join(" | ")));
        }
        text.push_str("%%\n");
        let grammar = Grammar::parse(&text)
            .unwrap_or_else(|e| panic!("generated grammar must parse ({e}):\n{text}"));
        RandomGrammar { grammar, text, menu, rules }
    }

    /// A conforming sentence: a derivation from the start symbol, one
    /// lexeme per token.
    pub fn sentence(&self, rng: &mut Rng) -> Vec<Vec<u8>> {
        let mut tokens = Vec::new();
        self.derive(0, 0, rng, &mut tokens);
        tokens.into_iter().map(|t| self.lexeme(t, rng)).collect()
    }

    /// A random lexeme of token `t`.
    pub fn lexeme(&self, t: TokenId, rng: &mut Rng) -> Vec<u8> {
        let mut out = Vec::new();
        for piece in MENU[self.menu[t.index()]].1 {
            match *piece {
                Lit(bytes) => out.extend_from_slice(bytes),
                Class(bytes, min, max) => {
                    for _ in 0..min + rng.below(max - min + 1) {
                        out.push(bytes[rng.below(bytes.len())]);
                    }
                }
            }
        }
        out
    }

    fn derive(&self, nt: usize, depth: usize, rng: &mut Rng, out: &mut Vec<TokenId>) {
        let alts = &self.rules[nt];
        let closing = depth >= MAX_DEPTH || out.len() >= MAX_WORDS;
        let alt = &alts[if closing { 0 } else { rng.below(alts.len()) }];
        for sym in alt {
            match *sym {
                Sym::T(t) => out.push(TokenId(t as u32)),
                Sym::N(n) => self.derive(n, depth + 1, rng, out),
            }
        }
    }
}

/// Spell `words` as one input, each followed by a random delimiter run.
pub fn join(words: &[Vec<u8>], rng: &mut Rng) -> Vec<u8> {
    const DELIMS: [&[u8]; 5] = [b" ", b" ", b"  ", b"\t", b"\n"];
    let mut out = Vec::new();
    for w in words {
        out.extend_from_slice(w);
        out.extend_from_slice(DELIMS[rng.below(DELIMS.len())]);
    }
    out
}

/// One single-word mutation, as in the Figure 2 experiment: drop a
/// word, duplicate one, or swap two neighbours. Fewer than two words
/// come back duplicated.
pub fn mutate(words: &[Vec<u8>], rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut w = words.to_vec();
    if w.is_empty() {
        return w;
    }
    let i = rng.below(w.len());
    match if w.len() < 2 { 1 } else { rng.below(3) } {
        0 => {
            w.remove(i);
        }
        1 => w.insert(i, w[i].clone()),
        _ => {
            let j = if i + 1 < w.len() { i + 1 } else { i - 1 };
            w.swap(i, j);
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform;

    #[test]
    fn random_grammars_are_seeded() {
        assert_eq!(RandomGrammar::generate(3).text, RandomGrammar::generate(3).text);
        let texts: std::collections::HashSet<String> =
            (0..50).map(|s| RandomGrammar::generate(s).text).collect();
        assert!(texts.len() >= 49, "seeds name distinct grammars");
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        assert_eq!((0..8).map(|_| a.next_u64()).collect::<Vec<_>>(), {
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        });
    }

    /// Across seeds the generator produces what the tagger's features
    /// need: 3–12 tokens, recursion, nullable nonterminals, and tokens
    /// that occur in more than one context.
    #[test]
    fn random_grammars_cover_the_features() {
        let (mut recursive, mut nullable, mut duplicated) = (0, 0, 0);
        let n = 200;
        for seed in 0..n {
            let g = RandomGrammar::generate(seed);
            let tokens = g.grammar.tokens().len();
            assert!((3..=12).contains(&tokens), "{}", g.text);
            let a = g.grammar.analyze();
            nullable += a.nullable.iter().any(|&x| x) as u32;
            recursive +=
                g.grammar.productions().iter().any(|p| p.rhs.contains(&crate::Symbol::Nt(p.lhs)))
                    as u32;
            let dup = transform::duplicate_multi_context_tokens(&g.grammar);
            duplicated += (dup.tokens().len() > tokens) as u32;
        }
        assert!(recursive > n as u32 / 4, "recursive in {recursive} of {n}");
        assert!(nullable > n as u32 / 4, "nullable in {nullable} of {n}");
        assert!(duplicated > n as u32 / 2, "duplication fires in {duplicated} of {n}");
    }

    /// Every word of a sentence is a lexeme of its token's pattern, and
    /// the same stream draws the same sentence.
    #[test]
    fn random_sentences_spell_their_tokens() {
        for seed in 0..100 {
            let g = RandomGrammar::generate(seed);
            let mut tokens = Vec::new();
            g.derive(0, 0, &mut Rng::new(seed), &mut tokens);
            assert!(tokens.len() <= MAX_WORDS + 4 * MAX_DEPTH * 4, "{}", g.text);
            let mut rng = Rng::new(seed);
            for t in tokens {
                let lexeme = g.lexeme(t, &mut rng);
                let pattern = &g.grammar.tokens()[t.index()].pattern;
                assert!(pattern.is_full_match(&lexeme), "{lexeme:?} vs {}", pattern.source());
            }
            assert_eq!(g.sentence(&mut Rng::new(seed)), g.sentence(&mut Rng::new(seed)));
        }
    }

    #[test]
    fn random_mutants_drop_duplicate_or_swap_one_word() {
        let words: Vec<Vec<u8>> = [&b"ab"[..], b"x1", b"=", b"cab"].map(<[u8]>::to_vec).to_vec();
        let mut rng = Rng::new(1);
        let mut seen = [false; 3];
        for _ in 0..100 {
            let m = mutate(&words, &mut rng);
            let kind = match m.len() {
                3 => 0,
                5 => 1,
                _ => {
                    assert_ne!(m, words, "a swap of distinct words changes the sentence");
                    let (mut a, mut b) = (m.clone(), words.clone());
                    a.sort();
                    b.sort();
                    assert_eq!(a, b);
                    2
                }
            };
            seen[kind] = true;
        }
        assert_eq!(seen, [true; 3]);
        assert_eq!(mutate(&words[..1], &mut rng).len(), 2);
        assert!(mutate(&[], &mut rng).is_empty());
        let joined = join(&words[..2], &mut Rng::new(0));
        assert!(joined.starts_with(b"ab") && joined.len() >= 6, "{joined:?}");
    }
}
