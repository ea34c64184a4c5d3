//! Supplementary experiment: **the Figure 2 trade, quantified**.
//!
//! §3.1: collapsing the push-down automaton into a finite-state machine
//! means "our design can parse a language that is a superset of the
//! grammar … we assume that the data already conforms to the grammar".
//! How big is that superset in practice? We mutate conforming sentences
//! (drop/duplicate/swap one token) and measure how often each machine
//! still produces a full tag stream / accepts:
//!
//! * the stackless tagger "accepts" a mutant if it tags every token of
//!   the mutated stream (no dead state);
//! * the exact (stack-augmented, §5.2) parser accepts only the grammar.
//!
//! Run: `cargo run -p cfg-bench --bin figure2 --release`

#![forbid(unsafe_code)]

use cfg_grammar::builtin;
use cfg_tagger::{PdaParser, TaggerOptions, TokenTagger};
use rand::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(0xF16);
    for (name, g, sentences) in [
        ("balanced parens (Fig. 1)", builtin::balanced_parens(), parens_sentences(&mut rng)),
        ("if-then-else (Fig. 9)", builtin::if_then_else(), ite_sentences(&mut rng)),
    ] {
        let tagger = TokenTagger::compile(&g, TaggerOptions::default()).expect("compiles");
        let pda = PdaParser::new(&g);
        let lexer = cfg_baseline::SwLexer::new(&g);

        let mut trials = 0usize;
        let mut tagger_full = 0usize;
        let mut pda_accepts = 0usize;
        for s in &sentences {
            for mutant in mutate(s, &mut rng) {
                // Token count of the mutant under a plain lexer (context
                // free); the tagger "fully tags" if it emits that many.
                let Ok(toks) = lexer.tokenize(mutant.as_bytes()) else { continue };
                if toks.is_empty() {
                    continue;
                }
                trials += 1;
                if tagger.tag_fast(mutant.as_bytes()).len() == toks.len() {
                    tagger_full += 1;
                }
                if pda.accepts(mutant.as_bytes()) {
                    pda_accepts += 1;
                }
            }
        }
        println!("{name}: {trials} mutated sentences");
        println!(
            "  stackless tagger fully tags: {:>5} ({:.0}%)   — the Figure 2b superset",
            tagger_full,
            100.0 * tagger_full as f64 / trials as f64
        );
        println!(
            "  exact PDA accepts:           {:>5} ({:.0}%)   — the true language",
            pda_accepts,
            100.0 * pda_accepts as f64 / trials as f64
        );
        assert!(tagger_full >= pda_accepts, "superset property violated");
        println!();
    }
    println!(
        "shape check: the stackless machine tags a strict superset of what \
         the exact parser accepts — the Figure 2 collapse in numbers."
    );
}

fn parens_sentences(rng: &mut StdRng) -> Vec<String> {
    (0..30)
        .map(|_| {
            let depth = rng.random_range(1..6);
            let mut s = String::new();
            for _ in 0..depth {
                s.push_str("( ");
            }
            s.push('0');
            for _ in 0..depth {
                s.push_str(" )");
            }
            s
        })
        .collect()
}

fn ite_sentences(rng: &mut StdRng) -> Vec<String> {
    fn gen(rng: &mut StdRng, depth: usize, out: &mut String) {
        if depth == 0 || rng.random_bool(0.5) {
            out.push_str(["go", "stop"].choose(rng).unwrap());
        } else {
            out.push_str("if ");
            out.push_str(["true", "false"].choose(rng).unwrap());
            out.push_str(" then ");
            gen(rng, depth - 1, out);
            out.push_str(" else ");
            gen(rng, depth - 1, out);
        }
    }
    (0..30)
        .map(|_| {
            let mut s = String::new();
            gen(rng, 3, &mut s);
            s
        })
        .collect()
}

/// Single-token mutations: drop one, duplicate one, swap two adjacent.
fn mutate(sentence: &str, rng: &mut StdRng) -> Vec<String> {
    let words: Vec<&str> = sentence.split_whitespace().collect();
    let mut out = Vec::new();
    if words.len() < 2 {
        return out;
    }
    // Drop a random token.
    let i = rng.random_range(0..words.len());
    let mut w = words.clone();
    w.remove(i);
    out.push(w.join(" "));
    // Duplicate a random token.
    let i = rng.random_range(0..words.len());
    let mut w = words.clone();
    w.insert(i, words[i]);
    out.push(w.join(" "));
    // Swap two adjacent tokens.
    let i = rng.random_range(0..words.len() - 1);
    let mut w = words.clone();
    w.swap(i, i + 1);
    out.push(w.join(" "));
    out
}
