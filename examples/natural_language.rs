//! Part-of-speech tagging — the paper's §5.1 natural-language sketch.
//!
//! "If provided with a grammar for a natural language a parser can be
//! used as a front end to a high-speed semantic processing system. By
//! identifying words within their context, a semantic processing system
//! could more accurately define the meaning of each word."
//!
//! This toy English grammar shows the mechanism on the classic
//! ambiguity: *book* is a noun in "the book" and a verb in "book a
//! flight" — the same word vocabulary token, duplicated per context, so
//! the hardware's match position IS the part-of-speech tag.
//!
//! Run: `cargo run --example natural_language`

use cfg_token_tagger::grammar::Grammar;
use cfg_token_tagger::tagger::{TaggerOptions, TokenTagger};

fn main() {
    // sentence := NP VP; NP := Det WORD | WORD; VP := WORD NP.
    // WORD is one vocabulary class used in noun and verb positions.
    let grammar = Grammar::parse(
        r#"
        WORD [a-z]+
        %%
        sentence: np vp;
        np:       "the" WORD | "a" WORD;
        vp:       WORD np;
        %%
        "#,
    )
    .expect("grammar parses");

    let tagger = TokenTagger::compile(&grammar, TaggerOptions::default()).expect("tagger compiles");

    for sentence in [
        &b"the students book a flight"[..],
        b"a dog chases the cat",
        b"the book surprises a reader",
    ] {
        println!("{}", String::from_utf8_lossy(sentence));
        for ev in tagger.tag(sentence) {
            let name = tagger.token_name(ev.token);
            let ctx = tagger.context(ev.token).expect("contexts on");
            let pos = if name.starts_with("WORD") {
                // The grammatical role comes from the production the
                // duplicated token instance sits in.
                match ctx.production.as_str() {
                    "np" => "NOUN",
                    "vp" => "VERB",
                    _ => "?",
                }
            } else {
                "DET"
            };
            println!(
                "  {:<10} {:<6} (context {})",
                String::from_utf8_lossy(ev.lexeme(sentence)),
                pos,
                ctx
            );
        }
        println!();
    }
}
