//! Quickstart: the paper's running example (Figures 9–11).
//!
//! Compiles the if-then-else grammar of Figure 9, prints the FOLLOW
//! table of Figure 10 and the control-flow wiring of Figure 11, then
//! tags a sentence with both engines and shows they agree.
//!
//! Run: `cargo run --example quickstart`

use cfg_token_tagger::grammar::Grammar;
use cfg_token_tagger::hwgen::control::wiring_edges;
use cfg_token_tagger::tagger::{EngineKind, TaggerOptions, TokenTagger};

fn main() {
    // Figure 9: the grammar text, in the Lex/Yacc-flavoured format the
    // paper's generator consumes.
    let grammar = Grammar::parse(
        r#"
        %%
        E: "if" C "then" E "else" E | "go" | "stop";
        C: "true" | "false";
        %%
        "#,
    )
    .expect("grammar parses");

    // Figure 10: the FOLLOW set of every terminal token.
    let analysis = grammar.analyze();
    println!("Figure 10 — FOLLOW sets:");
    println!("{}", analysis.follow_table(&grammar));

    // Figure 11: each token's match line drives the enables of its
    // FOLLOW set.
    println!("Figure 11 — tokenizer wiring:");
    for (from, to) in wiring_edges(&grammar, &analysis) {
        println!("  {from:<6} -> {to}");
    }
    println!();

    // Compile to hardware and tag a sentence.
    let tagger = TokenTagger::compile(&grammar, TaggerOptions::default()).expect("tagger compiles");
    let hw = tagger.hardware();
    println!(
        "generated circuit: {} gates, {} flip-flops, {} decoder classes, {} pattern bytes",
        hw.netlist.gate_count(),
        hw.netlist.reg_count(),
        hw.decoder_classes,
        hw.pattern_bytes
    );
    println!();

    let input = b"if true then if false then go else stop else go";
    println!("input: {}", String::from_utf8_lossy(input));
    println!();

    let fast = tagger.tag(input);
    println!("{:<8} {:>5}..{:<5} context", "token", "start", "end");
    for ev in &fast {
        println!(
            "{:<8} {:>5}..{:<5} {}",
            tagger.token_name(ev.token),
            ev.start,
            ev.end,
            tagger.context(ev.token).map(|c| c.to_string()).unwrap_or_default()
        );
    }

    // The gate-level engine executes the generated netlist cycle by
    // cycle and must agree event-for-event.
    let mut engine = tagger.engine(EngineKind::Gate).expect("the netlist simulates");
    let mut gate = engine.feed(input).expect("gate simulation runs");
    gate.extend(engine.finish().expect("gate simulation runs"));
    assert_eq!(fast, gate);
    println!();
    println!(
        "gate-level simulation agrees: {} events from {} clock cycles",
        gate.len(),
        input.len() + hw.flush_bytes()
    );
}
