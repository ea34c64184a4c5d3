//! JSON tagging — grammatical context at line rate.
//!
//! The JSON grammar's `STR` terminal appears in two productions: as an
//! object **key** (`member: STR ":" value`) and as a string **value**
//! (`value: … | STR | …`). After §3.2 context duplication those are two
//! different hardware tokenizers, so the circuit distinguishes keys
//! from values *positionally* — the kind of semantic tagging the
//! paper's §5.1 "Semantic Web" sketch gestures at.
//!
//! The run also demonstrates §3.3's documented ambiguity: after a comma
//! the stackless machine arms BOTH the object path (expecting a key)
//! and the array path (expecting a value), so an `STR` there fires two
//! tokenizers at once — "which would have been mutually exclusive in a
//! true parser. … all detections may be passed on to the back-end of
//! the processor to select the preferred path pre-determined by the
//! application." The back-end filter below does exactly that: a KEY is
//! an `STR@member` event *confirmed by the following `:@member`*.
//!
//! Run: `cargo run --example json_tagger`

use cfg_token_tagger::grammar::builtin;
use cfg_token_tagger::tagger::{EngineKind, TaggerOptions, TokenTagger};

fn main() {
    let grammar = builtin::json();
    let tagger = TokenTagger::compile(&grammar, TaggerOptions::default()).expect("tagger compiles");

    let doc = br#"{ "name": "widget", "price": 9.99, "tags": ["a", "b"], "stock": { "count": 42, "sold out": false } }"#;
    println!("document:\n  {}\n", String::from_utf8_lossy(doc));

    let events = tagger.tag(doc);
    println!("{:<10} {:<22} lexeme", "kind", "context");
    for ev in &events {
        let name = tagger.token_name(ev.token);
        let ctx = tagger.context(ev.token).expect("contexts on");
        // Human-readable role from the grammatical context.
        let kind = if name.starts_with("STR") {
            if ctx.production == "member" {
                "KEY"
            } else {
                "string"
            }
        } else if name.starts_with("NUM") {
            "number"
        } else if name.starts_with(',') {
            if ctx.production == "member_tail" {
                "obj-comma"
            } else {
                "arr-comma"
            }
        } else if name.starts_with("true") || name.starts_with("false") {
            "bool"
        } else if name.starts_with("null") {
            "null"
        } else {
            "punct"
        };
        println!(
            "{:<10} {:<22} {}",
            kind,
            ctx.to_string(),
            String::from_utf8_lossy(ev.lexeme(doc))
        );
    }

    // The back-end path selection (§3.3/§3.5): a key is an STR in the
    // `member` context whose match is confirmed by the following ':'
    // in the same context — the dead parallel path never produces one.
    let keys: Vec<String> = events
        .windows(2)
        .filter(|w| {
            let is_member_str = tagger.token_name(w[0].token).starts_with("STR")
                && tagger.context(w[0].token).map(|c| c.production.as_str()) == Some("member");
            let colon_confirms =
                tagger.token_name(w[1].token).starts_with(':') && w[1].start >= w[0].end;
            is_member_str && colon_confirms
        })
        .map(|w| String::from_utf8_lossy(w[0].lexeme(doc)).into_owned())
        .collect();
    println!("\nobject keys (back-end confirmed): {keys:?}");
    assert_eq!(
        keys,
        ["\"name\"", "\"price\"", "\"tags\"", "\"stock\"", "\"count\"", "\"sold out\""]
    );

    // And the circuit agrees with the functional engine.
    let mut engine = tagger.engine(EngineKind::Gate).expect("the netlist simulates");
    let mut gate = engine.feed(doc).expect("simulation runs");
    gate.extend(engine.finish().expect("simulation runs"));
    assert_eq!(gate, events);
    println!("gate-level simulation agrees ({} events)", gate.len());
}
