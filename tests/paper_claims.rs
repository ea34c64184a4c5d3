//! Integration tests pinning the paper's in-text claims and small
//! figures, via the public API only.

use cfg_token_tagger::fpga::Device;
use cfg_token_tagger::grammar::{builtin, transform, Grammar, TokenId};
use cfg_token_tagger::hwgen::control::wiring_edges;
use cfg_token_tagger::hwgen::generate::{generate, EncoderKind, GeneratorOptions};
use cfg_token_tagger::netlist::MappedNetlist;
use cfg_token_tagger::xmlrpc::xmlrpc_grammar;

/// Figure 10: the FOLLOW table of the if-then-else grammar.
#[test]
fn figure10_follow_table() {
    let g = builtin::if_then_else();
    let a = g.analyze();
    let follow = |tok: &str| -> Vec<String> {
        let t = g.token_by_name(tok).unwrap();
        let mut v: Vec<String> =
            a.follow_of(t).iter().map(|f| g.token_name(f).to_owned()).collect();
        if a.can_end[t.index()] {
            v.push("ε".to_owned());
        }
        v.sort();
        v
    };
    assert_eq!(follow("if"), ["false", "true"]);
    assert_eq!(follow("then"), ["go", "if", "stop"]);
    assert_eq!(follow("else"), ["go", "if", "stop"]);
    assert_eq!(follow("go"), ["else", "ε"]);
    assert_eq!(follow("stop"), ["else", "ε"]);
    assert_eq!(follow("true"), ["then"]);
    assert_eq!(follow("false"), ["then"]);
}

/// Figure 11: twelve control-flow edges for the if-then-else tagger.
#[test]
fn figure11_wiring_edge_count() {
    let g = builtin::if_then_else();
    let edges = wiring_edges(&g, &g.analyze());
    assert_eq!(edges.len(), 12);
}

/// §4.3: "The grammar for XML-RPC is relatively small with only 45
/// tokens and approximately 300 bytes of pattern data."
#[test]
fn section43_grammar_size() {
    let g = xmlrpc_grammar();
    assert!((40..=48).contains(&g.tokens().len()));
    assert!((270..=320).contains(&g.pattern_bytes()));
}

/// §4.3: "Processing only 1 byte per clock cycle" — bandwidth = 8×freq.
/// The headline Virtex-4 row: 533 MHz → 4.26 Gbps.
#[test]
fn bandwidth_formula() {
    let row = cfg_token_tagger::fpga::UtilizationRow::new("Virtex4 LX200", 533.0, 300, 302);
    assert!((row.bandwidth_gbps - 4.264).abs() < 1e-6);
}

/// §3.4: "In a naive implementation of an encoder for a large set of
/// rules, the index encoder is almost always the critical path for the
/// entire system since rest of the design is highly pipelined."
#[test]
fn naive_encoder_is_the_critical_path() {
    let g = transform::duplicate_multi_context_tokens(&xmlrpc_grammar());
    let paper = generate(&g, &GeneratorOptions::default()).unwrap();
    let naive =
        generate(&g, &GeneratorOptions { encoder: EncoderKind::Naive, ..Default::default() })
            .unwrap();
    let m_paper = MappedNetlist::map(&paper.netlist);
    let m_naive = MappedNetlist::map(&naive.netlist);
    // The naive grant chain multiplies the logic depth…
    assert!(m_naive.stats().depth >= 3 * m_paper.stats().depth);
    // …and halves (or worse) the clock on the device model.
    let d = Device::virtex4_lx200();
    let f_paper = d.analyze(&m_paper).freq_mhz;
    let f_naive = d.analyze(&m_naive).freq_mhz;
    assert!(f_naive * 2.0 < f_paper, "naive {f_naive:.0} MHz vs pipelined {f_paper:.0} MHz");
}

/// §3.4: "the critical path has maximum of (log n)-1 gate delays …
/// pipelined after every gate" — the pipelined encoder adds **no** logic
/// depth over having no encoder at all (it registers every level); the
/// design's depth is set by the syntactic control flow.
#[test]
fn pipelined_encoder_adds_no_logic_depth() {
    let g = transform::duplicate_multi_context_tokens(&xmlrpc_grammar());
    let with = generate(&g, &GeneratorOptions::default()).unwrap();
    let without =
        generate(&g, &GeneratorOptions { encoder: EncoderKind::None, ..Default::default() })
            .unwrap();
    let d_with = MappedNetlist::map(&with.netlist).stats().depth;
    let d_without = MappedNetlist::map(&without.netlist).stats().depth;
    assert_eq!(d_with, d_without, "the pipelined encoder must not appear on the critical path");
}

/// §3.1 / Figure 2: the stackless machine accepts a *superset* of the
/// grammar — the true parser rejects what the tagger tags.
#[test]
fn superset_acceptance_vs_true_parser() {
    use cfg_token_tagger::baseline::Ll1Parser;
    use cfg_token_tagger::tagger::{TaggerOptions, TokenTagger};
    let g = builtin::balanced_parens();
    let tagger = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
    let parser = Ll1Parser::new(&g).unwrap();

    let unbalanced = b"( 0 ) )";
    assert!(!parser.accepts(unbalanced));
    let events = tagger.tag(unbalanced);
    assert_eq!(events.len(), 4, "the tagger still tags every token");

    let balanced = b"( ( 0 ) )";
    assert!(parser.accepts(balanced));
    assert_eq!(tagger.tag(balanced).len(), 5);
}

/// §3.2: duplicated tokens give every occurrence a unique grammatical
/// context — the XML-RPC STRING splits into methodName/string/name.
#[test]
fn token_duplication_contexts() {
    let g = transform::duplicate_multi_context_tokens(&xmlrpc_grammar());
    let contexts: Vec<String> = g
        .tokens()
        .iter()
        .filter(|t| t.name.starts_with("STRING"))
        .map(|t| t.context.as_ref().unwrap().production.clone())
        .collect();
    let mut sorted = contexts.clone();
    sorted.sort();
    assert_eq!(sorted, ["methodName", "name", "string"]);
}

/// The architecture tokenizes streams a classical lexer cannot: the
/// dateTime rule needs context to split "19980717T14:08:55" into
/// YEAR MONTH DAY 'T' HOUR ':' MIN ':' SEC.
#[test]
fn context_dependent_tokenization_beats_maximal_munch() {
    use cfg_token_tagger::baseline::SwLexer;
    use cfg_token_tagger::tagger::{TaggerOptions, TokenTagger};
    let g = xmlrpc_grammar();
    let tagger = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
    let lexer = SwLexer::new(&g);

    let msg = b"<methodCall><methodName>price</methodName><params><param>\
<dateTime.iso8601>19980717T14:08:55</dateTime.iso8601></param></params></methodCall>";

    // The tagger splits the timestamp into its nine context-tagged parts.
    let events = tagger.tag(msg);
    let names: Vec<&str> = events.iter().map(|e| tagger.token_name(e.token)).collect();
    assert!(names.iter().any(|n| n.starts_with("YEAR")));
    assert!(names.iter().any(|n| n.starts_with("SEC")));

    // The classical lexer munches "19980717T14" as one STRING and can
    // never produce a YEAR token here.
    let toks = lexer.tokenize(msg).unwrap();
    let lexed: Vec<&str> = toks.iter().map(|t| g.token_name(t.token)).collect();
    assert!(!lexed.contains(&"YEAR"));
    assert!(lexed.contains(&"STRING"));
}

/// Table 1 shape on the actual synthesized designs (small factors only,
/// to keep the test fast): LUTs/byte falls, fanout grows.
#[test]
fn table1_shape_small_factors() {
    use cfg_token_tagger::grammar::scale;
    let base = xmlrpc_grammar();
    let mut prev_lpb = f64::MAX;
    let mut prev_fanout = 0usize;
    for factor in [1usize, 2] {
        let g = transform::duplicate_multi_context_tokens(&scale::replicate(&base, factor));
        let hw = generate(&g, &GeneratorOptions::default()).unwrap();
        let stats = MappedNetlist::map(&hw.netlist).stats();
        let lpb = stats.luts as f64 / hw.pattern_bytes as f64;
        assert!(lpb < prev_lpb, "LUTs/byte must fall with size");
        assert!(stats.max_fanout > prev_fanout, "decoder fanout must grow");
        prev_lpb = lpb;
        prev_fanout = stats.max_fanout;
    }
}

/// The grammar text of Figure 14 round-trips through our renderer.
#[test]
fn xmlrpc_grammar_render_roundtrip() {
    let g = xmlrpc_grammar();
    let rendered = g.render();
    let g2 = Grammar::parse(&rendered).unwrap();
    assert_eq!(g2.tokens().len(), g.tokens().len());
    assert_eq!(g2.productions().len(), g.productions().len());
    assert_eq!(g2.pattern_bytes(), g.pattern_bytes());
    // Same start set after the round trip.
    let s1: Vec<String> =
        g.analyze().start_set.iter().map(|t| g.token_name(t).to_owned()).collect();
    let s2: Vec<String> =
        g2.analyze().start_set.iter().map(|t| g2.token_name(t).to_owned()).collect();
    assert_eq!(s1, s2);
}

/// Unused token ids stay stable across compile: public lookups work.
#[test]
fn public_token_lookups() {
    let g = xmlrpc_grammar();
    let t = g.token_by_name("STRING").unwrap();
    assert_eq!(g.token_name(t), "STRING");
    assert_eq!(t, TokenId(0));
}

/// The JSON grammar exercises delimiter bytes *inside* tokens (spaces in
/// string literals) and key-vs-value context splitting; all four
/// execution paths must agree on it.
#[test]
fn json_all_engines_agree() {
    use cfg_token_tagger::tagger::{EngineKind, PdaParser, TaggerOptions, TokenTagger, WideTagger};
    let g = builtin::json();
    let tagger = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
    let wide = WideTagger::compile(&g, 4, TaggerOptions::default()).unwrap();
    let pda = PdaParser::new(&g);

    let docs: [&[u8]; 4] = [
        br#"{"a": 1}"#,
        br#"[1, "two words", {"k": null}, true]"#,
        br#"{"nested": {"deep": [1.5, -2e3]}}"#,
        br#""just a string""#,
    ];
    for doc in docs {
        let fast = tagger.tag(doc);
        let mut engine = tagger.engine(EngineKind::Gate).unwrap();
        let mut gate = engine.feed(doc).unwrap();
        gate.extend(engine.finish().unwrap());
        let w = wide.tag(doc).unwrap();
        assert_eq!(fast, gate, "{}", String::from_utf8_lossy(doc));
        assert_eq!(fast, w, "{}", String::from_utf8_lossy(doc));
        let exact = pda.parse(doc);
        assert!(exact.accepted, "{}", String::from_utf8_lossy(doc));
    }

    // The PDA rejects malformed JSON that the stackless tagger still
    // partially tags.
    assert!(!pda.accepts(br#"{"a": }"#));
    assert!(!pda.accepts(br#"[1, 2"#));
}
