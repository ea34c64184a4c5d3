//! End-to-end integration: the §4 XML-RPC router running on the actual
//! generated circuit, cross-checked against the functional engine and
//! the LL(1) ground truth.

use cfg_token_tagger::baseline::Ll1Parser;
use cfg_token_tagger::tagger::{EngineKind, TagEvent, TaggerOptions, TokenTagger};
use cfg_token_tagger::xmlrpc::workload::{MessageKind, WorkloadGenerator};
use cfg_token_tagger::xmlrpc::{xmlrpc_grammar, Router, RouterTables};

/// Tag `input` on the simulated circuit: the gate engine kind.
fn gate_tag(tagger: &TokenTagger, input: &[u8]) -> Vec<TagEvent> {
    let mut gate = tagger.engine(EngineKind::Gate).unwrap();
    let mut events = gate.feed(input).unwrap();
    events.extend(gate.finish().unwrap());
    events
}

#[test]
fn gate_and_fast_agree_on_xmlrpc_messages() {
    let tagger = TokenTagger::compile(&xmlrpc_grammar(), TaggerOptions::default()).unwrap();
    let mut gen = WorkloadGenerator::new(501);
    for _ in 0..5 {
        let m = gen.message(MessageKind::Honest);
        let fast = tagger.tag(&m.bytes);
        let gate = gate_tag(&tagger, &m.bytes);
        assert_eq!(fast, gate, "message {:?}", String::from_utf8_lossy(&m.bytes));
        assert!(!fast.is_empty());
    }
}

#[test]
fn gate_and_fast_agree_on_adversarial_and_full_value_messages() {
    let tagger = TokenTagger::compile(&xmlrpc_grammar(), TaggerOptions::default()).unwrap();
    let mut gen = WorkloadGenerator::new(502).with_full_values();
    for kind in [MessageKind::Honest, MessageKind::Adversarial] {
        let m = gen.message(kind);
        let fast = tagger.tag(&m.bytes);
        let gate = gate_tag(&tagger, &m.bytes);
        assert_eq!(fast, gate, "{kind:?} {:?}", String::from_utf8_lossy(&m.bytes));
    }
}

#[test]
fn tagger_token_sequence_matches_ll1_on_lexable_messages() {
    // The Figure 14 token list is *lexically ambiguous*: "123" is both
    // INT and STRING, so a classical maximal-munch lexer (and hence the
    // LL(1) pipeline behind it) can only handle messages where no such
    // collision occurs — string values with at least one letter, no
    // numeric/dateTime/base64 params. The tagger resolves the ambiguity
    // by context and handles everything; on the messages the classical
    // pipeline *can* parse, the two must agree span-for-span.
    let g = xmlrpc_grammar();
    let tagger = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
    let ll1 = Ll1Parser::new(&g).unwrap();

    let lexable: [&[u8]; 3] = [
        b"<methodCall><methodName>deposit</methodName><params>\
          <param><string>paycheck</string></param></params></methodCall>",
        b"<methodCall><methodName>buy</methodName><params>\
          <param><struct><member><name>item</name><string>book42x</string></member></struct></param>\
          <param><string>gift</string></param></params></methodCall>",
        b"<methodCall><methodName>price</methodName><params>\
          <param><array><data><string>apples</string><string>pears</string></data></array></param>\
          </params></methodCall>",
    ];
    for msg in lexable {
        let msg: Vec<u8> = msg.iter().copied().filter(|b| !b.is_ascii_whitespace()).collect();
        let truth = ll1.parse(&msg).expect("lexable message conforms");
        let tagged = tagger.tag(&msg);
        let truth_spans: Vec<(usize, usize)> = truth.iter().map(|t| (t.start, t.end)).collect();
        let tagged_spans: Vec<(usize, usize)> = tagged.iter().map(|e| (e.start, e.end)).collect();
        assert_eq!(tagged_spans, truth_spans, "{}", String::from_utf8_lossy(&msg));
    }

    // And the documented classical-pipeline failure: a plain i4 value
    // lexes its digits as STRING (declared first), so the LL(1) parser
    // rejects a perfectly conforming message…
    let numeric = b"<methodCall><methodName>deposit</methodName><params>\
<param><i4>123</i4></param></params></methodCall>";
    assert!(ll1.parse(numeric).is_err(), "lexical ambiguity should break the classical pipeline");
    // …which the context-driven tagger tags completely.
    let events = tagger.tag(numeric);
    assert!(events.iter().any(|e| tagger.token_name(e.token).starts_with("INT")));
}

#[test]
fn router_decisions_survive_the_gate_level_path() {
    // Route decisions made from gate-level raw matches (spans resolved
    // in software) must equal the fast-engine decisions.
    let tagger = TokenTagger::compile(&xmlrpc_grammar(), TaggerOptions::default()).unwrap();
    let tables = RouterTables::new(&tagger).unwrap();
    let mut gen = WorkloadGenerator::new(504);
    for kind in [MessageKind::Honest, MessageKind::Adversarial] {
        let m = gen.message(kind);
        let fast_port = Router::route(&tagger, &tables, &m.bytes);

        // Gate path: raw matches -> spans -> router events.
        let events = gate_tag(&tagger, &m.bytes);
        let gate_port = events
            .iter()
            .find(|e| e.token == tables.method_string_token())
            .map(|e| Router::port_for(&String::from_utf8_lossy(e.lexeme(&m.bytes))))
            .unwrap_or(cfg_token_tagger::xmlrpc::Port::Unknown);
        assert_eq!(fast_port, gate_port);
        assert_eq!(fast_port, Router::port_for(&m.method));
    }
}

#[test]
fn whitespace_between_tags_is_tolerated() {
    // Pretty-printed XML: delimiters between tokens, held by the arm
    // registers (§3.2).
    let tagger = TokenTagger::compile(&xmlrpc_grammar(), TaggerOptions::default()).unwrap();
    let msg = b"<methodCall>\n  <methodName>withdraw</methodName>\n  <params>\n    <param>\n      <i4>250</i4>\n    </param>\n  </params>\n</methodCall>";
    let fast = tagger.tag(msg);
    let gate = gate_tag(&tagger, msg);
    assert_eq!(fast, gate);
    let names: Vec<&str> = fast.iter().map(|e| tagger.token_name(e.token)).collect();
    assert!(names.iter().any(|n| n.starts_with("STRING")));
    assert_eq!(names.first().copied(), Some("<methodCall>"));
    assert_eq!(names.last().copied(), Some("</methodCall>"));
}

#[test]
fn error_recovery_enables_multi_message_streams() {
    // §5.2 recovery lets one circuit process a stream of messages with a
    // single start pulse: after each message the machine goes dead and
    // resyncs at the next token boundary.
    use cfg_token_tagger::tagger::TaggerOptions as TO;
    let tagger =
        TokenTagger::compile(&xmlrpc_grammar(), TO { error_recovery: true, ..Default::default() })
            .unwrap();
    let tables = RouterTables::new(&tagger).unwrap();

    let mut gen = WorkloadGenerator::new(909);
    let m1 = gen.message(MessageKind::Honest);
    let m2 = gen.message(MessageKind::Honest);
    let mut stream = Vec::new();
    stream.extend_from_slice(&m1.bytes);
    stream.push(b'\n'); // token boundary between messages
    stream.extend_from_slice(&m2.bytes);

    let mut router = Router::new(tables.clone());
    tagger.process(&stream, &mut router);
    let ports: Vec<_> = router.decisions.iter().map(|(_, p)| *p).collect();
    assert_eq!(ports, vec![Router::port_for(&m1.method), Router::port_for(&m2.method)]);

    // The gate-level engine sees the same two methodName events.
    let gate = gate_tag(&tagger, &stream);
    let method_events: Vec<_> =
        gate.iter().filter(|e| e.token == tables.method_string_token()).collect();
    assert_eq!(method_events.len(), 2);

    // Without recovery, the second message is invisible.
    let plain = TokenTagger::compile(&xmlrpc_grammar(), TaggerOptions::default()).unwrap();
    let plain_tables = RouterTables::new(&plain).unwrap();
    let mut plain_router = Router::new(plain_tables);
    plain.process(&stream, &mut plain_router);
    assert_eq!(plain_router.decisions.len(), 1);
}

#[test]
fn stack_augmented_parser_handles_what_the_lexer_pipeline_cannot() {
    // §5.2's "stack … all the power of a software parser": the
    // scannerless exact parser accepts every conforming message —
    // including the numeric/dateTime ones that break the classical
    // lexer+LL(1) pipeline — and its derivation's token spans equal the
    // tagger's events.
    use cfg_token_tagger::tagger::PdaParser;
    let g = xmlrpc_grammar();
    let pda = PdaParser::new(&g);
    let tagger = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();

    let mut gen = WorkloadGenerator::new(606).with_full_values();
    for _ in 0..6 {
        let m = gen.message(MessageKind::Honest);
        let r = pda.parse(&m.bytes);
        assert!(r.accepted, "{}", String::from_utf8_lossy(&m.bytes));
        let pda_spans: Vec<(usize, usize)> = r.events.iter().map(|e| (e.start, e.end)).collect();
        let tag_spans: Vec<(usize, usize)> =
            tagger.tag(&m.bytes).iter().map(|e| (e.start, e.end)).collect();
        assert_eq!(pda_spans, tag_spans, "{}", String::from_utf8_lossy(&m.bytes));
    }

    // Exactness: the PDA rejects structurally broken messages that the
    // stackless tagger still partially tags.
    let broken = b"<methodCall><methodName>buy</methodName></methodCall>"; // missing params
    assert!(!pda.accepts(broken));
    assert!(!tagger.tag(broken).is_empty());
}
