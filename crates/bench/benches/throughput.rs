//! Software throughput: the fast functional engine vs the software
//! baselines, plus the gate-level simulator's cycle cost.
//!
//! The paper's hardware does 1 byte/cycle at 196–533 MHz; these benches
//! measure what the same structures cost in software on this machine,
//! and how the engines compare with conventional software parsing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use cfg_baseline::{AhoCorasick, DfaLexer, Ll1Parser, SwLexer};
use cfg_tagger::{TaggerOptions, TokenTagger};
use cfg_xmlrpc::workload::WorkloadGenerator;
use cfg_xmlrpc::xmlrpc_grammar;

/// A ~64 KiB stream of XML-RPC messages (simple value set so the
/// LL(1)+lexer baseline can parse it too).
fn stream() -> Vec<Vec<u8>> {
    let mut gen = WorkloadGenerator::new(2024);
    let mut msgs = Vec::new();
    let mut total = 0usize;
    while total < 64 * 1024 {
        let m = gen.message(cfg_xmlrpc::MessageKind::Honest);
        total += m.bytes.len();
        msgs.push(m.bytes);
    }
    msgs
}

fn bench_throughput(c: &mut Criterion) {
    let msgs = stream();
    let bytes: usize = msgs.iter().map(|m| m.len()).sum();
    let grammar = xmlrpc_grammar();
    let tagger = TokenTagger::compile(&grammar, TaggerOptions::default()).unwrap();
    let lexer = SwLexer::new(&grammar);
    let ll1 = Ll1Parser::new(&grammar).unwrap();
    let ac = AhoCorasick::new(WorkloadGenerator::services().iter().map(|s| s.as_bytes().to_vec()));

    let mut group = c.benchmark_group("xmlrpc_throughput");
    group.throughput(Throughput::Bytes(bytes as u64));
    group.sample_size(10);

    group.bench_function("tagger_fast_engine", |b| {
        b.iter(|| {
            let mut events = 0usize;
            for m in &msgs {
                events += tagger.tag(black_box(m)).len();
            }
            black_box(events)
        })
    });

    let dfa = DfaLexer::new(&grammar);
    group.bench_function("dfa_lexer", |b| {
        b.iter(|| {
            let mut toks = 0usize;
            for m in &msgs {
                toks += dfa.tokenize(black_box(m)).map(|t| t.len()).unwrap_or(0);
            }
            black_box(toks)
        })
    });

    group.bench_function("software_lexer", |b| {
        b.iter(|| {
            let mut toks = 0usize;
            for m in &msgs {
                toks += lexer.tokenize(black_box(m)).map(|t| t.len()).unwrap_or(0);
            }
            black_box(toks)
        })
    });

    group.bench_function("ll1_parser", |b| {
        b.iter(|| {
            let mut toks = 0usize;
            for m in &msgs {
                toks += ll1.parse(black_box(m)).map(|t| t.len()).unwrap_or(0);
            }
            black_box(toks)
        })
    });

    group.bench_function("aho_corasick_scan", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for m in &msgs {
                hits += ac.find_all(black_box(m)).len();
            }
            black_box(hits)
        })
    });

    group.finish();

    // The gate-level simulator and the exact (Earley) parser are orders
    // of magnitude slower per byte — bench them on a single message so
    // the suite stays fast.
    let mut group = c.benchmark_group("gate_level_sim");
    let one = &msgs[0];
    group.throughput(Throughput::Bytes(one.len() as u64));
    group.sample_size(10);
    group.bench_function("tagger_gate_engine_one_message", |b| {
        let mut engine = cfg_tagger::GateEngine::new(tagger.hardware()).unwrap();
        b.iter(|| black_box(engine.run(black_box(one)).unwrap().len()))
    });
    group.bench_function("pda_exact_parse_one_message", |b| {
        let pda = cfg_tagger::PdaParser::new(&grammar);
        b.iter(|| black_box(pda.parse(black_box(one)).events.len()))
    });
    group.bench_function("wide_tagger_w4_one_message", |b| {
        let wide = cfg_tagger::WideTagger::compile(&grammar, 4, TaggerOptions::default()).unwrap();
        b.iter(|| black_box(wide.tag(black_box(one)).unwrap().len()))
    });
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
