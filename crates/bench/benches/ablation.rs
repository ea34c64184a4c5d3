//! Ablation timings: what the §3.2 duplication and Figure 7 lookahead
//! cost the *fast engine* in software (the area/frequency ablations are
//! in the `ablation_report` binary; this measures runtime).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use cfg_tagger::{TaggerOptions, TokenTagger};
use cfg_xmlrpc::workload::WorkloadGenerator;
use cfg_xmlrpc::xmlrpc_grammar;

fn bench_ablation(c: &mut Criterion) {
    let mut gen = WorkloadGenerator::new(7);
    let msgs: Vec<Vec<u8>> =
        (0..64).map(|_| gen.message(cfg_xmlrpc::MessageKind::Honest).bytes).collect();
    let bytes: usize = msgs.iter().map(|m| m.len()).sum();
    let grammar = xmlrpc_grammar();

    let variants = [
        ("default", TaggerOptions::default()),
        (
            "no_context_duplication",
            TaggerOptions { duplicate_contexts: false, ..Default::default() },
        ),
        ("no_longest_match", TaggerOptions { disable_longest_match: true, ..Default::default() }),
    ];

    let mut group = c.benchmark_group("fast_engine_ablation");
    group.throughput(Throughput::Bytes(bytes as u64));
    group.sample_size(10);
    for (name, opts) in variants {
        let tagger = TokenTagger::compile(&grammar, opts).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut n = 0usize;
                for m in &msgs {
                    n += tagger.tag(black_box(m)).len();
                }
                black_box(n)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
