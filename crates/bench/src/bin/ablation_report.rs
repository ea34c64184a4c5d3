//! Ablation report for the design decisions DESIGN.md calls out:
//!
//! 1. **Index encoder** (§3.4) — the paper's pipelined binary OR-tree
//!    vs a naive priority-chain encoder. The paper: "in a naive
//!    implementation of an encoder for a large set of rules, the index
//!    encoder is almost always the critical path for the entire
//!    system." We synthesize the XML-RPC tagger both ways and compare
//!    logic depth and frequency.
//! 2. **Longest-match lookahead** (Fig. 7) — with the lookahead the
//!    match line asserts once per token; without it, once per byte of
//!    every repeat run (measured on a digit-heavy stream).
//! 3. **Context duplication** (§3.2) — tokenizer count and area cost of
//!    duplicating multi-context tokens, the price of context tags.
//!
//! Run: `cargo run -p cfg-bench --bin ablation_report --release`

#![forbid(unsafe_code)]

use cfg_fpga::Device;
use cfg_grammar::transform::duplicate_multi_context_tokens;
use cfg_hwgen::generate::{generate, EncoderKind, GeneratorOptions};
use cfg_netlist::MappedNetlist;
use cfg_tagger::{TaggerOptions, TokenTagger};
use cfg_xmlrpc::workload::{MessageKind, WorkloadGenerator};
use cfg_xmlrpc::xmlrpc_grammar;

fn main() {
    let device = Device::virtex4_lx200();
    let base = xmlrpc_grammar();
    let g = duplicate_multi_context_tokens(&base);

    println!("== ablation 1: index encoder (XML-RPC tagger, {} tokens) ==", g.tokens().len());
    println!(
        "{:<26}{:>8}{:>8}{:>10}{:>12}{:>12}",
        "encoder", "LUTs", "regs", "depth", "freq (MHz)", "latency"
    );
    for (name, kind) in [
        ("pipelined OR-tree (paper)", EncoderKind::Pipelined),
        ("naive priority chain", EncoderKind::Naive),
        ("none (match bits only)", EncoderKind::None),
    ] {
        let hw = generate(&g, &GeneratorOptions { encoder: kind, ..Default::default() })
            .expect("generates");
        let mapped = MappedNetlist::map(&hw.netlist);
        let stats = mapped.stats();
        let timing = device.analyze(&mapped);
        println!(
            "{:<26}{:>8}{:>8}{:>10}{:>12.0}{:>12}",
            name, stats.luts, stats.regs, stats.depth, timing.freq_mhz, hw.encoder_latency
        );
    }

    println!();
    println!("== ablation 2: longest-match lookahead (Figure 7) ==");
    let mut gen = WorkloadGenerator::new(99);
    let msg = gen.message(MessageKind::Honest);
    for (name, disable) in [("with lookahead (paper)", false), ("without lookahead", true)] {
        let t = TokenTagger::compile(
            &base,
            TaggerOptions { disable_longest_match: disable, ..Default::default() },
        )
        .expect("compiles");
        let events = t.tag(&msg.bytes);
        println!("{:<26}{:>6} events on one {}-byte message", name, events.len(), msg.bytes.len());
    }

    println!();
    println!("== ablation 3: fanout remedies (§4.3: replication + input register tree) ==");
    println!(
        "(factor-10 grammar, the paper's 3000-byte point; frequency on the uncalibrated V4 model)"
    );
    {
        use cfg_grammar::scale;
        let g10 = duplicate_multi_context_tokens(&scale::replicate(&base, 10));
        println!(
            "{:<34}{:>8}{:>8}{:>12}{:>12}",
            "variant", "LUTs", "regs", "max fanout", "freq (MHz)"
        );
        let variants: [(&str, Option<usize>, bool); 4] = [
            ("baseline", None, false),
            ("replicate regs (cap 64)", Some(64), false),
            ("+ registered input pads", Some(64), true),
            ("aggressive (cap 16 + pads)", Some(16), true),
        ];
        for (name, cap, pads) in variants {
            let hw = generate(
                &g10,
                &GeneratorOptions {
                    max_reg_fanout: cap,
                    register_inputs: pads,
                    ..Default::default()
                },
            )
            .expect("generates");
            let mapped = MappedNetlist::map(&hw.netlist);
            let stats = mapped.stats();
            let t = device.analyze(&mapped);
            println!(
                "{:<34}{:>8}{:>8}{:>12}{:>12.0}",
                name, stats.luts, stats.regs, stats.max_fanout, t.freq_mhz
            );
        }
    }

    println!();
    println!("== ablation 4: context duplication (§3.2) ==");
    for (name, grammar) in [("without duplication", &base), ("with duplication", &g)] {
        let hw = generate(grammar, &GeneratorOptions::default()).expect("generates");
        let mapped = MappedNetlist::map(&hw.netlist);
        let stats = mapped.stats();
        println!(
            "{:<26}{:>4} tokenizers, {:>6} LUTs, {:>6} regs, {:>4} pattern bytes",
            name,
            grammar.tokens().len(),
            stats.luts,
            stats.regs,
            hw.pattern_bytes
        );
    }
}
