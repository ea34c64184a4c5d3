//! Supplementary experiment: **context-blind matching vs the tagger**.
//!
//! The paper's introduction motivates the whole design: "the naive
//! pattern searches used in these implementations do not consider the
//! context of the text in the data. Therefore, they are susceptible to
//! false positive identifications" (§1). This harness quantifies that
//! claim on the XML-RPC router of §4.
//!
//! A context-blind DPI engine asserts one signal per service name seen
//! *anywhere* in the message (here: an Aho–Corasick scan). The CFG
//! token tagger asserts a service only when it appears as the STRING
//! inside `<methodName>…</methodName>`. On a workload where half the
//! messages smuggle a service name of the *other* port into a string
//! parameter, we count:
//!
//! * **false-positive identifications** — asserted services that are not
//!   the requested method;
//! * **misroutes** — wrong switch decisions under a bank-priority
//!   policy (route to the bank port if any bank signal asserted).
//!
//! The tagger's half of the check (one decision per adversarial
//! message, for its own method) also gates in the cfg-xmlrpc suite
//! (`adversarial_messages_route_by_method_not_decoy`).
//!
//! Run: `cargo run -p cfg-bench --bin false_positives --release`

#![forbid(unsafe_code)]

use cfg_baseline::AhoCorasick;
use cfg_tagger::{TaggerOptions, TokenTagger};
use cfg_xmlrpc::workload::{WorkloadGenerator, BANK_SERVICES};
use cfg_xmlrpc::{xmlrpc_grammar, Port, Router, RouterTables};
use std::collections::HashSet;

fn main() {
    let n = 2000;
    let adversarial_fraction = 0.5;
    let mut gen = WorkloadGenerator::new(0xF00D);
    let messages = gen.batch(n, adversarial_fraction);

    let services = WorkloadGenerator::services();
    let ac = AhoCorasick::new(services.iter().map(|s| s.as_bytes()));

    let tagger =
        TokenTagger::compile(&xmlrpc_grammar(), TaggerOptions::default()).expect("xmlrpc compiles");
    let tables = RouterTables::new(&tagger).expect("methodName STRING exists");

    let mut naive_fp = 0usize;
    let mut tagger_fp = 0usize;
    let mut naive_misroutes = 0usize;
    let mut tagger_misroutes = 0usize;
    let mut adversarial = 0usize;

    for m in &messages {
        let truth = Router::port_for(&m.method);
        if m.decoy.is_some() {
            adversarial += 1;
        }

        // Context-blind: service-presence bits from anywhere in the
        // message.
        let detected: HashSet<&str> =
            ac.find_all(&m.bytes).iter().map(|hit| services[hit.pattern]).collect();
        naive_fp += detected.iter().filter(|s| **s != m.method).count();
        let naive_port = if detected.iter().any(|s| BANK_SERVICES.contains(s)) {
            Port::Bank
        } else if !detected.is_empty() {
            Port::Shop
        } else {
            Port::Unknown
        };
        if naive_port != truth {
            naive_misroutes += 1;
        }

        // The tagger: one decision per message, from methodName context.
        let mut r = Router::new(tables.clone());
        tagger.process(&m.bytes, &mut r);
        tagger_fp += r.decisions.iter().filter(|(svc, _)| *svc != m.method).count();
        let tagger_port = r.decisions.first().map(|(_, p)| *p).unwrap_or(Port::Unknown);
        if tagger_port != truth {
            tagger_misroutes += 1;
        }
    }

    println!("false-positive experiment ({n} messages, {adversarial} adversarial)");
    println!("{:<34}{:>18}{:>12}{:>15}", "engine", "false positives", "misroutes", "misroute rate");
    println!(
        "{:<34}{:>18}{:>12}{:>14.1}%",
        "context-blind DPI (Aho-Corasick)",
        naive_fp,
        naive_misroutes,
        100.0 * naive_misroutes as f64 / n as f64
    );
    println!(
        "{:<34}{:>18}{:>12}{:>14.1}%",
        "CFG token tagger (this paper)",
        tagger_fp,
        tagger_misroutes,
        100.0 * tagger_misroutes as f64 / n as f64
    );
    println!();
    println!(
        "shape check: tagger false positives (={tagger_fp}) == 0, naive false positives (={naive_fp}) ≈ adversarial count (={adversarial}): {}",
        if tagger_fp == 0 && naive_fp >= adversarial * 9 / 10 { "OK" } else { "FAIL" }
    );
}
