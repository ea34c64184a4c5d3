//! The Figure 12 router as a long-running service with live telemetry.
//!
//! Compiles the XML-RPC tagger with a [`StatsSink`] installed, registers
//! it in a [`Registry`], binds the `cfg-obs-http` exporter, and
//! then routes a looping workload while `/metrics` and `/snapshot.json`
//! stay scrapeable — the software stand-in for the paper's switch
//! running under observation. Prints msgs/s and MB/s at the end.
//!
//! With `--shards N` (default 4) the same batch is routed a second time
//! on N scoped worker threads, worker `i` taking every Nth message from
//! the `i`th, each with a tagger clone whose sink is registered as
//! `shard<i>` next to the single-stream `router` sink, and the run
//! prints the sharded msgs/s and its speedup over the single stream.
//! On a single hardware core the workers time-slice one CPU, so the
//! speedup measures thread overhead there and parallel scaling on real
//! multi-core hosts.
//!
//! Run: `cargo run -p cfg-bench --bin router_loop --release -- \
//!        [--messages N] [--port N] [--adversarial-pct N] [--linger-ms N] [--shards N]`

#![forbid(unsafe_code)]

use cfg_obs::{Metrics, Part, Registry, Stat, StatsSink};
use cfg_obs_http::Exporter;
use cfg_tagger::{TaggerOptions, TokenTagger};
use cfg_xmlrpc::router::{Router, RouterTables};
use cfg_xmlrpc::workload::WorkloadGenerator;
use cfg_xmlrpc::xmlrpc_grammar;
use std::sync::Arc;
use std::time::Instant;

fn arg(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let messages = arg("--messages", 20_000) as usize;
    let port = arg("--port", 0) as u16;
    let adversarial_pct = arg("--adversarial-pct", 10).min(100);
    // How long to keep serving /metrics after the workload finishes —
    // lets a human (or `cfgtag watch top`) look at the final state.
    let linger_ms = arg("--linger-ms", 0);
    let shards = arg("--shards", 4).max(1) as usize;

    let grammar = xmlrpc_grammar();
    let sink = Arc::new(StatsSink::with_tokens(grammar.tokens().len() * 2));
    let opts = TaggerOptions { metrics: Metrics::new(sink.clone()), ..TaggerOptions::default() };
    let tagger = TokenTagger::compile(&grammar, opts).expect("XML-RPC grammar compiles");
    let tables = RouterTables::new(&tagger).expect("methodName STRING token exists");

    let registry = Arc::new(Registry::new());
    registry.register("router", sink.clone());
    registry.attach(Part::Compile(tagger.report().clone()));
    registry.set_ready(true);
    let exporter =
        Exporter::bind(format!("127.0.0.1:{port}"), Arc::clone(&registry)).expect("bind exporter");
    eprintln!("router_loop: serving http://{}/metrics", exporter.local_addr());

    let mut gen = WorkloadGenerator::new(7);
    let batch = gen.batch(messages, adversarial_pct as f64 / 100.0);
    let mut bytes = 0u64;
    let t0 = Instant::now();
    for msg in &batch {
        Router::route(&tagger, &tables, &msg.bytes);
        bytes += msg.bytes.len() as u64;
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);

    let msgs_per_sec = messages as f64 / secs;
    let mbytes_per_sec = bytes as f64 / secs / 1e6;
    let (bank, shop, unknown, malformed) = (
        sink.get(Stat::RouteBank),
        sink.get(Stat::RouteShop),
        sink.get(Stat::RouteUnknown),
        sink.get(Stat::MalformedRejected),
    );
    println!(
        "router_loop: {messages} msgs, {bytes} bytes in {secs:.3}s — \
         {msgs_per_sec:.0} msgs/s, {mbytes_per_sec:.1} MB/s (single stream)"
    );
    println!("  routed: bank={bank} shop={shop} unknown={unknown} malformed={malformed}");
    if let Some(h) = sink.snapshot().histogram("route_latency_bytes") {
        println!(
            "  route latency (bytes into message): p50={:.0} p90={:.0} p99={:.0}",
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99)
        );
    }

    // Second pass: the same batch striped over scoped workers, per-shard
    // sinks alongside the single-stream sink in the same registry.
    let t1 = Instant::now();
    let per_shard: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..shards)
            .map(|i| {
                let sink = Arc::new(StatsSink::with_tokens(tagger.grammar().tokens().len()));
                registry.register(format!("shard{i}"), sink.clone());
                let t = tagger.clone().with_metrics(Metrics::new(sink));
                let (mine, tables) = (batch.iter().skip(i).step_by(shards), &tables);
                s.spawn(move || {
                    mine.fold(0u64, |routed, msg| {
                        Router::route(&t, tables, &msg.bytes);
                        routed + 1
                    })
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("a shard worker panicked")).collect()
    });
    let shard_secs = t1.elapsed().as_secs_f64().max(1e-9);
    let shard_messages: u64 = per_shard.iter().sum();
    let shard_msgs_per_sec = shard_messages as f64 / shard_secs;
    let shard_mbytes_per_sec = bytes as f64 / shard_secs / 1e6;
    let shard_speedup = shard_msgs_per_sec / msgs_per_sec;
    println!(
        "  sharded:  {shard_messages} msgs in {shard_secs:.3}s over {shards} shards — \
         {shard_msgs_per_sec:.0} msgs/s, {shard_mbytes_per_sec:.1} MB/s \
         ({shard_speedup:.2}x vs single stream)"
    );
    println!("  per-shard messages: {per_shard:?}");

    if linger_ms > 0 {
        eprintln!("router_loop: lingering {linger_ms} ms for scrapes");
        std::thread::sleep(std::time::Duration::from_millis(linger_ms));
    }
    exporter.stop();
}
