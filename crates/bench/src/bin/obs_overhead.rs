//! Measures the observability layer's overhead on the hot path.
//!
//! The cfg-obs design promise is *zero overhead when off*, and off
//! means not attached: a `Metrics` handle, a circuit `ProbeBank`, and a
//! server's tracing and audit side-cars are each an `Option` that stays
//! `None` until a caller attaches one, so the un-instrumented path pays
//! one never-taken branch. (The shard gates' five load counters are
//! always on, so both server rows below pay them.) This bin times
//! the production engine's `feed_slice` over a multi-megabyte XML-RPC
//! stream, compiled with §5.2 error recovery so the machine stays live
//! on ~99.5% of its bytes (without recovery it dies inside the first
//! message, and the dead-run skip leaves nothing per byte for metrics
//! to cost) — in four configurations —
//!
//! * **off** — `Metrics::off()` (the default),
//! * **noop** — a live sink whose methods do nothing ([`NoopSink`]),
//! * **stats** — the full counter sink ([`StatsSink`]),
//! * **probes-on** — `NoopSink` plus a circuit `ProbeBank` attached
//!   (context: the real cost of live per-element circuit counters),
//!
//! and reports each as ns/byte plus the percentage overhead versus
//! *off*. The one dark-cost check is noop overhead **< 2%**: a sink
//! that records nothing must cost what no sink costs. It is printed
//! but never fails the process (timing on shared CI boxes is too noisy
//! to gate on).
//!
//! A second section applies the same discipline to the **serving
//! path**: a live in-process [`IngestServer`] driven by one synchronous
//! client, once with `trace: None` (the span code is a never-taken
//! branch per frame) and once with full tracing (`sample_every: 1` —
//! every frame stamped through all seven stages and folded into the
//! SLO histograms). The measured tracing overhead per round-trip must
//! stay **< 2%** — also printed, also non-gating. Every-session
//! auditing ([`AuditConfig`]) is printed as context, like probes-on;
//! the audit run's payload copies ride the serving thread, so it is the
//! one lane *expected* to cost.
//!
//! Run: `cargo run -p cfg-bench --bin obs_overhead --release`

#![forbid(unsafe_code)]

use cfg_obs::{Metrics, NoopSink, StatsSink};
use cfg_server::{AuditConfig, Client, IngestServer, Reply, ServerConfig, TraceConfig};
use cfg_tagger::{EngineKind, TaggerOptions, TaggerProbes, TokenTagger};
use cfg_xmlrpc::workload::{MessageKind, WorkloadGenerator};
use cfg_xmlrpc::xmlrpc_grammar;
use std::sync::Arc;
use std::time::Instant;

/// Median-of-`reps` wall time for one full-stream feed, in ns/byte,
/// plus the rep-to-rep spread `(max - min) / median` as a percentage.
/// One unrecorded warm-up rep precedes the timed ones, so cold caches
/// and lazy page-ins never land in a sample; the median (not the best)
/// is reported because single fast outliers are as misleading as slow
/// ones when the quantity of interest is a *difference* of runs.
fn bench_feed(
    tagger: &TokenTagger,
    input: &[u8],
    metrics: &Metrics,
    probes: Option<&Arc<TaggerProbes>>,
    reps: usize,
) -> (f64, f64) {
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..reps + 1 {
        let mut handle = tagger.clone().with_metrics(metrics.clone());
        if let Some(p) = probes {
            handle = handle.with_probes(Arc::clone(p));
        }
        let mut engine = handle.engine(EngineKind::Bit).expect("the bit engine builds");
        let mut events = Vec::new();
        let t0 = Instant::now();
        engine.feed_slice(input, &mut events).expect("the bit engine returns no errors");
        let dt = t0.elapsed().as_nanos() as f64;
        // Keep the events alive past the clock stop so the compiler
        // cannot discard the work.
        std::hint::black_box(&events);
        if rep > 0 {
            samples.push(dt / input.len() as f64);
        }
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    let spread = (samples[samples.len() - 1] - samples[0]) / median * 100.0;
    (median, spread)
}

/// Median synchronous-request round-trip over a live server, in µs
/// per message (one warm-up rep, same medianing as [`bench_feed`]).
fn bench_server(
    tagger: &TokenTagger,
    batch: &[Vec<u8>],
    trace: Option<TraceConfig>,
    audit: Option<AuditConfig>,
    reps: usize,
) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..reps + 1 {
        let config = ServerConfig {
            shards: 2,
            trace: trace.clone(),
            audit: audit.clone(),
            ..ServerConfig::default()
        };
        let server = IngestServer::start(tagger, "127.0.0.1:0", config).expect("bind server");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let t0 = Instant::now();
        for msg in batch {
            match client.request(msg).expect("request") {
                Reply::Acked { .. } | Reply::Busy { .. } => {}
                other => panic!("obs_overhead client got {other:?}"),
            }
        }
        let dt = t0.elapsed().as_nanos() as f64;
        client.close().expect("close");
        server.shutdown();
        if rep > 0 {
            samples.push(dt / batch.len() as f64 / 1e3);
        }
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let tagger = TokenTagger::compile(&xmlrpc_grammar(), TaggerOptions::default())
        .expect("XML-RPC grammar compiles");
    // The engine lane resyncs after every message, as the served
    // workloads do, so the per-byte step (and what metrics add to it)
    // is what gets timed.
    let engine_tagger = TokenTagger::compile(
        &xmlrpc_grammar(),
        TaggerOptions::builder().error_recovery(true).build(),
    )
    .expect("XML-RPC grammar compiles");

    // ~4 MB of honest traffic: large enough that per-call constants
    // (engine setup, the one BytesIn add) vanish into the stream.
    let mut gen = WorkloadGenerator::new(42);
    let mut input = Vec::new();
    while input.len() < 4 << 20 {
        input.extend_from_slice(&gen.message(MessageKind::Honest).bytes);
        input.push(b'\n');
    }

    let reps = 7;
    // Warm-up pass (page in the tables, settle the clocks).
    let et = &engine_tagger;
    bench_feed(et, &input, &Metrics::off(), None, 2);

    let (off, off_spread) = bench_feed(et, &input, &Metrics::off(), None, reps);
    let (noop, noop_spread) = bench_feed(et, &input, &Metrics::new(Arc::new(NoopSink)), None, reps);
    let (stats, stats_spread) =
        bench_feed(et, &input, &Metrics::new(Arc::new(StatsSink::new())), None, reps);

    // Circuit probes: an attached bank pays one relaxed fetch_add per
    // element activity.
    let noop_metrics = Metrics::new(Arc::new(NoopSink));
    let (probes_on, probes_on_spread) =
        bench_feed(et, &input, &noop_metrics, Some(&et.probes()), reps);

    // A noisy box produces noisy overhead numbers no matter how the
    // arithmetic is done; publish the worst rep-to-rep spread so a
    // reader (and bench_diff) can judge how much to trust this row.
    let spread_pct = [off_spread, noop_spread, stats_spread, probes_on_spread]
        .into_iter()
        .fold(0.0f64, f64::max);

    let pct = |x: f64| (x - off) / off * 100.0;
    println!(
        "obs overhead on the engine feed path ({} bytes, error recovery on, median of {reps})",
        input.len()
    );
    println!("  off        : {off:>7.3} ns/byte");
    println!("  noop       : {noop:>7.3} ns/byte  ({:+.2}% vs off)", pct(noop));
    println!("  stats      : {stats:>7.3} ns/byte  ({:+.2}% vs off)", pct(stats));
    println!("  probes-on  : {probes_on:>7.3} ns/byte  ({:+.2}% vs off)", pct(probes_on));
    println!("  worst rep-to-rep spread: {spread_pct:.1}%");
    let ok = pct(noop) < 2.0;
    println!("check: noop overhead < 2%: {}", if ok { "OK" } else { "FAIL (non-gating)" });

    // The serving path: synchronous TCP round-trips with the span
    // machinery off (`trace: None` — one never-taken branch per frame)
    // versus fully on (every frame stamped and folded into the SLO
    // histograms). The frame is socket-dominated, so the handful of
    // monotonic-clock reads tracing adds must disappear into it.
    let server_reps = 9;
    let server_batch: Vec<Vec<u8>> = gen.batch(1500, 0.0).into_iter().map(|m| m.bytes).collect();
    let server_off = bench_server(&tagger, &server_batch, None, None, server_reps);
    let server_traced = bench_server(
        &tagger,
        &server_batch,
        Some(TraceConfig { sample_every: 1, ..TraceConfig::default() }),
        None,
        server_reps,
    );
    let trace_pct = (server_traced - server_off) / server_off * 100.0;
    println!("server path ({} sync round-trips, median of {server_reps}):", server_batch.len());
    println!("  trace off  : {server_off:>8.2} us/msg");
    println!("  trace on   : {server_traced:>8.2} us/msg  ({trace_pct:+.2}% vs off)");
    let trace_ok = trace_pct < 2.0;
    println!(
        "check: server tracing overhead < 2%: {}",
        if trace_ok { "OK" } else { "FAIL (non-gating)" }
    );

    // Context on the same round-trips: the price of mirroring every
    // accepted payload into the audit replay queue.
    let audit_cfg = AuditConfig { sample_every: 1 };
    let audit_on = bench_server(&tagger, &server_batch, None, Some(audit_cfg), server_reps);
    let audit_on_pct = (audit_on - server_off) / server_off * 100.0;
    println!("  audit on     : {audit_on:>6.2} us/msg  ({audit_on_pct:+.2}% vs off)");

    if std::fs::create_dir_all("bench_results").is_ok() {
        let json = format!(
            "{{\"bytes\": {}, \"reps\": {reps}, \"off_ns_per_byte\": {off:.4}, \
             \"noop_ns_per_byte\": {noop:.4}, \"stats_ns_per_byte\": {stats:.4}, \
             \"probes_on_ns_per_byte\": {probes_on:.4}, \
             \"noop_overhead_pct\": {:.3}, \"stats_overhead_pct\": {:.3}, \
             \"spread_pct\": {spread_pct:.2}, \"noop_under_2pct\": {ok}, \
             \"server_off_msg_us\": {server_off:.2}, \
             \"server_traced_msg_us\": {server_traced:.2}, \
             \"server_trace_overhead_pct\": {trace_pct:.3}, \
             \"server_trace_under_2pct\": {trace_ok}, \
             \"server_audit_on_msg_us\": {audit_on:.2}, \
             \"server_audit_on_overhead_pct\": {audit_on_pct:.3}}}\n",
            input.len(),
            pct(noop),
            pct(stats),
        );
        // Append, don't overwrite: the file is a JSONL history so
        // `bench_diff` can compare the latest run against the previous.
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open("bench_results/obs_overhead.json")
            .and_then(|mut f| f.write_all(json.as_bytes()));
        if appended.is_ok() {
            eprintln!("appended to bench_results/obs_overhead.json");
        }
    }
    // Non-gating by design: timing noise on shared machines must not
    // break CI. The JSON carries the verdict for anyone who cares.
}
