//! The ingest server under a pipelined client fleet.
//!
//! Starts a [`cfg_server::IngestServer`] over the XML-RPC grammar and
//! drives a fixed batch of workload messages through several
//! concurrent client sessions, each keeping up to `--window` frames in
//! flight (remaining replies drained at `Close`). Reports the
//! serving-layer numbers the chaos test asserts qualitatively:
//! accepted msgs/s and the shed ratio of the bounded queues — raise
//! `--window` (or shrink `--queue-depth`) to push the pool into
//! overload and watch the ratio climb.
//!
//! With tracing on (`--trace-sample`, default 1) every acked frame is
//! decomposed into stage latencies and the run ends with the
//! **attribution table**: per-stage p50/p99/p99.9 plus each stage's
//! share of the end-to-end p50 — the direct answer to "where do the
//! TCP-path microseconds go vs. the in-process router". The same
//! numbers are scraped live from `/snapshot.json` mid-run and
//! cross-checked against the server's own tracker. Appends a JSONL row
//! to `bench_results/server_loop.json` — non-gating, like every timing
//! bench here.
//!
//! Saturation telemetry rides along (`--sample-hz N`, snapshots every
//! `1000 / N` ms, default 200; 0 = off): the run records the pool's
//! peak sampled queue depth and the busiest shard's utilization into
//! the JSONL row (`shard_utilization_pct`, `peak_queue_depth`) — the
//! quantitative view of how close `--window` pushed the pool to
//! overload.
//!
//! `--sessions N` parks an idle fleet of N extra connections for the
//! whole run, each holding a parked reader thread — the concurrency
//! sweep that shows what thread-per-connection costs at thousands of
//! idle sessions. The row records it as `concurrent_sessions`.
//!
//! Run: `cargo run -p cfg-bench --bin server_loop --release -- \
//!        [--messages N] [--clients N] [--sessions N] [--shards N] \
//!        [--queue-depth N] [--window N] [--trace-sample N] [--slo-ms X] \
//!        [--sample-hz N]`

#![forbid(unsafe_code)]

use cfg_obs::{Registry, SloSnapshot, Snapshot, Stage};
use cfg_obs_http::{http_get, Exporter};
use cfg_server::{Client, IngestServer, Reply, SaturationConfig, ServerConfig, TraceConfig};
use cfg_tagger::{TaggerOptions, TokenTagger};
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

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Render the stage-attribution table from an SLO snapshot: one row
/// per serving stage with quantiles and the share of the end-to-end
/// p50 that stage accounts for.
fn attribution_table(snap: &SloSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let e2e_p50 = snap.e2e.p50.max(1);
    let _ = writeln!(
        out,
        "  {:<16} {:>10} {:>10} {:>10} {:>8}",
        "stage", "p50_us", "p99_us", "p999_us", "of e2e"
    );
    for (name, row) in &snap.stages {
        let _ = writeln!(
            out,
            "  {:<16} {:>10.1} {:>10.1} {:>10.1} {:>7.1}%",
            name,
            us(row.p50),
            us(row.p99),
            us(row.p999),
            row.p50 as f64 / e2e_p50 as f64 * 100.0
        );
    }
    let _ = writeln!(
        out,
        "  {:<16} {:>10.1} {:>10.1} {:>10.1} {:>8}",
        "e2e",
        us(snap.e2e.p50),
        us(snap.e2e.p99),
        us(snap.e2e.p999),
        "100.0%"
    );
    out
}

fn main() {
    let messages = arg("--messages", 8_000) as usize;
    let clients = (arg("--clients", 4) as usize).max(1);
    let mut sessions = arg("--sessions", 0) as usize;
    let shards = (arg("--shards", 4) as usize).max(1);
    let queue_depth = (arg("--queue-depth", 32) as usize).max(1);
    let window = (arg("--window", 8) as usize).max(1);
    let trace_sample = arg("--trace-sample", 1);
    let slo_ms = arg("--slo-ms", 50).max(1);
    let sample_hz = arg("--sample-hz", 200).min(1000);
    // The idle fleet burns one fd per side of each connection; keep a
    // comfortable margin under the typical nofile soft limit and say
    // so when the request had to shrink — never clamp silently.
    const SESSION_CEILING: usize = 8192;
    if sessions > SESSION_CEILING {
        eprintln!(
            "server_loop: clamping --sessions {sessions} to {SESSION_CEILING} (fd budget: \
             each idle session holds two descriptors in this process)"
        );
        sessions = SESSION_CEILING;
    }

    let grammar = xmlrpc_grammar();
    let tagger =
        TokenTagger::compile(&grammar, TaggerOptions::default()).expect("XML-RPC grammar compiles");
    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        shards,
        queue_depth,
        max_sessions: sessions + clients + 2,
        registry: Some(Arc::clone(&registry)),
        trace: (trace_sample > 0).then(|| TraceConfig {
            sample_every: trace_sample,
            slo_ms,
            ..TraceConfig::default()
        }),
        // The default 5 ms interval is tight so even short benches see
        // a real window.
        saturation: (sample_hz > 0)
            .then(|| SaturationConfig { interval_ms: 1000 / sample_hz, history: 4096 }),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&tagger, "127.0.0.1:0", config).expect("bind ingest server");
    let addr = server.local_addr();
    let exporter = Exporter::bind("127.0.0.1:0", registry).expect("bind exporter");
    let metrics_addr = exporter.local_addr().to_string();
    eprintln!(
        "server_loop: ingest on {addr} ({shards} shards, queue depth {queue_depth}, \
         trace 1-in-{trace_sample}, SLO {slo_ms}ms)"
    );

    // The idle fleet: admitted sessions that hold their connection open
    // across the whole timed run without sending a byte, each pinning
    // a parked reader thread.
    let mut idle_fleet = Vec::with_capacity(sessions);
    for i in 0..sessions {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => idle_fleet.push(s),
            Err(e) => panic!("idle session {i}/{sessions} failed to connect: {e}"),
        }
    }
    if sessions > 0 {
        eprintln!("server_loop: {sessions} idle sessions parked");
    }

    let mut gen = WorkloadGenerator::new(7);
    let batch = gen.batch(messages, 0.0);
    let per_client = messages.div_ceil(clients);
    let chunks: Vec<Vec<Vec<u8>>> =
        batch.chunks(per_client).map(|c| c.iter().map(|m| m.bytes.clone()).collect()).collect();
    let bytes: u64 = batch.iter().map(|m| m.bytes.len() as u64).sum();

    let t0 = Instant::now();
    let handles: Vec<_> = chunks
        .into_iter()
        .map(|msgs| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let (mut acks, mut busys) = (0usize, 0usize);
                let mut count = |reply: &Reply| match reply {
                    Reply::Acked { .. } => acks += 1,
                    Reply::Busy { .. } => busys += 1,
                    other => panic!("server_loop client got {other:?}"),
                };
                let mut in_flight = 0usize;
                for m in &msgs {
                    client.send(m).expect("send");
                    in_flight += 1;
                    if in_flight >= window {
                        count(&client.recv().expect("recv"));
                        in_flight -= 1;
                    }
                }
                for reply in client.close().expect("close") {
                    count(&reply);
                }
                (acks, busys)
            })
        })
        .collect();
    let (mut acks, mut busys) = (0usize, 0usize);
    for h in handles {
        let (a, b) = h.join().expect("client thread");
        acks += a;
        busys += b;
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);

    // Scrape the SLO view while the server is still up — the same
    // numbers an operator's `cfgtag watch slo` poll would see — and
    // cross-check against the tracker the server holds directly.
    let traced = server.slo_tracker().map(|tracker| {
        let live = http_get(&metrics_addr, "/snapshot.json").expect("scrape /snapshot.json");
        let live = Snapshot::parse(&live).expect("parse /snapshot.json");
        let snap = tracker.snapshot();
        let live_total = live.value("cfgtag_slo_frames_total", &[]).unwrap_or(0.0) as u64;
        assert!(
            live_total >= snap.total.saturating_sub(window as u64 * clients as u64)
                && live_total <= snap.total,
            "/snapshot.json diverged from the in-process tracker: {live_total} vs {}",
            snap.total
        );
        snap
    });
    // Saturation gauges, read before shutdown tears the sampler down:
    // the busiest shard's utilization over the sampled window and the
    // deepest queue any snapshot caught.
    let saturation = server.timeseries().map(|series| {
        let utilization = series.gauges().iter().map(|g| g.utilization_pct).fold(0.0f64, f64::max);
        let peak_depth = series
            .ticks()
            .iter()
            .flat_map(|t| t.shards.iter().map(|s| s.queue_depth))
            .max()
            .unwrap_or(0);
        (utilization, peak_depth)
    });
    drop(idle_fleet);
    let report = server.shutdown();
    exporter.stop();

    let accepted_per_sec = acks as f64 / secs;
    let shed_ratio = busys as f64 / (acks + busys).max(1) as f64;
    println!(
        "server_loop: {messages} msgs ({bytes} bytes) from {clients} clients \
         (+{sessions} idle sessions) in {secs:.3}s — \
         {accepted_per_sec:.0} accepted msgs/s, shed ratio {shed_ratio:.3}"
    );
    println!(
        "  acked={acks} shed={busys} sessions={} pool messages={} restarts={}",
        report.sessions_served, report.shard.messages, report.shard.restarts
    );

    // The per-stage latency fields appended to the JSONL row (empty
    // when tracing is off — bench_diff skips keys a row lacks).
    let mut trace_fields = String::new();
    if let Some(snap) = &traced {
        println!("  stage attribution over {} acked frames:", snap.e2e.count);
        print!("{}", attribution_table(snap));
        let stage_p50 = |stage: Stage| {
            snap.stages
                .iter()
                .find(|(n, _)| *n == stage.name())
                .map(|(_, row)| row.p50)
                .unwrap_or(0)
        };
        // Telescoping stamps make stage durations sum exactly to the
        // end-to-end per span; the p50s are each computed over the
        // whole run, so their sum tracking the e2e p50 (within ~10%)
        // is the sanity check that attribution is not dropping time.
        let stage_sum_p50: u64 = Stage::ALL.iter().map(|s| stage_p50(*s)).sum();
        let sum_vs_e2e = stage_sum_p50 as f64 / snap.e2e.p50.max(1) as f64 * 100.0;
        println!(
            "  stage p50 sum {:.1}us vs e2e p50 {:.1}us ({sum_vs_e2e:.1}%)",
            us(stage_sum_p50),
            us(snap.e2e.p50)
        );
        trace_fields = format!(
            ", \"trace_sample\": {trace_sample}, \"slo_ms\": {slo_ms}, \
             \"breaches\": {}, \
             \"e2e_p50_us\": {:.2}, \"e2e_p99_us\": {:.2}, \"e2e_p999_us\": {:.2}, \
             \"queue_wait_p50_us\": {:.2}, \"engine_p50_us\": {:.2}, \
             \"ack_write_p50_us\": {:.2}, \
             \"stage_sum_p50_us\": {:.2}, \"stage_sum_vs_e2e_pct\": {sum_vs_e2e:.1}",
            snap.breaches,
            us(snap.e2e.p50),
            us(snap.e2e.p99),
            us(snap.e2e.p999),
            us(stage_p50(Stage::QueueWait)),
            us(stage_p50(Stage::Engine)),
            us(stage_p50(Stage::AckWrite)),
            us(stage_sum_p50),
        );
    }

    let mut saturation_fields = String::new();
    if let Some((utilization, peak_depth)) = saturation {
        println!(
            "  saturation: busiest shard {utilization:.1}% utilized, peak sampled queue depth {peak_depth}"
        );
        saturation_fields = format!(
            ", \"sample_hz\": {sample_hz}, \"shard_utilization_pct\": {utilization:.1}, \
             \"peak_queue_depth\": {peak_depth}"
        );
    }

    if std::fs::create_dir_all("bench_results").is_ok() {
        use std::io::Write as _;
        let row = format!(
            "{{\"messages\": {messages}, \"bytes\": {bytes}, \
             \"clients\": {clients}, \"concurrent_sessions\": {}, \
             \"shards\": {shards}, \"queue_depth\": {queue_depth}, \"window\": {window}, \
             \"secs\": {secs:.4}, \
             \"accepted_msgs_per_sec\": {accepted_per_sec:.1}, \"shed_ratio\": {shed_ratio:.4}, \
             \"acked\": {acks}, \"shed\": {busys}{trace_fields}{saturation_fields}}}\n",
            sessions + clients,
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open("bench_results/server_loop.json")
            .and_then(|mut f| f.write_all(row.as_bytes()));
        if appended.is_ok() {
            eprintln!("appended to bench_results/server_loop.json");
        }
    }
}
