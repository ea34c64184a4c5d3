//! The ingest server under a pipelined client fleet.
//!
//! Starts a [`cfg_server::IngestServer`] over the XML-RPC grammar and
//! drives a fixed batch of workload messages through several
//! concurrent client sessions, each keeping up to `--window` frames in
//! flight. Each session's reader thread tags its frames under its
//! shard's admission gate (session `id % --shards`): one frame holds
//! the gate, at most `--queue-depth` wait for it, and one more is shed
//! with `Busy`. Each client is one session, so only more clients than
//! shards contend for a gate; `--window` alone never sheds. Reports
//! accepted msgs/s and the shed ratio — raise `--clients` per shard (or
//! shrink `--queue-depth`) to push the gates into overload and watch
//! the ratio climb.
//!
//! Every client times each frame from its send to its reply (a
//! session's replies come back in send order) and the run reports the
//! round trip's p50 and p99. That is what a client waits: a pipelined window waits in the socket
//! until its reader has answered the frame before, outside the server's
//! span.
//!
//! With tracing on (`--trace-sample`, default 1) every acked frame is
//! decomposed into stage latencies and the run ends with the
//! **attribution table**: per-stage p50/p99/p99.9 plus each stage's
//! share of the end-to-end p50 — the direct answer to "where do the
//! TCP-path microseconds go vs. the in-process router". The same
//! numbers are scraped live from `/snapshot.json` mid-run and
//! cross-checked against the server's own tracker.
//!
//! The gates' load counters, read from two registry snapshots taken
//! around the timed run, give the busiest shard's utilization and the
//! frames waiting for a gate on average over the run, summed over the
//! gates (the mean queue depth L̄_q = Δwait_ns / Δt) — how close the
//! fleet pushed the gates to overload.
//!
//! `--sessions N` parks an idle fleet of N extra connections for the
//! whole run, each holding a parked reader thread — the concurrency
//! sweep that shows what thread-per-connection costs at thousands of
//! idle sessions.
//!
//! Run: `cargo run -p cfg-bench --bin server_loop --release -- \
//!        [--messages N] [--clients N] [--sessions N] [--shards N] \
//!        [--queue-depth N] [--window N] [--trace-sample N] [--slo-ms X]`

#![forbid(unsafe_code)]

use cfg_cli::shards;
use cfg_obs::{Histogram, Registry, SloSnapshot, Snapshot};
use cfg_obs_http::{http_get, Exporter};
use cfg_server::{Client, IngestServer, Reply, ServerConfig, TraceConfig};
use cfg_tagger::{TaggerOptions, TokenTagger};
use cfg_xmlrpc::workload::WorkloadGenerator;
use cfg_xmlrpc::xmlrpc_grammar;
use std::collections::VecDeque;
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
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&tagger, "127.0.0.1:0", config).expect("bind ingest server");
    let addr = server.local_addr();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).expect("bind exporter");
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

    let rtt = Arc::new(Histogram::new());
    let gates_before = registry.snapshot();
    let t0 = Instant::now();
    let handles: Vec<_> = chunks
        .into_iter()
        .map(|msgs| {
            let rtt = Arc::clone(&rtt);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let (mut acks, mut busys) = (0usize, 0usize);
                // Send times of the frames in flight: a session's
                // replies come back in send order.
                let mut sent_at = VecDeque::with_capacity(window);
                let mut recv = |client: &mut Client, sent_at: &mut VecDeque<Instant>| {
                    let reply = client.recv().expect("recv");
                    let sent = sent_at.pop_front().expect("a reply to a frame in flight");
                    rtt.record(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    match reply {
                        Reply::Acked { .. } => acks += 1,
                        Reply::Busy { .. } => busys += 1,
                        other => panic!("server_loop client got {other:?}"),
                    }
                };
                for m in &msgs {
                    sent_at.push_back(Instant::now());
                    client.send(m).expect("send");
                    if sent_at.len() >= window {
                        recv(&mut client, &mut sent_at);
                    }
                }
                while !sent_at.is_empty() {
                    recv(&mut client, &mut sent_at);
                }
                client.close().expect("close");
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
    let gates = shards::loads(Some(&gates_before), &registry.snapshot(), secs);
    let rtt = rtt.snapshot();

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
        "  acked={acks} shed={busys} sessions={} shard messages={} restarts={}",
        report.sessions_served, report.shard.messages, report.shard.restarts
    );
    let (rtt_p50, rtt_p99) = (us(rtt.quantile(0.5)), us(rtt.quantile(0.99)));
    println!(
        "  client round trip over {} frames: p50 {rtt_p50:.1}us, p99 {rtt_p99:.1}us",
        rtt.count
    );
    // The gates' load over the timed run: the busiest gate's share of
    // it spent tagging, and the frames waiting for any gate on average.
    let rates = || gates.iter().filter_map(|g| g.rates);
    let utilization = rates().map(|r| r.utilization_pct).fold(0.0f64, f64::max);
    let mean_depth: f64 = rates().map(|r| r.mean_depth).sum();
    println!(
        "  gates: busiest shard {utilization:.1}% utilized, mean queue depth {mean_depth:.2} \
         frames over all gates"
    );

    if let Some(snap) = &traced {
        println!("  stage attribution over {} acked frames:", snap.e2e.count);
        print!("{}", attribution_table(snap));
        // Telescoping stamps make stage durations sum exactly to the
        // end-to-end per span; the p50s are each computed over the
        // whole run, so their sum tracking the e2e p50 (within ~10%)
        // is the sanity check that attribution is not dropping time.
        let stage_sum_p50: u64 = snap.stages.iter().map(|(_, row)| row.p50).sum();
        let sum_vs_e2e = stage_sum_p50 as f64 / snap.e2e.p50.max(1) as f64 * 100.0;
        println!(
            "  stage p50 sum {:.1}us vs e2e p50 {:.1}us ({sum_vs_e2e:.1}%)",
            us(stage_sum_p50),
            us(snap.e2e.p50)
        );
    }
}
