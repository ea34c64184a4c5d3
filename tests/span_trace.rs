//! End-to-end tracing invariants on a live ingest server.
//!
//! With tracing enabled, every acked frame must decompose into
//! monotonic, non-negative stage durations that sum *exactly* to its
//! end-to-end latency, and the live `/snapshot.json` SLO families and
//! `/spans.jsonl` must agree with the server's own tracker.

use cfg_grammar::builtin;
use cfg_obs::json::Json;
use cfg_obs::{Registry, Snapshot, Stage};
use cfg_obs_http::{http_get, Exporter};
use cfg_server::{Client, IngestServer, Reply, ServerConfig, TraceConfig};
use cfg_tagger::{TaggerOptions, TokenTagger};
use std::sync::Arc;
use std::time::Duration;

fn tagger() -> TokenTagger {
    TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap()
}

/// Wait until the tracker has folded in `want` spans — the ack is
/// written a moment before the span is recorded, so the last frame's
/// span can trail its ack.
fn await_total(metrics_addr: &str, want: u64) -> Snapshot {
    for _ in 0..200 {
        let body = http_get(metrics_addr, "/snapshot.json").unwrap();
        let v = Snapshot::parse(&body).unwrap();
        if v.value("cfgtag_slo_frames_total", &[]) >= Some(want as f64) {
            return v;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("SLO tracker never reached {want} observed frames");
}

#[test]
fn every_acked_frame_decomposes_into_stage_durations() {
    const MESSAGES: u64 = 40;
    let t = tagger();
    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        registry: Some(Arc::clone(&registry)),
        trace: Some(TraceConfig { sample_every: 1, slo_ms: 250, ring: 1024 }),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    let corpus: [&[u8]; 4] =
        [b"if true then go else stop", b"go", b"stop stop go", b"zzz not grammar zzz"];
    let mut client = Client::connect(server.local_addr()).unwrap();
    for i in 0..MESSAGES {
        match client.request(corpus[(i % 4) as usize]).unwrap() {
            Reply::Acked { seq, .. } => assert_eq!(u64::from(seq), i),
            other => panic!("frame {i} not acked: {other:?}"),
        }
    }

    let slo = await_total(&metrics_addr, MESSAGES);

    // /spans.jsonl: one well-formed span per acked frame (sampling is
    // 1-in-1 and the ring is larger than the run).
    let spans_body = http_get(&metrics_addr, "/spans.jsonl").unwrap();
    let lines: Vec<&str> = spans_body.lines().collect();
    assert_eq!(lines.len() as u64, MESSAGES, "one retained span per acked frame");
    for line in &lines {
        let v = Json::parse(line).unwrap();
        let total = v.get("total_ns").unwrap().as_u64().expect("total_ns is a u64");
        assert!(total > 0, "zero-length span: {line}");
        let stages = v.get("stages").unwrap().as_object().unwrap();
        // Every serving stage is present for an acked frame, in
        // pipeline order, each duration a non-negative integer.
        let expected: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        let got: Vec<&str> = stages.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, expected, "stage set/order wrong in {line}");
        let sum: u64 = stages.iter().map(|(_, v)| v.as_u64().expect("stage ns is u64")).sum();
        assert_eq!(sum, total, "stage durations must sum to end-to-end in {line}");
    }

    // The SLO families agree with the server's own tracker, full-fidelity.
    assert_eq!(slo.value("cfgtag_slo_frames_total", &[]), Some(MESSAGES as f64));
    assert_eq!(slo.histogram("cfgtag_srv_span_ns", &[]).unwrap().count, MESSAGES);
    for stage in Stage::ALL {
        let s = slo.histogram("cfgtag_srv_stage_ns", &[("stage", stage.name())]).unwrap();
        assert_eq!(s.count, MESSAGES, "stage {} not observed for every frame", stage.name());
        let (p50, p999) = (s.quantile(0.5), s.quantile(0.999));
        assert!(p50 <= p999, "quantiles out of order for {}", stage.name());
    }
    let tracker = server.slo_tracker().expect("tracing configured");
    assert_eq!(tracker.snapshot().total, MESSAGES);

    client.close().unwrap();
    server.shutdown();
    exporter.stop();
}

#[test]
fn head_sampling_throttles_the_ring_but_not_the_slo() {
    const MESSAGES: u64 = 20;
    let t = tagger();
    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        registry: Some(Arc::clone(&registry)),
        // Huge objective: nothing is "slow", so retention is purely
        // the deterministic 1-in-8 head sample (span ids 0, 8, 16).
        trace: Some(TraceConfig { sample_every: 8, slo_ms: 60_000, ring: 64 }),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..MESSAGES {
        assert!(matches!(client.request(b"go").unwrap(), Reply::Acked { .. }));
    }
    let slo = await_total(&metrics_addr, MESSAGES);
    assert_eq!(
        slo.value("cfgtag_slo_frames_total", &[]),
        Some(MESSAGES as f64),
        "SLO sees every frame"
    );

    let spans_body = http_get(&metrics_addr, "/spans.jsonl").unwrap();
    let ids: Vec<u64> = spans_body
        .lines()
        .map(|l| Json::parse(l).unwrap().get("id").unwrap().as_u64().unwrap())
        .collect();
    assert_eq!(ids, vec![0, 8, 16], "ring holds exactly the head-sampled spans");

    client.close().unwrap();
    server.shutdown();
    exporter.stop();
}
