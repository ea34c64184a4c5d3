//! The chaos integration test: a live ingest server under seeded fault
//! injection.
//!
//! A fleet of hostile clients (poison payloads, corrupt and truncated
//! frames, slow-loris dribbling, mid-stream disconnects) hammers the
//! server alongside clean clients, all driven by a fixed seed. The
//! assertions are the serving-layer contract:
//!
//! 1. the server stays live — a clean client served *after* the chaos
//!    gets correct answers;
//! 2. worker panics are supervised — the restart counter is visible in
//!    `/metrics` and nonzero;
//! 3. overload sheds with `Busy` frames instead of blocking, once more
//!    sessions press on a shard gate than it holds and queues;
//! 4. **no acked event is ever lost or wrong** — every acknowledged
//!    frame's events are byte-identical to an unfaulted local run.

use cfg_grammar::builtin;
use cfg_obs::json::Json;
use cfg_obs::{Registry, Snapshot};
use cfg_obs_http::{http_get, Exporter};
use cfg_server::fault::{flood_until_busy, slow_frame};
use cfg_server::frame::encode_events;
use cfg_server::{Client, FaultPlan, IngestServer, Reply, ServerConfig, TraceConfig};
use cfg_tagger::{TaggerOptions, TokenTagger};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0xC0FFEE;
const PANIC_TOKEN: &[u8] = b"POISON";
const SHARDS: usize = 2;
const QUEUE_DEPTH: usize = 2;

fn corpus() -> Vec<Vec<u8>> {
    [
        "if true then go else stop",
        "go",
        "stop stop go",
        "if false then stop else go",
        "if true then if false then go else stop else go",
        "zzz not grammar zzz",
        "true false true",
        "",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect()
}

#[test]
fn server_survives_chaos_without_losing_acked_events() {
    let tagger = TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap();
    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        shards: SHARDS,
        queue_depth: QUEUE_DEPTH,
        max_sessions: 32,
        idle_timeout: Duration::from_secs(5),
        panic_token: Some(PANIC_TOKEN.to_vec()),
        registry: Some(Arc::clone(&registry)),
        // Trace every frame: chaos must not be able to produce a
        // malformed span, however the fault dice land.
        trace: Some(TraceConfig { sample_every: 1, ring: 4096, ..TraceConfig::default() }),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&tagger, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    // The unfaulted ground truth: what each payload must tag to,
    // computed locally. Poisoned payloads are never acked, so the
    // expectation only needs unmodified corpus entries plus whatever a
    // faulty client actually sent (its outcome carries the payloads).
    let expect = |payload: &[u8]| encode_events(&tagger.tag(payload));

    let corpus = corpus();
    let messages: Vec<Vec<u8>> = (0..24).map(|i| corpus[i % corpus.len()].clone()).collect();

    // Hostile fleet: 6 aggressive + 2 calm clients, all seeded.
    let mut handles = Vec::new();
    for client_index in 0..8u64 {
        let plan = if client_index < 6 { FaultPlan::hostile(SEED) } else { FaultPlan::calm(SEED) };
        let msgs = messages.clone();
        handles.push(std::thread::spawn(move || {
            cfg_server::fault::run_client(addr, &plan, client_index, &msgs)
        }));
    }
    // One fully clean client runs concurrently with the chaos. It
    // treats Busy as what it is — a retryable backpressure signal —
    // and keeps going until every message is acked.
    let clean_msgs = messages.clone();
    let clean = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut acked: Vec<(Vec<u8>, Vec<cfg_tagger::TagEvent>)> = Vec::new();
        let mut busys = 0usize;
        for m in &clean_msgs {
            let mut attempts = 0;
            loop {
                match client.request(m).unwrap() {
                    Reply::Acked { events, .. } => {
                        acked.push((m.clone(), events));
                        break;
                    }
                    Reply::Busy { .. } => {
                        busys += 1;
                        attempts += 1;
                        assert!(attempts < 500, "server shed the same frame 500 times");
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    other => panic!("clean client got {other:?}"),
                }
            }
        }
        client.close().unwrap();
        (acked, busys)
    });

    let mut acked_frames = 0usize;
    let mut busy_frames = 0usize;
    let mut err_frames = 0usize;
    for handle in handles {
        let outcome = handle.join().unwrap().expect("faulty client transport");
        busy_frames += outcome.busy.len();
        err_frames += outcome.errors.len();
        for (seq, events) in &outcome.acked {
            let (_, payload) = outcome
                .sent
                .iter()
                .find(|(s, _)| s == seq)
                .expect("ack for a frame that was never sent");
            assert_eq!(
                encode_events(events),
                expect(payload),
                "acked events diverged from the unfaulted run (seq {seq})"
            );
            acked_frames += 1;
        }
    }

    // The concurrent clean client: every message eventually acked,
    // every ack byte-identical to the local run. (Faulty clients that
    // hang up mid-stream forfeit their replies, so the *fleet* ack
    // count may be anything — the invariant is on acks received.)
    let (clean_acked, clean_busys) = clean.join().unwrap();
    busy_frames += clean_busys;
    assert_eq!(clean_acked.len(), messages.len(), "clean client must get every message acked");
    for (payload, events) in &clean_acked {
        assert_eq!(encode_events(events), expect(payload), "clean client ack diverged");
    }
    assert!(
        acked_frames + clean_acked.len() >= messages.len(),
        "chaos run produced no verified acks"
    );

    // Deterministic supervision + overload probe, independent of the
    // chaos dice: land a poison frame (retrying through any leftover
    // backpressure), then press more sessions on every shard gate than
    // it holds and queues, each sending frames that take milliseconds
    // to tag, until one is shed.
    let mut probe = Client::connect(addr).unwrap();
    loop {
        match probe.request(b"go POISON go").unwrap() {
            Reply::Rejected { reason } => {
                assert!(reason.contains("worker panic"), "{reason}");
                err_frames += 1;
                break;
            }
            Reply::Busy { .. } => std::thread::sleep(Duration::from_millis(10)),
            other => panic!("poison probe got {other:?}"),
        }
    }
    probe.close().unwrap();
    let sessions = SHARDS * (QUEUE_DEPTH + 2);
    let probe_busys = flood_until_busy(addr, sessions, &slow_frame(), 200).unwrap();
    assert!(probe_busys > 0, "a flood past every shard gate's wait must shed");
    busy_frames += probe_busys;

    // Poison frames tripped supervised restarts, and the flood against
    // depth-2 gates shed with Busy.
    assert!(err_frames > 0, "no worker-panic Err frames came back");
    assert!(busy_frames > 0, "overload never shed with Busy");

    // The restart counter is live in /metrics, as an orchestrator
    // would scrape it.
    let metrics = http_get(&metrics_addr, "/metrics").unwrap();
    let restarts: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("cfgtag_worker_restarts_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert!(restarts > 0, "no worker restarts visible in /metrics:\n{metrics}");
    let shed: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("cfgtag_load_shed_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert!(shed > 0, "no load shedding visible in /metrics");

    // Chaos cannot corrupt a span: every trace the run retained still
    // decomposes into stage durations that sum exactly to its
    // end-to-end latency, and the live SLO view stayed coherent.
    let spans_body = http_get(&metrics_addr, "/spans.jsonl").unwrap();
    let mut traced = 0usize;
    for line in spans_body.lines() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad span line {line}: {e}"));
        let total = v.get("total_ns").unwrap().as_u64().expect("total_ns is a u64");
        let stage_sum: u64 = v
            .get("stages")
            .unwrap()
            .as_object()
            .unwrap()
            .iter()
            .map(|(_, ns)| ns.as_u64().expect("stage ns is a u64"))
            .sum();
        assert_eq!(stage_sum, total, "span stages diverged from end-to-end under chaos: {line}");
        traced += 1;
    }
    assert!(traced > 0, "a traced chaos run retained no spans");
    let slo = Snapshot::parse(&http_get(&metrics_addr, "/snapshot.json").unwrap()).unwrap();
    let slo_total = slo.value("cfgtag_slo_frames_total", &[]).unwrap() as u64;
    assert!(slo_total > 0, "SLO tracker observed nothing under chaos");
    assert!(slo_total >= traced as u64, "tracker saw fewer frames than the ring retained");

    // The server is still live after the chaos: a fresh clean session
    // gets exact answers.
    let mut after = Client::connect(addr).unwrap();
    match after.request(b"if true then go else stop").unwrap() {
        Reply::Acked { events, .. } => {
            assert_eq!(events, tagger.tag(b"if true then go else stop"));
        }
        other => panic!("post-chaos request failed: {other:?}"),
    }
    after.close().unwrap();

    let report = server.shutdown();
    exporter.stop();
    assert!(report.shard.restarts > 0);
    assert!(report.shed > 0);
    assert!(report.sessions_served >= 10);
    // The report counts every restart the scrape saw.
    assert!(report.shard.restarts >= restarts, "report lost restarts vs /metrics");
}

#[test]
fn chaos_replays_identically_for_the_same_seed() {
    // Determinism of the harness itself: the same plan, seed and
    // client index must produce the same fault decisions (observed via
    // which payloads made it to the wire against a quiet server).
    let tagger = TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap();
    let config =
        ServerConfig { panic_token: Some(PANIC_TOKEN.to_vec()), ..ServerConfig::default() };
    let server = IngestServer::start(&tagger, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let messages = corpus();

    let plan = FaultPlan::hostile(7);
    let a = cfg_server::fault::run_client(addr, &plan, 1, &messages).unwrap();
    let b = cfg_server::fault::run_client(addr, &plan, 1, &messages).unwrap();
    assert_eq!(a.sent, b.sent, "same seed, same wire history");
    assert_eq!(a.disconnected, b.disconnected);

    server.shutdown();
}
