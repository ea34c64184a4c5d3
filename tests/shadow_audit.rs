//! End-to-end shadow-audit invariants on a live ingest server.
//!
//! The audit lane's whole claim is *live correctness observability*:
//! mirror 1-in-N sessions off the fast path, replay them through the
//! scalar reference engine (divergence = correctness bug) and the
//! exact PDA parser (unconfirmed fire = a §3.5 false positive), and
//! surface the verdicts without ever blocking serving. Three
//! invariants pin that down:
//!
//! 1. a server whose bit-parallel decode ROM is deliberately corrupted
//!    must be *caught* — the auditor reports divergences and captures
//!    the evidence (byte window + both event streams) in the mismatch
//!    ring and `/mismatches.jsonl`;
//! 2. live precision on an XML-RPC workload must agree with an
//!    offline replay of the same frames (same engines, same parser)
//!    within one percentage point;
//! 3. with auditing unconfigured the server stays metrics-dark: no
//!    `cfgtag_audit_*` rows in `/metrics` or `/snapshot.json`, empty
//!    `/mismatches.jsonl` — all still HTTP 200.

use cfg_grammar::builtin;
use cfg_obs::json::Json;
use cfg_obs::{AuditBank, Registry, Snapshot};
use cfg_obs_http::{http_get, http_get_status, Exporter};
use cfg_server::{AuditConfig, Client, IngestServer, Reply, ServerConfig};
use cfg_tagger::{EngineKind, PdaParser, TaggerOptions, TokenTagger};
use cfg_xmlrpc::workload::{MessageKind, WorkloadGenerator};
use cfg_xmlrpc::xmlrpc_grammar;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Poll until the audit lane has drained `sessions` sampled sessions
/// (audited + shed), or panic after ~10 s — the lane is async, so the
/// client seeing its ACKs says nothing about replay progress.
fn wait_for_audited(bank: &AuditBank, sessions: u64) {
    for _ in 0..5000 {
        if bank.sessions_audited() + bank.sessions_shed() >= sessions {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!(
        "audit lane never drained: {} sampled, {} audited, {} shed",
        bank.sessions_sampled(),
        bank.sessions_audited(),
        bank.sessions_shed()
    );
}

#[test]
fn corrupted_decode_rom_is_caught_as_divergence_with_evidence() {
    // Zero the bit engine's class-ROM row for 'i': every token crossing
    // an 'i' dies in the production kernel while the scalar reference
    // (separate tables) still fires — a guaranteed divergence on any
    // if-then-else traffic.
    let t = TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default())
        .unwrap()
        .with_corrupted_rom_row(b'i');
    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        audit: Some(AuditConfig { sample_every: 1 }),
        registry: Some(Arc::clone(&registry)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    let payload = b"if true then go else stop";
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        assert!(matches!(client.request(payload).unwrap(), Reply::Acked { .. }));
    }
    client.close().unwrap();

    let bank = server.audit_bank().expect("audit configured");
    wait_for_audited(&bank, 1);
    assert_eq!(bank.sessions_sampled(), 1);
    assert!(bank.divergences() > 0, "corrupted ROM must diverge from the scalar reference");
    assert_eq!(bank.frames_audited(), 3);
    assert_eq!(bank.bytes_audited(), 3 * payload.len() as u64);

    // The flight recorder holds the evidence: the byte window around
    // the first differing event and both engines' event streams.
    let ring = server.mismatch_ring().expect("audit configured");
    assert!(!ring.is_empty(), "divergence must land in the mismatch ring");
    let (_, m) = ring.entries().into_iter().next().unwrap();
    assert!(!m.window.is_empty(), "mismatch must capture a byte window");
    assert!(
        payload.windows(m.window.len()).any(|w| w == &m.window[..]),
        "window must come from the audited payload"
    );
    assert_ne!(m.fast, m.reference, "the two event streams must actually differ");
    assert!(m.reference.len() > m.fast.len(), "the corrupted kernel drops fires, never adds them");

    // The same evidence serves over HTTP, one JSON object per line.
    let dump = http_get(&metrics_addr, "/mismatches.jsonl").unwrap();
    let first = dump.lines().next().expect("at least one mismatch line");
    let v = Json::parse(first).unwrap();
    assert_eq!(v.get("session").and_then(Json::as_u64), Some(m.session));
    assert!(!v.get("reference").unwrap().as_array().unwrap().is_empty(), "{first}");

    // And the scrape carries the counter.
    let metrics = http_get(&metrics_addr, "/metrics").unwrap();
    assert!(metrics.contains("cfgtag_audit_divergences_total"), "{metrics}");

    server.shutdown();
    exporter.stop();
}

#[test]
fn live_precision_matches_offline_replay_within_one_point() {
    // Honest XML-RPC traffic plus truncated documents: the exact
    // parser rejects a cut-off message, so every fire in it counts as
    // a false positive — a workload with a known, non-trivial
    // precision.
    let t = TokenTagger::compile(&xmlrpc_grammar(), TaggerOptions::default()).unwrap();
    let mut gen = WorkloadGenerator::new(0xAD17);
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    for i in 0..20 {
        let mut bytes = gen.message(MessageKind::Honest).bytes;
        if i % 4 == 0 {
            bytes.truncate(bytes.len() / 2);
        }
        payloads.push(bytes);
    }

    // Offline ground truth: the same per-frame replay the audit lane
    // runs — a fresh production engine per frame, fires confirmed
    // against the PDA's derivation when the document is accepted.
    let pda = PdaParser::new(t.grammar());
    let mut fires_total = 0u64;
    let mut fires_confirmed = 0u64;
    for payload in &payloads {
        let mut engine = t.engine(EngineKind::Bit).unwrap();
        let mut fast = engine.feed(payload).unwrap();
        fast.extend(engine.finish().unwrap());
        let verdict = pda.parse(payload);
        let confirmed: HashSet<(u32, usize, usize)> = if verdict.accepted {
            verdict.events.iter().map(|e| (e.token.0, e.start, e.end)).collect()
        } else {
            HashSet::new()
        };
        fires_total += fast.len() as u64;
        fires_confirmed +=
            fast.iter().filter(|e| confirmed.contains(&(e.token.0, e.start, e.end))).count() as u64;
    }
    assert!(fires_total > 0, "workload must produce fires");
    assert!(fires_confirmed < fires_total, "truncation must produce false positives");
    let offline_pct = fires_confirmed as f64 / fires_total as f64 * 100.0;

    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        audit: Some(AuditConfig { sample_every: 1 }),
        registry: Some(Arc::clone(&registry)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    let mut client = Client::connect(server.local_addr()).unwrap();
    for payload in &payloads {
        assert!(matches!(client.request(payload).unwrap(), Reply::Acked { .. }));
    }
    client.close().unwrap();

    let bank = server.audit_bank().expect("audit configured");
    wait_for_audited(&bank, 1);
    assert_eq!(bank.sessions_shed(), 0, "one queued session must never shed");
    assert_eq!(bank.frames_audited(), payloads.len() as u64);
    assert_eq!(bank.divergences(), 0, "a healthy tagger must not diverge");

    let body = http_get(&metrics_addr, "/snapshot.json").unwrap();
    let v = Snapshot::parse(&body).unwrap();
    assert!(v.get("cfgtag_audit_frames_total").is_some(), "{body}");
    let live_pct = v.value("cfgtag_audit_precision_pct", &[]).expect("fires were audited");
    assert!(
        (live_pct - offline_pct).abs() < 1.0,
        "live precision {live_pct:.3}% vs offline replay {offline_pct:.3}%: \
         must agree within one percentage point\n{body}"
    );
    let fp_rows = &v.get("cfgtag_audit_false_positives_total").unwrap().series;
    assert!(!fp_rows.is_empty(), "truncated documents must surface per-token FP rows: {body}");

    server.shutdown();
    exporter.stop();
}

#[test]
fn audit_off_keeps_the_serving_path_metrics_dark() {
    let t = TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap();
    let registry = Arc::new(Registry::new());
    let config = ServerConfig { registry: Some(Arc::clone(&registry)), ..ServerConfig::default() };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(matches!(client.request(b"if a then b else c").unwrap(), Reply::Acked { .. }));
    client.close().unwrap();

    assert!(server.audit_bank().is_none());
    assert!(server.mismatch_ring().is_none());

    // Unconfigured is a state, not an error: both endpoints answer 200.
    let (status, body) = http_get_status(&metrics_addr, "/snapshot.json").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = Snapshot::parse(&body).unwrap();
    assert!(v.families.iter().all(|f| !f.name.starts_with("cfgtag_audit_")), "{body}");

    let (status, body) = http_get_status(&metrics_addr, "/mismatches.jsonl").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, "");

    let metrics = http_get(&metrics_addr, "/metrics").unwrap();
    assert!(!metrics.contains("cfgtag_audit_"), "audit-off scrape must stay dark: {metrics}");

    server.shutdown();
    exporter.stop();
}
