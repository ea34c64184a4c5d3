//! End-to-end circuit introspection: `cfgtag serve`'s streaming core
//! with the probe layer attached, scraped over real sockets by the
//! same client pieces `cfgtag scope` uses.
//!
//! Covers the acceptance scenario: `/circuit.json` and the snapshot's
//! `cfgtag_probe_total` series agree probe-for-probe, per-tokenizer fire counts and
//! FOLLOW-edge activations are nonzero under honest traffic, the
//! heat-annotated DOT export colors hot elements, and an armed
//! `--trigger token:<name>` capture dumps a JSONL window containing
//! the triggering event.

use cfg_cli::scope::{parse_circuit, probes, render_heat_dot, render_scope};
use cfg_cli::serve::{run_serve, ServeFlags};
use cfg_obs::json::Json;
use cfg_obs::Snapshot;
use cfg_obs_http::{http_get, http_get_status};
use std::io::Read;
use std::sync::mpsc;
use std::time::Duration;

const ITE: &str = r#"
    %%
    E: "if" C "then" E "else" E | "go" | "stop";
    C: "true" | "false";
    %%
"#;

/// Yields a buffer in small chunks, parking at each gate offset until
/// signalled — so the test can inspect probe/capture state at known
/// points of the stream while the exporter is still up (it shuts down
/// at EOF).
struct GatedReader {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
    /// Ascending `(offset, release)` pairs; the front gate parks reads.
    gates: Vec<(usize, mpsc::Receiver<()>)>,
    /// Signalled just before blocking on a gate, so the test can wait
    /// for the stream to be *provably* parked instead of racing it.
    parked: mpsc::Sender<()>,
}

impl Read for GatedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        if self.gates.first().is_some_and(|(at, _)| self.pos >= *at) {
            let (_, gate) = self.gates.remove(0);
            let _ = self.parked.send(());
            let _ = gate.recv();
        }
        let limit = self.gates.first().map_or(self.data.len(), |(at, _)| *at);
        let n = buf.len().min(self.chunk).min(limit - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn poll_until(addr: &str, what: &str, pred: impl Fn(&Snapshot) -> bool) -> Snapshot {
    for _ in 0..400 {
        if let Ok(snap) = http_get(addr, "/snapshot.json").map(|b| Snapshot::parse(&b).unwrap()) {
            if pred(&snap) {
                return snap;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what} at {addr}");
}

#[test]
fn scope_sees_fires_edges_and_a_triggered_capture() {
    // 400 copies of a fully-conforming sentence; the gate parks
    // delivery at ~1/4 so the first inspection happens mid-stream.
    let sentence = b"if true then go else stop ";
    let mut data = Vec::new();
    for _ in 0..400 {
        data.extend_from_slice(sentence);
    }
    let (gate1_at, gate2_at) = (data.len() / 4, data.len() / 2);
    let (gate1_tx, gate1_rx) = mpsc::channel::<()>();
    let (gate2_tx, gate2_rx) = mpsc::channel::<()>();
    let (parked_tx, parked_rx) = mpsc::channel::<()>();
    let reader = GatedReader {
        data,
        pos: 0,
        chunk: 256,
        gates: vec![(gate1_at, gate1_rx), (gate2_at, gate2_rx)],
        parked: parked_tx,
    };

    let flags = ServeFlags { recover: true, chunk: 256, ..Default::default() };
    let (addr_tx, addr_rx) = mpsc::channel::<String>();
    let worker = std::thread::spawn(move || {
        run_serve(ITE, reader, &flags, &mut |line: &str| {
            if let Some(rest) = line.strip_prefix("serving http://") {
                if let Some(addr) = rest.split('/').next() {
                    let _ = addr_tx.send(addr.to_string());
                }
            }
        })
        .expect("serve runs")
    });
    let addr = addr_rx.recv_timeout(Duration::from_secs(30)).expect("exporter address");

    // Wait until the reader is provably parked at gate 1 — every fire
    // of the first quarter is registered and, crucially, no new events
    // can land between arming the trigger below and checking that the
    // capture is still pending.
    parked_rx.recv_timeout(Duration::from_secs(30)).expect("stream parks at gate 1");
    let snapshot = poll_until(&addr, "token fires", |snap| {
        probes(snap).is_ok_and(|p| {
            p.iter().any(|(id, c)| id.starts_with("tok/") && id.ends_with("/fire") && *c > 0)
        })
    });
    let probes = probes(&snapshot).unwrap();
    let circuit = parse_circuit(&http_get(&addr, "/circuit.json").unwrap()).unwrap();

    // Acceptance: /circuit.json probe ids match the probe series 1:1,
    // in order.
    let served_ids: Vec<String> = probes.iter().map(|(id, _)| id.clone()).collect();
    assert_eq!(circuit.probe_ids(), served_ids, "circuit/probes id mismatch");

    // Acceptance: nonzero per-tokenizer fire counts — every token of
    // the sentence has fired by now — and ≥1 FOLLOW-edge activation.
    let count = |id: &str| probes.iter().find(|(p, _)| p == id).map(|(_, c)| *c).unwrap_or(0);
    for tok in ["if", "true", "then", "go", "else", "stop"] {
        assert!(count(&format!("tok/{tok}/fire")) > 0, "tok/{tok}/fire never fired\n{probes:?}");
    }
    let edge_pulses: u64 =
        probes.iter().filter(|(id, _)| id.starts_with("follow/")).map(|(_, c)| *c).sum();
    assert!(edge_pulses > 0, "no FOLLOW-edge activations\n{probes:?}");
    assert!(count("follow/if->true") > 0, "follow/if->true idle\n{probes:?}");

    // The scope frame renders fires and edges; the heat DOT colors the
    // hot tokenizers away from white. (Top-K wide enough that token
    // probes rank despite byte-level decoder counts dominating.)
    let frame = render_scope(&circuit, &probes, None, 1.0, 50);
    assert!(frame.contains("tok/"), "{frame}");
    assert!(frame.contains("if -> true"), "{frame}");
    let dot = render_heat_dot(&circuit, &probes);
    assert!(dot.contains("fillcolor=\"#ff0000\""), "no saturated element:\n{dot}");

    // The Prometheus view carries the same probes with escaped labels.
    let metrics = http_get(&addr, "/metrics").unwrap();
    assert!(metrics.contains("cfgtag_probe_total{probe=\"tok/go/fire\"}"), "{metrics}");
    assert!(
        metrics
            .lines()
            .any(|l| l.contains("cfgtag_token_fires_total") && l.contains("name=\"go\"")),
        "token fires missing name labels"
    );

    // Arm an ILA-style trigger on "go", then release the gate: the
    // remaining 3/4 of the stream fires it almost immediately.
    let (status, body) = http_get_status(&addr, "/trigger?cond=token:go&pre=4&post=2").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = http_get_status(&addr, "/capture.jsonl").unwrap();
    assert_eq!(status, 503, "capture should be pending, got: {body}");

    // Release gate 1: the stream runs to gate 2 (another ~1/4 of the
    // data), firing the trigger and filling the post window, then
    // parks again so the exporter is guaranteed alive for the poll.
    gate1_tx.send(()).unwrap();
    let mut capture = None;
    for _ in 0..400 {
        if let Ok((200, jsonl)) = http_get_status(&addr, "/capture.jsonl") {
            capture = Some(jsonl);
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let capture = capture.expect("trigger fired and capture completed");

    // Acceptance: the window is valid JSONL and contains the triggering
    // token_fire for "go" (the token index the circuit names "go").
    let go_index = circuit.tokens.iter().position(|(name, _, _)| name == "go").unwrap();
    let mut saw_trigger = false;
    for line in capture.lines() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad capture line {line:?}: {e}"));
        assert!(v.get("seq").and_then(Json::as_u64).is_some());
        if v.get("kind").and_then(Json::as_str) == Some("token_fire")
            && v.get("token").and_then(Json::as_u64) == Some(go_index as u64)
        {
            saw_trigger = true;
        }
    }
    assert!(saw_trigger, "capture window lacks the triggering event:\n{capture}");
    assert!(capture.lines().count() <= 4 + 1 + 2, "window larger than pre+1+post");

    gate2_tx.send(()).unwrap();
    let outcome = worker.join().expect("serve thread");
    assert_eq!(outcome.code, 0);
    assert!(outcome.events > 0);
}
