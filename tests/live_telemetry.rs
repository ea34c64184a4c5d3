//! End-to-end live telemetry: `cfgtag serve`'s streaming core feeding a
//! looping XML-RPC workload while the exporter is scraped over real
//! sockets — the PR's acceptance scenario, minus process spawning.
//!
//! Covers: monotonic counters across mid-stream scrapes, decision-
//! latency quantiles in `/metrics`, a well-formed `/snapshot.json`, and
//! the post-mortem flight dump (with `dead_entry` trace events) when
//! the stream goes dead without recovery.

use cfg_cli::serve::{run_serve, ServeFlags};
use cfg_obs::json::Json;
use cfg_obs::Snapshot;
use cfg_obs_http::http_get;
use cfg_xmlrpc::grammar::XMLRPC_GRAMMAR_TEXT;
use cfg_xmlrpc::workload::{MessageKind, WorkloadGenerator};
use std::io::Read;
use std::sync::mpsc;
use std::time::Duration;

/// Yields a buffer in small chunks, blocking at each gate offset until
/// the test signals it on — so scrapes land at deterministic points of
/// the stream instead of racing the reader to EOF.
struct GatedReader {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
    /// `(offset, gate)` pairs, ascending: delivery pauses at `offset`
    /// until the gate receives.
    gates: Vec<(usize, mpsc::Receiver<()>)>,
}

impl Read for GatedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        if let Some((offset, _)) = self.gates.first() {
            if self.pos >= *offset {
                let (_, gate) = self.gates.remove(0);
                let _ = gate.recv();
            }
        }
        let mut limit = self.data.len();
        if let Some((offset, _)) = self.gates.first() {
            limit = limit.min(*offset);
        }
        let n = buf.len().min(self.chunk).min(limit - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Scrape `/snapshot.json` until `pred` holds on it (or panic).
fn poll_report(addr: &str, what: &str, pred: impl Fn(&Snapshot) -> bool) -> Snapshot {
    for _ in 0..400 {
        if let Ok(body) = http_get(addr, "/snapshot.json") {
            if let Ok(v) = Snapshot::parse(&body) {
                if pred(&v) {
                    return v;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what} at {addr}");
}

fn merged_counter(v: &Snapshot, name: &str) -> u64 {
    v.total(&format!("cfgtag_{name}_total")) as u64
}

/// The value of one Prometheus series in a scrape body.
fn series(body: &str, id: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(id) && l[id.len()..].starts_with(' '))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

#[test]
fn serve_exports_monotonic_counters_and_latency_quantiles_mid_stream() {
    // ~200 KB of honest XML-RPC traffic with delivery gates at 64 KB and
    // 128 KB, so the two scrapes observe the stream at known points.
    let mut gen = WorkloadGenerator::new(11);
    let mut data = Vec::new();
    while data.len() < 200 << 10 {
        data.extend_from_slice(&gen.message(MessageKind::Honest).bytes);
        data.push(b'\n');
    }
    let total_bytes = data.len() as u64;
    let (gate1_tx, gate1_rx) = mpsc::channel::<()>();
    let (gate2_tx, gate2_rx) = mpsc::channel::<()>();
    let reader = GatedReader {
        data,
        pos: 0,
        chunk: 2048,
        gates: vec![(64 << 10, gate1_rx), (128 << 10, gate2_rx)],
    };

    let flags = ServeFlags { recover: true, chunk: 2048, ..Default::default() };
    let (addr_tx, addr_rx) = mpsc::channel::<String>();
    let worker = std::thread::spawn(move || {
        run_serve(XMLRPC_GRAMMAR_TEXT, reader, &flags, &mut |line: &str| {
            if let Some(rest) = line.strip_prefix("serving http://") {
                if let Some(addr) = rest.split('/').next() {
                    let _ = addr_tx.send(addr.to_string());
                }
            }
        })
        .expect("serve runs")
    });
    let addr = addr_rx.recv_timeout(Duration::from_secs(30)).expect("exporter address");

    // First mid-stream sample: everything up to the 64 KB gate has been
    // fed and the reader is parked waiting on us.
    let r1 = poll_report(&addr, "bytes to flow", |v| merged_counter(v, "bytes_in") >= 64 << 10);
    let m1 = http_get(&addr, "/metrics").unwrap();
    assert_eq!(http_get(&addr, "/healthz").unwrap(), "ok\n");
    assert_eq!(http_get(&addr, "/readyz").unwrap(), "ready\n");

    // Open the gate; second sample lands strictly later in the stream.
    gate1_tx.send(()).unwrap();
    let r2 =
        poll_report(&addr, "more bytes to flow", |v| merged_counter(v, "bytes_in") >= 128 << 10);
    let m2 = http_get(&addr, "/metrics").unwrap();
    gate2_tx.send(()).unwrap();

    // Counters are monotonic between scrapes, in both JSON and
    // Prometheus views.
    for stat in ["bytes_in", "events_out"] {
        let (a, b) = (merged_counter(&r1, stat), merged_counter(&r2, stat));
        assert!(b > a, "{stat} not increasing mid-stream: {a} -> {b}");
        let id = format!("cfgtag_{stat}_total{{sink=\"engine\"}}");
        let (pa, pb) = (series(&m1, &id).unwrap(), series(&m2, &id).unwrap());
        assert!(pb >= pa, "{id} went backwards: {pa} -> {pb}");
        assert!(pa > 0.0, "{id} never moved");
    }

    // The decision-latency histogram is live: quantile gauges present
    // and the p99 is a positive number of nanoseconds.
    let p99 = series(&m2, "cfgtag_decision_latency_ns_quantile{quantile=\"0.99\"}")
        .expect("p99 decision latency exported");
    assert!(p99 > 0.0, "p99 = {p99}");
    assert!(m2.contains("# TYPE cfgtag_decision_latency_ns histogram"));

    // Serve metadata rides along in the snapshot.
    let tokens = r2.get("cfgtag_token_info").map(|f| &f.series);
    assert!(tokens.is_some_and(|t| !t.is_empty()), "token names missing");

    let outcome = worker.join().expect("serve thread");
    assert_eq!(outcome.code, 0);
    assert_eq!(outcome.bytes, total_bytes);
    assert!(outcome.events > 0);
}

#[test]
fn killed_input_dumps_a_full_flight_recorder() {
    // A healthy looping workload whose input simply stops mid-run (the
    // producer was killed): serve mode treats stream end as the
    // post-mortem condition, so the flight dump captures the final ring.
    let mut gen = WorkloadGenerator::new(23);
    let mut data = Vec::new();
    for _ in 0..60 {
        data.extend_from_slice(&gen.message(MessageKind::Honest).bytes);
        data.push(b'\n');
    }
    let reader = std::io::Cursor::new(data);
    let flags = ServeFlags {
        recover: true,
        chunk: 1024,
        flight_out: Some("dump.jsonl".into()),
        ..Default::default()
    };
    let outcome = run_serve(XMLRPC_GRAMMAR_TEXT, reader, &flags, &mut |_| {}).unwrap();
    assert_eq!(outcome.code, 0);

    let (path, dump) = outcome.flight_dump.expect("flight dump at stream end");
    assert_eq!(path, "dump.jsonl");
    let lines: Vec<&str> = dump.lines().collect();
    assert!(lines.len() >= 256, "flight dump too small: {} events", lines.len());
    assert!(dump.contains("\"kind\":\"token_fire\""), "no token_fire events in dump");
    // Every line is valid JSON with a sequence number.
    for l in &lines {
        let v = Json::parse(l).unwrap_or_else(|e| panic!("bad dump line {l:?}: {e}"));
        assert!(v.get("seq").and_then(Json::as_u64).is_some());
    }
}

#[test]
fn dead_stream_exits_3_with_dead_entry_in_the_dump() {
    // Bytes the XML-RPC grammar cannot start a message with; recovery
    // is off, so the machine dies and serve takes exit code 3.
    let mut data = Vec::new();
    let mut gen = WorkloadGenerator::new(5);
    data.extend_from_slice(&gen.message(MessageKind::Honest).bytes);
    data.extend_from_slice(&[b'\0'; 64]);
    let reader = std::io::Cursor::new(data);
    let flags =
        ServeFlags { chunk: 512, flight_out: Some("dead.jsonl".into()), ..Default::default() };
    let outcome = run_serve(XMLRPC_GRAMMAR_TEXT, reader, &flags, &mut |_| {}).unwrap();
    assert_eq!(outcome.code, 3, "dead stream without recovery must exit 3");
    let (_, dump) = outcome.flight_dump.expect("flight dump on death");
    assert!(dump.contains("\"kind\":\"dead_entry\""), "no dead_entry in dump:\n{dump}");
}
