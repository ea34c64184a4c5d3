//! # cfg-obs-http — the live telemetry exporter
//!
//! A dependency-free, blocking, single-threaded HTTP exporter over one
//! [`Registry`]: point a Prometheus scraper (or `curl`, or `cfgtag
//! watch`) at a long-running tagger and watch it work. The numbers all
//! come from one [`Registry::snapshot`]; this crate is HTTP plumbing.
//! Ten routes ([`ROUTES`]):
//!
//! * `GET /metrics` — the snapshot as Prometheus text: the service
//!   gauges, every counter per sink, per-token fires, probes, audit
//!   verdicts, SLO latencies by stage, shard gauges, and histograms with
//!   inclusive `le` buckets plus `_quantile` gauges.
//! * `GET /snapshot.json` — the same series as JSON, read back by
//!   [`cfg_obs::Snapshot::parse`] in every `cfgtag watch` view.
//! * `GET /healthz` — liveness: `200 ok` whenever the exporter thread
//!   is serving.
//! * `GET /readyz` — readiness: `200 ready` once the tagger is
//!   compiled ([`Registry::set_ready`]) and the stream is neither dead
//!   nor overloaded, `503` otherwise.
//! * `GET /circuit.json` — the named topology of the synthesized
//!   circuit ([`cfg_obs::Part::Circuit`]): decoders, tokenizer stages, FOLLOW
//!   enable edges, and the encoder, each carrying the stable probe id
//!   its `cfgtag_probe_total` series is labelled with.
//! * `GET /trigger?cond=token:go&pre=32&post=32` — arm an ILA-style
//!   capture ([`cfg_obs::TriggerHub`]); conditions are `token:<name>`,
//!   `edge:<from>-><to>`, or `dead`. The window is clamped to the
//!   flight ring's capacity and the reply echoes what was armed.
//! * `GET /capture.jsonl` — the captured pre/post trace window as
//!   JSON lines once the trigger has fired (`503` while pending,
//!   `404` with no trigger armed; `?flush=1` force-completes a
//!   partial post window).
//! * `GET /spans.jsonl` — recent retained frame spans (head-sampled
//!   plus always-on-slow) from the attached [`cfg_obs::SpanRecorder`],
//!   one JSON object per line with per-stage durations.
//! * `GET /timeseries.json` — the saturation snapshot ring dump
//!   (oldest first); an empty ring, or none attached, is `200` with an
//!   empty `samples` array, never an error.
//! * `GET /mismatches.jsonl` — the attached ring of divergence
//!   evidence ([`cfg_obs::Mismatch`]), one JSON object per divergence
//!   (byte window, offsets, both engines' event streams); empty body
//!   when auditing is off.
//!
//! The exporter runs on one `std::net::TcpListener` accept loop —
//! serving a scrape costs a snapshot of lock-free counters, so the
//! tagging hot path never blocks on the exporter (and pays nothing at
//! all between scrapes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cfg_obs::{json, Registry, TriggerHub};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every route the exporter serves; `/` lists exactly these.
pub const ROUTES: [&str; 10] = [
    "/metrics",
    "/snapshot.json",
    "/healthz",
    "/readyz",
    "/circuit.json",
    "/trigger",
    "/capture.jsonl",
    "/spans.jsonl",
    "/timeseries.json",
    "/mismatches.jsonl",
];

/// One rendered HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

/// Decode `%XX` escapes and `+` in one query-string component.
fn query_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 3 <= bytes.len()
                && raw.is_char_boundary(i + 1)
                && raw.is_char_boundary(i + 3) =>
            {
                match u8::from_str_radix(&raw[i + 1..i + 3], 16) {
                    Ok(b) => {
                        out.push(b);
                        i += 3;
                    }
                    Err(_) => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Pull one `key=value` pair out of a query string (decoded).
fn query_param(query: &str, key: &str) -> Option<String> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| query_decode(v))
}

/// A `text/plain` response.
fn text(status: u16, body: impl Into<String>) -> Response {
    Response { status, content_type: "text/plain", body: body.into() }
}

fn respond_trigger(query: &str, hub: Option<Arc<TriggerHub>>) -> Response {
    let Some(hub) = hub else { return text(404, "no trigger hub attached\n") };
    let Some(cond) = query_param(query, "cond") else {
        return text(400, "missing cond= (token:<name>, edge:<from>-><to>, dead)\n");
    };
    let pre = query_param(query, "pre").and_then(|v| v.parse().ok()).unwrap_or(32usize);
    let post = query_param(query, "post").and_then(|v| v.parse().ok()).unwrap_or(32usize);
    match hub.arm(&cond, pre, post) {
        Ok(trigger) => {
            let (pre, post) = trigger.window();
            let mut body = String::from("{\"armed\":");
            json::push_str(&mut body, &cond);
            body.push_str(&format!(",\"pre\":{pre},\"post\":{post}}}\n"));
            Response { status: 200, content_type: "application/json", body }
        }
        Err(e) => text(400, format!("{e}\n")),
    }
}

fn respond_capture(query: &str, hub: Option<Arc<TriggerHub>>) -> Response {
    let Some(hub) = hub else { return text(404, "no trigger hub attached\n") };
    if query_param(query, "flush").is_some() {
        hub.flush();
    }
    let Some(trigger) = hub.active() else { return text(404, "no trigger armed\n") };
    match trigger.capture_jsonl() {
        Some(jsonl) => Response { status: 200, content_type: "application/jsonl", body: jsonl },
        None if trigger.fired() => text(503, "capture in progress (post window filling)\n"),
        None => text(503, "armed, waiting for trigger\n"),
    }
}

/// Route one request path to its response — the pure core of the
/// exporter, also what the endpoint unit tests drive.
pub fn respond(path: &str, registry: &Registry) -> Response {
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    let parts = registry.parts();
    match path {
        "/metrics" => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: registry.snapshot().to_prometheus(),
        },
        "/snapshot.json" => Response {
            status: 200,
            content_type: "application/json",
            body: registry.snapshot().to_json(),
        },
        "/healthz" => text(200, "ok\n"),
        "/readyz" => match (registry.dead(), registry.ready(), registry.overloaded()) {
            (true, _, _) => text(503, "dead stream\n"),
            (false, false, _) => text(503, "not compiled\n"),
            (false, true, true) => text(503, "overloaded\n"),
            (false, true, false) => text(200, "ready\n"),
        },
        "/circuit.json" => match parts.circuit {
            Some(body) => {
                Response { status: 200, content_type: "application/json", body: body.to_string() }
            }
            None => text(404, "no circuit loaded\n"),
        },
        "/trigger" => respond_trigger(query, parts.trigger),
        "/capture.jsonl" => respond_capture(query, parts.trigger),
        "/spans.jsonl" => match parts.spans {
            Some(recorder) => Response {
                status: 200,
                content_type: "application/jsonl",
                body: recorder.spans_jsonl(),
            },
            None => text(404, "no span recorder attached (serve --listen with --trace-sample N)\n"),
        },
        // Saturation sampling being off is a normal serving
        // configuration, not an error a poller should retry.
        "/timeseries.json" => Response {
            status: 200,
            content_type: "application/json",
            body: match parts.timeseries {
                Some(series) => series.to_json(),
                None => "{\"interval_ms\":0,\"samples\":[]}\n".into(),
            },
        },
        "/mismatches.jsonl" => Response {
            status: 200,
            content_type: "application/jsonl",
            body: parts.mismatches.map(|r| r.dump_jsonl()).unwrap_or_default(),
        },
        "/" => {
            let mut body = String::from("{\"endpoints\":[");
            for (i, route) in ROUTES.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                json::push_str(&mut body, route);
            }
            body.push_str("],\"sinks\":[");
            for (i, name) in registry.names().iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                json::push_str(&mut body, name);
            }
            body.push_str("]}\n");
            Response { status: 200, content_type: "application/json", body }
        }
        _ => text(404, "not found\n"),
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// How long one request head may take to read, and one reply to write.
/// The exporter has one thread, so a peer that trickles its request or
/// stops reading a reply larger than the socket buffers must not hold it
/// longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The time left before `deadline`, or `TimedOut` once it has passed.
fn time_left(deadline: Instant) -> io::Result<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
        .ok_or_else(|| io::ErrorKind::TimedOut.into())
}

/// `write_all` against one deadline for the whole buffer. A socket
/// write timeout bounds each `write` call, and a call that moved some
/// bytes before it blocked returns them, so `write_all` restarts the
/// clock: a silent peer on Linux loopback took 3.9 MB in a first 2 s
/// call and 0.3 MB in a second, holding a 2 s-timeout `write_all` for
/// 6 s.
fn write_before(stream: &mut TcpStream, mut bytes: &[u8], deadline: Instant) -> io::Result<()> {
    while !bytes.is_empty() {
        stream.set_write_timeout(Some(time_left(deadline)?))?;
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read the request head (up to its blank line, at most 16 KiB; any
/// body is ignored, as every route is a GET) against one deadline for
/// the whole head. A read timeout bounds each `read` call, so a peer
/// that sends a byte at a time would otherwise restart the clock with
/// every byte. Whatever arrived by the deadline is the head.
fn read_head_before(stream: &mut TcpStream, deadline: Instant) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 16 * 1024 {
        let read = time_left(deadline)
            .and_then(|left| stream.set_read_timeout(Some(left)))
            .and_then(|()| stream.read(&mut chunk));
        match read {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    buf
}

fn serve_connection(stream: &mut TcpStream, registry: &Registry) {
    let buf = read_head_before(stream, Instant::now() + IO_TIMEOUT);
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or("/"));
    let response = if method == "GET" { respond(path, registry) } else { text(404, "GET only\n") };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len()
    );
    let deadline = Instant::now() + IO_TIMEOUT;
    let _ = write_before(stream, head.as_bytes(), deadline)
        .and_then(|()| write_before(stream, response.body.as_bytes(), deadline));
}

/// A running exporter: one background thread accepting connections
/// until [`Exporter::stop`] (or drop).
#[derive(Debug)]
pub struct Exporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Exporter {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving the registry on a background thread.
    pub fn bind<A: ToSocketAddrs>(addr: A, registry: Arc<Registry>) -> std::io::Result<Exporter> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cfgtag-exporter".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(mut stream) = conn {
                        serve_connection(&mut stream, &registry);
                    }
                }
            })
            .expect("spawn exporter thread");
        Ok(Exporter { addr, stop, handle: Some(handle) })
    }

    /// The bound address (with the real port when an ephemeral one was
    /// requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the exporter thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Unblock the accept loop with one throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Blocking HTTP GET against `addr` (e.g. `"127.0.0.1:9100"`),
/// returning the response body. The client half of the exporter,
/// shared by `cfgtag watch` and the integration tests; speaks just
/// enough HTTP/1.1 for our own server and any reasonable peer.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    http_get_status(addr, path).map(|(_, body)| body)
}

/// Like [`http_get`] but also returns the HTTP status code — for
/// endpoints where the status carries state (`/capture.jsonl` answers
/// `503` while a capture is pending).
pub fn http_get_status(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    match raw.split_once("\r\n\r\n") {
        Some((head, body)) => {
            let status =
                head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "no HTTP status")
                })?;
            Ok((status, body.to_string()))
        }
        None => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "no HTTP header split")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfg_obs::{
        AuditBank, CompileReport, EventRing, Family, FlightRecorder, Kind, MetricsSink, Mismatch,
        Part, ProbeBank, ShardLoadBank, SloTracker, Snapshot, SpanRecorder, Stage, Stat, StatsSink,
        TickSnapshot, TimeSeries, TraceEvent,
    };
    use std::collections::BTreeMap;

    fn registry_with_traffic() -> Registry {
        let reg = Registry::new();
        let engine = Arc::new(StatsSink::with_tokens(3));
        engine.add(Stat::BytesIn, 1000);
        engine.token_fire(2, 5);
        engine.observe("decision_latency_ns", 700);
        engine.observe("decision_latency_ns", 90);
        reg.register("engine", engine);
        reg
    }

    /// Unescape one Prometheus label value.
    fn unescape(v: &str) -> String {
        let mut out = String::new();
        let mut chars = v.chars();
        while let Some(c) = chars.next() {
            match (c, c == '\\') {
                (_, true) => match chars.next() {
                    Some('n') => out.push('\n'),
                    Some(other) => out.push(other),
                    None => {}
                },
                (c, false) => out.push(c),
            }
        }
        out
    }

    /// Every sample line of a `/metrics` body as `(name, labels) -> value`.
    fn parse_metrics(body: &str) -> BTreeMap<(String, Vec<(String, String)>), f64> {
        let mut series = BTreeMap::new();
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            let (id, value) = line.rsplit_once(' ').unwrap();
            let (name, labels) = match id.split_once('{') {
                Some((name, rest)) => (name, rest.strip_suffix('}').unwrap()),
                None => (id, ""),
            };
            let mut pairs = Vec::new();
            let mut rest = labels;
            while let Some((key, tail)) = rest.split_once("=\"") {
                // The value ends at the first quote no backslash escapes.
                let bytes = tail.as_bytes();
                let mut end = 0;
                while bytes[end] != b'"' {
                    end += if bytes[end] == b'\\' { 2 } else { 1 };
                }
                pairs.push((key.trim_start_matches(',').to_owned(), unescape(&tail[..end])));
                rest = &tail[end + 1..];
            }
            let key = (name.to_owned(), pairs);
            assert!(series.insert(key, value.parse().unwrap()).is_none(), "duplicate {line}");
        }
        series
    }

    #[test]
    fn every_part_renders_the_same_series_in_metrics_and_snapshot_json() {
        let reg = registry_with_traffic();
        let router = Arc::new(StatsSink::new());
        router.add(Stat::RouteBank, 3);
        router.time("compile_total", 12_345);
        reg.register("router", router);
        reg.set_ready(true);
        let names: Vec<String> = vec!["num".into(), "str".into(), "a\"b\\c\nd".into()];
        reg.attach(Part::Tokens(names.clone()));
        let mut report = CompileReport::default();
        report.stage("grammar_parse", 1_000);
        report.count("tokens", 3);
        reg.attach(Part::Compile(report));
        reg.attach(Part::Circuit("{\"decoders\":[]}".into()));
        let probes = Arc::new(ProbeBank::new(vec!["dec/[\\t-\\r ]".into(), "tok/go/fire".into()]));
        probes.hit(0, 7);
        reg.attach(Part::Probes(probes));
        let flight = Arc::new(FlightRecorder::new(8));
        reg.attach(Part::Trigger(Arc::new(TriggerHub::new(names.clone(), flight))));
        let slo = Arc::new(SloTracker::new(1_000, 0.99));
        let spans = Arc::new(SpanRecorder::new(4, 1, 0));
        for total in [128u64, 900, 4_096] {
            let mut span = spans.begin();
            span.stamp_at(Stage::QueueWait, total / 2);
            span.stamp_at(Stage::AckWrite, total);
            slo.observe(&span);
            spans.record(&span);
        }
        reg.attach(Part::Slo(slo));
        reg.attach(Part::Spans(spans));
        let bank = Arc::new(ShardLoadBank::new(2));
        let series = Arc::new(TimeSeries::new(Arc::clone(&bank), 8, Duration::from_millis(50)));
        bank.arrive(0);
        series.push(TickSnapshot { t_ns: 0, shards: bank.sample() });
        bank.record_work(0, 25_000_000, true);
        series.push(TickSnapshot { t_ns: 100_000_000, shards: bank.sample() });
        reg.attach(Part::TimeSeries(series));
        let audit = Arc::new(AuditBank::new(3));
        audit.fires(4, 3);
        audit.false_positive(2);
        reg.attach(Part::Audit(audit));
        reg.attach(Part::Mismatches(Arc::new(EventRing::new(4))));

        let metrics = parse_metrics(&respond("/metrics", &reg).body);
        let snap = Snapshot::parse(&respond("/snapshot.json", &reg).body).unwrap();
        let from_json: BTreeMap<_, _> = snap
            .families
            .iter()
            .flat_map(Family::groups)
            .flat_map(|g| g.samples)
            .map(|s| ((s.name, s.labels), s.value))
            .collect();
        for (key, value) in &from_json {
            assert_eq!(
                metrics.get(key),
                Some(value),
                "/snapshot.json series {key:?} not in /metrics"
            );
        }
        for (key, value) in &metrics {
            assert_eq!(
                from_json.get(key),
                Some(value),
                "/metrics series {key:?} not in /snapshot.json"
            );
        }
        // Every attached bank contributed its families.
        for family in [
            "cfgtag_token_fires_total",
            "cfgtag_token_info",
            "cfgtag_compile_stage_ns",
            "cfgtag_compile_count",
            "cfgtag_probe_total",
            "cfgtag_audit_false_positives_total",
            "cfgtag_audit_precision_pct",
            "cfgtag_slo_frames_total",
            "cfgtag_srv_span_ns",
            "cfgtag_srv_stage_ns",
            "cfgtag_shard_utilization_pct",
            "cfgtag_shard_predicted_wait_ns",
            "cfgtag_decision_latency_ns",
            "cfgtag_compile_total",
        ] {
            assert!(snap.get(family).is_some_and(|f| !f.series.is_empty()), "{family} missing");
        }
        assert_eq!(snap.get("cfgtag_srv_stage_ns").unwrap().kind, Kind::Histogram);
        assert_eq!(snap.value("cfgtag_probe_total", &[("probe", "tok/go/fire")]), Some(0.0));
        assert_eq!(snap.value("cfgtag_token_info", &[("token", "2")]), Some(1.0));
        assert_eq!(
            snap.value("cfgtag_token_fires_total", &[("token", "2")]).map(|v| v as u64),
            Some(5)
        );
        assert!(metrics.contains_key(&(
            "cfgtag_token_fires_total".to_owned(),
            vec![
                ("sink".to_owned(), "engine".to_owned()),
                ("token".to_owned(), "2".to_owned()),
                ("name".to_owned(), "a\"b\\c\nd".to_owned()),
            ]
        )));
    }

    #[test]
    fn histogram_le_buckets_are_inclusive() {
        let reg = Registry::new();
        let sink = Arc::new(StatsSink::new());
        let observed = [1u64, 2, 15, 16, 100, 127, 128, 255, 256, 1_000, 1_024, 65_536];
        for v in observed {
            sink.observe("lat", v);
        }
        reg.register("engine", sink);
        let body = respond("/metrics", &reg).body;
        let buckets: Vec<(u64, u64)> = body
            .lines()
            .filter_map(|l| l.strip_prefix("cfgtag_lat_bucket{le=\""))
            .filter_map(|l| {
                let (le, count) = l.split_once("\"} ")?;
                Some((le.parse().ok()?, count.parse().ok()?))
            })
            .collect();
        assert!(buckets.len() >= observed.len(), "{body}");
        for v in observed {
            let at_or_below = observed.iter().filter(|&&o| o <= v).count() as u64;
            let (le, count) = buckets.iter().find(|(le, _)| *le >= v).unwrap();
            assert!(*count >= at_or_below, "le={le} leaves out the observed {v}:\n{body}");
            if let Some((le, count)) = buckets.iter().rev().find(|(le, _)| *le < v) {
                assert!(*count < at_or_below, "le={le} counts the observed {v}:\n{body}");
            }
        }
        let quantile = |q: &str| {
            let id = format!("cfgtag_lat_quantile{{quantile=\"{q}\"}} ");
            body.lines().find_map(|l| l.strip_prefix(id.as_str())?.parse::<f64>().ok()).unwrap()
        };
        assert_eq!(quantile("1"), 65_536.0);
        // Log-linear buckets: the median of the twelve is within ~6%.
        assert!((quantile("0.5") - 127.0).abs() / 127.0 < 0.07, "{body}");
    }

    #[test]
    fn readyz_tracks_ready_dead_and_overloaded() {
        let reg = Registry::new();
        assert_eq!(respond("/readyz", &reg).status, 503);
        reg.set_ready(true);
        assert_eq!(respond("/readyz", &reg).status, 200);
        reg.set_dead(true);
        let r = respond("/readyz", &reg);
        assert_eq!(r.status, 503);
        assert!(r.body.contains("dead"));
        assert_eq!(respond("/healthz", &reg).status, 200);
        reg.set_dead(false);
        reg.set_overloaded(true);
        let r = respond("/readyz", &reg);
        assert_eq!(r.status, 503);
        assert!(r.body.contains("overloaded"));
        assert!(respond("/metrics", &reg).body.contains("cfgtag_overloaded 1\n"));
        reg.set_overloaded(false);
        assert_eq!(respond("/readyz", &reg).status, 200);
        assert!(respond("/metrics", &reg).body.contains("cfgtag_overloaded 0\n"));
        assert_eq!(respond("/metrics?x=1", &reg).status, 200);
    }

    #[test]
    fn index_lists_exactly_the_routes_and_each_is_routed() {
        let reg = registry_with_traffic();
        let v = json::Json::parse(&respond("/", &reg).body).unwrap();
        let listed: Vec<&str> = v
            .get("endpoints")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|p| p.as_str())
            .collect();
        assert_eq!(listed, ROUTES);
        assert_eq!(v.get("sinks").unwrap().as_array().unwrap()[0].as_str(), Some("engine"));
        let unknown = respond("/no-such-route", &reg);
        assert_eq!((unknown.status, unknown.body.as_str()), (404, "not found\n"));
        for path in ROUTES {
            assert_ne!(respond(path, &reg).body, unknown.body, "the index lists {path}, unrouted");
        }
        for gone in ["/report.json", "/slo.json", "/shards.json", "/audit.json", "/probes.json"] {
            assert_eq!(respond(gone, &reg), unknown, "{gone} is still routed");
        }
    }

    #[test]
    fn circuit_and_span_endpoints() {
        let reg = Registry::new();
        assert_eq!(respond("/circuit.json", &reg).status, 404);
        assert_eq!(respond("/spans.jsonl", &reg).status, 404);
        reg.attach(Part::Circuit("{\"decoders\":[]}".into()));
        let recorder = Arc::new(SpanRecorder::new(16, 1, 0));
        let mut span = recorder.begin();
        span.stamp_at(Stage::QueueWait, 400);
        span.stamp_at(Stage::AckWrite, 900);
        recorder.record(&span);
        reg.attach(Part::Spans(recorder));
        let c = respond("/circuit.json", &reg);
        assert_eq!(
            (c.status, c.content_type, c.body.as_str()),
            (200, "application/json", "{\"decoders\":[]}")
        );
        let spans = respond("/spans.jsonl", &reg);
        assert_eq!((spans.status, spans.content_type), (200, "application/jsonl"));
        let line = json::Json::parse(spans.body.lines().next().unwrap()).unwrap();
        assert_eq!(line.get("total_ns").unwrap().as_u64(), Some(900));
    }

    #[test]
    fn off_parts_answer_200_with_empty_bodies_and_stay_dark() {
        let reg = Registry::new();
        let series = respond("/timeseries.json", &reg);
        assert_eq!(
            (series.status, series.body.as_str()),
            (200, "{\"interval_ms\":0,\"samples\":[]}\n")
        );
        let dump = respond("/mismatches.jsonl", &reg);
        assert_eq!(
            (dump.status, dump.content_type, dump.body.as_str()),
            (200, "application/jsonl", "")
        );
        let metrics = respond("/metrics", &reg).body;
        for dark in ["cfgtag_audit_", "cfgtag_shard_", "cfgtag_slo_", "cfgtag_probe_"] {
            assert!(!metrics.contains(dark), "{dark} rendered while off:\n{metrics}");
        }

        let ring = Arc::new(EventRing::new(4));
        ring.push(Mismatch {
            session: 7,
            frame: 0,
            window_start: 0,
            window: b"<x>".to_vec(),
            fast: vec![],
            reference: vec![],
        });
        reg.attach(Part::Mismatches(ring));
        let bank = Arc::new(ShardLoadBank::new(2));
        let ts = Arc::new(TimeSeries::new(Arc::clone(&bank), 8, Duration::from_millis(50)));
        reg.attach(Part::TimeSeries(Arc::clone(&ts)));
        let empty = json::Json::parse(&respond("/timeseries.json", &reg).body).unwrap();
        assert_eq!(empty.get("samples").unwrap().as_array().unwrap().len(), 0);
        assert_eq!(empty.get("interval_ms").unwrap().as_u64(), Some(50));
        let line = respond("/mismatches.jsonl", &reg).body;
        assert_eq!(
            json::Json::parse(line.trim_end()).unwrap().get("session").unwrap().as_u64(),
            Some(7)
        );
    }

    #[test]
    fn trigger_arm_and_capture_flow() {
        let reg = Registry::new();
        assert_eq!(respond("/trigger?cond=dead", &reg).status, 404);
        assert_eq!(respond("/capture.jsonl", &reg).status, 404);

        let flight = Arc::new(FlightRecorder::new(64));
        let hub = Arc::new(TriggerHub::new(vec!["if".into(), "go".into()], flight));
        reg.attach(Part::Trigger(Arc::clone(&hub)));
        assert_eq!(respond("/capture.jsonl", &reg).status, 404);
        assert_eq!(respond("/trigger", &reg).status, 400);
        let bad = respond("/trigger?cond=token:nope", &reg);
        assert_eq!(bad.status, 400);
        assert!(bad.body.contains("nope"));
        // A hostile window is clamped to the ring, and the reply says so.
        let huge = respond(
            "/trigger?cond=token:go&pre=18446744073709551615&post=18446744073709551615",
            &reg,
        );
        assert_eq!(huge.status, 200);
        assert!(huge.body.contains("\"pre\":64,\"post\":64"), "{}", huge.body);

        let armed = respond("/trigger?cond=token:go&pre=1&post=1", &reg);
        assert_eq!(armed.status, 200);
        assert!(armed.body.contains("\"armed\":\"token:go\""));
        assert_eq!(respond("/capture.jsonl", &reg).status, 503);

        hub.trace(TraceEvent::new("token_fire").field("token", 0u32));
        hub.trace(TraceEvent::new("token_fire").field("token", 1u32));
        assert_eq!(respond("/capture.jsonl", &reg).status, 503);
        // Force-complete the half-filled post window.
        let cap = respond("/capture.jsonl?flush=1", &reg);
        assert_eq!(cap.status, 200);
        let lines: Vec<&str> = cap.body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"token\":1"));
    }

    #[test]
    fn query_decoding() {
        assert_eq!(query_decode("token%3Ago"), "token:go");
        assert_eq!(query_decode("edge:if-%3Etrue"), "edge:if->true");
        assert_eq!(query_decode("a+b%zz"), "a b%zz");
        assert_eq!(query_param("cond=dead&pre=4", "pre").as_deref(), Some("4"));
        assert_eq!(query_param("cond=dead", "post"), None);
    }
}
