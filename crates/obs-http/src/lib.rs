//! # cfg-obs-http — the live telemetry exporter
//!
//! A dependency-free, blocking, single-threaded HTTP exporter over a
//! [`SharedRegistry`]: point a Prometheus scraper (or `curl`, or
//! `cfgtag watch`) at a long-running tagger and watch it work.
//! Endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition format: every
//!   [`Stat`] counter per registered sink, per-token fire counters,
//!   histograms with power-of-two `le` buckets plus p50/p90/p99
//!   quantile gauges, and service gauges (`cfgtag_ready`,
//!   `cfgtag_dead`, `cfgtag_sinks`).
//! * `GET /healthz` — liveness: `200 ok` whenever the exporter thread
//!   is serving.
//! * `GET /readyz` — readiness: `200 ready` once the tagger is
//!   compiled ([`ServiceState::set_ready`]) and the stream has not
//!   entered the dead state, `503` otherwise.
//! * `GET /report.json` — the merged [`RegistrySnapshot`] plus the
//!   service metadata (compile report, token names) as one JSON object.
//! * `GET /circuit.json` — the named topology of the synthesized
//!   circuit ([`ServiceState::set_circuit_json`]): decoders, tokenizer
//!   stages, FOLLOW enable edges, and the encoder, each carrying a
//!   stable probe id.
//! * `GET /probes.json` — live per-element activity from the attached
//!   [`cfg_obs::ProbeBank`]; probe order matches `/circuit.json` 1:1.
//! * `GET /trigger?cond=token:go&pre=32&post=32` — arm an ILA-style
//!   capture ([`cfg_obs::TriggerHub`]); conditions are `token:<name>`,
//!   `edge:<from>-><to>`, or `dead`. The window is clamped to the
//!   flight ring's capacity and the reply echoes what was armed.
//! * `GET /capture.jsonl` — the captured pre/post trace window as
//!   JSON lines once the trigger has fired (`503` while pending,
//!   `404` with no trigger armed; `?flush=1` force-completes a
//!   partial post window).
//! * `GET /slo.json` — the attached [`cfg_obs::SloTracker`] snapshot:
//!   end-to-end and per-stage latency quantiles (p50/p90/p99/p99.9)
//!   plus error-budget accounting against the latency objective.
//! * `GET /spans.jsonl` — recent retained frame spans (head-sampled
//!   plus always-on-slow) from the attached [`cfg_obs::SpanRecorder`],
//!   one JSON object per line with per-stage durations.
//! * `GET /shards.json` — current per-shard saturation gauges from the
//!   attached [`cfg_obs::TimeSeries`]: queue depth, utilization %,
//!   arrival/completion rates, and the Little's-law predicted queue
//!   wait. Answers `200` with an empty shard list when sampling is off.
//! * `GET /timeseries.json` — the saturation snapshot ring dump
//!   (oldest first); an empty ring is `200` with an empty `samples`
//!   array, never an error.
//! * `GET /audit.json` — live shadow-audit correctness counters from
//!   the attached [`cfg_obs::AuditBank`]: sessions sampled/audited/
//!   shed, fires confirmed by the exact parser, precision %, per-token
//!   false positives, and cross-engine divergences. Answers `200` with
//!   `{"enabled":false}` when auditing is off.
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

use cfg_obs::{
    json, AuditBank, EventRing, Mismatch, ProbeBank, RegistrySnapshot, SharedRegistry, SloTracker,
    SpanRecorder, Stat, TimeSeries, TriggerHub,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared service-level state the endpoints report: readiness, the
/// dead-stream flag, and pre-encoded metadata (compile report, token
/// names) for `/report.json`.
#[derive(Debug, Default)]
pub struct ServiceState {
    ready: AtomicBool,
    dead: AtomicBool,
    overloaded: AtomicBool,
    meta_json: Mutex<Option<String>>,
    circuit_json: Mutex<Option<String>>,
    probe_bank: Mutex<Option<Arc<ProbeBank>>>,
    trigger_hub: Mutex<Option<Arc<TriggerHub>>>,
    token_names: Mutex<Vec<String>>,
    slo_tracker: Mutex<Option<Arc<SloTracker>>>,
    span_recorder: Mutex<Option<Arc<SpanRecorder>>>,
    timeseries: Mutex<Option<Arc<TimeSeries>>>,
    audit_bank: Mutex<Option<Arc<AuditBank>>>,
    mismatch_ring: Mutex<Option<Arc<EventRing<Mismatch>>>>,
}

impl ServiceState {
    /// Fresh state: not ready, not dead, no metadata.
    pub fn new() -> ServiceState {
        ServiceState::default()
    }

    /// Mark the tagger compiled (readiness gate).
    pub fn set_ready(&self, ready: bool) {
        self.ready.store(ready, Ordering::Relaxed);
    }

    /// Record whether the stream is in the dead state. A dead stream
    /// drops `/readyz` to 503 so an orchestrator can recycle the
    /// process.
    pub fn set_dead(&self, dead: bool) {
        self.dead.store(dead, Ordering::Relaxed);
    }

    /// Record whether the serving layer is currently shedding load
    /// (e.g. the ingest server's shard queues are full). An overloaded
    /// service drops `/readyz` to 503 so load balancers stop routing
    /// new sessions to it, without marking the process unhealthy.
    pub fn set_overloaded(&self, overloaded: bool) {
        self.overloaded.store(overloaded, Ordering::Relaxed);
    }

    /// Whether [`ServiceState::set_ready`] has been called with `true`.
    pub fn ready(&self) -> bool {
        self.ready.load(Ordering::Relaxed)
    }

    /// Whether the stream was marked dead.
    pub fn dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Whether the serving layer reported itself shedding load.
    pub fn overloaded(&self) -> bool {
        self.overloaded.load(Ordering::Relaxed)
    }

    /// Install pre-encoded JSON metadata (must be one valid JSON value,
    /// e.g. `{"compile":{...},"tokens":[...]}`) surfaced verbatim under
    /// the `"meta"` key of `/report.json`.
    pub fn set_meta_json(&self, meta: String) {
        *self.meta_json.lock().unwrap() = Some(meta);
    }

    fn meta_json(&self) -> String {
        self.meta_json.lock().unwrap().clone().unwrap_or_else(|| "{}".to_string())
    }

    /// Install the pre-encoded circuit topology served at
    /// `/circuit.json` (one valid JSON value; probe ids must match the
    /// attached probe bank's order).
    pub fn set_circuit_json(&self, circuit: String) {
        *self.circuit_json.lock().unwrap() = Some(circuit);
    }

    /// Attach the live probe bank served at `/probes.json`.
    pub fn set_probe_bank(&self, bank: Arc<ProbeBank>) {
        *self.probe_bank.lock().unwrap() = Some(bank);
    }

    /// Attach the trigger hub behind `/trigger` and `/capture.jsonl`.
    pub fn set_trigger_hub(&self, hub: Arc<TriggerHub>) {
        *self.trigger_hub.lock().unwrap() = Some(hub);
    }

    /// Install token names: `/metrics` labels per-token fire counters
    /// with `name="..."` (escaped — names are user grammar text).
    pub fn set_token_names(&self, names: Vec<String>) {
        *self.token_names.lock().unwrap() = names;
    }

    /// Attach the SLO tracker served at `/slo.json` (the ingest server
    /// does this when tracing is configured).
    pub fn set_slo_tracker(&self, tracker: Arc<SloTracker>) {
        *self.slo_tracker.lock().unwrap() = Some(tracker);
    }

    /// Attach the span recorder served at `/spans.jsonl`.
    pub fn set_span_recorder(&self, recorder: Arc<SpanRecorder>) {
        *self.span_recorder.lock().unwrap() = Some(recorder);
    }

    /// Attach the saturation time series served at `/timeseries.json`
    /// and `/shards.json` (the ingest server does this when sampling
    /// is enabled). Unattached, both endpoints still answer `200` with
    /// empty data — saturation telemetry being off is not an error.
    pub fn set_timeseries(&self, series: Arc<TimeSeries>) {
        *self.timeseries.lock().unwrap() = Some(series);
    }

    /// Attach the shadow-audit counters served at `/audit.json` and as
    /// `cfgtag_audit_*` rows in `/metrics` (the ingest server does this
    /// when auditing is configured). Unattached, `/audit.json` answers
    /// `200` with `{"enabled":false}` and `/metrics` stays audit-dark.
    pub fn set_audit_bank(&self, bank: Arc<AuditBank>) {
        *self.audit_bank.lock().unwrap() = Some(bank);
    }

    /// Attach the divergence evidence ring served at
    /// `/mismatches.jsonl`.
    pub fn set_mismatch_ring(&self, ring: Arc<EventRing<Mismatch>>) {
        *self.mismatch_ring.lock().unwrap() = Some(ring);
    }

    fn circuit_json(&self) -> Option<String> {
        self.circuit_json.lock().unwrap().clone()
    }

    fn slo_tracker(&self) -> Option<Arc<SloTracker>> {
        self.slo_tracker.lock().unwrap().clone()
    }

    fn span_recorder(&self) -> Option<Arc<SpanRecorder>> {
        self.span_recorder.lock().unwrap().clone()
    }

    fn timeseries(&self) -> Option<Arc<TimeSeries>> {
        self.timeseries.lock().unwrap().clone()
    }

    fn probe_bank(&self) -> Option<Arc<ProbeBank>> {
        self.probe_bank.lock().unwrap().clone()
    }

    fn audit_bank(&self) -> Option<Arc<AuditBank>> {
        self.audit_bank.lock().unwrap().clone()
    }

    fn mismatch_ring(&self) -> Option<Arc<EventRing<Mismatch>>> {
        self.mismatch_ring.lock().unwrap().clone()
    }

    fn trigger_hub(&self) -> Option<Arc<TriggerHub>> {
        self.trigger_hub.lock().unwrap().clone()
    }

    fn token_names(&self) -> Vec<String> {
        self.token_names.lock().unwrap().clone()
    }
}

/// Sanitize a histogram/label name into a Prometheus metric-name chunk.
fn metric_chunk(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Escape a label value per the Prometheus text format.
fn label_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a [`RegistrySnapshot`] + [`ServiceState`] in the Prometheus
/// text exposition format (version 0.0.4).
pub fn render_prometheus(snap: &RegistrySnapshot, state: &ServiceState) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);

    let _ = writeln!(out, "# HELP cfgtag_ready Tagger compiled and stream not dead.");
    let _ = writeln!(out, "# TYPE cfgtag_ready gauge");
    let _ = writeln!(out, "cfgtag_ready {}", u8::from(state.ready() && !state.dead()));
    let _ = writeln!(out, "# HELP cfgtag_dead Stream has entered the dead state.");
    let _ = writeln!(out, "# TYPE cfgtag_dead gauge");
    let _ = writeln!(out, "cfgtag_dead {}", u8::from(state.dead()));
    let _ = writeln!(out, "# HELP cfgtag_overloaded Serving layer is currently shedding load.");
    let _ = writeln!(out, "# TYPE cfgtag_overloaded gauge");
    let _ = writeln!(out, "cfgtag_overloaded {}", u8::from(state.overloaded()));
    let _ = writeln!(out, "# HELP cfgtag_sinks Registered stats sinks.");
    let _ = writeln!(out, "# TYPE cfgtag_sinks gauge");
    let _ = writeln!(out, "cfgtag_sinks {}", snap.parts.len());

    // Counters: one series per (stat, sink); the merged value is the
    // sum over sinks, which Prometheus computes itself.
    for stat in Stat::ALL {
        let name = format!("cfgtag_{}_total", stat.name());
        let _ = writeln!(out, "# TYPE {name} counter");
        for (sink, part) in &snap.parts {
            let _ =
                writeln!(out, "{name}{{sink=\"{}\"}} {}", label_escape(sink), part.counter(stat));
        }
    }

    // Per-token fire counters, labelled by token index — and by name
    // when the service knows them. Token names come straight out of the
    // user's grammar (quoted literals may hold anything), so the name
    // label always passes through `label_escape`.
    let names = state.token_names();
    let _ = writeln!(out, "# TYPE cfgtag_token_fires_total counter");
    for (sink, part) in &snap.parts {
        for (index, fires) in part.token_fires.iter().enumerate() {
            if *fires > 0 {
                let name_label = match names.get(index) {
                    Some(name) => format!(",name=\"{}\"", label_escape(name)),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "cfgtag_token_fires_total{{sink=\"{}\",token=\"{index}\"{name_label}}} {fires}",
                    label_escape(sink)
                );
            }
        }
    }

    // Circuit-element probes, labelled by probe id. Ids embed class
    // descriptions (`dec/[\t-\r ]`) and token names — escape always.
    if let Some(bank) = state.probe_bank() {
        let _ = writeln!(out, "# TYPE cfgtag_probe_total counter");
        for (i, id) in bank.ids().iter().enumerate() {
            let count = bank.count(i as u32);
            if count > 0 {
                let _ =
                    writeln!(out, "cfgtag_probe_total{{probe=\"{}\"}} {count}", label_escape(id));
            }
        }
    }

    // Shadow-audit counters, present only while an audit bank is
    // attached — `/metrics` is audit-dark otherwise.
    if let Some(bank) = state.audit_bank() {
        let _ =
            writeln!(out, "# HELP cfgtag_audit_sessions_total Sessions seen by the audit lane.");
        let _ = writeln!(out, "# TYPE cfgtag_audit_sessions_total counter");
        for (outcome, count) in [
            ("sampled", bank.sessions_sampled()),
            ("audited", bank.sessions_audited()),
            ("shed", bank.sessions_shed()),
        ] {
            let _ = writeln!(out, "cfgtag_audit_sessions_total{{outcome=\"{outcome}\"}} {count}");
        }
        let _ = writeln!(out, "# TYPE cfgtag_audit_frames_total counter");
        let _ = writeln!(out, "cfgtag_audit_frames_total {}", bank.frames_audited());
        let _ = writeln!(out, "# TYPE cfgtag_audit_bytes_total counter");
        let _ = writeln!(out, "cfgtag_audit_bytes_total {}", bank.bytes_audited());
        let _ = writeln!(out, "# HELP cfgtag_audit_fires_total Token fires replayed, by verdict.");
        let _ = writeln!(out, "# TYPE cfgtag_audit_fires_total counter");
        let _ = writeln!(out, "cfgtag_audit_fires_total{{verdict=\"all\"}} {}", bank.fires_total());
        let _ = writeln!(
            out,
            "cfgtag_audit_fires_total{{verdict=\"confirmed\"}} {}",
            bank.fires_confirmed()
        );
        let _ = writeln!(
            out,
            "# HELP cfgtag_audit_false_positives_total Fires the exact parser did not confirm."
        );
        let _ = writeln!(out, "# TYPE cfgtag_audit_false_positives_total counter");
        for index in 0..bank.token_count() {
            let count = bank.false_positives(index as u32);
            if count > 0 {
                let name_label = match names.get(index) {
                    Some(name) => format!(",name=\"{}\"", label_escape(name)),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "cfgtag_audit_false_positives_total{{token=\"{index}\"{name_label}}} {count}"
                );
            }
        }
        let _ = writeln!(out, "# HELP cfgtag_audit_divergences_total Cross-engine divergences.");
        let _ = writeln!(out, "# TYPE cfgtag_audit_divergences_total counter");
        let _ = writeln!(out, "cfgtag_audit_divergences_total {}", bank.divergences());
        if let Some(precision) = bank.precision_pct() {
            let _ = writeln!(out, "# TYPE cfgtag_audit_precision_pct gauge");
            let _ = writeln!(out, "cfgtag_audit_precision_pct {precision:.3}");
        }
    }

    // Histograms: merged across sinks, power-of-two buckets rendered as
    // cumulative `le` series, plus p50/p90/p99 estimate gauges.
    for (hname, hist) in &snap.merged.histograms {
        let base = format!("cfgtag_{}", metric_chunk(hname));
        let _ = writeln!(out, "# TYPE {base} histogram");
        let mut cumulative = 0u64;
        for (i, b) in hist.buckets.iter().enumerate() {
            if *b == 0 {
                continue;
            }
            cumulative += *b;
            let le: u128 = 1u128 << (i + 1);
            let _ = writeln!(out, "{base}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{base}_sum {}", hist.sum);
        let _ = writeln!(out, "{base}_count {}", hist.count);
        let _ = writeln!(out, "# TYPE {base}_quantile gauge");
        for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let _ = writeln!(out, "{base}_quantile{{quantile=\"{tag}\"}} {:.3}", hist.quantile(q));
        }
    }
    out
}

/// Render the `/report.json` body.
pub fn render_report(snap: &RegistrySnapshot, state: &ServiceState) -> String {
    let mut out = String::from("{\"ready\":");
    out.push_str(if state.ready() && !state.dead() { "true" } else { "false" });
    out.push_str(",\"dead\":");
    out.push_str(if state.dead() { "true" } else { "false" });
    out.push_str(",\"overloaded\":");
    out.push_str(if state.overloaded() { "true" } else { "false" });
    out.push_str(",\"meta\":");
    out.push_str(&state.meta_json());
    out.push_str(",\"stats\":");
    out.push_str(&snap.to_json());
    out.push_str("}\n");
    out
}

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

fn respond_trigger(query: &str, state: &ServiceState) -> Response {
    let Some(hub) = state.trigger_hub() else {
        return Response {
            status: 404,
            content_type: "text/plain",
            body: "no trigger hub attached\n".into(),
        };
    };
    let Some(cond) = query_param(query, "cond") else {
        return Response {
            status: 400,
            content_type: "text/plain",
            body: "missing cond= (token:<name>, edge:<from>-><to>, dead)\n".into(),
        };
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
        Err(e) => Response { status: 400, content_type: "text/plain", body: format!("{e}\n") },
    }
}

fn respond_capture(query: &str, state: &ServiceState) -> Response {
    let Some(hub) = state.trigger_hub() else {
        return Response {
            status: 404,
            content_type: "text/plain",
            body: "no trigger hub attached\n".into(),
        };
    };
    if query_param(query, "flush").is_some() {
        hub.flush();
    }
    let Some(trigger) = hub.active() else {
        return Response {
            status: 404,
            content_type: "text/plain",
            body: "no trigger armed\n".into(),
        };
    };
    match trigger.capture_jsonl() {
        Some(jsonl) => Response { status: 200, content_type: "application/jsonl", body: jsonl },
        None => Response {
            status: 503,
            content_type: "text/plain",
            body: if trigger.fired() {
                "capture in progress (post window filling)\n".into()
            } else {
                "armed, waiting for trigger\n".into()
            },
        },
    }
}

/// Route one request path to its response — the pure core of the
/// exporter, also what the endpoint unit tests drive.
pub fn respond(path: &str, registry: &SharedRegistry, state: &ServiceState) -> Response {
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    match path {
        "/metrics" => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: render_prometheus(&registry.snapshot(), state),
        },
        "/healthz" => Response { status: 200, content_type: "text/plain", body: "ok\n".into() },
        "/readyz" => {
            if state.ready() && !state.dead() && !state.overloaded() {
                Response { status: 200, content_type: "text/plain", body: "ready\n".into() }
            } else {
                let why = if state.dead() {
                    "dead stream"
                } else if !state.ready() {
                    "not compiled"
                } else {
                    "overloaded"
                };
                Response { status: 503, content_type: "text/plain", body: format!("{why}\n") }
            }
        }
        "/report.json" => Response {
            status: 200,
            content_type: "application/json",
            body: render_report(&registry.snapshot(), state),
        },
        "/circuit.json" => match state.circuit_json() {
            Some(body) => Response { status: 200, content_type: "application/json", body },
            None => Response {
                status: 404,
                content_type: "text/plain",
                body: "no circuit loaded\n".into(),
            },
        },
        "/probes.json" => match state.probe_bank() {
            Some(bank) => {
                let mut body = bank.to_json();
                body.push('\n');
                Response { status: 200, content_type: "application/json", body }
            }
            None => Response {
                status: 404,
                content_type: "text/plain",
                body: "no probe bank attached\n".into(),
            },
        },
        "/trigger" => respond_trigger(query, state),
        "/capture.jsonl" => respond_capture(query, state),
        "/slo.json" => match state.slo_tracker() {
            Some(tracker) => {
                let mut body = tracker.snapshot().to_json();
                body.push('\n');
                Response { status: 200, content_type: "application/json", body }
            }
            None => Response {
                status: 404,
                content_type: "text/plain",
                body: "no SLO tracker attached (serve --listen with --trace-sample N)\n".into(),
            },
        },
        // The two saturation endpoints answer 200 with empty data
        // when nothing is attached: sampling being off is a normal
        // serving configuration, not an error a poller should retry.
        "/shards.json" => Response {
            status: 200,
            content_type: "application/json",
            body: match state.timeseries() {
                Some(series) => series.shards_json(),
                None => "{\"window_ms\":0,\"shards\":[]}\n".into(),
            },
        },
        "/timeseries.json" => Response {
            status: 200,
            content_type: "application/json",
            body: match state.timeseries() {
                Some(series) => series.to_json(),
                None => "{\"interval_ms\":0,\"samples\":[]}\n".into(),
            },
        },
        // The audit endpoints answer 200 whether or not a server is
        // auditing: like saturation, auditing being off is a normal
        // serving configuration, not an error a poller should retry.
        "/audit.json" => Response {
            status: 200,
            content_type: "application/json",
            body: match state.audit_bank() {
                Some(bank) => {
                    let mut body = bank.to_json(&state.token_names());
                    body.push('\n');
                    body
                }
                None => "{\"enabled\":false}\n".into(),
            },
        },
        "/mismatches.jsonl" => Response {
            status: 200,
            content_type: "application/jsonl",
            body: state.mismatch_ring().map(|r| r.dump_jsonl()).unwrap_or_default(),
        },
        "/spans.jsonl" => match state.span_recorder() {
            Some(recorder) => Response {
                status: 200,
                content_type: "application/jsonl",
                body: recorder.spans_jsonl(),
            },
            None => Response {
                status: 404,
                content_type: "text/plain",
                body: "no span recorder attached (serve --listen with --trace-sample N)\n".into(),
            },
        },
        "/" => {
            let mut body = String::from("{\"endpoints\":[\"/metrics\",\"/healthz\",\"/readyz\",\"/report.json\",\"/circuit.json\",\"/probes.json\",\"/trigger\",\"/capture.jsonl\",\"/slo.json\",\"/spans.jsonl\",\"/shards.json\",\"/timeseries.json\",\"/audit.json\",\"/mismatches.jsonl\"],\"sinks\":[");
            for (i, name) in registry.names().iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                json::push_str(&mut body, name);
            }
            body.push_str("]}\n");
            Response { status: 200, content_type: "application/json", body }
        }
        _ => Response { status: 404, content_type: "text/plain", body: "not found\n".into() },
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

fn serve_connection(stream: &mut TcpStream, registry: &SharedRegistry, state: &ServiceState) {
    let buf = read_head_before(stream, Instant::now() + IO_TIMEOUT);
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or("/"));
    let response = if method == "GET" {
        respond(path, registry, state)
    } else {
        Response { status: 404, content_type: "text/plain", body: "GET only\n".into() }
    };
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
    /// start serving the registry + state on a background thread.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<SharedRegistry>,
        state: Arc<ServiceState>,
    ) -> std::io::Result<Exporter> {
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
                        serve_connection(&mut stream, &registry, &state);
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
    use cfg_obs::{MetricsSink, StatsSink};

    fn registry_with_traffic() -> SharedRegistry {
        let reg = SharedRegistry::new();
        let engine = Arc::new(StatsSink::with_tokens(3));
        engine.add(Stat::BytesIn, 1000);
        engine.token_fire(2, 5);
        engine.observe("decision_latency_ns", 700);
        engine.observe("decision_latency_ns", 90);
        reg.register("engine", engine);
        reg
    }

    #[test]
    fn prometheus_output_has_counters_histograms_and_quantiles() {
        let reg = registry_with_traffic();
        let state = ServiceState::new();
        state.set_ready(true);
        let text = render_prometheus(&reg.snapshot(), &state);
        assert!(text.contains("cfgtag_ready 1"));
        assert!(text.contains("cfgtag_bytes_in_total{sink=\"engine\"} 1000"));
        assert!(text.contains("cfgtag_token_fires_total{sink=\"engine\",token=\"2\"} 5"));
        assert!(text.contains("# TYPE cfgtag_decision_latency_ns histogram"));
        assert!(text.contains("cfgtag_decision_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("cfgtag_decision_latency_ns_sum 790"));
        assert!(text.contains("cfgtag_decision_latency_ns_quantile{quantile=\"0.99\"}"));
        // Buckets are cumulative: the 90 lands in le=128, the 700 in
        // le=1024.
        assert!(text.contains("cfgtag_decision_latency_ns_bucket{le=\"128\"} 1"));
        assert!(text.contains("cfgtag_decision_latency_ns_bucket{le=\"1024\"} 2"));
    }

    #[test]
    fn readyz_tracks_ready_and_dead() {
        let reg = SharedRegistry::new();
        let state = ServiceState::new();
        assert_eq!(respond("/readyz", &reg, &state).status, 503);
        state.set_ready(true);
        assert_eq!(respond("/readyz", &reg, &state).status, 200);
        state.set_dead(true);
        let r = respond("/readyz", &reg, &state);
        assert_eq!(r.status, 503);
        assert!(r.body.contains("dead"));
        assert_eq!(respond("/healthz", &reg, &state).status, 200);
        state.set_dead(false);
        state.set_overloaded(true);
        let r = respond("/readyz", &reg, &state);
        assert_eq!(r.status, 503);
        assert!(r.body.contains("overloaded"));
        let metrics = respond("/metrics", &reg, &state).body;
        assert!(metrics.contains("cfgtag_overloaded 1"));
        state.set_overloaded(false);
        assert_eq!(respond("/readyz", &reg, &state).status, 200);
        assert!(respond("/metrics", &reg, &state).body.contains("cfgtag_overloaded 0"));
        assert_eq!(respond("/nope", &reg, &state).status, 404);
        assert_eq!(respond("/metrics?x=1", &reg, &state).status, 200);
    }

    #[test]
    fn report_json_parses_and_carries_meta() {
        let reg = registry_with_traffic();
        let state = ServiceState::new();
        state.set_ready(true);
        state.set_meta_json("{\"tokens\":[\"a\",\"b\"]}".to_string());
        let body = respond("/report.json", &reg, &state).body;
        let v = json::Json::parse(&body).expect("report.json is valid JSON");
        assert_eq!(v.get("ready").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("dead").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("meta").unwrap().get("tokens").unwrap().as_array().unwrap().len(), 2);
        let merged = v.get("stats").unwrap().get("merged").unwrap();
        assert_eq!(merged.get("counters").unwrap().get("bytes_in").unwrap().as_u64(), Some(1000));
        assert!(v.get("stats").unwrap().get("sinks").unwrap().get("engine").is_some());
    }

    #[test]
    fn index_lists_endpoints_and_sinks() {
        let reg = registry_with_traffic();
        let state = ServiceState::new();
        let body = respond("/", &reg, &state).body;
        let v = json::Json::parse(&body).unwrap();
        assert!(v.get("endpoints").unwrap().as_array().unwrap().len() >= 4);
        assert_eq!(v.get("sinks").unwrap().as_array().unwrap()[0].as_str(), Some("engine"));
    }

    #[test]
    fn every_indexed_endpoint_is_routed() {
        let reg = SharedRegistry::new();
        let state = ServiceState::new();
        let unknown = respond("/no-such-route", &reg, &state);
        let v = json::Json::parse(&respond("/", &reg, &state).body).unwrap();
        for path in v.get("endpoints").unwrap().as_array().unwrap() {
            let path = path.as_str().expect("endpoint paths are strings");
            let r = respond(path, &reg, &state);
            assert_ne!(r.body, unknown.body, "the index lists {path}, which nothing routes");
        }
    }

    #[test]
    fn label_escaping() {
        assert_eq!(label_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(metric_chunk("route-latency.bytes"), "route_latency_bytes");
    }

    #[test]
    fn token_name_labels_are_escaped() {
        // Token names are user grammar text — a hostile name must come
        // out as a valid (escaped) Prometheus label value.
        let reg = registry_with_traffic();
        let state = ServiceState::new();
        state.set_token_names(vec!["x".into(), "y".into(), "a\"b\\c\nd".into()]);
        let text = render_prometheus(&reg.snapshot(), &state);
        assert!(text.contains(
            "cfgtag_token_fires_total{sink=\"engine\",token=\"2\",name=\"a\\\"b\\\\c\\nd\"} 5"
        ));
    }

    #[test]
    fn probe_series_escape_ids_and_skip_zeros() {
        let reg = SharedRegistry::new();
        let state = ServiceState::new();
        let bank = Arc::new(ProbeBank::new(vec!["dec/[\\t-\\r ]".into(), "tok/go/fire".into()]));
        bank.hit(0, 7);
        state.set_probe_bank(Arc::clone(&bank));
        let text = render_prometheus(&reg.snapshot(), &state);
        // Literal backslashes in the class description double on the way
        // out; zero-count probes are elided.
        assert!(text.contains("cfgtag_probe_total{probe=\"dec/[\\\\t-\\\\r ]\"} 7"));
        assert!(!text.contains("tok/go/fire"));
    }

    #[test]
    fn circuit_and_probe_endpoints() {
        let reg = SharedRegistry::new();
        let state = ServiceState::new();
        assert_eq!(respond("/circuit.json", &reg, &state).status, 404);
        assert_eq!(respond("/probes.json", &reg, &state).status, 404);

        state.set_circuit_json("{\"decoders\":[]}".into());
        let bank = Arc::new(ProbeBank::new(vec!["tok/go/fire".into()]));
        bank.hit(0, 3);
        state.set_probe_bank(bank);

        let c = respond("/circuit.json", &reg, &state);
        assert_eq!((c.status, c.content_type), (200, "application/json"));
        assert_eq!(c.body, "{\"decoders\":[]}");
        let p = respond("/probes.json", &reg, &state);
        assert_eq!(p.status, 200);
        let v = json::Json::parse(&p.body).unwrap();
        let probes = v.get("probes").unwrap().as_array().unwrap();
        assert_eq!(probes[0].get("id").unwrap().as_str(), Some("tok/go/fire"));
        assert_eq!(probes[0].get("count").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn slo_and_span_endpoints() {
        use cfg_obs::Stage;
        let reg = SharedRegistry::new();
        let state = ServiceState::new();
        assert_eq!(respond("/slo.json", &reg, &state).status, 404);
        assert_eq!(respond("/spans.jsonl", &reg, &state).status, 404);

        let tracker = Arc::new(SloTracker::new(1_000_000, 0.99));
        let recorder = Arc::new(SpanRecorder::new(16, 1, 0));
        let mut span = recorder.begin();
        span.stamp_at(Stage::QueueWait, 400);
        span.stamp_at(Stage::Engine, 700);
        span.stamp_at(Stage::AckWrite, 900);
        tracker.observe(&span);
        recorder.record(&span);
        state.set_slo_tracker(Arc::clone(&tracker));
        state.set_span_recorder(Arc::clone(&recorder));

        let slo = respond("/slo.json", &reg, &state);
        assert_eq!((slo.status, slo.content_type), (200, "application/json"));
        let v = json::Json::parse(&slo.body).unwrap();
        assert_eq!(v.get("total").unwrap().as_u64(), Some(1));
        assert_eq!(
            v.get("stages").unwrap().get("engine").unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );

        let spans = respond("/spans.jsonl", &reg, &state);
        assert_eq!((spans.status, spans.content_type), (200, "application/jsonl"));
        let line = json::Json::parse(spans.body.lines().next().unwrap()).unwrap();
        assert_eq!(line.get("total_ns").unwrap().as_u64(), Some(900));

        let index = respond("/", &reg, &state).body;
        assert!(index.contains("/slo.json") && index.contains("/spans.jsonl"));
    }

    #[test]
    fn saturation_endpoints_answer_200_attached_or_not() {
        use cfg_obs::{ShardLoadBank, TickSnapshot};
        let reg = SharedRegistry::new();
        let state = ServiceState::new();

        // Unattached: still 200, with empty-but-valid payloads — the
        // poller-facing contract when sampling is off.
        let shards = respond("/shards.json", &reg, &state);
        assert_eq!((shards.status, shards.content_type), (200, "application/json"));
        let v = json::Json::parse(&shards.body).unwrap();
        assert_eq!(v.get("shards").unwrap().as_array().unwrap().len(), 0);
        let series = respond("/timeseries.json", &reg, &state);
        assert_eq!(series.status, 200);
        let v = json::Json::parse(&series.body).unwrap();
        assert_eq!(v.get("samples").unwrap().as_array().unwrap().len(), 0);

        // Attached with an empty ring: still 200 with an empty samples
        // array, never a 404/503.
        let bank = Arc::new(ShardLoadBank::new(2));
        let ts = Arc::new(TimeSeries::new(Arc::clone(&bank), 8, Duration::from_millis(50)));
        state.set_timeseries(Arc::clone(&ts));
        let empty = respond("/timeseries.json", &reg, &state);
        assert_eq!(empty.status, 200);
        let v = json::Json::parse(&empty.body).unwrap();
        assert_eq!(v.get("samples").unwrap().as_array().unwrap().len(), 0);

        // With traffic the gauges and ring come through.
        bank.arrive(0);
        bank.arrive(0);
        bank.dequeue(0);
        bank.record_work(0, 5_000_000, true);
        ts.push(TickSnapshot { t_ns: 0, shards: bank.sample() });
        ts.push(TickSnapshot { t_ns: 100_000_000, shards: bank.sample() });
        let shards = respond("/shards.json", &reg, &state);
        let v = json::Json::parse(&shards.body).unwrap();
        let rows = v.get("shards").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("queue_depth").unwrap().as_u64(), Some(1));
        let series = respond("/timeseries.json", &reg, &state);
        let v = json::Json::parse(&series.body).unwrap();
        assert_eq!(v.get("samples").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("interval_ms").unwrap().as_u64(), Some(50));

        let index = respond("/", &reg, &state).body;
        assert!(index.contains("/shards.json") && index.contains("/timeseries.json"));
    }

    #[test]
    fn audit_endpoints_answer_200_attached_or_not() {
        let reg = SharedRegistry::new();
        let state = ServiceState::new();

        // Unattached: /audit.json reports auditing off, the mismatch
        // dump is empty, and /metrics carries no audit series at all.
        let audit = respond("/audit.json", &reg, &state);
        assert_eq!((audit.status, audit.content_type), (200, "application/json"));
        let v = json::Json::parse(&audit.body).unwrap();
        assert_eq!(v.get("enabled").unwrap().as_bool(), Some(false));
        let dump = respond("/mismatches.jsonl", &reg, &state);
        assert_eq!((dump.status, dump.content_type), (200, "application/jsonl"));
        assert_eq!(dump.body, "");
        assert!(!respond("/metrics", &reg, &state).body.contains("cfgtag_audit_"));

        // Attached with traffic: counters, per-token FP labels (named
        // via the service's token names), and the precision gauge.
        let bank = Arc::new(AuditBank::new(2));
        bank.session_sampled();
        bank.session_audited();
        bank.frame_audited(100);
        bank.fires(4, 3);
        bank.false_positive(1);
        bank.divergence();
        state.set_audit_bank(Arc::clone(&bank));
        state.set_token_names(vec!["num".into(), "str".into()]);
        let ring = Arc::new(EventRing::new(4));
        ring.push(Mismatch {
            session: 7,
            frame: 0,
            window_start: 0,
            window: b"<x>".to_vec(),
            fast: vec![],
            reference: vec![],
        });
        state.set_mismatch_ring(Arc::clone(&ring));

        let v = json::Json::parse(&respond("/audit.json", &reg, &state).body).unwrap();
        assert_eq!(v.get("enabled").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("fires_total").unwrap().as_u64(), Some(4));
        let metrics = respond("/metrics", &reg, &state).body;
        assert!(metrics.contains("cfgtag_audit_sessions_total{outcome=\"sampled\"} 1"));
        assert!(metrics.contains("cfgtag_audit_fires_total{verdict=\"confirmed\"} 3"));
        assert!(metrics.contains("cfgtag_audit_false_positives_total{token=\"1\",name=\"str\"} 1"));
        assert!(metrics.contains("cfgtag_audit_divergences_total 1"));
        assert!(metrics.contains("cfgtag_audit_precision_pct 75.000"));
        let dump = respond("/mismatches.jsonl", &reg, &state);
        let line = json::Json::parse(dump.body.lines().next().unwrap()).unwrap();
        assert_eq!(line.get("session").unwrap().as_u64(), Some(7));

        let index = respond("/", &reg, &state).body;
        assert!(index.contains("/audit.json") && index.contains("/mismatches.jsonl"));
    }

    #[test]
    fn trigger_arm_and_capture_flow() {
        use cfg_obs::{FlightRecorder, TraceEvent};
        let reg = SharedRegistry::new();
        let state = ServiceState::new();
        assert_eq!(respond("/trigger?cond=dead", &reg, &state).status, 404);
        assert_eq!(respond("/capture.jsonl", &reg, &state).status, 404);

        let flight = Arc::new(FlightRecorder::new(64));
        let hub = Arc::new(TriggerHub::new(vec!["if".into(), "go".into()], flight));
        state.set_trigger_hub(Arc::clone(&hub));
        assert_eq!(respond("/capture.jsonl", &reg, &state).status, 404);
        assert_eq!(respond("/trigger", &reg, &state).status, 400);
        let bad = respond("/trigger?cond=token:nope", &reg, &state);
        assert_eq!(bad.status, 400);
        assert!(bad.body.contains("nope"));
        // A hostile window is clamped to the ring, and the reply says so.
        let huge = respond(
            "/trigger?cond=token:go&pre=18446744073709551615&post=18446744073709551615",
            &reg,
            &state,
        );
        assert_eq!(huge.status, 200);
        assert!(huge.body.contains("\"pre\":64,\"post\":64"), "{}", huge.body);

        let armed = respond("/trigger?cond=token:go&pre=1&post=1", &reg, &state);
        assert_eq!(armed.status, 200);
        assert!(armed.body.contains("\"armed\":\"token:go\""));
        assert_eq!(respond("/capture.jsonl", &reg, &state).status, 503);

        hub.trace(TraceEvent::new("token_fire").field("token", 0u32));
        hub.trace(TraceEvent::new("token_fire").field("token", 1u32));
        assert_eq!(respond("/capture.jsonl", &reg, &state).status, 503);
        // Force-complete the half-filled post window.
        let cap = respond("/capture.jsonl?flush=1", &reg, &state);
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
