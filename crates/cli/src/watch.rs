//! `cfgtag watch <view> <host:port>` — every live terminal view over a
//! running exporter, through one flag parser and one poll loop.
//!
//! Every view reads the registry snapshot, `/snapshot.json`, decoded
//! once per frame by [`Snapshot::parse`]; a view given a snapshot
//! without its families draws its off state.
//!
//! | view     | reads                                            | shows |
//! |----------|--------------------------------------------------|-------|
//! | `top`    | `cfgtag_*_total`, token fires, histograms         | counters with rates, histogram quantiles, hottest tokens |
//! | `slo`    | `cfgtag_slo_*`, `cfgtag_srv_*_ns`                 | latency objective, error budget, per-stage waterfall |
//! | `shards` | `cfgtag_shard_*_total{sink="shard<i>"}`          | per-gate utilization, queue depth, rates, Little's-law wait |
//! | `audit`  | `cfgtag_audit_*`                                  | live precision, divergences, false positives |
//! | `scope`  | `/circuit.json` once, `cfgtag_probe_total`        | hot circuit elements, FOLLOW-edge pulses |
//!
//! The loop owns what the views share: retries (a `--retries` budget
//! with exponential backoff, see [`Poller`]), non-200 answers (exit 1
//! with the exporter's explanation), the previous snapshot and when it
//! was fetched (rates divide by the time between two fetches), and the
//! redraw (clear screen, frame, sleep `--interval-ms`). A view only
//! renders; its modules
//! ([`crate::top`], [`crate::slo`], [`crate::shards`], [`crate::audit`],
//! [`crate::scope`]) are pure. `scope --trigger` arms an ILA-style
//! capture first; stdout then carries only the captured JSON lines and
//! the frames go to stderr.

use crate::poll::{Miss, Poller};
use crate::scope::CircuitView;
use crate::{audit, scope, shards, slo, top, CliError};
use cfg_obs::Snapshot;
use std::io::Write;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: cfgtag watch <top|slo|shards|audit|scope> <host:port> \
                     [--interval-ms N] [--iterations N] [--once] [--retries N] [--top K] \
                     [--dot-out PATH] [--trigger COND] [--pre N] [--post N]";

/// Which live view to draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewKind {
    /// Engine counters, rates, quantiles and hot tokens.
    Top,
    /// Latency objective and per-stage waterfall.
    Slo,
    /// Shard-gate load per shard.
    Shards,
    /// Shadow-audit verdicts.
    Audit,
    /// Circuit probes, heat map and triggered capture.
    Scope,
}

impl ViewKind {
    /// Every view, in usage order.
    pub const ALL: [ViewKind; 5] =
        [ViewKind::Top, ViewKind::Slo, ViewKind::Shards, ViewKind::Audit, ViewKind::Scope];

    /// The view's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            ViewKind::Top => "top",
            ViewKind::Slo => "slo",
            ViewKind::Shards => "shards",
            ViewKind::Audit => "audit",
            ViewKind::Scope => "scope",
        }
    }
}

/// Parsed `watch` options: one set for every view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchFlags {
    /// The view to draw.
    pub view: ViewKind,
    /// Exporter address (`host:port`).
    pub addr: String,
    /// Poll interval in milliseconds.
    pub interval_ms: u64,
    /// Stop after this many frames (`None` = until interrupted).
    pub iterations: Option<u64>,
    /// Consecutive fetch failures tolerated (with backoff) before
    /// giving up.
    pub retries: u32,
    /// Rows of hot tokens (`top`, default 8) or circuit elements
    /// (`scope`, default 10).
    pub top_k: usize,
    /// `scope`: write the heat-annotated DOT graph here every frame.
    pub dot_out: Option<String>,
    /// `scope`: arm this trigger condition before polling
    /// (`token:<name>`, `edge:<from>-><to>`, `dead`).
    pub trigger: Option<String>,
    /// `scope`: trace events kept before the trigger.
    pub pre: usize,
    /// `scope`: trace events kept after the trigger.
    pub post: usize,
}

impl WatchFlags {
    /// Parse the `watch` argument tail: the view, then one `host:port`
    /// and flags in any order. A flag a view does not draw with is a
    /// usage error, not silently ignored.
    pub fn parse(args: &[String]) -> Result<WatchFlags, CliError> {
        let usage = |msg: String| CliError::new(format!("{msg}\n{USAGE}"), 2);
        let name = args.first().ok_or_else(|| CliError::new(USAGE, 2))?;
        let view = ViewKind::ALL
            .into_iter()
            .find(|v| v.name() == name)
            .ok_or_else(|| usage(format!("unknown view {name}")))?;
        let mut f = WatchFlags {
            view,
            addr: String::new(),
            interval_ms: 1000,
            iterations: None,
            retries: 3,
            top_k: if view == ViewKind::Top { 8 } else { 10 },
            dot_out: None,
            trigger: None,
            pre: 32,
            post: 32,
        };
        let mut addr: Option<String> = None;
        let mut it = args[1..].iter();
        while let Some(a) = it.next() {
            let drawn_by: &[ViewKind] = match a.as_str() {
                "--top" => &[ViewKind::Top, ViewKind::Scope],
                "--dot-out" | "--trigger" | "--pre" | "--post" => &[ViewKind::Scope],
                _ => &ViewKind::ALL,
            };
            if !drawn_by.contains(&view) {
                return Err(usage(format!("{a} does not apply to watch {name}")));
            }
            let mut value = || it.next().ok_or_else(|| usage(format!("{a} needs a value")));
            match a.as_str() {
                "--interval-ms" => f.interval_ms = number::<u64>(a, value()?)?.max(1),
                "--iterations" => f.iterations = Some(number(a, value()?)?),
                "--once" => f.iterations = Some(1),
                "--retries" => f.retries = number(a, value()?)?,
                "--top" => f.top_k = number(a, value()?)?,
                "--dot-out" => f.dot_out = Some(value()?.clone()),
                "--trigger" => f.trigger = Some(value()?.clone()),
                "--pre" => f.pre = number(a, value()?)?,
                "--post" => f.post = number(a, value()?)?,
                other if other.starts_with("--") => {
                    return Err(usage(format!("unknown watch flag {other}")));
                }
                other => {
                    if addr.replace(other.to_owned()).is_some() {
                        return Err(usage("watch takes exactly one host:port".into()));
                    }
                }
            }
        }
        f.addr = addr.ok_or_else(|| usage("watch needs a host:port".into()))?;
        Ok(f)
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::new(format!("{flag} needs a number, got {value:?}"), 2))
}

/// What the next frame diffs against.
#[derive(Default)]
struct Prev {
    snapshot: Option<Snapshot>,
    /// When `snapshot` was fetched.
    fetched: Option<Instant>,
    circuit: Option<CircuitView>,
    probes: Option<Vec<(String, u64)>>,
    /// `shards`: each gate's mean queue depth per poll interval.
    depths: shards::DepthHistory,
}

/// Fetch what one frame of `flags.view` needs and render it.
fn poll(flags: &WatchFlags, prev: &mut Prev, poller: &mut Poller) -> Result<String, Miss> {
    let body = poller.get("/snapshot.json")?;
    let fetched = Instant::now();
    // A slow fetch or a retry's backoff stretches the time between two
    // snapshots past the poll interval; rates divide by the real one.
    let dt_secs =
        prev.fetched.map_or(flags.interval_ms as f64 / 1000.0, |t| (fetched - t).as_secs_f64());
    let cur =
        Snapshot::parse(&body).map_err(|e| CliError::new(format!("bad /snapshot.json: {e}"), 1))?;
    let frame = match flags.view {
        ViewKind::Top => top::render(prev.snapshot.as_ref(), &cur, dt_secs, flags.top_k),
        ViewKind::Slo => slo::render(prev.snapshot.as_ref(), &cur, dt_secs)?,
        ViewKind::Shards => {
            let loads = shards::loads(prev.snapshot.as_ref(), &cur, dt_secs);
            shards::record(&mut prev.depths, &loads);
            shards::render(&cur, &loads, &prev.depths, dt_secs)
        }
        ViewKind::Audit => audit::render(&cur),
        ViewKind::Scope => {
            let circuit = match prev.circuit.take() {
                Some(c) => c,
                None => scope::parse_circuit(&poller.get("/circuit.json")?)?,
            };
            let circuit = prev.circuit.insert(circuit);
            let probes = scope::probes(&cur)?;
            let frame =
                scope::render_scope(circuit, &probes, prev.probes.as_deref(), dt_secs, flags.top_k);
            if let Some(path) = &flags.dot_out {
                std::fs::write(path, scope::render_heat_dot(circuit, &probes))
                    .map_err(|e| CliError::new(format!("cannot write {path}: {e}"), 1))?;
            }
            prev.probes = Some(probes);
            frame
        }
    };
    prev.snapshot = Some(cur);
    prev.fetched = Some(fetched);
    Ok(frame)
}

/// Process-level `cfgtag watch`: frames (or, with `--trigger`, the
/// capture) to `out`, diagnostics to `err`. Returns the exit code.
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> i32 {
    let flags = match WatchFlags::parse(args) {
        Ok(f) => f,
        Err(e) => {
            let _ = writeln!(err, "cfgtag watch: {e}");
            return e.code;
        }
    };
    let prefix = format!("cfgtag watch {}", flags.view.name());
    match watch(&flags, out, err, &prefix) {
        Ok(()) => 0,
        Err(e) => {
            for line in e.message.lines() {
                let _ = writeln!(err, "{prefix}: {line}");
            }
            e.code
        }
    }
}

/// Run `step` until it succeeds or fails for good, printing each retry
/// note and sleeping its backoff.
fn retrying<T>(
    poller: &mut Poller,
    err: &mut dyn Write,
    prefix: &str,
    mut step: impl FnMut(&mut Poller) -> Result<T, Miss>,
) -> Result<T, CliError> {
    loop {
        match step(poller) {
            Ok(v) => return Ok(v),
            Err(Miss::Retry { note, wait_ms }) => {
                let _ = writeln!(err, "{prefix}: {note}");
                std::thread::sleep(Duration::from_millis(wait_ms));
            }
            Err(Miss::Fail(e)) => return Err(e),
        }
    }
}

fn watch(
    flags: &WatchFlags,
    out: &mut dyn Write,
    err: &mut dyn Write,
    prefix: &str,
) -> Result<(), CliError> {
    let mut poller = Poller::new(&flags.addr, flags.retries);
    let mut prev = Prev::default();
    if let Some(cond) = &flags.trigger {
        let note =
            retrying(&mut poller, err, prefix, |p| scope::arm(p, cond, flags.pre, flags.post))?;
        let _ = writeln!(err, "{prefix}: {note}");
    }
    let mut frames = 0u64;
    loop {
        let frame = retrying(&mut poller, err, prefix, |p| poll(flags, &mut prev, p))?;
        // With a trigger armed, stdout is reserved for the capture (so
        // `> window.jsonl` stays clean) and the frames go to stderr.
        let screen: &mut dyn Write = if flags.trigger.is_some() { &mut *err } else { &mut *out };
        let _ = write!(screen, "\x1b[2J\x1b[H{frame}");
        let _ = screen.flush();
        frames += 1;
        let last = flags.iterations.is_some_and(|n| frames >= n);
        if flags.trigger.is_some() {
            // A fired trigger ends the session: the capture is the
            // deliverable. Out of frames, a pending post window is
            // flushed out partial rather than discarded.
            match scope::capture(&poller, last) {
                Some(jsonl) => {
                    let _ = writeln!(err, "{prefix}: {} events captured", jsonl.lines().count());
                    let _ = write!(out, "{jsonl}");
                    return Ok(());
                }
                None if last => {
                    let _ = writeln!(err, "{prefix}: trigger never fired");
                }
                None => {}
            }
        }
        if last {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(flags.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfg_obs::{FlightRecorder, MetricsSink, Part, Registry, TraceEvent, TriggerHub};
    use cfg_obs_http::Exporter;
    use cfg_server::{AuditConfig, Client, IngestServer, Reply, ServerConfig, TraceConfig};
    use cfg_tagger::{TaggerOptions, TokenTagger};
    use std::sync::Arc;

    const ITE: &str = r#"
        %%
        E: "if" C "then" E "else" E | "go" | "stop";
        C: "true" | "false";
        %%
    "#;

    /// Split a command line into arguments.
    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    /// Run `cfgtag watch <line>`; the exit code, stdout and stderr.
    fn watch_cli(line: &str) -> (i32, String, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run(&argv(line), &mut out, &mut err);
        (code, String::from_utf8(out).unwrap(), String::from_utf8(err).unwrap())
    }

    #[test]
    fn one_flag_parser_serves_every_view() {
        let f = WatchFlags::parse(&argv("top 127.0.0.1:9100 --interval-ms 250 --once")).unwrap();
        assert_eq!((f.view, f.addr.as_str()), (ViewKind::Top, "127.0.0.1:9100"));
        assert_eq!((f.interval_ms, f.iterations, f.retries, f.top_k), (250, Some(1), 3, 8));
        let f = WatchFlags::parse(&argv(
            "scope a:1 --top 5 --dot-out heat.dot --trigger token:go --pre 8 --post 4 \
             --retries 2 --iterations 7",
        ))
        .unwrap();
        assert_eq!((f.top_k, f.pre, f.post, f.retries, f.iterations), (5, 8, 4, 2, Some(7)));
        assert_eq!(
            (f.dot_out.as_deref(), f.trigger.as_deref()),
            (Some("heat.dot"), Some("token:go"))
        );
        assert_eq!(WatchFlags::parse(&argv("scope a:1")).unwrap().top_k, 10);
        for view in ViewKind::ALL {
            let line = format!("{} a:1", view.name());
            assert_eq!(WatchFlags::parse(&argv(&line)).unwrap().view, view);
        }
        for bad in [
            "",
            "bogus a:1",
            "top",
            "top a:1 b:2",
            "slo a:1 --interval-ms",
            "audit a:1 --retries x",
            "shards a:1 --frobnicate",
            "slo a:1 --top 3",
            "top a:1 --trigger dead",
            "audit a:1 --dot-out x.dot",
        ] {
            let e = WatchFlags::parse(&argv(bad)).unwrap_err();
            assert_eq!(e.code, 2, "{bad:?}: {e}");
        }
        let (code, out, err) = watch_cli("shards a:1 --pre 3");
        assert_eq!((code, out.as_str()), (2, ""));
        assert!(
            err.contains("--pre does not apply to watch shards") && err.contains(USAGE),
            "{err}"
        );
    }

    /// A listen-mode server with tracing and audit on, plus the circuit
    /// endpoints `scope` reads; one frame tagged through it.
    fn traced_server() -> (IngestServer, Exporter, Arc<Registry>) {
        let grammar = cfg_grammar::Grammar::parse(ITE).unwrap();
        let tagger = TokenTagger::compile(&grammar, TaggerOptions::default()).unwrap();
        let registry = Arc::new(Registry::new());
        let probes = tagger.probes();
        registry.attach(Part::Circuit(probes.circuit_json()));
        registry.attach(Part::Probes(probes.bank_arc()));
        let config = ServerConfig {
            registry: Some(Arc::clone(&registry)),
            trace: Some(TraceConfig::default()),
            audit: Some(AuditConfig::default()),
            ..ServerConfig::default()
        };
        let server = IngestServer::start(&tagger, "127.0.0.1:0", config).unwrap();
        let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            client.request(b"if true then go else stop").unwrap(),
            Reply::Acked { .. }
        ));
        client.close().unwrap();
        (server, exporter, registry)
    }

    #[test]
    fn every_view_draws_one_frame_against_a_live_server() {
        let (server, exporter, registry) = traced_server();
        let addr = exporter.local_addr().to_string();
        for (view, header) in [
            ("top", "cfgtag top — ready"),
            ("slo", "cfgtag slo — objective p99 < 50.00ms"),
            ("shards", "cfgtag shards — 2 shard gates, rates from the next poll"),
            ("audit", "cfgtag audit —"),
            ("scope", "cfgtag scope — "),
        ] {
            let (code, out, err) = watch_cli(&format!("{view} {addr} --once"));
            assert_eq!(code, 0, "watch {view}: {err}");
            assert_eq!(out.matches("\x1b[2J").count(), 1, "watch {view} draws one frame: {out}");
            assert!(out.contains(header), "watch {view}: {out}");
            assert_eq!(err, "", "watch {view}");
        }
        // The second frame diffs against the first: the shard gates get
        // rates and a mean-depth sparkline.
        let (code, out, err) = watch_cli(&format!("shards {addr} --iterations 2 --interval-ms 20"));
        assert_eq!((code, err.as_str()), (0, ""));
        let second = out.split("\x1b[2J\x1b[H").nth(2).expect("two frames");
        assert!(second.contains("2 shard gates, rates over the last 0."), "{second}");
        assert!(second.contains("queue wait: no arrivals in the last"), "{second}");

        // Scope with a trigger: frames go to stderr, and the capture —
        // here fired by hand once the watch has armed it — is all that
        // reaches stdout.
        let hub = Arc::new(TriggerHub::new(
            vec!["if".into(), "go".into()],
            Vec::new(),
            Arc::new(FlightRecorder::default()),
        ));
        registry.attach(Part::Trigger(Arc::clone(&hub)));
        let line = format!(
            "scope {addr} --trigger token:go --pre 0 --post 0 --interval-ms 5 --iterations 100000"
        );
        let watcher = std::thread::spawn(move || watch_cli(&line));
        while hub.active().is_none() && !watcher.is_finished() {
            std::thread::yield_now();
        }
        hub.trace(TraceEvent::new("token_fire").field("token", 1u32));
        let (code, out, err) = watcher.join().unwrap();
        assert_eq!(code, 0, "{err}");
        assert_eq!(out, "{\"seq\":0,\"kind\":\"token_fire\",\"token\":1}\n");
        assert!(err.contains("armed trigger token:go (pre=0, post=0)"), "{err}");
        assert!(err.contains("cfgtag scope — ") && err.contains("1 events captured"), "{err}");

        exporter.stop();
        server.shutdown();
    }

    #[test]
    fn views_of_an_untraced_server_draw_their_off_state() {
        let exporter = Exporter::bind("127.0.0.1:0", Arc::new(Registry::new())).unwrap();
        let addr = exporter.local_addr();
        let (code, out, err) = watch_cli(&format!("slo {addr} --once"));
        assert_eq!((code, out.as_str()), (1, ""));
        assert_eq!(
            err,
            "cfgtag watch slo: no SLO tracker attached (serve --listen with --trace-sample N)\n"
        );
        for (view, off) in [("shards", "cfgtag serve --listen"), ("audit", "auditing is OFF")] {
            let (code, out, err) = watch_cli(&format!("{view} {addr} --once"));
            assert_eq!((code, err.as_str()), (0, ""), "watch {view}");
            assert!(out.contains(off), "watch {view}: {out}");
        }
        exporter.stop();
    }

    #[test]
    fn a_closed_port_gives_up_after_the_retry_budget() {
        let closed = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let (code, out, err) = watch_cli(&format!("top {closed} --retries 0"));
        assert_eq!((code, out.as_str()), (1, ""));
        assert!(err.contains("cfgtag watch top: cannot fetch http://"), "{err}");
        assert!(err.contains("giving up after 1 attempts"), "{err}");
    }
}
