//! `cfgtag serve` — long-running tagging with a live telemetry service.
//!
//! Compiles a grammar, then feeds an input stream through the fast
//! engine in chunks while a `cfg-obs-http` [`Exporter`] serves one
//! [`Registry`]'s snapshot as `/metrics` and `/snapshot.json` (plus
//! `/healthz` and `/readyz`) — scrapeable mid-stream, no pauses.
//!
//! The probe layer rides along too: the compiled tagger's
//! [`cfg_tagger::TaggerProbes`] bank backs `/circuit.json` and the
//! `cfgtag_probe_total` family, and a [`TriggerHub`] teed into the
//! engine's metrics handle backs `/trigger` + `/capture.jsonl` —
//! `cfgtag watch scope` is the terminal client for all of them. The hub records every trace event
//! into one [`FlightRecorder`] ring, the same ring `--flight-out` dumps
//! when the stream dies or ends.
//!
//! The streaming core ([`run_serve`]) takes any `Read` plus a status
//! callback, so tests drive it with in-memory readers and capture the
//! bound address without spawning processes; [`main_io`] is the thin
//! process-level wrapper (files, stdin, stderr, exit codes).

use crate::{load_grammar, CliError};
use cfg_obs::{
    FlightRecorder, Metrics, MetricsSink, Part, Registry, Stat, StatsSink, TeeSink, TriggerHub,
};
use cfg_obs_http::Exporter;
use cfg_server::{AuditConfig, IngestServer, ServerConfig, ServerReport, TraceConfig, MAX_FRAME};
use cfg_tagger::{EngineKind, StartMode, TaggerOptions, TokenTagger};
use std::io::Read;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parsed `serve` options.
#[derive(Debug, Clone)]
pub struct ServeFlags {
    /// Exporter TCP port on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Enable §5.2 error recovery.
    pub recover: bool,
    /// Scan at every byte alignment.
    pub always: bool,
    /// Times to replay a file input (0 = forever; ignored for stdin).
    pub loops: u64,
    /// Write the flight-recorder dump here when the stream dies/ends.
    pub flight_out: Option<String>,
    /// Feed chunk size in bytes.
    pub chunk: usize,
    /// Stop after roughly this many bytes (benchmarks and tests).
    pub max_bytes: Option<u64>,
    /// Worker shards for line-delimited fan-out (1 = single stream).
    pub shards: usize,
    /// `--listen ADDR`: run the multi-session TCP ingest server on this
    /// address instead of streaming a local input.
    pub listen: Option<String>,
    /// `--max-sessions`: concurrent-session cap in listen mode.
    pub max_sessions: usize,
    /// `--idle-timeout-ms`: idle-eviction threshold and reply write
    /// deadline in listen mode.
    pub idle_timeout_ms: u64,
    /// `--queue-depth`: frames that may wait for a taken shard gate in
    /// listen mode; one more is shed with `Busy`.
    pub queue_depth: usize,
    /// `--panic-token`: chaos-harness panic-while-tagging trigger
    /// (listen mode; never set in production).
    pub panic_token: Option<String>,
    /// `--trace-sample N`: trace every frame and retain 1-in-N spans
    /// in `/spans.jsonl` (listen mode; 0 = tracing off).
    pub trace_sample: u64,
    /// `--slo-ms X`: end-to-end latency objective of the SLO tracker.
    pub slo_ms: u64,
    /// `--audit-sample N`: shadow-audit 1-in-N sessions — replay their
    /// payloads through the reference engine + exact parser behind the
    /// `cfgtag_audit_*` families and `/mismatches.jsonl` (listen mode;
    /// 0 = off).
    pub audit_sample: u64,
}

impl Default for ServeFlags {
    fn default() -> ServeFlags {
        ServeFlags {
            port: 0,
            recover: false,
            always: false,
            loops: 1,
            flight_out: None,
            chunk: 64 * 1024,
            max_bytes: None,
            shards: 1,
            listen: None,
            max_sessions: 64,
            idle_timeout_ms: 30_000,
            queue_depth: 64,
            panic_token: None,
            trace_sample: 0,
            slo_ms: 50,
            audit_sample: 0,
        }
    }
}

impl ServeFlags {
    /// Parse the `serve` argument tail: flags in any position plus up
    /// to two positionals (grammar path, then input path).
    pub fn parse(args: &[String]) -> Result<(ServeFlags, Vec<String>), CliError> {
        let mut f = ServeFlags::default();
        let mut positional = Vec::new();
        let mut it = args.iter();
        let num = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<u64, CliError> {
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| CliError::new(format!("{flag} needs a number"), 2))
        };
        while let Some(a) = it.next() {
            match a.as_str() {
                "--port" => f.port = num(&mut it, "--port")? as u16,
                "--recover" => f.recover = true,
                "--always" => f.always = true,
                "--loop" => f.loops = num(&mut it, "--loop")?,
                "--flight-out" => {
                    let path =
                        it.next().ok_or_else(|| CliError::new("--flight-out needs a path", 2))?;
                    f.flight_out = Some(path.clone());
                }
                "--chunk" => f.chunk = (num(&mut it, "--chunk")? as usize).max(1),
                "--max-bytes" => f.max_bytes = Some(num(&mut it, "--max-bytes")?),
                "--shards" => f.shards = (num(&mut it, "--shards")? as usize).max(1),
                "--listen" => {
                    let addr =
                        it.next().ok_or_else(|| CliError::new("--listen needs an address", 2))?;
                    f.listen = Some(addr.clone());
                }
                "--max-sessions" => {
                    f.max_sessions = (num(&mut it, "--max-sessions")? as usize).max(1);
                }
                "--idle-timeout-ms" => f.idle_timeout_ms = num(&mut it, "--idle-timeout-ms")?,
                "--queue-depth" => {
                    f.queue_depth = (num(&mut it, "--queue-depth")? as usize).max(1);
                }
                "--panic-token" => {
                    let token =
                        it.next().ok_or_else(|| CliError::new("--panic-token needs a value", 2))?;
                    f.panic_token = Some(token.clone());
                }
                "--trace-sample" => f.trace_sample = num(&mut it, "--trace-sample")?,
                "--slo-ms" => f.slo_ms = num(&mut it, "--slo-ms")?.max(1),
                "--audit-sample" => f.audit_sample = num(&mut it, "--audit-sample")?,
                other if other.starts_with("--") => {
                    return Err(CliError::new(format!("unknown serve flag {other}"), 2));
                }
                path => positional.push(path.to_owned()),
            }
        }
        if positional.len() > 2 {
            return Err(CliError::new("serve takes a grammar and at most one input file", 2));
        }
        Ok((f, positional))
    }

    fn options(&self) -> TaggerOptions {
        TaggerOptions {
            start_mode: if self.always { StartMode::Always } else { StartMode::AtStart },
            error_recovery: self.recover,
            ..Default::default()
        }
    }
}

/// Final state of one [`run_serve`] stream.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Exit code (3 = stream died with error recovery off).
    pub code: i32,
    /// Total bytes fed.
    pub bytes: u64,
    /// Total tag events emitted.
    pub events: u64,
    /// §5.2 resynchronisations taken.
    pub resyncs: u64,
    /// `(path, jsonl)` flight dump to write, when `--flight-out` was
    /// given (always produced at stream end: in serve mode the stream
    /// *ending* is itself the post-mortem condition).
    pub flight_dump: Option<(String, String)>,
}

/// Replay an in-memory buffer a fixed number of times (0 = forever) —
/// turns one captured workload file into an endless stream.
#[derive(Debug)]
pub struct LoopReader {
    data: Vec<u8>,
    pos: usize,
    remaining: Option<u64>,
}

impl LoopReader {
    /// A reader yielding `data` end-to-end `loops` times (0 = forever).
    pub fn new(data: Vec<u8>, loops: u64) -> LoopReader {
        LoopReader { pos: 0, remaining: if loops == 0 { None } else { Some(loops) }, data }
    }
}

impl Read for LoopReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.data.is_empty() || buf.is_empty() {
            return Ok(0);
        }
        if self.pos >= self.data.len() {
            match &mut self.remaining {
                Some(n) if *n <= 1 => return Ok(0),
                Some(n) => *n -= 1,
                None => {}
            }
            self.pos = 0;
        }
        let n = buf.len().min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The streaming core of `cfgtag serve`.
///
/// Compiles `grammar_text`, registers a [`StatsSink`] as `"engine"` in
/// a fresh [`Registry`] with the tagger's parts attached, binds the
/// exporter on
/// `127.0.0.1:{flags.port}`, then pulls `reader` through the fast
/// engine in `flags.chunk`-byte chunks until EOF, death
/// (without `--recover`), or `--max-bytes`. Per-chunk feed latency is
/// observed into the `decision_latency_ns` histogram, so scrapes see
/// live p50/p90/p99. `status` receives human-readable progress lines
/// (the bound address first — tests parse it from there).
pub fn run_serve(
    grammar_text: &str,
    reader: impl Read,
    flags: &ServeFlags,
    status: &mut dyn FnMut(&str),
) -> Result<ServeOutcome, CliError> {
    let g = load_grammar(grammar_text)?;
    let tagger = TokenTagger::compile(&g, flags.options()).map_err(CliError::from)?;

    let token_names: Vec<String> =
        tagger.grammar().tokens().iter().map(|t| t.name.clone()).collect();
    let sink = Arc::new(StatsSink::with_tokens(tagger.grammar().tokens().len()));
    let probes = tagger.probes();
    // Each trace event is kept once: the trigger hub records it into the
    // flight ring, so an armed `/trigger` sees every token_fire /
    // resync / dead_entry event the engine emits and `--flight-out`
    // dumps the same ring. An `edge:` trigger arms on its source's
    // token_fire, resolved against the circuit's FOLLOW edges.
    let flight = Arc::new(FlightRecorder::default());
    let edges = probes.topology().edges.iter().map(|e| (e.from, e.to)).collect();
    let hub = Arc::new(TriggerHub::new(token_names.clone(), edges, Arc::clone(&flight)));
    let metrics = Metrics::new(Arc::new(TeeSink::new(vec![
        sink.clone() as Arc<dyn MetricsSink>,
        hub.clone() as Arc<dyn MetricsSink>,
    ])));

    let registry = Arc::new(Registry::new());
    registry.register("engine", sink.clone());
    registry.attach(Part::Tokens(token_names));
    registry.attach(Part::Compile(tagger.report().clone()));
    registry.attach(Part::Circuit(probes.circuit_json()));
    registry.attach(Part::Probes(probes.bank_arc()));
    registry.attach(Part::Trigger(hub));
    registry.set_ready(true);

    let exporter = Exporter::bind(format!("127.0.0.1:{}", flags.port), Arc::clone(&registry))
        .map_err(|e| CliError::new(format!("cannot bind exporter: {e}"), 1))?;
    status(&format!(
        "serving http://{}/metrics (+ /snapshot.json /healthz /readyz /circuit.json /trigger /capture.jsonl)",
        exporter.local_addr()
    ));

    // Sharded mode: treat the stream as line-delimited messages and fan
    // them out over scoped workers, each shard tagging with its own
    // tagger clone and sink (each registered, so `/metrics` and
    // `cfgtag watch top` see every shard). The flight recorder, probe
    // bank and trigger hub stay idle here — they instrument the single
    // shared engine, which sharded mode never runs.
    if flags.shards > 1 {
        status(&format!(
            "sharded: {} workers, line-delimited fan-out (flight/probes/trigger idle)",
            flags.shards
        ));
        let shards: Vec<TokenTagger> = (0..flags.shards)
            .map(|i| {
                let sink = Arc::new(StatsSink::with_tokens(tagger.grammar().tokens().len()));
                registry.register(format!("shard{i}"), sink.clone());
                tagger.clone().with_metrics(Metrics::new(sink))
            })
            .collect();
        let (bytes, messages) = fan_out(reader, flags, &shards, |t, line| {
            t.tag(line);
        })?;
        let snap = registry.snapshot();
        let events = snap.total("cfgtag_events_out_total") as u64;
        let resyncs = snap.total("cfgtag_resyncs_total") as u64;
        status(&format!("{messages} messages over {} shards", flags.shards));
        status(&format!("{events} events, {bytes} bytes, {resyncs} resyncs"));
        exporter.stop();
        return Ok(ServeOutcome { code: 0, bytes, events, resyncs, flight_dump: None });
    }

    let mut engine = tagger
        .with_metrics(metrics)
        .with_probes(probes)
        .engine(EngineKind::Bit)
        .map_err(CliError::from)?;
    let mut events = 0u64;
    let mut dead = false;
    let bytes = read_chunks(reader, flags, |chunk| {
        let t0 = Instant::now();
        events += engine.feed(chunk).map_err(CliError::from)?.len() as u64;
        sink.observe("decision_latency_ns", t0.elapsed().as_nanos() as u64);
        dead = engine.is_dead() && !flags.recover;
        Ok(!dead)
    })?;
    let code = if dead {
        registry.set_dead(true);
        status("stream entered the dead state with recovery off; stopping (exit 3)");
        3
    } else {
        events += engine.finish().map_err(CliError::from)?.len() as u64;
        0
    };
    let resyncs = sink.get(Stat::Resyncs);
    status(&format!("{events} events, {bytes} bytes, {resyncs} resyncs"));
    let flight_dump = flags.flight_out.as_ref().map(|path| {
        status(&format!("flight recorder: {} events -> {path}", flight.len()));
        (path.clone(), flight.dump_jsonl())
    });
    exporter.stop();
    Ok(ServeOutcome { code, bytes, events, resyncs, flight_dump })
}

/// Pull `reader` in `flags.chunk`-byte reads until EOF or `--max-bytes`,
/// handing each read to `feed`, which returns `false` to stop early.
/// Returns the bytes read.
fn read_chunks(
    mut reader: impl Read,
    flags: &ServeFlags,
    mut feed: impl FnMut(&[u8]) -> Result<bool, CliError>,
) -> Result<u64, CliError> {
    let mut buf = vec![0u8; flags.chunk];
    let mut bytes = 0u64;
    loop {
        let want = match flags.max_bytes {
            Some(max) => max.saturating_sub(bytes).min(buf.len() as u64) as usize,
            None => buf.len(),
        };
        if want == 0 {
            return Ok(bytes);
        }
        let n = reader
            .read(&mut buf[..want])
            .map_err(|e| CliError::new(format!("read error: {e}"), 1))?;
        if n == 0 {
            return Ok(bytes);
        }
        bytes += n as u64;
        if !feed(&buf[..n])? {
            return Ok(bytes);
        }
    }
}

/// Lines a sharded worker's channel holds before the reader waits.
const LINES_IN_FLIGHT: usize = 16;

/// Tag the newline-delimited lines of `reader` (blank ones skipped) on
/// one scoped worker per tagger in `shards`, each running `work` with
/// its own tagger. Lines go round-robin over per-worker bounded
/// channels, so the reader waits for a busy worker and drops nothing.
/// Returns the bytes read and the lines tagged. A line past
/// [`MAX_FRAME`] is exit 1. A panic in `work` drops its worker's
/// channel, which stops the reader, and is re-raised once all are joined.
fn fan_out(
    reader: impl Read,
    flags: &ServeFlags,
    shards: &[TokenTagger],
    work: impl Fn(&TokenTagger, &[u8]) + Sync,
) -> Result<(u64, u64), CliError> {
    std::thread::scope(|s| {
        let (txs, workers): (Vec<_>, Vec<_>) = shards
            .iter()
            .map(|t| {
                let (tx, rx) = sync_channel::<Vec<u8>>(LINES_IN_FLIGHT);
                let work = &work;
                (tx, s.spawn(move || rx.iter().for_each(|line| work(t, &line))))
            })
            .collect();
        let mut round_robin = txs.iter().cycle();
        let mut lines = 0u64;
        let mut send = |line: Vec<u8>| {
            lines += 1;
            round_robin.next().is_some_and(|tx| tx.send(line).is_ok())
        };
        let mut carry = Vec::new();
        let read = read_chunks(reader, flags, |chunk| {
            let mut pieces = chunk.split(|&b| b == b'\n').peekable();
            while let Some(piece) = pieces.next() {
                carry.extend_from_slice(piece);
                if carry.len() > MAX_FRAME {
                    let msg = format!("a line runs past the {MAX_FRAME}-byte frame bound");
                    return Err(CliError::new(msg, 1));
                }
                let ended = pieces.peek().is_some() && !carry.is_empty();
                if ended && !send(std::mem::take(&mut carry)) {
                    return Ok(false);
                }
            }
            Ok(true)
        });
        if read.is_ok() && !carry.is_empty() {
            send(carry);
        }
        drop(txs);
        for worker in workers {
            worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
        read.map(|bytes| (bytes, lines))
    })
}

/// The listen-mode core of `cfgtag serve --listen`.
///
/// Compiles `grammar_text`, starts an [`IngestServer`] on the
/// `--listen` address (a reader thread per session tagging under its
/// shard's admission gate, session cap, idle eviction — see
/// `cfg-server`), binds the `/metrics` exporter on
/// `127.0.0.1:{flags.port}` over the same registry, then idles until
/// `should_stop` returns true. Shutdown says `Bye` to every session
/// before the report is returned. `status` receives the two bound addresses first,
/// so tests (and humans) can find them.
pub fn run_listen(
    grammar_text: &str,
    flags: &ServeFlags,
    status: &mut dyn FnMut(&str),
    should_stop: &dyn Fn() -> bool,
) -> Result<ServerReport, CliError> {
    let addr = flags.listen.as_deref().expect("run_listen requires --listen");
    let g = load_grammar(grammar_text)?;
    let tagger = TokenTagger::compile(&g, flags.options()).map_err(CliError::from)?;

    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        shards: flags.shards,
        queue_depth: flags.queue_depth,
        max_sessions: flags.max_sessions,
        idle_timeout: Duration::from_millis(flags.idle_timeout_ms.max(1)),
        panic_token: flags.panic_token.as_ref().map(|t| t.as_bytes().to_vec()),
        registry: Some(Arc::clone(&registry)),
        trace: (flags.trace_sample > 0).then(|| TraceConfig {
            sample_every: flags.trace_sample,
            slo_ms: flags.slo_ms,
            ..TraceConfig::default()
        }),
        audit: (flags.audit_sample > 0).then_some(AuditConfig { sample_every: flags.audit_sample }),
    };
    let server = IngestServer::start(&tagger, addr, config)
        .map_err(|e| CliError::new(format!("cannot bind {addr}: {e}"), 1))?;
    let exporter = Exporter::bind(format!("127.0.0.1:{}", flags.port), registry)
        .map_err(|e| CliError::new(format!("cannot bind exporter: {e}"), 1))?;
    status(&format!(
        "ingest on {} ({} shards, {} max sessions, {}ms idle timeout)",
        server.local_addr(),
        flags.shards,
        flags.max_sessions,
        flags.idle_timeout_ms
    ));
    let trace_endpoints = if flags.trace_sample > 0 { " /spans.jsonl" } else { "" };
    let audit_endpoints = if flags.audit_sample > 0 { " /mismatches.jsonl" } else { "" };
    status(&format!(
        "serving http://{}/metrics (+ /snapshot.json /healthz /readyz{trace_endpoints}{audit_endpoints})",
        exporter.local_addr()
    ));

    while !should_stop() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let report = server.shutdown();
    exporter.stop();
    status(&format!(
        "{} sessions served, {} evicted, {} frames shed, {} messages, {} worker restarts",
        report.sessions_served,
        report.evicted,
        report.shed,
        report.shard.messages,
        report.shard.restarts
    ));
    Ok(report)
}

/// Process-level `cfgtag serve`: files, stdin, stderr and exit codes.
pub fn main_io(args: &[String]) -> i32 {
    let (flags, positional) = match ServeFlags::parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cfgtag serve: {e}");
            return e.code;
        }
    };
    let Some(grammar_path) = positional.first() else {
        eprintln!(
            "usage: cfgtag serve <grammar.y> [input] [--port N] [--loop N] [--recover] [--always] \
             [--chunk N] [--max-bytes N] [--shards N] [--flight-out PATH]\n\
             \x20      cfgtag serve <grammar.y> --listen ADDR [--max-sessions N] \
             [--idle-timeout-ms N] [--queue-depth N] [--panic-token S] [--trace-sample N] \
             [--slo-ms X] [--audit-sample N]"
        );
        return 2;
    };
    let grammar_text = match std::fs::read_to_string(grammar_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cfgtag serve: cannot read {grammar_path}: {e}");
            return 1;
        }
    };
    let mut status = |line: &str| eprintln!("cfgtag serve: {line}");
    if flags.listen.is_some() {
        // Listen mode: run the ingest server until stdin reaches EOF
        // (the conventional supervised-process stop signal) or the
        // process is killed.
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = Arc::new(AtomicBool::new(false));
        let stop_writer = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin().lock();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            stop_writer.store(true, Ordering::SeqCst);
        });
        status("listen mode: close stdin (or kill the process) to stop");
        return match run_listen(&grammar_text, &flags, &mut status, &|| stop.load(Ordering::SeqCst))
        {
            Ok(_) => 0,
            Err(e) => {
                eprintln!("cfgtag serve: {e}");
                e.code
            }
        };
    }
    let outcome = match positional.get(1).map(String::as_str).filter(|p| *p != "-") {
        Some(path) => match std::fs::read(path) {
            Ok(data) => {
                run_serve(&grammar_text, LoopReader::new(data, flags.loops), &flags, &mut status)
            }
            Err(e) => {
                eprintln!("cfgtag serve: cannot read {path}: {e}");
                return 1;
            }
        },
        None => run_serve(&grammar_text, std::io::stdin().lock(), &flags, &mut status),
    };
    match outcome {
        Ok(out) => {
            if let Some((path, jsonl)) = &out.flight_dump {
                if let Err(e) = std::fs::write(path, jsonl) {
                    eprintln!("cfgtag serve: cannot write {path}: {e}");
                    return 1;
                }
            }
            out.code
        }
        Err(e) => {
            eprintln!("cfgtag serve: {e}");
            e.code
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ITE: &str = r#"
        %%
        E: "if" C "then" E "else" E | "go" | "stop";
        C: "true" | "false";
        %%
    "#;

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_values_and_positionals() {
        let (f, pos) = ServeFlags::parse(&argv(&[
            "g.y",
            "in.xml",
            "--port",
            "9100",
            "--loop",
            "0",
            "--recover",
            "--chunk",
            "4096",
            "--flight-out",
            "f.jsonl",
            "--max-bytes",
            "1000000",
            "--shards",
            "4",
        ]))
        .unwrap();
        assert_eq!(pos, vec!["g.y".to_string(), "in.xml".to_string()]);
        assert_eq!(f.port, 9100);
        assert_eq!(f.loops, 0);
        assert!(f.recover);
        assert_eq!(f.chunk, 4096);
        assert_eq!(f.flight_out.as_deref(), Some("f.jsonl"));
        assert_eq!(f.max_bytes, Some(1_000_000));
        assert_eq!(f.shards, 4);
        assert_eq!(ServeFlags::parse(&argv(&["--port"])).unwrap_err().code, 2);
        assert_eq!(ServeFlags::parse(&argv(&["--bogus"])).unwrap_err().code, 2);
        // The flight ring has one fixed depth; sizing it is not an option.
        let gone = ServeFlags::parse(&argv(&["--flight-capacity", "512"])).unwrap_err();
        assert_eq!(gone.code, 2);
        assert!(gone.to_string().contains("unknown serve flag --flight-capacity"), "{gone}");
        assert_eq!(ServeFlags::parse(&argv(&["a", "b", "c"])).unwrap_err().code, 2);
    }

    #[test]
    fn loop_reader_replays_and_terminates() {
        let mut r = LoopReader::new(b"abc".to_vec(), 3);
        let mut all = Vec::new();
        r.read_to_end(&mut all).unwrap();
        assert_eq!(all, b"abcabcabc");
        // loops=0 means forever: pull more than one copy and stop.
        let mut forever = LoopReader::new(b"xy".to_vec(), 0);
        let mut buf = [0u8; 7];
        let mut got = 0;
        while got < buf.len() {
            got += forever.read(&mut buf[got..]).unwrap();
        }
        assert_eq!(&buf, b"xyxyxyx");
        // An empty buffer never spins.
        assert_eq!(LoopReader::new(Vec::new(), 0).read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn serve_streams_and_reports_outcome() {
        let input = LoopReader::new(b"if true then go else stop ".to_vec(), 50);
        let flags = ServeFlags { recover: true, chunk: 16, ..Default::default() };
        let mut lines = Vec::new();
        let out = run_serve(ITE, input, &flags, &mut |l| lines.push(l.to_string())).unwrap();
        assert_eq!(out.code, 0);
        assert_eq!(out.bytes, 26 * 50);
        // §5.2 recovery restarts the machine between repetitions, which
        // costs some events near each boundary; the stream must still
        // tag steadily across all 50 copies rather than die after one.
        assert!(
            out.events >= 100 && out.resyncs > 0,
            "events: {} resyncs: {}",
            out.events,
            out.resyncs
        );
        assert!(lines[0].contains("http://127.0.0.1:"), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("resyncs")));
        assert!(out.flight_dump.is_none());
    }

    #[test]
    fn serve_dead_stream_exits_3_and_dumps_flight() {
        let input = LoopReader::new(b"go zzzzz".to_vec(), 1);
        let flags =
            ServeFlags { flight_out: Some("dump.jsonl".into()), chunk: 4, ..Default::default() };
        let out = run_serve(ITE, input, &flags, &mut |_| {}).unwrap();
        assert_eq!(out.code, 3);
        let (path, jsonl) = out.flight_dump.expect("flight dump");
        assert_eq!(path, "dump.jsonl");
        assert!(jsonl.contains("\"kind\":\"dead_entry\""), "{jsonl}");
        assert!(jsonl.contains("\"seq\":"));
    }

    #[test]
    fn serve_sharded_fans_out_lines() {
        let input = LoopReader::new(b"if true then go else stop\n".to_vec(), 20);
        let flags = ServeFlags { shards: 2, chunk: 16, ..Default::default() };
        let mut lines = Vec::new();
        let out = run_serve(ITE, input, &flags, &mut |l| lines.push(l.to_string())).unwrap();
        assert_eq!(out.code, 0);
        assert_eq!(out.bytes, 26 * 20);
        // Every line is an independent message: 6 tags each, no carry of
        // dead state between messages (so no --recover needed).
        assert_eq!(out.events, 6 * 20);
        assert!(lines.iter().any(|l| l.contains("20 messages over 2 shards")), "{lines:?}");
    }

    fn ite_tagger() -> TokenTagger {
        TokenTagger::compile(&load_grammar(ITE).unwrap(), TaggerOptions::default()).unwrap()
    }

    /// Run `f` on its own thread and give it ten seconds: what it
    /// returned, or what it panicked with.
    fn within_10s<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
        });
        let result = rx.recv_timeout(Duration::from_secs(10)).expect("the run hung");
        run.join().expect("the run's thread catches its panic");
        result
    }

    #[test]
    fn serve_sharded_tags_every_line_exactly_once() {
        // Lines of different event counts, blank lines between some,
        // and a last line with no newline; 7-byte reads split lines.
        let sentences: [&[u8]; 5] =
            [b"if true then go else stop", b"go", b"stop", b"if false then stop else go", b"zzz"];
        let mut input = Vec::new();
        for i in 0..60 {
            input.extend_from_slice(sentences[i % sentences.len()]);
            input.extend_from_slice(if i % 7 == 0 { b"\n\n\n" } else { b"\n" });
        }
        input.extend_from_slice(b"if true then stop else go");
        let t = ite_tagger();
        let lines: Vec<&[u8]> = input.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
        let events: usize = lines.iter().map(|line| t.tag(line).len()).sum();
        assert_eq!(lines.len(), 61);
        for shards in [2, 3] {
            let flags = ServeFlags { shards, chunk: 7, ..Default::default() };
            let mut status = Vec::new();
            let out =
                run_serve(ITE, &input[..], &flags, &mut |l| status.push(l.to_string())).unwrap();
            assert_eq!((out.code, out.bytes), (0, input.len() as u64));
            assert_eq!(out.events, events as u64, "{shards} shards");
            let told = format!("61 messages over {shards} shards");
            assert!(status.contains(&told), "{status:?}");
        }
    }

    #[test]
    fn serve_sharded_max_bytes_tags_the_partial_line() {
        let line = b"if true then go else stop\n";
        let cut = 3 * line.len() + 15; // mid-line, after "if true then go"
        let flags =
            ServeFlags { shards: 2, chunk: 8, max_bytes: Some(cut as u64), ..Default::default() };
        let mut status = Vec::new();
        let input = LoopReader::new(line.to_vec(), 0);
        let out = run_serve(ITE, input, &flags, &mut |l| status.push(l.to_string())).unwrap();
        let t = ite_tagger();
        let events = 3 * t.tag(&line[..line.len() - 1]).len() + t.tag(&line[..15]).len();
        assert_eq!((out.code, out.bytes, out.events), (0, cut as u64, events as u64));
        assert!(status.contains(&"4 messages over 2 shards".to_string()), "{status:?}");
    }

    #[test]
    fn serve_sharded_refuses_a_line_past_the_frame_bound() {
        // An endless input with no newline: the line must be refused at
        // the frame bound, not buffered until memory runs out. The run
        // returns only once its scope has joined every worker.
        let flags = ServeFlags { shards: 2, ..Default::default() };
        let run = within_10s(move || {
            run_serve(ITE, LoopReader::new(b"go ".to_vec(), 0), &flags, &mut |_| {})
        });
        let err = run.expect("no panic").expect_err("a line past the bound");
        assert_eq!(err.code, 1);
        assert!(err.to_string().contains(&MAX_FRAME.to_string()), "{err}");
    }

    #[test]
    fn serve_sharded_reraises_a_worker_panic_without_hanging() {
        // The input never ends: only the dead worker's refused channel
        // can stop the reader.
        let run = within_10s(|| {
            let shards = [ite_tagger(), ite_tagger()];
            let flags = ServeFlags { shards: 2, chunk: 4, ..Default::default() };
            let input = LoopReader::new(b"go\nstop\nboom\ngo\n".to_vec(), 0);
            fan_out(input, &flags, &shards, |t, line| {
                assert_ne!(line, b"boom", "poison line");
                t.tag(line);
            })
        });
        let panic = run.expect_err("the worker's panic is re-raised");
        let msg = panic.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(msg.contains("poison line"), "{msg:?}");
    }

    #[test]
    fn listen_flags_parse() {
        let (f, _) = ServeFlags::parse(&argv(&[
            "g.y",
            "--listen",
            "127.0.0.1:0",
            "--max-sessions",
            "8",
            "--idle-timeout-ms",
            "250",
            "--queue-depth",
            "16",
            "--panic-token",
            "POISON",
            "--trace-sample",
            "4",
            "--slo-ms",
            "25",
            "--audit-sample",
            "8",
        ]))
        .unwrap();
        assert_eq!(f.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(f.max_sessions, 8);
        assert_eq!(f.idle_timeout_ms, 250);
        assert_eq!(f.queue_depth, 16);
        assert_eq!(f.panic_token.as_deref(), Some("POISON"));
        assert_eq!(f.trace_sample, 4);
        assert_eq!(f.slo_ms, 25);
        assert_eq!(f.audit_sample, 8);
        // Tracing and audit telemetry default to off.
        let (defaults, _) = ServeFlags::parse(&argv(&["g.y"])).unwrap();
        assert_eq!(defaults.trace_sample, 0);
        assert_eq!(defaults.slo_ms, 50);
        assert_eq!(defaults.audit_sample, 0);
        assert_eq!(ServeFlags::parse(&argv(&["--listen"])).unwrap_err().code, 2);
        // Every frame is tagged by the production engine: there is no
        // engine to choose, and the flag is rejected like any unknown one.
        let gone = ServeFlags::parse(&argv(&["--engine", "scalar"])).unwrap_err();
        assert_eq!(gone.code, 2);
        assert!(gone.to_string().contains("unknown serve flag --engine"), "{gone}");
        // There is no serving-model choice to make either.
        let gone = ServeFlags::parse(&argv(&["--io-model", "reactor"])).unwrap_err();
        assert_eq!(gone.code, 2);
        assert!(gone.to_string().contains("unknown serve flag --io-model"), "{gone}");
        // Nor is there a sampler to set: shard-gate load is counted.
        let gone = ServeFlags::parse(&argv(&["--sample-hz", "5"])).unwrap_err();
        assert_eq!(gone.code, 2);
        assert!(gone.to_string().contains("unknown serve flag --sample-hz"), "{gone}");
        assert_eq!(ServeFlags::parse(&argv(&["--trace-sample"])).unwrap_err().code, 2);
    }

    #[test]
    fn listen_mode_serves_ingest_sessions() {
        use cfg_server::{Client, Reply};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;

        let flags = ServeFlags {
            listen: Some("127.0.0.1:0".into()),
            shards: 2,
            trace_sample: 1,
            ..Default::default()
        };
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<String>();
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut status = move |l: &str| {
                let _ = tx.send(l.to_string());
            };
            run_listen(ITE, &flags, &mut status, &|| thread_stop.load(Ordering::SeqCst))
        });
        // First status line carries the bound ingest address, the
        // second the exporter address.
        let first = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        let addr = first
            .strip_prefix("ingest on ")
            .and_then(|r| r.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected status line: {first}"))
            .to_string();
        let second = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(second.contains("/spans.jsonl"), "traced listen must advertise spans: {second}");
        let metrics_addr = second
            .split("http://")
            .nth(1)
            .and_then(|r| r.split('/').next())
            .unwrap_or_else(|| panic!("unexpected status line: {second}"))
            .to_string();

        let mut client = Client::connect(&addr).unwrap();
        match client.request(b"if true then go else stop").unwrap() {
            Reply::Acked { events, .. } => assert_eq!(events.len(), 6),
            other => panic!("expected ack, got {other:?}"),
        }
        client.close().unwrap();

        // The SLO pipeline is live mid-run: the snapshot renders through
        // the `watch slo` view and has folded in the acked frame.
        let mut live = cfg_obs::Snapshot::default();
        for _ in 0..200 {
            let body = cfg_obs_http::http_get(&metrics_addr, "/snapshot.json").unwrap();
            live = cfg_obs::Snapshot::parse(&body).unwrap();
            if live.value("cfgtag_slo_frames_total", &[]) >= Some(1.0) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            live.value("cfgtag_slo_frames_total", &[]),
            Some(1.0),
            "tracker missed the frame"
        );
        assert_eq!(live.value("cfgtag_slo_objective_ns", &[]), Some(50e6));
        let engine = live.histogram("cfgtag_srv_stage_ns", &[("stage", "engine")]).unwrap();
        assert_eq!(engine.count, 1);
        let frame = crate::slo::render(None, &live, 1.0).unwrap();
        assert!(frame.contains("objective p99 < 50.00ms   frames 1"), "{frame}");

        stop.store(true, Ordering::SeqCst);
        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.sessions_served, 1);
        assert!(report.shard.messages >= 1);
    }

    #[test]
    fn serve_max_bytes_caps_the_stream() {
        let input = LoopReader::new(b"go ".to_vec(), 0); // endless
        let flags =
            ServeFlags { recover: true, chunk: 8, max_bytes: Some(240), ..Default::default() };
        let out = run_serve(ITE, input, &flags, &mut |_| {}).unwrap();
        assert_eq!(out.code, 0);
        assert_eq!(out.bytes, 240);
    }
}
