//! # cfg-cli — the `cfgtag` command
//!
//! A thin, dependency-free command-line front end over the workspace:
//!
//! ```text
//! cfgtag check  <grammar.y>                      grammar diagnostics + FOLLOW table
//! cfgtag tag    <grammar.y> [input] [opts]       tag a byte stream
//! cfgtag parse  <grammar.y> [input]              exact (stack-augmented) parse
//! cfgtag vhdl   <grammar.y> [entity]             emit the generated VHDL
//! cfgtag dot    <grammar.y>                      emit the circuit as Graphviz
//! cfgtag report <grammar.y> [--scale N] [--json] LUT/timing report on both devices
//! cfgtag serve  <grammar.y> [input] [opts]       long-running tagging + /metrics exporter
//! cfgtag watch  <view> <host:port> [opts]        live terminal view over an exporter
//! ```
//!
//! `watch` draws one of five views ([`watch`]): `top` (engine counters
//! and hot tokens), `slo` (latency objective + stage waterfall),
//! `shards` (shard-gate load), `audit` (live precision + divergences)
//! and `scope` (circuit probes, heat map, triggered capture).
//!
//! Options for `tag`: `--engine {bit,scalar,gate}` (which engine
//! tags the stream), `--always` (scan at every alignment), `--recover` (§5.2
//! error recovery), `--no-context` (skip token duplication), `--stats`
//! (counter/timing report after the events), `--trace-out PATH` (write
//! the last 4096 trace events as JSON lines), `--flight-out PATH` (the
//! same flight-ring dump, written only when the stream dies).
//!
//! `tag` always ends with a one-line summary (`N events, M bytes, R
//! resyncs`) on **stderr** — stdout carries only the event stream, so
//! piping it stays clean — and exits with code 3 when the stream ends
//! with the machine dead and error recovery off: scriptable
//! non-conformance detection.
//!
//! All commands except [`serve`] and [`watch`] (which own sockets and
//! wall clocks by nature) are plain functions over in-memory inputs so
//! they are unit-testable without process spawning; `watch` writes to
//! the writers it is given, so its loop is tested against in-process
//! servers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod poll;
pub mod scope;
pub mod serve;
pub mod shards;
pub mod slo;
pub mod top;
pub mod watch;

use cfg_fpga::Device;
use cfg_grammar::Grammar;
use cfg_hwgen::vhdl::emit_vhdl;
use cfg_netlist::MappedNetlist;
use cfg_obs::{json, FlightRecorder, Metrics, MetricsSink, Stat, StatsSink, TeeSink};
use cfg_tagger::{EngineKind, PdaParser, StartMode, TaggerOptions, TokenTagger};
use std::fmt::Write as _;
use std::sync::Arc;

/// CLI errors (message + suggested exit code).
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn new(message: impl Into<String>, code: i32) -> CliError {
        CliError { message: message.into(), code }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// **The** exit-code mapping: every [`cfg_tagger::Error`] becomes a
/// process exit code here and nowhere else. Usage errors are code 2
/// (constructed directly at the parse sites); everything the engine
/// stack can raise is code 1, except a dead stream, which keeps its
/// long-standing scriptable code 3.
impl From<cfg_tagger::Error> for CliError {
    fn from(e: cfg_tagger::Error) -> CliError {
        let code = match &e {
            cfg_tagger::Error::DeadStream => 3,
            _ => 1,
        };
        CliError::new(e.to_string(), code)
    }
}

/// A command's successful result: text for stdout, an exit code, and
/// side-channel files for the caller to write (the library itself never
/// touches the filesystem).
#[derive(Debug, Default)]
pub struct CliOutput {
    /// Text to print to stdout.
    pub text: String,
    /// Text to print to stderr (summaries and diagnostics, so stdout
    /// stays a clean pipeline of command output).
    pub stderr: String,
    /// Process exit code (0 = clean; `tag` uses 3 for "stream ended
    /// dead without error recovery").
    pub code: i32,
    /// `(path, contents)` pairs to write, e.g. the `--trace-out` JSONL.
    pub files: Vec<(String, String)>,
}

impl From<String> for CliOutput {
    fn from(text: String) -> CliOutput {
        CliOutput { text, ..Default::default() }
    }
}

/// Parsed `tag` options.
#[derive(Debug, Default, Clone)]
pub struct TagFlags {
    /// Which engine tags the stream (`--engine bit|scalar|gate`).
    pub engine: EngineKind,
    /// Scan at every byte alignment.
    pub always: bool,
    /// Enable §5.2 error recovery.
    pub recover: bool,
    /// Skip §3.2 context duplication.
    pub no_context: bool,
    /// Append the counter/timing report after the events.
    pub stats: bool,
    /// Write the flight ring (JSON lines) to this path.
    pub trace_out: Option<String>,
    /// Write the flight ring (JSON lines) to this path when the stream
    /// ends dead.
    pub flight_out: Option<String>,
}

impl TagFlags {
    /// Parse the full `tag` argument tail: flags in any position, plus
    /// at most one positional input path.
    pub fn parse(args: &[String]) -> Result<(TagFlags, Option<String>), CliError> {
        let mut f = TagFlags::default();
        let mut input: Option<String> = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--engine" => {
                    let name =
                        it.next().ok_or_else(|| CliError::new("--engine needs a name", 2))?;
                    f.engine = name.parse().map_err(|e: String| CliError::new(e, 2))?;
                }
                "--always" => f.always = true,
                "--recover" => f.recover = true,
                "--no-context" => f.no_context = true,
                "--stats" => f.stats = true,
                "--trace-out" => {
                    let path =
                        it.next().ok_or_else(|| CliError::new("--trace-out needs a path", 2))?;
                    f.trace_out = Some(path.clone());
                }
                "--flight-out" => {
                    let path =
                        it.next().ok_or_else(|| CliError::new("--flight-out needs a path", 2))?;
                    f.flight_out = Some(path.clone());
                }
                other if other.starts_with("--") => {
                    return Err(CliError::new(format!("unknown flag {other}"), 2));
                }
                path => {
                    if input.replace(path.to_owned()).is_some() {
                        return Err(CliError::new("tag takes at most one input file", 2));
                    }
                }
            }
        }
        Ok((f, input))
    }

    fn options(&self) -> TaggerOptions {
        TaggerOptions {
            start_mode: if self.always { StartMode::Always } else { StartMode::AtStart },
            duplicate_contexts: !self.no_context,
            error_recovery: self.recover,
            ..Default::default()
        }
    }
}

pub(crate) fn load_grammar(text: &str) -> Result<Grammar, CliError> {
    Grammar::parse(text).map_err(|e| CliError::from(cfg_tagger::Error::from(e)))
}

/// `cfgtag check`: summary, warnings and the FOLLOW table.
pub fn cmd_check(grammar_text: &str) -> Result<String, CliError> {
    let g = load_grammar(grammar_text)?;
    let a = g.analyze();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "grammar ok: {} tokens, {} nonterminals, {} productions, {} pattern bytes",
        g.tokens().len(),
        g.nonterminals().len(),
        g.productions().len(),
        g.pattern_bytes()
    );
    let start: Vec<&str> = a.start_set.iter().map(|t| g.token_name(t)).collect();
    let _ = writeln!(out, "start set: {{{}}}", start.join(", "));

    for l in cfg_grammar::lint(&g) {
        let _ = writeln!(out, "{l}");
    }
    out.push('\n');
    out.push_str(&a.follow_table(&g));
    Ok(out)
}

/// `cfgtag tag`: tag an input and render the events.
///
/// Always attaches a [`StatsSink`] (process startup dwarfs its cost) so
/// the trailing summary line — `N events, M bytes, R resyncs`, emitted
/// on stderr so stdout stays pipeable — is available on every run.
/// `--stats` renders the full counter/fire/compile report. Either of
/// `--trace-out PATH` and `--flight-out PATH` records trace events into
/// one [`FlightRecorder`] (the last [`cfg_obs::DEFAULT_FLIGHT_CAPACITY`]
/// events); `--trace-out` returns its dump via [`CliOutput::files`],
/// `--flight-out` only when the stream ends dead. When the stream ends
/// with the machine dead and error recovery off, the exit code is 3.
pub fn cmd_tag(grammar_text: &str, input: &[u8], flags: &TagFlags) -> Result<CliOutput, CliError> {
    let g = load_grammar(grammar_text)?;
    let tagger = TokenTagger::compile(&g, flags.options()).map_err(CliError::from)?;
    let sink = Arc::new(StatsSink::with_tokens(tagger.grammar().tokens().len()));
    let traced = flags.trace_out.is_some() || flags.flight_out.is_some();
    let flight = traced.then(|| Arc::new(FlightRecorder::default()));
    let metrics = match &flight {
        Some(fr) => Metrics::new(Arc::new(TeeSink::new(vec![
            sink.clone() as Arc<dyn MetricsSink>,
            fr.clone() as Arc<dyn MetricsSink>,
        ]))),
        None => Metrics::new(sink.clone()),
    };
    // One construction path for every engine kind: the trait object
    // from [`TokenTagger::engine`], driven through the slice-first API.
    // The gate kind arrives pre-wrapped in a `GateStream` (span
    // recovery + functional liveness mirror).
    let tagger = tagger.with_metrics(metrics);
    let mut engine = tagger.engine(flags.engine).map_err(CliError::from)?;
    let mut events = Vec::new();
    engine.feed_slice(input, &mut events).map_err(CliError::from)?;
    engine.finish_into(&mut events).map_err(CliError::from)?;
    let ended_dead = engine.is_dead();
    let mut out = String::new();
    let _ = writeln!(out, "{:<20} {:>6} {:>6}  lexeme / context", "token", "start", "end");
    for ev in &events {
        let _ = writeln!(
            out,
            "{:<20} {:>6} {:>6}  {:?}  {}",
            tagger.token_name(ev.token),
            ev.start,
            ev.end,
            String::from_utf8_lossy(ev.lexeme(input)),
            tagger.context(ev.token).map(|c| c.to_string()).unwrap_or_default(),
        );
    }
    if flags.stats {
        let _ = writeln!(out, "-- stats --");
        let _ = writeln!(out, "counters:");
        for stat in Stat::ALL {
            let v = sink.get(stat);
            if v > 0 {
                let _ = writeln!(out, "  {:<24} {:>10}", stat.name(), v);
            }
        }
        let _ = writeln!(out, "token fires:");
        for (i, tok) in tagger.grammar().tokens().iter().enumerate() {
            let fires = sink.token_fires(i as u32);
            if fires > 0 {
                let _ = writeln!(out, "  {:<24} {:>10}", tok.name, fires);
            }
        }
        let _ = writeln!(out, "compile report:");
        let _ = write!(out, "{}", tagger.report());
    }
    let mut files = Vec::new();
    if let (Some(fr), Some(path)) = (&flight, &flags.trace_out) {
        files.push((path.clone(), fr.dump_jsonl()));
    }
    let mut stderr = String::new();
    let _ = writeln!(
        stderr,
        "{} events, {} bytes, {} resyncs",
        events.len(),
        sink.get(Stat::BytesIn),
        sink.get(Stat::Resyncs)
    );
    let code = if ended_dead && !flags.recover {
        let _ = writeln!(stderr, "error: stream ended in a dead state (no recovery; exit 3)");
        3
    } else {
        0
    };
    if let (Some(fr), Some(path)) = (&flight, &flags.flight_out) {
        if ended_dead {
            let _ = writeln!(stderr, "flight recorder: {} events -> {path}", fr.len());
            files.push((path.clone(), fr.dump_jsonl()));
        }
    }
    Ok(CliOutput { text: out, stderr, code, files })
}

/// `cfgtag parse`: exact stack-augmented parse.
pub fn cmd_parse(grammar_text: &str, input: &[u8]) -> Result<String, CliError> {
    let g = load_grammar(grammar_text)?;
    let pda = PdaParser::new(&g);
    let r = pda.parse(input);
    let mut out = String::new();
    if r.accepted {
        let _ = writeln!(out, "ACCEPT ({} tokens)", r.events.len());
        for ev in &r.events {
            let _ = writeln!(
                out,
                "  {:<20} {:>6}..{:<6} {:?}",
                g.token_name(ev.token),
                ev.start,
                ev.end,
                String::from_utf8_lossy(ev.lexeme(input))
            );
        }
        Ok(out)
    } else {
        let _ = writeln!(out, "REJECT");
        Ok(out)
    }
}

/// `cfgtag vhdl`: emit the generated circuit as VHDL.
pub fn cmd_vhdl(grammar_text: &str, entity: &str) -> Result<String, CliError> {
    let g = load_grammar(grammar_text)?;
    let tagger = TokenTagger::compile(&g, TaggerOptions::default()).map_err(CliError::from)?;
    Ok(emit_vhdl(&tagger.hardware().netlist, entity))
}

/// `cfgtag dot`: emit the circuit as Graphviz.
pub fn cmd_dot(grammar_text: &str) -> Result<String, CliError> {
    let g = load_grammar(grammar_text)?;
    let tagger = TokenTagger::compile(&g, TaggerOptions::default()).map_err(CliError::from)?;
    Ok(cfg_netlist::to_dot(&tagger.hardware().netlist, "tagger"))
}

/// `cfgtag report`: area/timing on both device models.
///
/// With `json` set, emits one machine-readable object (structure stats,
/// per-device timing, and the compile-stage report) instead of the
/// human-readable table.
pub fn cmd_report(grammar_text: &str, scale: usize, json: bool) -> Result<String, CliError> {
    let g = load_grammar(grammar_text)?;
    // Refuse a scale past the position bound before replicating: compile
    // would refuse the result only after it was built.
    let positions = g.pattern_bytes().saturating_mul(scale);
    if positions > cfg_regex::MAX_POSITIONS {
        let too_many = cfg_grammar::GrammarError::TooManyPositions { positions };
        return Err(cfg_tagger::Error::from(too_many).into());
    }
    let g = if scale > 1 { cfg_grammar::scale::replicate(&g, scale) } else { g };
    let g = cfg_grammar::transform::duplicate_multi_context_tokens(&g);
    let tagger =
        TokenTagger::compile(&g, TaggerOptions { duplicate_contexts: false, ..Default::default() })
            .map_err(CliError::from)?;
    let hw = tagger.hardware();
    let mapped = MappedNetlist::map(&hw.netlist);
    let stats = mapped.stats();

    if json {
        let mut out = String::new();
        out.push('{');
        let _ = write!(
            out,
            "\"tokens\":{},\"pattern_bytes\":{},\"decoder_classes\":{},",
            hw.tokens.len(),
            hw.pattern_bytes,
            hw.decoder_classes
        );
        let _ = write!(
            out,
            "\"luts\":{},\"ffs\":{},\"depth\":{},\"max_fanout\":{},",
            stats.luts, stats.regs, stats.depth, stats.max_fanout
        );
        out.push_str("\"devices\":[");
        for (i, device) in [Device::virtex4_lx200(), Device::virtexe_2000()].into_iter().enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let t = device.analyze(&mapped);
            out.push_str("{\"device\":");
            json::push_str(&mut out, &t.device);
            out.push_str(",\"freq_mhz\":");
            json::push_f64(&mut out, t.freq_mhz);
            out.push_str(",\"bandwidth_gbps\":");
            json::push_f64(&mut out, t.bandwidth_gbps());
            let _ = write!(
                out,
                ",\"critical_levels\":{},\"critical_fanout\":{}}}",
                t.critical_levels, t.critical_fanout
            );
        }
        out.push_str("],\"compile\":");
        out.push_str(&tagger.report().to_json());
        out.push_str("}\n");
        return Ok(out);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "tokens: {}   pattern bytes: {}   decoder classes: {}",
        hw.tokens.len(),
        hw.pattern_bytes,
        hw.decoder_classes
    );
    let _ = writeln!(
        out,
        "LUTs: {}   FFs: {}   logic depth: {}   max fanout: {}",
        stats.luts, stats.regs, stats.depth, stats.max_fanout
    );
    for device in [Device::virtex4_lx200(), Device::virtexe_2000()] {
        let t = device.analyze(&mapped);
        let _ = writeln!(
            out,
            "{:<16} {:>7.0} MHz  {:>5.2} Gbps (critical: {} levels, fanout {})",
            t.device,
            t.freq_mhz,
            t.bandwidth_gbps(),
            t.critical_levels,
            t.critical_fanout
        );
    }
    Ok(out)
}

/// Top-level dispatch; returns the text to print plus the exit code and
/// any files the caller should write.
pub fn run(
    args: &[String],
    read_input: impl Fn(&str) -> Result<Vec<u8>, std::io::Error>,
) -> Result<CliOutput, CliError> {
    let usage = "usage: cfgtag <check|tag|parse|vhdl|dot|report|serve> <grammar-file> [args]\n\
                 \x20      cfgtag watch <top|slo|shards|audit|scope> <host:port> [args]\n\
                 see crate docs for per-command options";
    let cmd = args.first().ok_or_else(|| CliError::new(usage, 2))?;
    // Each command reads its grammar file itself, so an unknown command
    // is refused before its argument is read as one.
    let grammar = || -> Result<String, CliError> {
        let path = args.get(1).ok_or_else(|| CliError::new(usage, 2))?;
        let text =
            read_input(path).map_err(|e| CliError::new(format!("cannot read {path}: {e}"), 1))?;
        Ok(String::from_utf8_lossy(&text).into_owned())
    };
    match cmd.as_str() {
        "check" => cmd_check(&grammar()?).map(CliOutput::from),
        "tag" => {
            let grammar_text = grammar()?;
            let (flags, input_path) = TagFlags::parse(&args[2..])?;
            let input = match input_path.as_deref() {
                Some(path) => read_input(path)
                    .map_err(|e| CliError::new(format!("cannot read {path}: {e}"), 1))?,
                None => read_input("-")
                    .map_err(|e| CliError::new(format!("cannot read stdin: {e}"), 1))?,
            };
            cmd_tag(&grammar_text, &input, &flags)
        }
        "parse" => {
            let grammar_text = grammar()?;
            let input = match args.get(2) {
                Some(path) => read_input(path)
                    .map_err(|e| CliError::new(format!("cannot read {path}: {e}"), 1))?,
                None => read_input("-")
                    .map_err(|e| CliError::new(format!("cannot read stdin: {e}"), 1))?,
            };
            cmd_parse(&grammar_text, &input).map(CliOutput::from)
        }
        "vhdl" => cmd_vhdl(&grammar()?, args.get(2).map(String::as_str).unwrap_or("tagger"))
            .map(CliOutput::from),
        "dot" => cmd_dot(&grammar()?).map(CliOutput::from),
        "report" => {
            let grammar_text = grammar()?;
            let mut scale = 1usize;
            let mut json = false;
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--scale" => {
                        scale = it
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| CliError::new("--scale needs a number", 2))?;
                    }
                    "--json" => json = true,
                    other => {
                        return Err(CliError::new(format!("unknown report flag {other}"), 2));
                    }
                }
            }
            cmd_report(&grammar_text, scale, json).map(CliOutput::from)
        }
        // `serve` and `watch` own sockets, clocks and process lifetime,
        // so they live outside this pure dispatcher; the binary
        // intercepts them before calling `run` (see `serve::main_io`
        // and `watch::run`).
        "serve" | "watch" => Err(CliError::new(
            format!("{cmd} is handled by the cfgtag binary, not cfg_cli::run"),
            2,
        )),
        other => Err(CliError::new(format!("unknown command {other}\n{usage}"), 2)),
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

    #[test]
    fn check_reports_follow_table() {
        let out = cmd_check(ITE).unwrap();
        assert!(out.contains("7 tokens"));
        assert!(out.contains("start set: {if, go, stop}") || out.contains("start set: {"));
        assert!(out.contains("go"));
        assert!(out.contains("ε"));
    }

    #[test]
    fn check_warns_on_unused() {
        let out = cmd_check("UNUSED [0-9]+\n%%\ns: \"a\";\n%%\n").unwrap();
        assert!(out.contains("warning[unused-token]: token UNUSED"));
    }

    #[test]
    fn tag_all_engines_agree() {
        let input = b"if true then go else stop";
        let fast = cmd_tag(ITE, input, &TagFlags::default()).unwrap();
        for kind in [EngineKind::Scalar, EngineKind::Gate] {
            let other =
                cmd_tag(ITE, input, &TagFlags { engine: kind, ..Default::default() }).unwrap();
            assert_eq!(fast.text, other.text, "engine {kind}");
            assert_eq!(other.code, 0, "engine {kind}");
        }
        // A sentence, then a long junk tail: the bit engine crosses the
        // dead tail with its O(1) skip, and every engine must still print
        // the same events and exit 3 on the dead stream.
        let mut dead = input.to_vec();
        dead.extend(std::iter::repeat_n(b'z', 300));
        let outs: Vec<CliOutput> = EngineKind::ALL
            .iter()
            .map(|&engine| cmd_tag(ITE, &dead, &TagFlags { engine, ..Default::default() }).unwrap())
            .collect();
        for (kind, out) in EngineKind::ALL.iter().zip(&outs) {
            assert_eq!(out.text, fast.text, "engine {kind}");
            assert_eq!(out.code, 3, "engine {kind}");
            assert!(out.stderr.contains("6 events, 325 bytes"), "engine {kind}: {}", out.stderr);
        }
        assert_eq!(fast.code, 0);
        assert!(fast.stderr.contains("6 events, 25 bytes, 0 resyncs"));
        // The summary is a stderr-only diagnostic: stdout stays a clean
        // pipeline of header + events.
        assert!(!fast.text.contains("6 events, 25 bytes"));
        assert!(fast.text.lines().all(|l| l.starts_with("token") || l.contains("  ")));
    }

    #[test]
    fn tag_stats_reports_fires_and_compile_stages() {
        let out = cmd_tag(
            ITE,
            b"if true then go else stop",
            &TagFlags { stats: true, ..Default::default() },
        )
        .unwrap();
        assert!(out.text.contains("-- stats --"));
        assert!(out.text.contains("bytes_in"));
        assert!(out.text.contains("events_out"));
        // Per-token fire counts: each of the six tokens fired once.
        for tok in ["if", "true", "then", "go", "else", "stop"] {
            assert!(
                out.text.lines().any(|l| {
                    let mut w = l.split_whitespace();
                    w.next() == Some(tok) && w.next() == Some("1")
                }),
                "missing fire line for {tok}: {}",
                out.text
            );
        }
        assert!(out.text.contains("compile report:"));
        assert!(out.text.contains("token_duplication"));
    }

    #[test]
    fn tag_trace_out_returns_jsonl_file() {
        let out = cmd_tag(
            ITE,
            b"go",
            &TagFlags { trace_out: Some("t.jsonl".into()), ..Default::default() },
        )
        .unwrap();
        assert_eq!(out.files.len(), 1);
        assert_eq!(out.files[0].0, "t.jsonl");
        assert!(out.files[0].1.starts_with("{\"seq\":0,\"kind\":\"token_fire\""));
        // The trace keeps the flight ring's depth: the newest 4096
        // events, in the same lines `--flight-out` writes.
        let long = "go ".repeat(5000);
        let flags = TagFlags {
            recover: true,
            trace_out: Some("t.jsonl".into()),
            flight_out: Some("f.jsonl".into()),
            ..Default::default()
        };
        let out = cmd_tag("%%\ns: \"go\";\n%%\n", long.as_bytes(), &flags).unwrap();
        let trace = &out.files[0].1;
        assert_eq!(trace.lines().count(), cfg_obs::DEFAULT_FLIGHT_CAPACITY);
        assert!(trace.ends_with('\n'));
        assert!(!trace.starts_with("{\"seq\":0,"), "oldest events are evicted");
    }

    #[test]
    fn tag_dead_stream_without_recovery_is_code_3() {
        let dead = cmd_tag(ITE, b"zzz", &TagFlags::default()).unwrap();
        assert_eq!(dead.code, 3);
        assert!(dead.stderr.contains("dead state"));
        assert!(!dead.text.contains("dead state"));
        // With §5.2 recovery the machine resynchronises and exits clean.
        let rec =
            cmd_tag(ITE, b"zzz go", &TagFlags { recover: true, ..Default::default() }).unwrap();
        assert_eq!(rec.code, 0, "{}", rec.stderr);
        assert!(rec.stderr.lines().last().unwrap().contains("resyncs"));
    }

    #[test]
    fn tag_flight_out_dumps_on_dead_stream_only() {
        // A dead stream (exit 3) produces the post-mortem dump ...
        let out = cmd_tag(
            ITE,
            b"go zzz",
            &TagFlags { flight_out: Some("f.jsonl".into()), ..Default::default() },
        )
        .unwrap();
        assert_eq!(out.code, 3);
        assert_eq!(out.files.len(), 1);
        assert_eq!(out.files[0].0, "f.jsonl");
        assert!(out.files[0].1.contains("\"kind\":\"dead_entry\""));
        assert!(out.files[0].1.contains("\"seq\":"));
        assert!(out.stderr.contains("flight recorder:"));
        // ... a clean run does not.
        let ok = cmd_tag(
            ITE,
            b"go",
            &TagFlags { flight_out: Some("f.jsonl".into()), ..Default::default() },
        )
        .unwrap();
        assert_eq!(ok.code, 0);
        assert!(ok.files.is_empty());
    }

    #[test]
    fn tag_flag_parse_handles_values_and_positionals() {
        let argv = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let (f, input) =
            TagFlags::parse(&argv(&["--stats", "in.xml", "--trace-out", "t.jsonl"])).unwrap();
        assert!(f.stats);
        assert_eq!(f.engine, EngineKind::Bit, "bit is the default engine");
        assert_eq!(f.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(input.as_deref(), Some("in.xml"));
        assert_eq!(TagFlags::parse(&argv(&["--trace-out"])).unwrap_err().code, 2);
        assert_eq!(TagFlags::parse(&argv(&["a", "b"])).unwrap_err().code, 2);
    }

    #[test]
    fn tag_flag_parse_selects_engines() {
        let argv = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        for (args, want) in [
            (vec!["--engine", "bit"], EngineKind::Bit),
            (vec!["--engine", "scalar"], EngineKind::Scalar),
            (vec!["--engine", "gate"], EngineKind::Gate),
        ] {
            let (f, _) = TagFlags::parse(&argv(&args)).unwrap();
            assert_eq!(f.engine, want, "{args:?}");
        }
        assert_eq!(TagFlags::parse(&argv(&["--engine"])).unwrap_err().code, 2);
        // The retired `--gate` alias is an unknown flag.
        assert_eq!(TagFlags::parse(&argv(&["--gate"])).unwrap_err().code, 2);
        // Any other name is a usage error that names the engines that
        // exist.
        let bad = TagFlags::parse(&argv(&["--engine", "quantum"])).unwrap_err();
        assert_eq!(bad.code, 2);
        assert!(bad.to_string().contains("quantum"));
        assert!(bad.to_string().contains("bit, scalar, gate"), "{bad}");
    }

    #[test]
    fn tagger_errors_map_to_exit_codes_in_one_place() {
        assert_eq!(CliError::from(cfg_tagger::Error::DeadStream).code, 3);
        let io = cfg_tagger::Error::from(std::io::Error::other("boom"));
        assert_eq!(CliError::from(io).code, 1);
        let g = cfg_tagger::Error::from(Grammar::parse("not a grammar").unwrap_err());
        let e = CliError::from(g);
        assert_eq!(e.code, 1);
        assert!(e.to_string().contains("grammar error"));
    }

    #[test]
    fn parse_accepts_and_rejects() {
        assert!(cmd_parse(ITE, b"go").unwrap().starts_with("ACCEPT"));
        assert!(cmd_parse(ITE, b"go go").unwrap().starts_with("REJECT"));
    }

    #[test]
    fn vhdl_and_dot_emit() {
        let v = cmd_vhdl(ITE, "ite").unwrap();
        assert!(v.contains("entity ite is"));
        let d = cmd_dot(ITE).unwrap();
        assert!(d.starts_with("digraph tagger"));
    }

    #[test]
    fn report_json_is_machine_readable() {
        let out = cmd_report(ITE, 1, true).unwrap();
        assert!(out.starts_with('{'));
        assert!(out.contains("\"luts\":"));
        assert!(out.contains("\"devices\":[{\"device\":"));
        assert!(out.contains("\"compile\":{\"stages\":"));
    }

    #[test]
    fn report_scales() {
        let r1 = cmd_report(ITE, 1, false).unwrap();
        let r2 = cmd_report(ITE, 2, false).unwrap();
        assert!(r1.contains("Virtex4 LX200"));
        let luts = |s: &str| -> usize {
            s.lines()
                .find(|l| l.starts_with("LUTs:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|x| x.parse().ok())
                .unwrap()
        };
        assert!(luts(&r2) > luts(&r1));
        // Past the position bound the report errors before replicating.
        let e = cmd_report(ITE, 1 << 40, false).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.to_string().ends_with("positions; the limit is 8192"), "{e}");
    }

    #[test]
    fn dispatch_and_errors() {
        let read = |path: &str| -> Result<Vec<u8>, std::io::Error> {
            match path {
                "g" => Ok(ITE.as_bytes().to_vec()),
                "-" => Ok(b"go".to_vec()),
                _ => Err(std::io::Error::new(std::io::ErrorKind::NotFound, "nope")),
            }
        };
        let argv = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };

        assert!(run(&argv(&["check", "g"]), read).is_ok());
        assert!(run(&argv(&["tag", "g"]), read).unwrap().stderr.contains("1 events"));
        assert!(run(&argv(&["parse", "g"]), read).unwrap().text.starts_with("ACCEPT"));
        assert!(run(&argv(&["vhdl", "g", "top"]), read).unwrap().text.contains("entity top"));
        assert!(run(&argv(&["report", "g", "--scale", "2"]), read).is_ok());
        let json = run(&argv(&["report", "g", "--json", "--scale", "2"]), read).unwrap();
        assert!(json.text.starts_with('{'));
        let traced = run(&argv(&["tag", "g", "--trace-out", "t.jsonl"]), read).unwrap();
        assert_eq!(traced.files.len(), 1);

        assert_eq!(run(&argv(&[]), read).unwrap_err().code, 2);
        // serve and watch are binary-level commands; the pure dispatcher
        // refuses them with a pointer rather than "unknown command".
        for cmd in ["serve", "watch"] {
            let e = run(&argv(&[cmd, "g"]), read).unwrap_err();
            assert_eq!(e.code, 2);
            assert!(e.to_string().contains("cfgtag binary"));
        }
        // An unknown command (the retired live views included) is a
        // usage error before its argument is read as a grammar file.
        for cmd in ["bogus", "top", "slo", "shards", "audit", "scope"] {
            let e = run(&argv(&[cmd, "127.0.0.1:9123"]), read).unwrap_err();
            assert_eq!(e.code, 2, "{cmd}");
            assert!(e.to_string().contains(&format!("unknown command {cmd}")), "{e}");
            assert!(e.to_string().contains("cfgtag watch <top|slo|shards|audit|scope>"), "{e}");
        }
        assert_eq!(run(&argv(&["check", "missing"]), read).unwrap_err().code, 1);
        assert_eq!(run(&argv(&["tag", "g", "--frobnicate"]), read).unwrap_err().code, 2);
        assert_eq!(run(&argv(&["report", "g", "--scale", "x"]), read).unwrap_err().code, 2);
    }

    #[test]
    fn bad_grammar_is_code_1() {
        let e = cmd_check("not a grammar").unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.to_string().contains("grammar error"));
    }
}
