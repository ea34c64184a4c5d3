//! The [`TokenTagger`]: compile once, tag many streams.

use crate::bitset::{BitEngine, BitTables};
use crate::event::TagEvent;
use crate::fast::{FastTables, ScalarEngine};
use crate::gate::GateEngine;
use cfg_grammar::{transform, Context, Grammar, TokenId};
use cfg_hwgen::{generate, GeneratedTagger, GeneratorOptions};
use cfg_obs::{CompileReport, Metrics, StatsSink};
use cfg_regex::Nfa;
use std::sync::Arc;
use std::time::Instant;

pub use cfg_hwgen::generate::EncoderKind;
pub use cfg_hwgen::StartMode;

/// Compilation options.
///
/// Construct with [`TaggerOptions::builder`] (preferred — stable across
/// field additions) or struct update from `Default`.
#[derive(Debug, Clone)]
pub struct TaggerOptions {
    /// Start-token enabling (§3.3). Default: [`StartMode::AtStart`].
    pub start_mode: StartMode,
    /// Apply the §3.2 multi-context token duplication so each event
    /// carries its grammatical context. Default: `true`.
    pub duplicate_contexts: bool,
    /// Disable the Figure 7 longest-match lookahead (ablation).
    pub disable_longest_match: bool,
    /// Index encoder for the generated circuit.
    pub encoder: EncoderKind,
    /// Register-fanout cap for the generated circuit (§4.3 replication
    /// remedy); `None` leaves the netlist as generated.
    pub max_reg_fanout: Option<usize>,
    /// Register the data pads (§4.3 "register tree" remedy; one extra
    /// cycle of latency).
    pub register_inputs: bool,
    /// §5.2 error recovery: resync at the next token boundary after
    /// non-conforming input instead of staying dead.
    pub error_recovery: bool,
    /// Observability handle shared with every engine compiled from these
    /// options. Default: [`Metrics::off`] — the engines then skip all
    /// recording (the zero-overhead-when-off contract).
    pub metrics: Metrics,
}

impl Default for TaggerOptions {
    fn default() -> Self {
        TaggerOptions {
            start_mode: StartMode::AtStart,
            duplicate_contexts: true,
            disable_longest_match: false,
            encoder: EncoderKind::Pipelined,
            max_reg_fanout: None,
            register_inputs: false,
            error_recovery: false,
            metrics: Metrics::off(),
        }
    }
}

impl TaggerOptions {
    /// Start building options from the defaults.
    pub fn builder() -> TaggerOptionsBuilder {
        TaggerOptionsBuilder { opts: TaggerOptions::default() }
    }
}

/// Builder for [`TaggerOptions`]; call-site-stable across future field
/// additions. Created by [`TaggerOptions::builder`].
#[derive(Debug, Clone, Default)]
pub struct TaggerOptionsBuilder {
    opts: TaggerOptions,
}

impl TaggerOptionsBuilder {
    /// Start-token enabling (§3.3).
    pub fn start_mode(mut self, mode: StartMode) -> Self {
        self.opts.start_mode = mode;
        self
    }

    /// Toggle the §3.2 multi-context token duplication.
    pub fn duplicate_contexts(mut self, on: bool) -> Self {
        self.opts.duplicate_contexts = on;
        self
    }

    /// Disable the Figure 7 longest-match lookahead (ablation).
    pub fn disable_longest_match(mut self, off: bool) -> Self {
        self.opts.disable_longest_match = off;
        self
    }

    /// Index encoder for the generated circuit.
    pub fn encoder(mut self, kind: EncoderKind) -> Self {
        self.opts.encoder = kind;
        self
    }

    /// Register-fanout cap (§4.3 replication remedy).
    pub fn max_reg_fanout(mut self, cap: Option<usize>) -> Self {
        self.opts.max_reg_fanout = cap;
        self
    }

    /// Register the data pads (§4.3 register-tree remedy).
    pub fn register_inputs(mut self, on: bool) -> Self {
        self.opts.register_inputs = on;
        self
    }

    /// §5.2 error recovery (resync at token boundaries).
    pub fn error_recovery(mut self, on: bool) -> Self {
        self.opts.error_recovery = on;
        self
    }

    /// Observability handle for the compile pipeline and all engines.
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.opts.metrics = metrics;
        self
    }

    /// Finish building.
    pub fn build(self) -> TaggerOptions {
        self.opts
    }
}

/// The historical name of [`crate::Error`].
///
/// **Deprecated name** — kept as a thin alias so existing call sites
/// keep compiling; new code should spell it [`crate::Error`]. The
/// unified enum carries the same `Generate` / `Sim` variants this type
/// always had, plus the streaming/serving failure modes.
pub type TaggerError = crate::error::Error;

/// A compiled streaming token tagger.
///
/// Holds the compiled grammar (with context-duplicated tokens), the
/// generated gate-level circuit, and the functional tables both engines
/// share.
#[derive(Debug, Clone)]
pub struct TokenTagger {
    grammar: Grammar,
    hw: GeneratedTagger,
    tables: Arc<FastTables>,
    bit_tables: Arc<BitTables>,
    /// Reversed-automaton NFAs per token, for span recovery from gate
    /// match ends.
    reverse_nfas: Arc<Vec<Nfa>>,
    opts: TaggerOptions,
    report: CompileReport,
}

impl TokenTagger {
    /// Compile a grammar into a tagger.
    ///
    /// Every pipeline stage is wall-clock timed into the
    /// [`CompileReport`] available via [`TokenTagger::report`]; when the
    /// options carry live metrics, the same timings are forwarded to the
    /// sink as `compile/<stage>` spans.
    pub fn compile(g: &Grammar, opts: TaggerOptions) -> Result<TokenTagger, TaggerError> {
        let mut report = CompileReport::default();
        let mut mark = Instant::now();
        let stage = |report: &mut CompileReport, mark: &mut Instant, name: &str| {
            report.stage(name, mark.elapsed().as_nanos() as u64);
            *mark = Instant::now();
        };

        let grammar = if opts.duplicate_contexts {
            transform::duplicate_multi_context_tokens(g)
        } else {
            g.clone()
        };
        stage(&mut report, &mut mark, "token_duplication");

        let gen_opts = GeneratorOptions {
            start_mode: opts.start_mode,
            disable_longest_match: opts.disable_longest_match,
            encoder: opts.encoder,
            max_reg_fanout: opts.max_reg_fanout,
            register_inputs: opts.register_inputs,
            error_recovery: opts.error_recovery,
        };
        let hw = generate(&grammar, &gen_opts)?;
        for (name, nanos) in &hw.stage_nanos {
            report.stage(format!("hwgen_{name}"), *nanos);
        }
        mark = Instant::now();

        let tables = Arc::new(FastTables::build(&grammar, &opts));
        stage(&mut report, &mut mark, "fast_tables");

        let bit_tables = Arc::new(BitTables::build(&grammar, &opts));
        stage(&mut report, &mut mark, "bit_tables");

        let reverse_nfas: Arc<Vec<Nfa>> = Arc::new(
            grammar
                .tokens()
                .iter()
                .map(|t| Nfa::from_template(&t.pattern.template().reversed()))
                .collect(),
        );
        stage(&mut report, &mut mark, "reverse_nfas");

        report.count("tokens", grammar.tokens().len() as u64);
        report.count("positions", bit_tables.position_count() as u64);
        report.count("bitset_words", bit_tables.mask_words() as u64);
        report.count("pattern_bytes", hw.pattern_bytes as u64);
        report.count("decoder_classes", hw.decoder_classes as u64);
        report.count("match_latency", hw.match_latency);
        report.count("encoder_latency", hw.encoder_latency);
        if opts.metrics.is_on() {
            for s in &report.stages {
                // Leak-free &'static names are not available for the
                // dynamic stage labels; use the sink's trace channel.
                opts.metrics.trace(|| {
                    cfg_obs::TraceEvent::new("compile_stage")
                        .field("stage", s.stage.as_str())
                        .field("nanos", s.nanos)
                });
            }
            opts.metrics.time("compile_total", report.total_nanos());
        }
        Ok(TokenTagger { grammar, hw, tables, bit_tables, reverse_nfas, opts, report })
    }

    /// Swap the observability handle (builder style): every engine
    /// subsequently created from this tagger records into `metrics`.
    /// Cheap — the compiled tables stay shared — so per-shard clones of
    /// one tagger each carry their own sink (see [`crate::ShardPool`]).
    pub fn with_metrics(mut self, metrics: Metrics) -> TokenTagger {
        self.opts.metrics = metrics;
        self
    }

    /// The structured compile-pipeline report (stage timings + counts).
    pub fn report(&self) -> &CompileReport {
        &self.report
    }

    /// The compiled grammar (post-duplication).
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The generated circuit and its metadata.
    pub fn hardware(&self) -> &GeneratedTagger {
        &self.hw
    }

    /// Compilation options used.
    pub fn options(&self) -> &TaggerOptions {
        &self.opts
    }

    /// Name of a token in the compiled grammar.
    pub fn token_name(&self, t: TokenId) -> &str {
        self.grammar.token_name(t)
    }

    /// Grammatical context of a token (productions/position), if the
    /// duplication transform ran.
    pub fn context(&self, t: TokenId) -> Option<&Context> {
        self.grammar.tokens()[t.index()].context.as_ref()
    }

    /// Build a fresh probe layer for this tagger: the named circuit
    /// topology plus a live [`crate::probes::TaggerProbes`] bank whose
    /// dense indices mirror the topology's probe ids. Share the returned
    /// `Arc` between engines (via their `with_probes` builders) and any
    /// exporter that serves `/probes.json`.
    pub fn probes(&self) -> Arc<crate::probes::TaggerProbes> {
        Arc::new(crate::probes::TaggerProbes::build(&self.grammar, &self.hw))
    }

    /// The `/circuit.json` topology payload for the generated circuit.
    pub fn circuit_json(&self) -> String {
        cfg_hwgen::CircuitTopology::build(&self.grammar, &self.hw).to_json()
    }

    /// A fresh production engine — the table walk over the bit-parallel
    /// tables — instrumented with the compile options' metrics handle.
    /// Allocates nothing; the table it walks is shared by every engine
    /// and clone of this tagger.
    pub fn fast_engine(&self) -> BitEngine {
        BitEngine::new(Arc::clone(&self.bit_tables)).with_metrics(self.opts.metrics.clone())
    }

    /// A fresh scalar reference engine (one boolean per position; the
    /// readable mirror the bitset kernel is property-tested against).
    pub fn scalar_engine(&self) -> ScalarEngine {
        ScalarEngine::new(Arc::clone(&self.tables)).with_metrics(self.opts.metrics.clone())
    }

    /// The shared bit-parallel tables (decode ROM + packed masks) and
    /// the DFA table built over them.
    pub fn bit_tables(&self) -> &Arc<BitTables> {
        &self.bit_tables
    }

    /// Fault-injection hook for the shadow-audit tests: a clone of this
    /// tagger whose bit-parallel decode ROM has the row for `byte`
    /// cleared (see `BitTables::with_corrupted_rom_row`). The scalar
    /// tables are untouched, so the bit and scalar engines of the
    /// returned tagger genuinely diverge — the seeded bug a shadow
    /// auditor must catch. Never used on a production path.
    #[doc(hidden)]
    pub fn with_corrupted_rom_row(&self, byte: u8) -> TokenTagger {
        let mut t = self.clone();
        t.bit_tables = Arc::new(t.bit_tables.with_corrupted_rom_row(byte));
        t
    }

    /// Test hook: a clone of this tagger whose bit engines share a
    /// fresh DFA table capped at `bytes` (see
    /// `BitTables::with_table_budget`; 0 keeps every engine on the bit
    /// step). Never used on a production path.
    #[doc(hidden)]
    pub fn with_table_budget(&self, bytes: usize) -> TokenTagger {
        let mut t = self.clone();
        t.bit_tables = Arc::new(t.bit_tables.with_table_budget(bytes));
        t
    }

    /// A fresh cycle-accurate gate-level engine (instrumented with the
    /// compile options' metrics handle).
    pub fn gate_engine(&self) -> Result<GateEngine, TaggerError> {
        Ok(GateEngine::new(&self.hw)?.with_metrics(self.opts.metrics.clone()))
    }

    /// A fresh streaming engine of the requested kind, behind the
    /// unified [`crate::Engine`] trait — the one constructor the CLI,
    /// the shard pool and the ingest server all use. Every engine is
    /// instrumented with the compile options' metrics handle; the gate
    /// kind is wrapped in a [`crate::GateStream`] for span recovery and
    /// liveness.
    pub fn engine(
        &self,
        kind: crate::EngineKind,
    ) -> Result<Box<dyn crate::Engine>, crate::error::Error> {
        Ok(match kind {
            crate::EngineKind::Bit => Box::new(self.fast_engine()),
            crate::EngineKind::Scalar => Box::new(self.scalar_engine()),
            crate::EngineKind::Gate => {
                let gate = GateEngine::new(&self.hw)?.with_metrics(self.opts.metrics.clone());
                // The liveness mirror records into a private sink so
                // bytes/events are not double-counted; GateStream folds
                // only the liveness counters back at finish().
                let mirror_sink = Arc::new(StatsSink::new());
                let mirror = BitEngine::new(Arc::clone(&self.bit_tables))
                    .with_metrics(Metrics::new(mirror_sink.clone()));
                Box::new(crate::engine::GateStream::new(
                    gate,
                    mirror,
                    mirror_sink,
                    Arc::clone(&self.reverse_nfas),
                    self.opts.metrics.clone(),
                ))
            }
        })
    }

    /// Tag a complete input with the functional engine.
    ///
    /// **Deprecated-style convenience** — a thin wrapper over the
    /// [`crate::Engine`] path (`engine(EngineKind::Bit)`); prefer that
    /// for new code, which also gives you streaming and `is_dead`.
    pub fn tag_fast(&self, input: &[u8]) -> Vec<TagEvent> {
        let mut engine = self.fast_engine();
        let mut events = engine.feed(input);
        events.extend(engine.finish());
        events
    }

    /// Tag a complete input by simulating the generated circuit, then
    /// recover spans in software (§3.4). Events are sorted by end.
    pub fn tag_gate(&self, input: &[u8]) -> Result<Vec<TagEvent>, TaggerError> {
        let mut engine = self.gate_engine()?;
        let raw = engine.run(input)?;
        Ok(crate::gate::resolve_spans(&self.reverse_nfas, &engine, input, &raw))
    }

    /// Feed a complete input through the fast engine into a back-end
    /// processor (§3.5).
    pub fn process<B: crate::backend::Backend>(&self, input: &[u8], backend: &mut B) {
        for ev in self.tag_fast(input) {
            backend.on_event(ev, self, input);
        }
        backend.on_end(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfg_grammar::builtin;

    fn names(t: &TokenTagger, events: &[TagEvent]) -> Vec<String> {
        events.iter().map(|e| t.token_name(e.token).to_owned()).collect()
    }

    #[test]
    fn compile_and_tag_if_then_else() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let input = b"if false then stop else go";
        let events = t.tag_fast(input);
        assert_eq!(names(&t, &events), ["if", "false", "then", "stop", "else", "go"]);
        // Spans slice back to the exact lexemes.
        let lexemes: Vec<&[u8]> = events.iter().map(|e| e.lexeme(input)).collect();
        assert_eq!(lexemes, [&b"if"[..], b"false", b"then", b"stop", b"else", b"go"]);
    }

    #[test]
    fn gate_and_fast_agree_on_ite() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        for input in [
            &b"go"[..],
            b"if true then go else stop",
            b"if false then if true then go else stop else go",
            b"stop",
        ] {
            let fast = t.tag_fast(input);
            let gate = t.tag_gate(input).unwrap();
            assert_eq!(fast, gate, "input {:?}", String::from_utf8_lossy(input));
        }
    }

    #[test]
    fn contexts_reported_after_duplication() {
        let g = Grammar::parse(
            r#"
            WORD [a-z]+
            %%
            s: "<m>" WORD "</m>" "<n>" WORD "</n>";
            %%
            "#,
        )
        .unwrap();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let input = b"<m>abc</m><n>def</n>";
        let events = t.tag_fast(input);
        assert_eq!(events.len(), 6);
        let ctx1 = t.context(events[1].token).unwrap();
        let ctx4 = t.context(events[4].token).unwrap();
        assert_eq!(ctx1.position, 1);
        assert_eq!(ctx4.position, 4);
        assert_eq!(events[1].lexeme(input), b"abc");
        assert_eq!(events[4].lexeme(input), b"def");
    }

    #[test]
    fn no_duplication_option() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(
            &g,
            TaggerOptions { duplicate_contexts: false, ..Default::default() },
        )
        .unwrap();
        assert!(t.context(TokenId(0)).is_none());
        assert_eq!(t.grammar().tokens().len(), 7);
    }

    #[test]
    fn non_conforming_input_yields_no_events() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        assert!(t.tag_fast(b"hello world").is_empty());
        assert!(t.tag_fast(b"then go").is_empty());
        assert!(t.tag_fast(b"").is_empty());
    }

    #[test]
    fn builder_mirrors_struct_update() {
        let built = TaggerOptions::builder()
            .start_mode(StartMode::Always)
            .duplicate_contexts(false)
            .error_recovery(true)
            .build();
        assert_eq!(built.start_mode, StartMode::Always);
        assert!(!built.duplicate_contexts);
        assert!(built.error_recovery);
        // Untouched fields keep their defaults.
        let d = TaggerOptions::default();
        assert_eq!(built.encoder, d.encoder);
        assert_eq!(built.max_reg_fanout, d.max_reg_fanout);
        assert!(!built.metrics.is_on());
    }

    #[test]
    fn compile_report_covers_the_pipeline() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let r = t.report();
        let stages: Vec<&str> = r.stages.iter().map(|s| s.stage.as_str()).collect();
        for expected in [
            "token_duplication",
            "hwgen_analysis",
            "hwgen_tokenizers",
            "hwgen_control",
            "hwgen_encoder",
            "hwgen_netlist_finish",
            "fast_tables",
            "reverse_nfas",
        ] {
            assert!(stages.contains(&expected), "missing stage {expected}: {stages:?}");
        }
        assert_eq!(r.get_count("tokens"), Some(7));
        assert!(r.get_count("pattern_bytes").unwrap() > 0);
        assert!(r.to_json().contains("\"stage\":\"fast_tables\""));
    }

    #[test]
    fn metrics_record_fires_and_bytes() {
        use cfg_obs::{Metrics, Stat, StatsSink};
        let g = builtin::if_then_else();
        let sink = std::sync::Arc::new(StatsSink::with_tokens(16));
        let opts = TaggerOptions::builder().metrics(Metrics::new(sink.clone())).build();
        let t = TokenTagger::compile(&g, opts).unwrap();
        let input = b"if false then stop else go";
        let events = t.tag_fast(input);
        assert_eq!(events.len(), 6);
        assert_eq!(sink.get(Stat::EventsOut), 6);
        assert_eq!(sink.get(Stat::BytesIn), input.len() as u64);
        // Per-token attribution sums to the total.
        let total: u64 = (0..16).map(|i| sink.token_fires(i)).sum();
        assert_eq!(total, 6);
        // The compile pipeline reported its total via the sink too.
        let snap = sink.snapshot();
        assert!(snap.timings.iter().any(|(name, _)| *name == "compile_total"));
    }

    #[test]
    fn metrics_count_dead_entries_and_resyncs() {
        use cfg_obs::{Metrics, Stat, StatsSink};
        let g = builtin::if_then_else();

        // Without recovery: garbage drives the machine dead exactly once.
        let sink = std::sync::Arc::new(StatsSink::new());
        let opts = TaggerOptions::builder().metrics(Metrics::new(sink.clone())).build();
        let t = TokenTagger::compile(&g, opts).unwrap();
        assert!(t.tag_fast(b"zzz zzz go").is_empty());
        assert_eq!(sink.get(Stat::DeadEntries), 1);
        assert_eq!(sink.get(Stat::Resyncs), 0);

        // With recovery: the engine resyncs at the boundary and tags go.
        let sink = std::sync::Arc::new(StatsSink::new());
        let opts = TaggerOptions::builder()
            .error_recovery(true)
            .metrics(Metrics::new(sink.clone()))
            .build();
        let t = TokenTagger::compile(&g, opts).unwrap();
        let events = t.tag_fast(b"zzz go");
        assert_eq!(events.len(), 1);
        assert!(sink.get(Stat::Resyncs) >= 1);
    }

    #[test]
    fn engine_reports_dead_state() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let mut e = t.fast_engine();
        assert!(!e.is_dead(), "start tokens are enabled at stream start");
        e.feed(b"zzzz ");
        let _ = e.finish();
        assert!(e.is_dead());

        let mut e = t.fast_engine();
        e.feed(b"if true then go else stop");
        let _ = e.finish();
        assert!(!e.is_dead());
    }

    #[test]
    fn always_mode_scans_every_alignment() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(
            &g,
            TaggerOptions { start_mode: StartMode::Always, ..Default::default() },
        )
        .unwrap();
        let events = t.tag_fast(b"zzz go zzz");
        assert_eq!(names(&t, &events), ["go"]);
    }
}
