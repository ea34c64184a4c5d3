//! The [`TokenTagger`]: compile once, tag many streams.

use crate::bitset::{BitEngine, BitTables};
use crate::engine::{Engine, EngineKind, GateStream};
use crate::error::Error;
use crate::event::TagEvent;
use crate::fast::{FastTables, ScalarEngine};
use crate::gate::GateEngine;
use crate::probes::TaggerProbes;
use cfg_grammar::{transform, Context, Grammar, GrammarError, TokenId};
use cfg_hwgen::{generate, validate, GeneratedTagger, GeneratorOptions};
use cfg_obs::{CompileReport, Metrics};
use cfg_regex::{Nfa, MAX_POSITIONS};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

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

    /// §5.2 error recovery (resync at token boundaries).
    pub fn error_recovery(mut self, on: bool) -> Self {
        self.opts.error_recovery = on;
        self
    }

    /// Observability handle for every engine.
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.opts.metrics = metrics;
        self
    }

    /// Finish building.
    pub fn build(self) -> TaggerOptions {
        self.opts
    }
}

/// The compiled state every handle of one tagger shares, never changed
/// once built, so a clone of the tagger only bumps a reference count.
///
/// [`TokenTagger::compile`] builds what the production engine reads:
/// the grammar and the bit tables. The circuit, the reversed NFAs and
/// the scalar tables are built the first time a handle asks for them,
/// once for every handle.
#[derive(Debug, Clone)]
struct Core {
    /// The compiled grammar (post-duplication).
    grammar: Grammar,
    /// What the circuit and the scalar tables are built with.
    gen_opts: GeneratorOptions,
    bit_tables: Arc<BitTables>,
    /// The stages `compile` ran.
    compiled: CompileReport,
    hw: OnceLock<GeneratedTagger>,
    /// Reversed-automaton NFAs per token, for span recovery from gate
    /// match ends.
    reverse_nfas: OnceLock<Timed<Arc<Vec<Nfa>>>>,
    tables: OnceLock<Timed<Arc<FastTables>>>,
    /// Every stage, the ones built on first use included.
    report: OnceLock<CompileReport>,
}

/// A part of the core built on first use, with its build time in
/// nanoseconds.
type Timed<T> = (T, u64);

/// The part in `cell`, built and timed on first use.
fn timed<T>(cell: &OnceLock<Timed<T>>, build: impl FnOnce() -> T) -> &T {
    &cell
        .get_or_init(|| {
            let start = Instant::now();
            let part = build();
            (part, start.elapsed().as_nanos() as u64)
        })
        .0
}

/// How long the part in `cell` took to build (0 while unbuilt).
fn build_nanos<T>(cell: &OnceLock<Timed<T>>) -> u64 {
    cell.get().map_or(0, |(_, nanos)| *nanos)
}

impl Core {
    fn hw(&self) -> &GeneratedTagger {
        self.hw.get_or_init(|| {
            generate(&self.grammar, &self.gen_opts).expect("compile validated the grammar")
        })
    }

    fn reverse_nfas(&self) -> &Arc<Vec<Nfa>> {
        timed(&self.reverse_nfas, || {
            let tokens = self.grammar.tokens().iter();
            Arc::new(tokens.map(|t| Nfa::from_template(&t.pattern.template().reversed())).collect())
        })
    }

    fn tables(&self) -> &Arc<FastTables> {
        timed(&self.tables, || Arc::new(FastTables::build(&self.grammar, &self.gen_opts)))
    }

    fn report(&self) -> &CompileReport {
        self.report.get_or_init(|| {
            let (hw, _, _) = (self.hw(), self.tables(), self.reverse_nfas());
            let mut report = self.compiled.clone();
            for (name, nanos) in &hw.stage_nanos {
                report.stage(format!("hwgen_{name}"), *nanos);
            }
            report.stage("fast_tables", build_nanos(&self.tables));
            report.stage("reverse_nfas", build_nanos(&self.reverse_nfas));
            report.count("pattern_bytes", hw.pattern_bytes as u64);
            report.count("decoder_classes", hw.decoder_classes as u64);
            report.count("match_latency", hw.match_latency);
            report.count("encoder_latency", hw.encoder_latency);
            report
        })
    }
}

/// A compiled streaming token tagger.
///
/// A handle on one shared compiled core — the grammar (with
/// context-duplicated tokens), the tables every engine walks and the
/// generated gate-level circuit — plus per-handle options and probes.
/// [`TokenTagger::engine`] builds an engine of any kind over the core;
/// [`TokenTagger::tag`] tags a whole input with the production engine.
#[derive(Debug, Clone)]
pub struct TokenTagger {
    core: Arc<Core>,
    opts: TaggerOptions,
    probes: Option<Arc<TaggerProbes>>,
}

impl TokenTagger {
    /// Compile a grammar into a tagger.
    ///
    /// Builds what [`TokenTagger::tag`] and the [`EngineKind::Bit`]
    /// engine read: the context-duplicated grammar and the bit tables.
    /// The generated circuit, the reversed NFAs and the scalar tables are
    /// built on first use by [`TokenTagger::hardware`],
    /// [`TokenTagger::probes`], [`TokenTagger::engine`] with the gate or
    /// scalar kind, or [`TokenTagger::report`]. Every compile error still
    /// surfaces here: the generator's input checks run eagerly, and a
    /// grammar past [`MAX_POSITIONS`] once duplicated is refused before
    /// any table is built.
    ///
    /// Each stage `compile` runs is wall-clock timed into the
    /// [`CompileReport`] available via [`TokenTagger::report`].
    pub fn compile(g: &Grammar, opts: TaggerOptions) -> Result<TokenTagger, Error> {
        let mut compiled = CompileReport::default();
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
        stage(&mut compiled, &mut mark, "token_duplication");

        validate(&grammar)?;
        let positions = grammar.pattern_bytes();
        if positions > MAX_POSITIONS {
            return Err(GrammarError::TooManyPositions { positions }.into());
        }
        let gen_opts = GeneratorOptions {
            start_mode: opts.start_mode,
            disable_longest_match: opts.disable_longest_match,
            error_recovery: opts.error_recovery,
            ..GeneratorOptions::default()
        };

        let bit_tables = Arc::new(BitTables::build(&grammar, &opts));
        stage(&mut compiled, &mut mark, "bit_tables");

        compiled.count("tokens", grammar.tokens().len() as u64);
        compiled.count("positions", bit_tables.position_count() as u64);
        compiled.count("bitset_words", bit_tables.mask_words() as u64);
        let core = Core {
            grammar,
            gen_opts,
            bit_tables,
            compiled,
            hw: OnceLock::new(),
            reverse_nfas: OnceLock::new(),
            tables: OnceLock::new(),
            report: OnceLock::new(),
        };
        Ok(TokenTagger { core: Arc::new(core), opts, probes: None })
    }

    /// Swap the observability handle (builder style): every engine
    /// subsequently created from this tagger records into `metrics`.
    /// Cheap — the compiled core stays shared — so per-shard clones of
    /// one tagger each carry their own sink (`cfgtag serve --shards`).
    pub fn with_metrics(mut self, metrics: Metrics) -> TokenTagger {
        self.opts.metrics = metrics;
        self
    }

    /// Attach circuit probes (builder style): every engine subsequently
    /// created from this tagger counts into `probes`, whatever its kind.
    /// Build the bank with [`TokenTagger::probes`].
    pub fn with_probes(mut self, probes: Arc<TaggerProbes>) -> TokenTagger {
        self.probes = Some(probes);
        self
    }

    /// The structured compile-pipeline report (stage timings + counts):
    /// the stages `compile` ran, then the circuit, scalar-table and
    /// reversed-NFA builds, which this builds first if no handle has.
    pub fn report(&self) -> &CompileReport {
        self.core.report()
    }

    /// The compiled grammar (post-duplication).
    pub fn grammar(&self) -> &Grammar {
        &self.core.grammar
    }

    /// The generated circuit and its metadata, built on first use. Its
    /// raw match lines are read through [`GateEngine::new`].
    pub fn hardware(&self) -> &GeneratedTagger {
        self.core.hw()
    }

    /// Compilation options used.
    pub fn options(&self) -> &TaggerOptions {
        &self.opts
    }

    /// Name of a token in the compiled grammar.
    pub fn token_name(&self, t: TokenId) -> &str {
        self.core.grammar.token_name(t)
    }

    /// Grammatical context of a token (productions/position), if the
    /// duplication transform ran.
    pub fn context(&self, t: TokenId) -> Option<&Context> {
        self.core.grammar.tokens()[t.index()].context.as_ref()
    }

    /// Build a fresh probe layer for this tagger: the named circuit
    /// topology (its `/circuit.json`) plus a live [`TaggerProbes`] bank
    /// whose dense indices mirror the topology's probe ids. Attach it
    /// with [`TokenTagger::with_probes`] and share the `Arc` with any
    /// registry that exports `cfgtag_probe_total`.
    pub fn probes(&self) -> Arc<TaggerProbes> {
        Arc::new(TaggerProbes::build(&self.core.grammar, self.core.hw()))
    }

    /// The shared bit-parallel tables (decode ROM + packed masks) and
    /// the DFA table built over them.
    pub fn bit_tables(&self) -> &Arc<BitTables> {
        &self.core.bit_tables
    }

    /// Fault-injection hook for the shadow-audit tests: a tagger whose
    /// bit-parallel decode ROM has the row for `byte` cleared (see
    /// `BitTables::with_corrupted_rom_row`). The scalar tables are
    /// untouched, so the bit and scalar engines of the returned tagger
    /// genuinely diverge — the seeded bug a shadow auditor must catch.
    /// Never used on a production path.
    #[doc(hidden)]
    pub fn with_corrupted_rom_row(&self, byte: u8) -> TokenTagger {
        self.with_bit_tables(self.core.bit_tables.with_corrupted_rom_row(byte))
    }

    /// Test hook: a tagger whose bit engines share a fresh DFA table
    /// capped at `bytes` (see `BitTables::with_table_budget`; 0 keeps
    /// every engine on the bit step). Never used on a production path.
    #[doc(hidden)]
    pub fn with_table_budget(&self, bytes: usize) -> TokenTagger {
        self.with_bit_tables(self.core.bit_tables.with_table_budget(bytes))
    }

    /// A handle on a copy of the core with `bit_tables` swapped in.
    fn with_bit_tables(&self, bit_tables: BitTables) -> TokenTagger {
        let core = Core { bit_tables: Arc::new(bit_tables), ..Core::clone(&self.core) };
        TokenTagger { core: Arc::new(core), ..self.clone() }
    }

    /// A fresh production engine with this handle's metrics and probes.
    fn bit_engine(&self) -> BitEngine {
        BitEngine::new(Arc::clone(&self.core.bit_tables))
            .with_metrics(self.opts.metrics.clone())
            .with_probes(self.probes.clone())
    }

    /// A fresh streaming engine of the requested kind, behind the
    /// [`Engine`] trait — the one way to build an engine. Every kind
    /// records into this handle's metrics and probes; the gate kind is a
    /// [`crate::GateStream`], which adds span recovery and liveness.
    pub fn engine(&self, kind: EngineKind) -> Result<Box<dyn Engine>, Error> {
        let (core, metrics) = (&self.core, &self.opts.metrics);
        Ok(match kind {
            EngineKind::Bit => Box::new(self.bit_engine()),
            EngineKind::Scalar => Box::new(
                ScalarEngine::new(Arc::clone(core.tables()))
                    .with_metrics(metrics.clone())
                    .with_probes(self.probes.clone()),
            ),
            EngineKind::Gate => {
                let gate = GateEngine::new(core.hw())?
                    .with_metrics(metrics.clone())
                    .with_probes(self.probes.clone());
                Box::new(GateStream::new(
                    gate,
                    Arc::clone(&core.bit_tables),
                    Arc::clone(core.reverse_nfas()),
                    metrics.clone(),
                ))
            }
        })
    }

    /// Tag a complete input with the production engine.
    pub fn tag(&self, input: &[u8]) -> Vec<TagEvent> {
        let mut engine = self.bit_engine();
        let mut events = Vec::new();
        engine
            .feed_slice(input, &mut events)
            .and_then(|()| engine.finish_into(&mut events))
            .expect("the bit engine returns no errors");
        events
    }

    /// Feed a complete input through the production engine into a
    /// back-end processor (§3.5).
    pub fn process<B: crate::backend::Backend>(&self, input: &[u8], backend: &mut B) {
        for ev in self.tag(input) {
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
        let events = t.tag(input);
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
            let mut gate = t.engine(EngineKind::Gate).unwrap();
            let mut events = gate.feed(input).unwrap();
            events.extend(gate.finish().unwrap());
            assert_eq!(t.tag(input), events, "input {:?}", String::from_utf8_lossy(input));
        }
    }

    /// Clones and builder handles share one compiled core: the same
    /// grammar and circuit objects, not copies.
    #[test]
    fn handles_share_the_compiled_core() {
        let t = TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap();
        let sink = std::sync::Arc::new(cfg_obs::StatsSink::new());
        for handle in [
            t.clone(),
            t.clone().with_metrics(Metrics::new(sink)),
            t.clone().with_probes(t.probes()),
        ] {
            assert!(std::ptr::eq(handle.grammar(), t.grammar()));
            assert!(std::ptr::eq(handle.hardware(), t.hardware()));
            assert!(std::ptr::eq(handle.report(), t.report()));
            assert!(Arc::ptr_eq(handle.bit_tables(), t.bit_tables()));
        }
    }

    /// Every compile error surfaces from `compile` itself, whatever the
    /// start mode and recovery setting: variant and message both. A
    /// grammar whose text asks for more positions than the bound is
    /// refused by the grammar parser, before compile.
    #[test]
    fn compile_errors_are_pinned() {
        use cfg_hwgen::GenError;
        use cfg_regex::ParseError;
        let err = Grammar::parse("TOK a{20000}\n%%\ns: TOK;\n%%\n").unwrap_err();
        assert!(
            matches!(&err, GrammarError::BadPattern { token, error: ParseError::TooManyPositions { positions: 20000 } } if token == "TOK"),
            "{err:?}"
        );
        assert_eq!(
            Error::from(err).to_string(),
            "grammar error: bad pattern for token TOK: pattern needs 20000 positions; \
             the limit is 8192"
        );
        let no_tokens = Grammar::parse("%%\ns: ;\n%%\n").unwrap();
        let spacey = Grammar::parse("SPACEY [ a]+\n%%\ns: SPACEY;\n%%\n").unwrap();
        // 5,000 positions in the text, 10,000 once duplicated per context.
        let wide = Grammar::parse("TOK a{5000}\n%%\ns: TOK \"-\" TOK;\n%%\n").unwrap();
        for (mode, recover) in [
            (StartMode::AtStart, false),
            (StartMode::Always, false),
            (StartMode::AtStart, true),
            (StartMode::Always, true),
        ] {
            let opts = TaggerOptions::builder().start_mode(mode).error_recovery(recover).build();
            let err = TokenTagger::compile(&no_tokens, opts.clone()).unwrap_err();
            assert!(matches!(err, Error::Generate(GenError::NoTokens)), "{err:?}");
            assert_eq!(err.to_string(), "hardware generation failed: grammar has no usable tokens");
            let err = TokenTagger::compile(&spacey, opts.clone()).unwrap_err();
            assert!(
                matches!(&err, Error::Generate(GenError::DelimiterOverlap { token }) if token == "SPACEY"),
                "{err:?}"
            );
            assert_eq!(
                err.to_string(),
                "hardware generation failed: token SPACEY can start with a delimiter byte; \
                 adjust %delim or the token pattern"
            );
            let err = TokenTagger::compile(&wide, opts).unwrap_err();
            assert!(
                matches!(err, Error::Grammar(GrammarError::TooManyPositions { positions: 10_001 })),
                "{err:?}"
            );
            assert_eq!(
                err.to_string(),
                "grammar error: grammar needs 10001 positions; the limit is 8192"
            );
        }
    }

    /// `compile`, `tag` and the bit engine build none of the parts only
    /// the other engines, the probes and the report read; each of those
    /// builds just what it reads, once for every handle.
    #[test]
    fn compile_builds_only_the_software_path() {
        let built = |t: &TokenTagger| {
            let core = &t.core;
            [
                core.hw.get().is_some(),
                core.reverse_nfas.get().is_some(),
                core.tables.get().is_some(),
            ]
        };
        let compile =
            || TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap();
        let t = compile();
        assert_eq!(t.tag(b"if true then go else stop").len(), 6);
        t.engine(EngineKind::Bit).unwrap();
        assert_eq!(built(&t), [false, false, false], "circuit, reversed NFAs, scalar tables");

        let t = compile();
        t.engine(EngineKind::Scalar).unwrap();
        assert_eq!(built(&t), [false, false, true]);

        let t = compile();
        t.engine(EngineKind::Gate).unwrap();
        assert_eq!(built(&t), [true, true, false]);

        let t = compile();
        t.probes();
        assert_eq!(built(&t), [true, false, false]);
        let t = compile();
        t.hardware();
        assert_eq!(built(&t), [true, false, false]);

        // Built through one clone, the part is the one every handle sees.
        let t = compile();
        let clone = t.clone().with_metrics(Metrics::new(Arc::new(cfg_obs::StatsSink::new())));
        let hw = clone.hardware();
        let report = clone.report();
        assert_eq!(built(&t), [true, true, true]);
        assert!(std::ptr::eq(hw, t.hardware()));
        assert!(std::ptr::eq(report, t.report()));
        assert!(std::ptr::eq(t.core.tables.get().unwrap(), clone.core.tables.get().unwrap()));
        assert!(std::ptr::eq(
            t.core.reverse_nfas.get().unwrap(),
            clone.core.reverse_nfas.get().unwrap()
        ));
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
        let events = t.tag(input);
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
        assert!(t.tag(b"hello world").is_empty());
        assert!(t.tag(b"then go").is_empty());
        assert!(t.tag(b"").is_empty());
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
        assert!(!built.disable_longest_match);
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
        let events = t.tag(input);
        assert_eq!(events.len(), 6);
        assert_eq!(sink.get(Stat::EventsOut), 6);
        assert_eq!(sink.get(Stat::BytesIn), input.len() as u64);
        // Per-token attribution sums to the total.
        let total: u64 = (0..16).map(|i| sink.token_fires(i)).sum();
        assert_eq!(total, 6);
        // Compile timings live in the report, not in the sink.
        assert!(sink.snapshot().histograms.is_empty());
        let stages: Vec<&str> = t.report().stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages[..2], ["token_duplication", "bit_tables"]);
        assert!(t.report().total_nanos() > 0);
    }

    #[test]
    fn metrics_count_dead_entries_and_resyncs() {
        use cfg_obs::{Metrics, Stat, StatsSink};
        let g = builtin::if_then_else();

        // Without recovery: garbage drives the machine dead exactly once.
        let sink = std::sync::Arc::new(StatsSink::new());
        let opts = TaggerOptions::builder().metrics(Metrics::new(sink.clone())).build();
        let t = TokenTagger::compile(&g, opts).unwrap();
        assert!(t.tag(b"zzz zzz go").is_empty());
        assert_eq!(sink.get(Stat::DeadEntries), 1);
        assert_eq!(sink.get(Stat::Resyncs), 0);

        // With recovery: the engine resyncs at the boundary and tags go.
        let sink = std::sync::Arc::new(StatsSink::new());
        let opts = TaggerOptions::builder()
            .error_recovery(true)
            .metrics(Metrics::new(sink.clone()))
            .build();
        let t = TokenTagger::compile(&g, opts).unwrap();
        let events = t.tag(b"zzz go");
        assert_eq!(events.len(), 1);
        assert!(sink.get(Stat::Resyncs) >= 1);
    }

    #[test]
    fn engine_reports_dead_state() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let mut e = t.engine(EngineKind::Bit).unwrap();
        assert!(!e.is_dead(), "start tokens are enabled at stream start");
        e.feed(b"zzzz ").unwrap();
        e.finish().unwrap();
        assert!(e.is_dead());

        let mut e = t.engine(EngineKind::Bit).unwrap();
        e.feed(b"if true then go else stop").unwrap();
        e.finish().unwrap();
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
        let events = t.tag(b"zzz go zzz");
        assert_eq!(names(&t, &events), ["go"]);
    }
}
