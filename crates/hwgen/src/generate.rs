//! Top-level generator: grammar in, circuit out (Figure 3).
//!
//! The generated netlist has this interface:
//!
//! | direction | net | meaning |
//! |---|---|---|
//! | in | `data0..data7` | the input byte, LSB first, one per cycle |
//! | in | `start` | start-of-stream pulse (with the first byte) |
//! | out | `m{t}` | registered match line of token `t` |
//! | out | `index0..` | encoder index bits (if an encoder is selected) |
//! | out | `match_any` | OR of all match lines, encoder-aligned |
//!
//! Timing: a token whose lexeme ends at input byte `c` asserts `m{t}`
//! as read after simulator step `c +` [`MATCH_LATENCY`]; the index
//! appears [`GeneratedTagger::encoder_latency`] cycles later. Callers
//! must flush the pipeline with trailing delimiter bytes (see
//! [`GeneratedTagger::flush_bytes`]).

pub use crate::control::StartMode;
use crate::control::{build_control, ControlNets};
use crate::decoder::DecoderBank;
use crate::encoder::{
    assign_slots, build_naive_encoder, build_paper_encoder, conflict_groups, SlotAssignment,
};
use crate::tokenizer::{TokenizerSkeleton, MATCH_LATENCY};
use cfg_grammar::Grammar;
use cfg_netlist::{NetId, Netlist, NetlistBuilder};
use std::fmt;

/// Which index encoder to instantiate (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncoderKind {
    /// The paper's pipelined binary OR-tree encoder.
    #[default]
    Pipelined,
    /// A naive priority-chain encoder (ablation baseline).
    Naive,
    /// No encoder: only per-token match lines (the paper's "simply
    /// indicate the match" mode).
    None,
}

/// Generator options.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneratorOptions {
    /// How start tokens are enabled.
    pub start_mode: StartMode,
    /// Disable to drop the Figure 7 longest-match lookahead (ablation).
    pub disable_longest_match: bool,
    /// Index encoder selection.
    pub encoder: EncoderKind,
    /// Cap on register output fanout: registers exceeding it are
    /// replicated and their loads rebalanced — the paper's §4.3 remedy
    /// for the decoded-character-bit routing bottleneck ("replicating
    /// decoders and balancing the fanout across them"). `None` disables.
    pub max_reg_fanout: Option<usize>,
    /// Register the data pads before the block comparators (the §4.3
    /// "register tree" remedy). Adds one cycle of uniform latency and,
    /// with `max_reg_fanout`, bounds the data-bit fanout too.
    pub register_inputs: bool,
    /// §5.2 error recovery: re-enable the start tokens at the next token
    /// boundary once the machine goes dead on non-conforming input.
    pub error_recovery: bool,
}

/// Generation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The grammar has no tokens used in productions.
    NoTokens,
    /// A token pattern's byte classes intersect the delimiter class at a
    /// first position, which the arming logic cannot support (the start
    /// opportunity would be consumed by its own delimiter).
    DelimiterOverlap {
        /// Offending token name.
        token: String,
    },
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::NoTokens => write!(f, "grammar has no usable tokens"),
            GenError::DelimiterOverlap { token } => write!(
                f,
                "token {token} can start with a delimiter byte; \
                 adjust %delim or the token pattern"
            ),
        }
    }
}

impl std::error::Error for GenError {}

/// Per-token hardware metadata.
#[derive(Debug, Clone)]
pub struct TokenHw {
    /// Token name (with context suffix if duplicated).
    pub name: String,
    /// Registered match line.
    pub match_q: NetId,
    /// Combinational match line.
    pub match_raw: NetId,
    /// Combinational enable wire (Figure 11): high in the cycle whose
    /// registered decode shows a byte at which a lexeme of this token
    /// may start.
    pub enable: NetId,
    /// Encoder code (0 if no encoder).
    pub code: usize,
    /// Pattern positions (= pipeline registers = pattern bytes).
    pub positions: usize,
    /// The pipeline position register nets, in pattern order (one per
    /// position — the nets a circuit probe watches for stage heat).
    pub position_nets: Vec<NetId>,
}

/// The generated circuit plus the metadata needed to drive it.
#[derive(Debug, Clone)]
pub struct GeneratedTagger {
    /// The complete netlist.
    pub netlist: Netlist,
    /// Per-token nets and codes, indexed by `TokenId`.
    pub tokens: Vec<TokenHw>,
    /// Encoder index bit nets (empty if `EncoderKind::None`).
    pub index_bits: Vec<NetId>,
    /// The `match_any` net (encoder-aligned), if an encoder exists.
    pub match_any: Option<NetId>,
    /// Cycles from match line to index output.
    pub encoder_latency: u64,
    /// Cycles from a lexeme's last byte to its match line (post-step).
    pub match_latency: u64,
    /// Encoder code assignment.
    pub slots: SlotAssignment,
    /// Total pattern bytes (the paper's size metric).
    pub pattern_bytes: usize,
    /// Number of distinct registered class decoders.
    pub decoder_classes: usize,
    /// The registered decoder classes with their output nets, in
    /// creation order (the stable enumeration `circuit.json` exports).
    pub decoders: Vec<(cfg_regex::ByteSet, NetId)>,
    /// The grammar's delimiter class (drivers flush with one of these).
    pub delimiters: cfg_regex::ByteSet,
    /// Wall-clock nanoseconds per generation phase, in execution order
    /// (consumed by the compile-pipeline report in `cfg-tagger`).
    pub stage_nanos: Vec<(&'static str, u64)>,
}

impl GeneratedTagger {
    /// Delimiter bytes a driver must append so the last token's
    /// lookahead and pipeline drain completely.
    pub fn flush_bytes(&self) -> usize {
        (self.match_latency + self.encoder_latency + 1) as usize
    }

    /// A byte from the delimiter class, for pipeline flushing.
    pub fn flush_byte(&self) -> u8 {
        self.delimiters.iter().next().unwrap_or(b' ')
    }
}

/// Generate the tagger circuit for a grammar.
pub fn generate(g: &Grammar, opts: &GeneratorOptions) -> Result<GeneratedTagger, GenError> {
    if g.tokens().is_empty() {
        return Err(GenError::NoTokens);
    }
    let mut stage_nanos: Vec<(&'static str, u64)> = Vec::new();
    let mut stage_mark = std::time::Instant::now();
    let mut stage_done = |name: &'static str, mark: &mut std::time::Instant| {
        stage_nanos.push((name, mark.elapsed().as_nanos() as u64));
        *mark = std::time::Instant::now();
    };
    let delim = g.delimiters();
    for tok in g.tokens() {
        let t = tok.pattern.template();
        for &p in &t.first {
            if t.positions[p].intersects(delim) {
                return Err(GenError::DelimiterOverlap { token: tok.name.clone() });
            }
        }
    }

    let analysis = g.analyze();
    stage_done("analysis", &mut stage_mark);
    let mut b = NetlistBuilder::new();
    let mut bank = DecoderBank::with_registered_inputs(&mut b, opts.register_inputs);

    let start = b.input("start");
    // The start pulse must stay aligned with the (possibly deeper)
    // decode pipeline.
    let start_q = b.delay_chain(start, 1 + opts.register_inputs as usize);
    b.name(start_q, "start_q");
    let delim_q = bank.class(&mut b, delim);
    stage_done("decoders", &mut stage_mark);

    // Phase 1: tokenizer skeletons (position regs + match taps).
    let longest = !opts.disable_longest_match;
    let skeletons: Vec<TokenizerSkeleton> = g
        .tokens()
        .iter()
        .enumerate()
        .map(|(i, tok)| {
            TokenizerSkeleton::build(
                &mut b,
                &mut bank,
                tok.pattern.template(),
                longest,
                &format!("{i}"),
            )
        })
        .collect();
    stage_done("tokenizers", &mut stage_mark);

    // Syntactic control flow from the combinational match lines.
    let match_raws: Vec<NetId> = skeletons.iter().map(|s| s.nets.match_raw).collect();
    let all_positions: Vec<NetId> =
        skeletons.iter().flat_map(|s| s.nets.positions.iter().copied()).collect();
    let ControlNets { enables, .. } = build_control(
        &mut b,
        g,
        &analysis,
        &match_raws,
        &all_positions,
        start_q,
        delim_q,
        opts.start_mode,
        opts.error_recovery,
    );
    stage_done("control", &mut stage_mark);

    // Phase 2: connect the pipelines.
    for (sk, &en) in skeletons.iter().zip(&enables) {
        sk.connect(&mut b, &mut bank, en);
    }
    stage_done("connect", &mut stage_mark);

    // Index encoder.
    let match_qs: Vec<NetId> = skeletons.iter().map(|s| s.nets.match_q).collect();
    let groups = conflict_groups(g);
    let slots = assign_slots(g.tokens().len(), &groups);
    let (index_bits, match_any, encoder_latency) = match opts.encoder {
        EncoderKind::Pipelined => {
            let e = build_paper_encoder(&mut b, &match_qs, &slots);
            (e.index_bits, Some(e.match_any), e.latency)
        }
        EncoderKind::Naive => {
            let e = build_naive_encoder(&mut b, &match_qs, &slots);
            (e.index_bits, Some(e.match_any), e.latency)
        }
        EncoderKind::None => (Vec::new(), None, 0),
    };
    stage_done("encoder", &mut stage_mark);

    // Outputs.
    for (t, sk) in skeletons.iter().enumerate() {
        b.output(&format!("m{t}"), sk.nets.match_q);
    }
    for (i, &bit) in index_bits.iter().enumerate() {
        b.output(&format!("index{i}"), bit);
    }
    if let Some(any) = match_any {
        b.output("match_any", any);
    }

    let tokens: Vec<TokenHw> = g
        .tokens()
        .iter()
        .zip(&skeletons)
        .enumerate()
        .map(|(t, (tok, sk))| TokenHw {
            name: tok.name.clone(),
            match_q: sk.nets.match_q,
            match_raw: sk.nets.match_raw,
            enable: enables[t],
            code: if opts.encoder == EncoderKind::None { 0 } else { slots.codes[t] },
            positions: tok.pattern.pattern_bytes(),
            position_nets: sk.nets.positions.clone(),
        })
        .collect();

    let decoder_classes = bank.class_count();
    let decoders = bank.registered_classes();
    let mut netlist = b.finish();
    if let Some(cap) = opts.max_reg_fanout {
        let (replicated, _added) = cfg_netlist::replicate_high_fanout_regs(&netlist, cap);
        netlist = replicated;
    }
    stage_done("netlist_finish", &mut stage_mark);
    Ok(GeneratedTagger {
        netlist,
        tokens,
        index_bits,
        match_any,
        encoder_latency,
        // The match line read post-step asserts MATCH_LATENCY steps after
        // the lexeme's final byte was fed (one more with registered
        // input pads).
        match_latency: MATCH_LATENCY + opts.register_inputs as u64,
        slots,
        pattern_bytes: g.pattern_bytes(),
        decoder_classes,
        decoders,
        delimiters: delim,
        stage_nanos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfg_grammar::builtin;
    use cfg_netlist::Simulator;

    /// Feed a byte string and return (end_offset_exclusive, token_name)
    /// events from the per-token match lines.
    fn tag(g: &Grammar, opts: &GeneratorOptions, input: &[u8]) -> Vec<(usize, String)> {
        let hw = generate(g, opts).unwrap();
        let mut sim = Simulator::new(&hw.netlist).unwrap();
        let mut events = Vec::new();
        let padded: Vec<u8> =
            input.iter().copied().chain(std::iter::repeat_n(b' ', hw.flush_bytes())).collect();
        for (s, &byte) in padded.iter().enumerate() {
            let mut inputs: Vec<u64> =
                (0..8).map(|i| if byte & (1 << i) != 0 { u64::MAX } else { 0 }).collect();
            inputs.push(if s == 0 { u64::MAX } else { 0 }); // start
            sim.step(&inputs).unwrap();
            for (t, tok) in hw.tokens.iter().enumerate() {
                if sim.output(&format!("m{t}")).unwrap() & 1 != 0 {
                    let end = s as i64 - hw.match_latency as i64 + 1;
                    events.push((end as usize, tok.name.clone()));
                }
            }
        }
        events
    }

    #[test]
    fn if_then_else_sentence_tags_in_order() {
        let g = builtin::if_then_else();
        let events = tag(&g, &GeneratorOptions::default(), b"if true then go else stop");
        let names: Vec<&str> = events.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, ["if", "true", "then", "go", "else", "stop"]);
        // End offsets are the exclusive lexeme ends.
        let ends: Vec<usize> = events.iter().map(|(e, _)| *e).collect();
        assert_eq!(ends, [2, 7, 12, 15, 20, 25]);
    }

    #[test]
    fn non_following_token_is_not_tagged() {
        // "then" without a preceding C is never enabled in AtStart mode.
        let g = builtin::if_then_else();
        let events = tag(&g, &GeneratorOptions::default(), b"then go");
        assert!(events.is_empty(), "got {events:?}");
    }

    #[test]
    fn always_mode_tags_at_any_alignment() {
        let g = builtin::if_then_else();
        let opts = GeneratorOptions { start_mode: StartMode::Always, ..Default::default() };
        let events = tag(&g, &opts, b"xx go");
        let names: Vec<&str> = events.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, ["go"]);
    }

    #[test]
    fn balanced_parens_superset_acceptance() {
        // Figure 2: without a stack the circuit accepts a superset —
        // conforming input "((0))" tags fully.
        let g = builtin::balanced_parens();
        let events = tag(&g, &GeneratorOptions::default(), b"( ( 0 ) )");
        let names: Vec<&str> = events.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, ["(", "(", "0", ")", ")"]);
        // …and unbalanced input "(0))" *also* tags (the documented
        // superset behaviour, §3.1).
        let events = tag(&g, &GeneratorOptions::default(), b"( 0 ) )");
        let names: Vec<&str> = events.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, ["(", "0", ")", ")"]);
    }

    #[test]
    fn named_regex_tokens_with_delimiters() {
        let g = Grammar::parse(
            r#"
            NUM [0-9]+
            %%
            s: NUM "+" NUM;
            %%
            "#,
        )
        .unwrap();
        let events = tag(&g, &GeneratorOptions::default(), b"12 + 345");
        let names: Vec<&str> = events.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, ["NUM", "+", "NUM"]);
        let ends: Vec<usize> = events.iter().map(|(e, _)| *e).collect();
        assert_eq!(ends, [2, 4, 8]);
    }

    #[test]
    fn adjacent_tokens_without_delimiters() {
        let g = Grammar::parse(
            r#"
            %%
            pair: "<a>" "</a>";
            %%
            "#,
        )
        .unwrap();
        let events = tag(&g, &GeneratorOptions::default(), b"<a></a>");
        let names: Vec<&str> = events.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, ["<a>", "</a>"]);
    }

    #[test]
    fn index_encoder_outputs_match_codes() {
        let g = builtin::if_then_else();
        let hw = generate(&g, &GeneratorOptions::default()).unwrap();
        let mut sim = Simulator::new(&hw.netlist).unwrap();
        let input = b"go";
        let total = input.len() + hw.flush_bytes();
        let mut seen_codes = Vec::new();
        for s in 0..total {
            let byte = *input.get(s).unwrap_or(&b' ');
            let mut inputs: Vec<u64> =
                (0..8).map(|i| if byte & (1 << i) != 0 { u64::MAX } else { 0 }).collect();
            inputs.push(if s == 0 { u64::MAX } else { 0 });
            sim.step(&inputs).unwrap();
            if sim.output("match_any").unwrap() & 1 != 0 {
                let mut code = 0usize;
                for i in 0..hw.slots.width {
                    if sim.output(&format!("index{i}")).unwrap() & 1 != 0 {
                        code |= 1 << i;
                    }
                }
                seen_codes.push(code);
            }
        }
        let go = g.token_by_name("go").unwrap().index();
        assert_eq!(seen_codes, vec![hw.tokens[go].code]);
    }

    #[test]
    fn delimiter_overlap_rejected() {
        let g = Grammar::parse(
            r#"
            SPACEY [ a]+
            %%
            s: SPACEY;
            %%
            "#,
        )
        .unwrap();
        assert!(matches!(
            generate(&g, &GeneratorOptions::default()),
            Err(GenError::DelimiterOverlap { .. })
        ));
    }

    #[test]
    fn lookahead_ablation_changes_repeat_behaviour() {
        let g = Grammar::parse("NUM [0-9]+\n%%\ns: NUM;\n%%\n").unwrap();
        let with = tag(&g, &GeneratorOptions::default(), b"123");
        assert_eq!(with.len(), 1);
        let opts = GeneratorOptions { disable_longest_match: true, ..Default::default() };
        let without = tag(&g, &opts, b"123");
        // Without Figure 7 the match line asserts at every digit.
        assert_eq!(without.len(), 3);
    }

    #[test]
    fn duplicated_contexts_distinguish_string_roles() {
        use cfg_grammar::transform::duplicate_multi_context_tokens;
        let g = Grammar::parse(
            r#"
            STRING [a-zA-Z0-9]+
            %%
            call: "<m>" STRING "</m>" "<n>" STRING "</n>";
            %%
            "#,
        )
        .unwrap();
        let d = duplicate_multi_context_tokens(&g);
        let events = tag(&d, &GeneratorOptions::default(), b"<m>deposit</m><n>acct</n>");
        let names: Vec<&str> = events.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names.len(), 6);
        // The two STRING instances carry distinct context-tagged names.
        assert!(names[1].starts_with("STRING@call"));
        assert!(names[4].starts_with("STRING@call"));
        assert_ne!(names[1], names[4]);
    }

    #[test]
    fn empty_grammar_rejected() {
        // An empty rule uses no token: nothing to generate.
        let g = Grammar::parse("%%\ns: ;\n%%\n").unwrap();
        assert_eq!(generate(&g, &GeneratorOptions::default()).unwrap_err(), GenError::NoTokens);
    }
}
