//! The scalar functional engine — a software mirror of the circuit.
//!
//! [`ScalarEngine`] simulates the generated structure at token/position
//! granularity: one boolean per Glushkov position instead of one
//! flip-flop, the FOLLOW wiring as follower lists instead of OR gates,
//! and the arm registers as booleans. It produces *identical events* to
//! the gate-level engine (property-tested) while running orders of
//! magnitude faster. Next to the production engine
//! ([`crate::BitEngine`]), this scalar walk is the *readable reference*
//! between the gate level and the bitset level: the three are
//! property-tested to agree event-for-event.

use crate::engine::Engine;
use crate::error::Error;
use crate::event::TagEvent;
use crate::probes::TaggerProbes;
use crate::tagger::TaggerOptions;
use cfg_grammar::{Grammar, TokenId};
use cfg_hwgen::StartMode;
use cfg_obs::{Metrics, Stat, TraceEvent};
use cfg_regex::ByteSet;
use std::sync::Arc;

/// Precomputed per-token structure.
#[derive(Debug)]
struct TokenTable {
    /// Byte class per position.
    classes: Vec<ByteSet>,
    /// First-position flags.
    is_first: Vec<bool>,
    /// Predecessors per position (inverted follow relation).
    preds: Vec<Vec<usize>>,
    /// Last-position flags.
    is_last: Vec<bool>,
    /// Continuation class per position (lookahead).
    cont: Vec<ByteSet>,
}

/// Shared compiled tables for fast engines.
#[derive(Debug)]
pub struct FastTables {
    tokens: Vec<TokenTable>,
    /// `followers[u]` = tokens enabled when `u` matches.
    followers: Vec<Vec<usize>>,
    /// Tokens in FIRST(start).
    start_tokens: Vec<bool>,
    delim: ByteSet,
    always: bool,
    longest: bool,
    error_recovery: bool,
}

impl FastTables {
    /// Build tables from a compiled grammar.
    pub fn build(g: &Grammar, opts: &TaggerOptions) -> FastTables {
        let analysis = g.analyze();
        let tokens = g
            .tokens()
            .iter()
            .map(|tok| {
                let t = tok.pattern.template();
                let n = t.positions.len();
                let mut preds = vec![Vec::new(); n];
                for (p, fs) in t.follow.iter().enumerate() {
                    for &q in fs {
                        preds[q].push(p);
                    }
                }
                let mut is_last = vec![false; n];
                for &p in &t.last {
                    is_last[p] = true;
                }
                let mut is_first = vec![false; n];
                for &p in &t.first {
                    is_first[p] = true;
                }
                let cont = (0..n).map(|p| t.continuation_class(p)).collect();
                TokenTable { classes: t.positions.clone(), is_first, preds, is_last, cont }
            })
            .collect();
        let followers = (0..g.tokens().len())
            .map(|u| analysis.follow_of(TokenId(u as u32)).iter().map(|t| t.index()).collect())
            .collect();
        let start_tokens =
            (0..g.tokens().len()).map(|t| analysis.start_set.contains(TokenId(t as u32))).collect();
        FastTables {
            tokens,
            followers,
            start_tokens,
            delim: g.delimiters(),
            always: opts.start_mode == StartMode::Always,
            longest: !opts.disable_longest_match,
            error_recovery: opts.error_recovery,
        }
    }

    /// Number of tokens.
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }
}

/// Streaming scalar engine. Create via
/// [`crate::TokenTagger::engine`] with [`crate::EngineKind::Scalar`];
/// drive it through the [`Engine`] trait.
#[derive(Debug)]
pub struct ScalarEngine {
    tables: Arc<FastTables>,
    /// Active flag per position per token. Valid only when
    /// `active_any[t]` is set — skipped tokens keep stale buffers.
    active: Vec<Vec<bool>>,
    /// Lexeme start per active position.
    starts: Vec<Vec<usize>>,
    /// Per-token "has any active position" summary (hot-loop skip).
    active_any: Vec<bool>,
    /// Scratch buffers (double-buffered per byte).
    next_active: Vec<Vec<bool>>,
    next_starts: Vec<Vec<usize>>,
    next_any: Vec<bool>,
    /// Enable set by matches on the previous byte.
    set_now: Vec<bool>,
    /// Arm registers.
    arm: Vec<bool>,
    /// Was the previously processed byte a delimiter? (Recovery resync
    /// fires only at token boundaries.)
    prev_was_delim: bool,
    /// Byte held for the one-byte lookahead.
    pending: Option<u8>,
    /// Index of the next byte to be processed (the pending one).
    cursor: usize,
    finished: bool,
    /// Observability handle (default off: recording compiles away to a
    /// per-call `Option` branch off the hot per-byte loop).
    metrics: Metrics,
    /// Cached `metrics.is_enabled()`: true only for a sink that really
    /// records (a [`cfg_obs::NoopSink`] stays false). Gates the O(tokens)
    /// per-byte liveness scan so a no-op sink costs the same as no sink.
    live_stats: bool,
    /// Was the engine dead after the last committed step? Maintained
    /// only while an enabled sink is attached (used to count dead-state
    /// *entries*).
    was_dead: bool,
    /// Circuit probes (decoder/stage/fire/edge counters), if attached.
    probes: Option<Arc<TaggerProbes>>,
}

impl ScalarEngine {
    /// New engine over shared tables: the start pulse enables the
    /// FIRST(start) tokens for byte 0.
    pub(crate) fn new(tables: Arc<FastTables>) -> ScalarEngine {
        let shapes: Vec<usize> = tables.tokens.iter().map(|t| t.classes.len()).collect();
        let n = tables.token_count();
        ScalarEngine {
            active: shapes.iter().map(|&k| vec![false; k]).collect(),
            starts: shapes.iter().map(|&k| vec![0; k]).collect(),
            active_any: vec![false; n],
            next_active: shapes.iter().map(|&k| vec![false; k]).collect(),
            next_starts: shapes.iter().map(|&k| vec![0; k]).collect(),
            next_any: vec![false; n],
            set_now: tables.start_tokens.clone(),
            arm: vec![false; n],
            prev_was_delim: false,
            pending: None,
            cursor: 0,
            finished: false,
            metrics: Metrics::off(),
            live_stats: false,
            was_dead: false,
            probes: None,
            tables,
        }
    }

    /// Attach an observability handle (builder style).
    pub(crate) fn with_metrics(mut self, metrics: Metrics) -> ScalarEngine {
        self.live_stats = metrics.is_enabled();
        self.metrics = metrics;
        self
    }

    /// Attach circuit probes, if any (builder style). Without them the
    /// per-byte probe scans are skipped entirely.
    pub(crate) fn with_probes(mut self, probes: Option<Arc<TaggerProbes>>) -> ScalarEngine {
        self.probes = probes;
        self
    }

    /// Process one byte with its lookahead; `self.cursor` indexes it.
    fn step(
        &mut self,
        tables: &FastTables,
        byte: u8,
        next: Option<u8>,
        events: &mut Vec<TagEvent>,
    ) {
        let i = self.cursor;
        self.cursor += 1;
        let is_delim = tables.delim.contains(byte);
        let mut matched: Vec<usize> = Vec::new();

        // Decoder-hit probes: the registered decoder for every class
        // containing this byte asserts — the software mirror of the
        // Figure 4/5 decode wires.
        if let Some(pr) = &self.probes {
            for (set, idx) in &pr.decoders {
                if set.contains(byte) {
                    pr.bank().hit(*idx, 1);
                }
            }
        }

        // §5.2 error recovery: if the machine is dead (nothing active,
        // nothing armed) and the previous byte was a delimiter, re-enable
        // the start tokens — mirrors the hardware's NOR-based resync.
        let recover = tables.error_recovery
            && self.prev_was_delim
            && !self.active_any.iter().any(|&a| a)
            && !self.arm.iter().any(|&a| a);

        for (t, tok) in tables.tokens.iter().enumerate() {
            let enabled = self.set_now[t]
                || self.arm[t]
                || ((tables.always || recover) && tables.start_tokens[t]);
            let any = self.active_any[t];

            // Hot-loop skip: a token with no live positions and no
            // enable cannot fire or change state this byte.
            if !enabled && !any {
                self.next_any[t] = false;
                self.arm[t] = false;
                continue;
            }

            let active = &self.active[t];
            let starts = &self.starts[t];
            let next_active = &mut self.next_active[t];
            let next_starts = &mut self.next_starts[t];

            let mut token_match_start: Option<usize> = None;
            let mut any_fired = false;
            for p in 0..tok.classes.len() {
                let mut fired = false;
                let mut start = usize::MAX;
                if tok.classes[p].contains(byte) {
                    if any {
                        for &q in &tok.preds[p] {
                            if active[q] {
                                fired = true;
                                start = start.min(starts[q]);
                            }
                        }
                    }
                    if enabled && tok.is_first[p] {
                        fired = true;
                        start = start.min(i);
                    }
                }
                next_active[p] = fired;
                next_starts[p] = start;
                any_fired |= fired;
                if fired && tok.is_last[p] {
                    let continues = match (tables.longest, next) {
                        (true, Some(nb)) => tok.cont[p].contains(nb),
                        _ => false,
                    };
                    if !continues {
                        token_match_start =
                            Some(token_match_start.map_or(start, |s: usize| s.min(start)));
                    }
                }
            }
            self.next_any[t] = any_fired;
            // Stage-activity probes: one hit per position register that
            // goes active this byte (the pipeline heat of Figure 6).
            if any_fired {
                if let Some(pr) = &self.probes {
                    for (p, &on) in next_active.iter().enumerate() {
                        if on {
                            if let Some(&idx) = pr.stages[t].get(p) {
                                pr.bank().hit(idx, 1);
                            }
                        }
                    }
                }
            }
            if let Some(start) = token_match_start {
                events.push(TagEvent { token: TokenId(t as u32), start, end: i + 1 });
                matched.push(t);
                // Gated on the cached flag: a disabled sink (NoopSink)
                // discards these anyway, so skipping the virtual calls
                // keeps the hot loop identical to the metrics-off path.
                if self.live_stats {
                    self.metrics.token_fire(t as u32, 1);
                    self.metrics.trace(|| {
                        TraceEvent::new("token_fire")
                            .field("token", t as u32)
                            .field("start", start)
                            .field("end", i + 1)
                    });
                }
                if let Some(pr) = &self.probes {
                    pr.bank().hit(pr.fire[t], 1);
                }
            }

            // Arm update: hold a pending enable across delimiter bytes.
            self.arm[t] = enabled && is_delim;
        }

        // Commit position state.
        std::mem::swap(&mut self.active, &mut self.next_active);
        std::mem::swap(&mut self.starts, &mut self.next_starts);
        std::mem::swap(&mut self.active_any, &mut self.next_any);

        // Enables for the next byte come from this byte's matches.
        self.set_now.iter_mut().for_each(|s| *s = false);
        for &u in &matched {
            for (k, &f) in tables.followers[u].iter().enumerate() {
                self.set_now[f] = true;
                // A fire propagating an enable pulse down a FOLLOW wire
                // is the edge activation the probes and triggers watch.
                if let Some(pr) = &self.probes {
                    if let Some(&idx) = pr.edges[u].get(k) {
                        pr.bank().hit(idx, 1);
                    }
                }
                if self.live_stats {
                    self.metrics
                        .trace(|| TraceEvent::new("follow_edge").field("from", u).field("to", f));
                }
            }
        }
        self.prev_was_delim = is_delim;

        // Liveness accounting (§5.2): only while an *enabled* sink is
        // attached — the liveness scan is O(tokens) per byte and would
        // tax both the metrics-off and the NoopSink paths.
        if self.live_stats {
            let alive = !self.is_dead();
            if recover && alive {
                self.metrics.add(Stat::Resyncs, 1);
                self.metrics.trace(|| TraceEvent::new("resync").field("at", i));
            }
            if !alive && !self.was_dead {
                self.metrics.add(Stat::DeadEntries, 1);
                self.metrics.trace(|| TraceEvent::new("dead_entry").field("at", i));
            }
            self.was_dead = !alive;
        }
    }
}

impl Engine for ScalarEngine {
    fn feed_slice(&mut self, bytes: &[u8], events: &mut Vec<TagEvent>) -> Result<(), Error> {
        assert!(!self.finished, "feed after finish");
        // One refcount bump per feed — not one per input byte.
        let tables = Arc::clone(&self.tables);
        for &b in bytes {
            if let Some(prev) = self.pending.replace(b) {
                self.step(&tables, prev, Some(b), events);
            }
        }
        // Batched off the per-byte loop: one branch per feed.
        self.metrics.add(Stat::BytesIn, bytes.len() as u64);
        Ok(())
    }

    /// Drain the final byte. Mirrors the hardware exactly: the circuit
    /// never sees "end of input" — the driver flushes the pipeline with
    /// delimiter bytes, so the final byte's lookahead (Figure 7) is
    /// evaluated against a **delimiter**, not against nothing. A token
    /// whose continuation class contains the delimiter therefore keeps
    /// matching into the flush and reports no in-bounds event, just as
    /// the gate-level engine observes.
    fn finish_into(&mut self, events: &mut Vec<TagEvent>) -> Result<(), Error> {
        let tables = Arc::clone(&self.tables);
        if let Some(prev) = self.pending.take() {
            let flush = tables.delim.iter().next().unwrap_or(b' ');
            self.step(&tables, prev, Some(flush), events);
        }
        self.finished = true;
        Ok(())
    }

    /// No live positions, no armed enables, and no enables set for the
    /// next byte: a dead machine emits no further events until a §5.2
    /// resync (or never, with recovery off).
    fn is_dead(&self) -> bool {
        !self.active_any.iter().any(|&a| a)
            && !self.arm.iter().any(|&a| a)
            && !self.set_now.iter().any(|&s| s)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::EngineKind;
    use crate::tagger::{TaggerOptions, TokenTagger};
    use cfg_grammar::{builtin, Grammar};

    #[test]
    fn streaming_matches_batch() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let input = b"if true then go else stop";
        let batch = t.tag(input);

        // Feed in awkward chunk sizes — scalar streaming must equal the
        // production engine's batch.
        for chunk in [1usize, 2, 3, 7] {
            let mut e = t.engine(EngineKind::Scalar).unwrap();
            let mut events = Vec::new();
            for c in input.chunks(chunk) {
                events.extend(e.feed(c).unwrap());
            }
            events.extend(e.finish().unwrap());
            assert_eq!(events, batch, "chunk size {chunk}");
        }
    }

    #[test]
    #[should_panic(expected = "feed after finish")]
    fn feed_after_finish_panics() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let mut e = t.engine(EngineKind::Scalar).unwrap();
        let _ = e.finish();
        let _ = e.feed(b"go");
    }

    #[test]
    fn repeated_list_items() {
        let g = Grammar::parse(
            r#"
            %%
            list: "<l>" item "</l>";
            item: | "<i>" "</i>" item;
            %%
            "#,
        )
        .unwrap();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let input = b"<l><i></i><i></i><i></i></l>";
        let mut e = t.engine(EngineKind::Scalar).unwrap();
        let mut events = e.feed(input).unwrap();
        events.extend(e.finish().unwrap());
        let names: Vec<&str> = events.iter().map(|e| t.token_name(e.token)).collect();
        assert_eq!(names, ["<l>", "<i>", "</i>", "<i>", "</i>", "<i>", "</i>", "</l>"]);
    }
}
