//! The gate-level engine — drives the generated circuit cycle by cycle.
//!
//! This is the hardware-fidelity path: each input byte becomes one clock
//! cycle of the generated netlist in `cfg-netlist`'s simulator, and
//! matches are read off the registered per-token match lines exactly as
//! a back-end module on the FPGA would. Only *end* positions are
//! observable on the match lines; span starts are recovered in software
//! by a reverse automaton, restricted to the bytes where the circuit's
//! own enable wire for the token was high.
//!
//! [`GateEngine::new`] reads the circuit's raw match lines directly;
//! [`crate::TokenTagger::engine`] wraps one in a [`crate::GateStream`]
//! for spans, liveness and the tagger's metrics and probes.

use crate::event::{RawMatch, TagEvent};
use crate::probes::TaggerProbes;
use cfg_grammar::TokenId;
use cfg_hwgen::GeneratedTagger;
use cfg_netlist::{NetId, SimError, Simulator};
use cfg_obs::{Metrics, Stat};
use cfg_regex::Nfa;
use std::sync::Arc;

/// Spans for raw match ends (§3.4): each token's reversed automaton
/// runs backwards over `input` from the end, and the longest match that
/// starts at a byte where `gate` had the token enabled gives the start.
/// Without that restriction a token that can contain delimiters would
/// reach back past a §5.2 resync point to a byte where no lexeme began.
pub(crate) fn resolve_spans(
    reverse_nfas: &[Nfa],
    gate: &GateEngine,
    input: &[u8],
    raw: &[RawMatch],
) -> Vec<TagEvent> {
    raw.iter()
        .filter_map(|m| {
            let may_start = |s| gate.may_start(m.token, s);
            let len =
                reverse_nfas[m.token.index()].find_longest_rev_where(input, m.end, may_start)?;
            Some(TagEvent { token: m.token, start: m.end - len, end: m.end })
        })
        .collect()
}

/// Cycle-accurate engine over the generated netlist.
#[derive(Debug)]
pub struct GateEngine {
    sim: Simulator,
    match_nets: Vec<NetId>,
    match_latency: u64,
    /// Per-token enable wires (Figure 11), read every cycle.
    enable_nets: Vec<NetId>,
    /// Words per row of `enable_log`.
    twords: usize,
    /// One token bitset per fed byte: bit `t` of row `b` is set when
    /// token `t` was enabled at byte `b`, so a lexeme of `t` may start
    /// there. Span recovery rejects reverse matches that begin anywhere
    /// else.
    enable_log: Vec<u64>,
    flush: usize,
    flush_byte: u8,
    /// Bytes fed since the last reset (streaming API).
    fed: usize,
    /// Whether the start pulse is still pending.
    start_pending: bool,
    /// Observability handle (default off).
    metrics: Metrics,
    /// Circuit probes, if attached. Decoder and stage activity comes
    /// from simulator watches on the real nets; fires are counted at the
    /// match-line read (a FOLLOW edge's probe reads its source's fire).
    probes: Option<Arc<TaggerProbes>>,
    /// Probe index per registered simulator watch.
    watch_probe: Vec<u32>,
    /// Watch counts already drained into the bank.
    watch_prev: Vec<u64>,
}

impl GateEngine {
    /// Compile the netlist into a simulator.
    pub fn new(hw: &GeneratedTagger) -> Result<GateEngine, SimError> {
        Ok(GateEngine {
            sim: Simulator::new(&hw.netlist)?,
            match_nets: hw.tokens.iter().map(|t| t.match_q).collect(),
            match_latency: hw.match_latency,
            enable_nets: hw.tokens.iter().map(|t| t.enable).collect(),
            twords: hw.tokens.len().div_ceil(64),
            enable_log: Vec::new(),
            flush: hw.flush_bytes(),
            flush_byte: hw.flush_byte(),
            fed: 0,
            start_pending: true,
            metrics: Metrics::off(),
            probes: None,
            watch_probe: Vec::new(),
            watch_prev: Vec::new(),
        })
    }

    /// Attach an observability handle (builder style).
    pub(crate) fn with_metrics(mut self, metrics: Metrics) -> GateEngine {
        self.metrics = metrics;
        self
    }

    /// Attach circuit probes, if any (builder style): registers a
    /// simulator watch on every decoder output and tokenizer position
    /// register — the embedded-logic-analyzer taps. Without probes the
    /// simulator runs untapped.
    pub(crate) fn with_probes(mut self, probes: Option<Arc<TaggerProbes>>) -> GateEngine {
        let Some(probes) = probes else { return self };
        for (net, probe) in probes.watch_nets() {
            self.sim.watch(net);
            self.watch_probe.push(probe);
        }
        self.watch_prev = vec![0; self.watch_probe.len()];
        self.probes = Some(probes);
        self
    }

    /// Reset for a fresh stream.
    fn reset(&mut self) {
        self.sim.reset();
        self.fed = 0;
        self.start_pending = true;
        self.enable_log.clear();
        // reset() clears the simulator's watch counters too.
        self.watch_prev.iter_mut().for_each(|p| *p = 0);
    }

    /// Move any new watch activity into the probe bank (batched off the
    /// per-cycle loop, like the stat counters).
    fn drain_watches(&mut self) {
        if let Some(pr) = &self.probes {
            for (i, &probe) in self.watch_probe.iter().enumerate() {
                let now = self.sim.watch_count(i);
                let delta = now - self.watch_prev[i];
                if delta > 0 {
                    pr.bank().hit(probe, delta);
                }
                self.watch_prev[i] = now;
            }
        }
    }

    /// Clock one byte through the circuit and collect any in-bounds
    /// matches observable this cycle.
    fn clock(&mut self, byte: u8, limit: usize, raw: &mut Vec<RawMatch>) -> Result<(), SimError> {
        let mut inputs = [0u64; 9];
        for (i, slot) in inputs.iter_mut().take(8).enumerate() {
            *slot = if byte & (1 << i) != 0 { u64::MAX } else { 0 };
        }
        inputs[8] = if self.start_pending { u64::MAX } else { 0 };
        self.start_pending = false;
        self.sim.step(&inputs)?;

        // The enable wires gate the first-position registers in the
        // cycle whose registered decode shows byte `s - (match_latency -
        // 1)`: one cycle before that byte's position register is
        // readable. Flush padding is not input, so it is not logged.
        let s = self.sim.cycle() - 1;
        if let Some(byte) = s.checked_sub(self.match_latency - 1) {
            if (byte as usize) < limit {
                let row = self.enable_log.len();
                self.enable_log.resize(row + self.twords, 0);
                for (t, &net) in self.enable_nets.iter().enumerate() {
                    if self.sim.value(net) & 1 != 0 {
                        self.enable_log[row + t / 64] |= 1 << (t % 64);
                    }
                }
            }
        }

        // A match line high after step `s` marks a lexeme ending at byte
        // `s - match_latency` (inclusive).
        if s < self.match_latency {
            return Ok(());
        }
        let end = (s - self.match_latency) as usize + 1;
        if end > limit {
            return Ok(()); // assertions caused by flush padding
        }
        for (t, &net) in self.match_nets.iter().enumerate() {
            if self.sim.value(net) & 1 != 0 {
                raw.push(RawMatch { token: TokenId(t as u32), end });
                self.metrics.token_fire(t as u32, 1);
                // The match line drives every FOLLOW enable wire out of
                // this token, so its fire probe counts those pulses too.
                if let Some(pr) = &self.probes {
                    pr.bank().hit(pr.fire[t], 1);
                }
            }
        }
        Ok(())
    }

    /// Streaming: feed a chunk of bytes, returning the raw matches whose
    /// lexemes ended within what has been fed so far.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<RawMatch>, SimError> {
        let mut raw = Vec::new();
        for &b in bytes {
            self.fed += 1;
            self.clock(b, self.fed, &mut raw)?;
        }
        // One cycle per byte: batch both counters off the clock loop.
        self.metrics.add(Stat::BytesIn, bytes.len() as u64);
        self.metrics.add(Stat::GateCycles, bytes.len() as u64);
        self.drain_watches();
        Ok(raw)
    }

    /// Streaming: flush the pipeline with delimiter bytes and return the
    /// remaining matches.
    pub fn finish(&mut self) -> Result<Vec<RawMatch>, SimError> {
        let mut raw = Vec::new();
        for _ in 0..self.flush {
            self.clock(self.flush_byte, self.fed, &mut raw)?;
        }
        self.metrics.add(Stat::GateCycles, self.flush as u64);
        self.drain_watches();
        Ok(raw)
    }

    /// Run a complete input through the circuit (with automatic pipeline
    /// flush) and collect the raw matches, ordered by end position.
    pub fn run(&mut self, input: &[u8]) -> Result<Vec<RawMatch>, SimError> {
        self.reset();
        let mut raw = self.feed(input)?;
        raw.extend(self.finish()?);
        Ok(raw)
    }

    /// Was `token`'s enable wire high at byte `at` — could a lexeme of
    /// it start there? Known for every byte whose matches have been
    /// reported.
    pub(crate) fn may_start(&self, token: TokenId, at: usize) -> bool {
        let t = token.index();
        self.enable_log.get(at * self.twords + t / 64).is_some_and(|w| w >> (t % 64) & 1 == 1)
    }

    /// Number of cycles simulated so far (diagnostics).
    pub fn cycles(&self) -> u64 {
        self.sim.cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::GateEngine;
    use crate::engine::EngineKind;
    use crate::event::TagEvent;
    use crate::tagger::{TaggerOptions, TokenTagger};
    use cfg_grammar::{builtin, Grammar};
    use cfg_hwgen::{generate, GeneratorOptions};

    /// Tag `input` through the gate kind: the simulated circuit plus
    /// span recovery.
    fn gate_tag(t: &TokenTagger, input: &[u8]) -> Vec<TagEvent> {
        let mut e = t.engine(EngineKind::Gate).unwrap();
        let mut events = e.feed(input).unwrap();
        events.extend(e.finish().unwrap());
        events
    }

    #[test]
    fn raw_matches_have_correct_ends() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let mut e = GateEngine::new(t.hardware()).unwrap();
        let raw = e.run(b"if true then go else stop").unwrap();
        let ends: Vec<usize> = raw.iter().map(|m| m.end).collect();
        assert_eq!(ends, [2, 7, 12, 15, 20, 25]);
        assert!(e.cycles() > 25);
    }

    #[test]
    fn engine_reusable_across_runs() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let mut e = GateEngine::new(t.hardware()).unwrap();
        let a = e.run(b"go").unwrap();
        let b = e.run(b"stop").unwrap();
        let c = e.run(b"go").unwrap();
        assert_eq!(a, c);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_ne!(a[0].token, b[0].token);
    }

    #[test]
    fn gate_agrees_with_fast_on_random_conforming_sentences() {
        use rand::prelude::*;
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(42);

        // Random sentence generator for the Figure 9 grammar.
        fn sentence(rng: &mut StdRng, depth: usize, out: &mut String) {
            if depth == 0 || rng.random_bool(0.6) {
                out.push_str(["go", "stop"].choose(rng).unwrap());
            } else {
                out.push_str("if ");
                out.push_str(["true", "false"].choose(rng).unwrap());
                out.push_str(" then ");
                sentence(rng, depth - 1, out);
                out.push_str(" else ");
                sentence(rng, depth - 1, out);
            }
        }

        for _ in 0..20 {
            let mut s = String::new();
            sentence(&mut rng, 3, &mut s);
            let fast = t.tag(s.as_bytes());
            let gate = gate_tag(&t, s.as_bytes());
            assert_eq!(fast, gate, "sentence {s}");
            assert!(!fast.is_empty());
        }
    }

    #[test]
    fn fanout_remedies_preserve_behaviour() {
        // §4.3 remedies (input registering + register replication) add
        // latency but must not change a single raw match.
        let g = builtin::if_then_else();
        let plain = generate(&g, &GeneratorOptions::default()).unwrap();
        let remedied = generate(
            &g,
            &GeneratorOptions {
                register_inputs: true,
                max_reg_fanout: Some(4),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(remedied.match_latency > plain.match_latency);
        for input in [&b"go"[..], b"if true then go else stop", b"then bogus"] {
            let a = GateEngine::new(&plain).unwrap().run(input).unwrap();
            let b = GateEngine::new(&remedied).unwrap().run(input).unwrap();
            assert_eq!(a, b, "input {:?}", String::from_utf8_lossy(input));
            assert_eq!(a.is_empty(), input == b"then bogus");
        }
    }

    #[test]
    fn streaming_chunks_equal_batch() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let input = b"if true then go else stop";
        let mut e = GateEngine::new(t.hardware()).unwrap();
        let batch = e.run(input).unwrap();
        for chunk in [1usize, 3, 7, 100] {
            let mut e = GateEngine::new(t.hardware()).unwrap();
            let mut raw = Vec::new();
            for c in input.chunks(chunk) {
                raw.extend(e.feed(c).unwrap());
            }
            raw.extend(e.finish().unwrap());
            assert_eq!(raw, batch, "chunk {chunk}");
        }
    }

    #[test]
    fn error_recovery_resyncs_after_garbage() {
        // §5.2: "the hardware based parser will be able to gracefully
        // recover from errors … continue processing from the point of
        // the error."
        let g = builtin::if_then_else();
        let plain = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let recovering =
            TokenTagger::compile(&g, TaggerOptions { error_recovery: true, ..Default::default() })
                .unwrap();

        let input = b"go ##garbage## stop";
        // Without recovery the machine stays dead after the error.
        let names = |t: &TokenTagger, evs: &[TagEvent]| -> Vec<String> {
            evs.iter().map(|e| t.token_name(e.token).to_owned()).collect()
        };
        assert_eq!(names(&plain, &plain.tag(input)), ["go"]);
        // With recovery, 'stop' (a start token) is tagged after resync.
        let fast = recovering.tag(input);
        assert_eq!(names(&recovering, &fast), ["go", "stop"]);
        // And the circuit implements the same semantics.
        let gate = gate_tag(&recovering, input);
        assert_eq!(fast, gate);
    }

    #[test]
    fn error_recovery_gate_equals_fast_on_noisy_streams() {
        use rand::prelude::*;
        let g = builtin::if_then_else();
        let t =
            TokenTagger::compile(&g, TaggerOptions { error_recovery: true, ..Default::default() })
                .unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..12 {
            let len = rng.random_range(0..30);
            let input: String = (0..len)
                .map(|_| *[" ", "go", "stop", "if", "true", "#", "x"].choose(&mut rng).unwrap())
                .collect();
            let fast = t.tag(input.as_bytes());
            let gate = gate_tag(&t, input.as_bytes());
            assert_eq!(fast, gate, "input {:?}", input);
        }
    }

    #[test]
    fn gate_agrees_with_fast_on_regex_tokens() {
        let g = Grammar::parse(
            r#"
            NUM  [0-9]+
            WORD [a-z]+
            %%
            s: WORD "=" NUM rest;
            rest: | ";" s;
            %%
            "#,
        )
        .unwrap();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        for input in [&b"x = 42"[..], b"speed = 9000 ; limit = 55", b"a=1;b=2;c=3"] {
            let fast = t.tag(input);
            let gate = gate_tag(&t, input);
            assert_eq!(fast, gate, "input {:?}", String::from_utf8_lossy(input));
        }
    }

    #[test]
    fn spans_start_where_the_circuit_enabled_the_token() {
        // `!a*` crosses delimiters, so reading backwards from the match
        // end reaches the `b` at byte 1 — but the token was only enabled
        // at the §5.2 resync after the space, so the lexeme starts at 3.
        let g = Grammar::parse("TOK b!a*x\n%%\ns: TOK;\n%%\n").unwrap();
        let opts = TaggerOptions::builder().error_recovery(true).build();
        let t = TokenTagger::compile(&g, opts).unwrap();
        let input = b"zb bx";
        let fast = t.tag(input);
        assert_eq!(fast.iter().map(|e| (e.start, e.end)).collect::<Vec<_>>(), [(3, 5)]);
        assert_eq!(gate_tag(&t, input), fast);
    }
}
