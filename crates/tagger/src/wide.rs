//! Driver for the §5.2 wide-datapath circuit.
//!
//! [`WideTagger`] compiles a grammar into a W-bytes-per-cycle circuit
//! (`cfg_hwgen::generate_wide`) and drives it through the gate-level
//! simulator. Its events must equal the byte-at-a-time engines' events
//! — the property the tests pin — because the wide design is a
//! retiming of the same logic, not a semantic change.

use crate::event::{RawMatch, TagEvent};
use crate::probes::TaggerProbes;
use crate::tagger::{TaggerError, TaggerOptions};
use cfg_grammar::{transform, Grammar, TokenId};
use cfg_hwgen::{generate_wide, GeneratedWideTagger};
use cfg_netlist::{NetId, Simulator};
use cfg_obs::{Metrics, Stat};
use cfg_regex::Nfa;
use std::sync::Arc;

/// A compiled W-bytes-per-cycle tagger.
#[derive(Debug)]
pub struct WideTagger {
    grammar: Grammar,
    hw: GeneratedWideTagger,
    reverse_nfas: Vec<Nfa>,
    metrics: Metrics,
    probes: Option<Arc<TaggerProbes>>,
}

impl WideTagger {
    /// Compile a grammar into a W-lane circuit. Honours
    /// `duplicate_contexts` and `start_mode` from the options (the other
    /// options concern the byte-serial generator).
    pub fn compile(
        g: &Grammar,
        lanes: usize,
        opts: TaggerOptions,
    ) -> Result<WideTagger, TaggerError> {
        let grammar = if opts.duplicate_contexts {
            transform::duplicate_multi_context_tokens(g)
        } else {
            g.clone()
        };
        let hw = generate_wide(&grammar, lanes, opts.start_mode)?;
        let reverse_nfas = grammar
            .tokens()
            .iter()
            .map(|t| Nfa::from_template(&t.pattern.template().reversed()))
            .collect();
        Ok(WideTagger { grammar, hw, reverse_nfas, metrics: opts.metrics, probes: None })
    }

    /// Attach a probe layer (builder style). Token ids line up as long
    /// as the probes come from a byte-serial [`crate::TokenTagger`]
    /// compiled with the same grammar and context options — the wide
    /// circuit is a retiming of the same token set, so fire and
    /// FOLLOW-edge probes apply unchanged (the per-stage probes stay
    /// idle; the wide pipeline has no per-lane position taps).
    pub fn with_probes(mut self, probes: Arc<TaggerProbes>) -> WideTagger {
        self.probes = Some(probes);
        self
    }

    /// The compiled grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The generated circuit.
    pub fn hardware(&self) -> &GeneratedWideTagger {
        &self.hw
    }

    /// Token name lookup.
    pub fn token_name(&self, t: TokenId) -> &str {
        self.grammar.token_name(t)
    }

    /// Run a complete input through the wide circuit; returns raw
    /// matches ordered by end position.
    pub fn run_raw(&self, input: &[u8]) -> Result<Vec<RawMatch>, TaggerError> {
        let w = self.hw.lanes;
        let mut sim = Simulator::new(&self.hw.netlist)?;
        let cycles = input.len().div_ceil(w) + self.hw.flush_cycles();
        // Input layout: 8 bits per lane, lane-major, then start.
        let mut inputs = vec![0u64; 8 * w + 1];
        let mut raw: Vec<RawMatch> = Vec::new();
        let match_nets: Vec<&[NetId]> =
            self.hw.tokens.iter().map(|t| t.match_q.as_slice()).collect();

        for s in 0..cycles {
            for lane in 0..w {
                let byte = input.get(s * w + lane).copied().unwrap_or(self.hw.flush_byte);
                for bit in 0..8 {
                    inputs[lane * 8 + bit] = if byte & (1 << bit) != 0 { u64::MAX } else { 0 };
                }
            }
            inputs[8 * w] = if s == 0 { u64::MAX } else { 0 };
            sim.step(&inputs)?;

            let base = self.hw.match_latency as usize;
            for (t, nets) in match_nets.iter().enumerate() {
                for (lane, &net) in nets.iter().enumerate() {
                    if sim.value(net) & 1 == 0 {
                        continue;
                    }
                    // Interior lanes: ends in lane ℓ of cycle s-base.
                    // Last lane: one extra cycle of latency.
                    let extra = if lane + 1 == w { self.hw.last_lane_extra as usize } else { 0 };
                    let cycle = match s.checked_sub(base + extra) {
                        Some(c) => c,
                        None => continue,
                    };
                    let end = cycle * w + lane + 1; // exclusive
                    if end <= input.len() {
                        raw.push(RawMatch { token: TokenId(t as u32), end });
                    }
                }
            }
        }
        raw.sort_by_key(|m| (m.end, m.token.0));
        self.metrics.add(Stat::BytesIn, input.len() as u64);
        self.metrics.add(Stat::GateCycles, cycles as u64);
        for m in &raw {
            self.metrics.token_fire(m.token.0, 1);
        }
        if let Some(pr) = &self.probes {
            for m in &raw {
                let t = m.token.index();
                pr.bank().hit(pr.fire[t], 1);
                for &e in &pr.edges[t] {
                    pr.bank().hit(e, 1);
                }
            }
        }
        Ok(raw)
    }

    /// Tag a complete input: run the wide circuit and recover spans in
    /// software (§3.4), exactly like the byte-serial gate path.
    pub fn tag(&self, input: &[u8]) -> Result<Vec<TagEvent>, TaggerError> {
        let raw = self.run_raw(input)?;
        Ok(raw
            .iter()
            .filter_map(|m| {
                let len = self.reverse_nfas[m.token.index()].find_longest_rev(input, m.end)?;
                Some(TagEvent { token: m.token, start: m.end - len, end: m.end })
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagger::TokenTagger;
    use cfg_grammar::{builtin, Grammar};
    use cfg_hwgen::StartMode;

    fn check_agrees(g: &Grammar, lanes: usize, inputs: &[&[u8]]) {
        let byte_tagger = TokenTagger::compile(g, TaggerOptions::default()).unwrap();
        let wide = WideTagger::compile(g, lanes, TaggerOptions::default()).unwrap();
        for &input in inputs {
            let fast = byte_tagger.tag_fast(input);
            let w = wide.tag(input).unwrap();
            assert_eq!(fast, w, "W={lanes} input {:?}", String::from_utf8_lossy(input));
        }
    }

    #[test]
    fn wide_matches_byte_engine_on_ite() {
        let g = builtin::if_then_else();
        let inputs: [&[u8]; 5] = [
            b"go",
            b"stop",
            b"if true then go else stop",
            b"if false then if true then go else stop else go",
            b"then nonsense",
        ];
        for lanes in [1usize, 2, 3, 4, 8] {
            check_agrees(&g, lanes, &inputs);
        }
    }

    #[test]
    fn wide_matches_byte_engine_on_regex_tokens() {
        let g = Grammar::parse(
            r#"
            NUM [0-9]+
            %%
            s: NUM "+" NUM;
            %%
            "#,
        )
        .unwrap();
        let inputs: [&[u8]; 4] = [b"1 + 2", b"123 + 4567", b"12+34", b"7 +  8"];
        for lanes in [2usize, 4, 5] {
            check_agrees(&g, lanes, &inputs);
        }
    }

    #[test]
    fn wide_matches_byte_engine_on_random_streams() {
        use rand::prelude::*;
        let g = builtin::if_then_else();
        let mut rng = StdRng::seed_from_u64(2025);
        let words = ["if", "then", "else", "go", "stop", "true", "false", "zz", " "];
        for lanes in [2usize, 4] {
            let byte_tagger = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
            let wide = WideTagger::compile(&g, lanes, TaggerOptions::default()).unwrap();
            for _ in 0..10 {
                let len = rng.random_range(0..12);
                let mut input = String::new();
                for _ in 0..len {
                    input.push_str(words.choose(&mut rng).unwrap());
                    input.push(' ');
                }
                let fast = byte_tagger.tag_fast(input.as_bytes());
                let w = wide.tag(input.as_bytes()).unwrap();
                assert_eq!(fast, w, "W={lanes} input {:?}", input);
            }
        }
    }

    #[test]
    fn wide_handles_tokens_spanning_cycle_boundaries() {
        // A 5-byte token with W=4 must carry position state across the
        // cycle boundary registers.
        let g = Grammar::parse("%%\ns: \"abcde\" \"fg\";\n%%\n").unwrap();
        check_agrees(&g, 4, &[b"abcde fg", b"abcdefg", b"abcde  fg"]);
    }

    #[test]
    fn always_mode_wide() {
        let g = builtin::if_then_else();
        let byte_tagger = TokenTagger::compile(
            &g,
            TaggerOptions { start_mode: StartMode::Always, ..Default::default() },
        )
        .unwrap();
        let wide = WideTagger::compile(
            &g,
            4,
            TaggerOptions { start_mode: StartMode::Always, ..Default::default() },
        )
        .unwrap();
        for input in [&b"xx go yy"[..], b"zzz stop"] {
            assert_eq!(byte_tagger.tag_fast(input), wide.tag(input).unwrap());
        }
    }
}
