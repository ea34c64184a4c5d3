//! Circuit probes for the compiled tagger — the runtime half of the
//! `circuit.json` topology.
//!
//! [`TaggerProbes`] pairs a [`cfg_hwgen::CircuitTopology`] with a live
//! [`ProbeBank`] whose dense indices follow the topology's probe-id
//! order exactly (`CircuitTopology::probe_ids` is the single source of
//! truth), plus the per-element index tables the engines consult on
//! their hot paths: which probe to hit when a byte lands in a decoder
//! class, when a tokenizer stage goes active, when a token fires, and
//! when a fire propagates an enable pulse down a FOLLOW edge.
//!
//! Every engine takes the same `Arc<TaggerProbes>` (builder-style
//! `with_probes`); an engine with none attached skips every probe
//! update on its `None` branch.

use cfg_grammar::Grammar;
use cfg_hwgen::{CircuitTopology, GeneratedTagger};
use cfg_netlist::NetId;
use cfg_obs::ProbeBank;
use cfg_regex::ByteSet;
use std::sync::Arc;

/// The probe bank and per-element index tables for one compiled tagger.
#[derive(Debug)]
pub struct TaggerProbes {
    topology: CircuitTopology,
    bank: Arc<ProbeBank>,
    /// `(class, probe)` per registered decoder, in creation order.
    pub(crate) decoders: Vec<(ByteSet, u32)>,
    /// Fire probe per token.
    pub(crate) fire: Vec<u32>,
    /// Stage probes per token, in position order.
    pub(crate) stages: Vec<Vec<u32>>,
    /// FOLLOW-edge probes per source token, parallel to the fast
    /// engine's follower lists (both iterate the FOLLOW set ascending).
    pub(crate) edges: Vec<Vec<u32>>,
}

impl TaggerProbes {
    /// Build the topology and its probe bank for a generated tagger.
    pub fn build(g: &Grammar, hw: &GeneratedTagger) -> TaggerProbes {
        let topology = CircuitTopology::build(g, hw);
        let bank = Arc::new(ProbeBank::new(topology.probe_ids()));
        let probe = |id: &str| bank.probe(id).expect("topology probe id is in the bank");
        let decoders = hw
            .decoders
            .iter()
            .zip(&topology.decoders)
            .map(|((set, _), d)| (*set, probe(&d.probe)))
            .collect();
        let fire = topology.tokens.iter().map(|t| probe(&t.fire_probe)).collect();
        let stages = topology
            .tokens
            .iter()
            .map(|t| t.stage_probes.iter().map(|s| probe(s)).collect())
            .collect();
        let mut edges = vec![Vec::new(); topology.tokens.len()];
        for e in &topology.edges {
            edges[e.from as usize].push(probe(&e.probe));
        }
        TaggerProbes { topology, bank, decoders, fire, stages, edges }
    }

    /// The live counter bank.
    pub fn bank(&self) -> &ProbeBank {
        &self.bank
    }

    /// A shareable handle to the bank.
    pub fn bank_arc(&self) -> Arc<ProbeBank> {
        Arc::clone(&self.bank)
    }

    /// The named topology the probes index into.
    pub fn topology(&self) -> &CircuitTopology {
        &self.topology
    }

    /// The `/circuit.json` payload for this topology.
    pub fn circuit_json(&self) -> String {
        self.topology.to_json()
    }

    /// The internal nets the gate-level engine taps with simulator
    /// watches, paired with the probe each watch feeds: every decoder
    /// output and every tokenizer position register.
    pub fn watch_nets(&self) -> Vec<(NetId, u32)> {
        let mut nets = Vec::new();
        for (d, (_, probe)) in self.topology.decoders.iter().zip(&self.decoders) {
            nets.push((d.net, *probe));
        }
        for (t, stages) in self.topology.tokens.iter().zip(&self.stages) {
            for (net, probe) in t.position_nets.iter().zip(stages) {
                nets.push((*net, *probe));
            }
        }
        nets
    }

    /// Per-net activity for heat-annotated DOT export
    /// ([`cfg_netlist::to_dot_with_heat`]): decoder outputs, position
    /// registers, and match lines, each carrying its probe's count.
    pub fn net_heat(&self) -> Vec<(NetId, u64)> {
        let mut heat: Vec<(NetId, u64)> =
            self.watch_nets().into_iter().map(|(net, p)| (net, self.bank.count(p))).collect();
        for (t, &fire) in self.topology.tokens.iter().zip(&self.fire) {
            heat.push((t.match_net, self.bank.count(fire)));
        }
        heat
    }
}

#[cfg(test)]
mod tests {
    use crate::tagger::{TaggerOptions, TokenTagger};
    use cfg_grammar::builtin;

    #[test]
    fn probe_indices_mirror_topology_order() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let pr = t.probes();
        let ids = pr.topology().probe_ids();
        assert_eq!(pr.bank().len(), ids.len());
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(pr.bank().id(i as u32), Some(id.as_str()));
        }
        // Edge tables are parallel to FOLLOW iteration: every entry
        // resolves back to a follow/ probe of the right source token.
        for (u, edges) in pr.edges.iter().enumerate() {
            let from = t.grammar().token_name(cfg_grammar::TokenId(u as u32));
            for &e in edges {
                let id = pr.bank().id(e).unwrap();
                assert!(id.starts_with(&format!("follow/{from}->")), "{id} vs from={from}");
            }
        }
    }

    #[test]
    fn watch_and_heat_cover_decoders_stages_matches() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let pr = t.probes();
        let stage_count: usize = pr.stages.iter().map(Vec::len).sum();
        assert_eq!(pr.watch_nets().len(), pr.decoders.len() + stage_count);
        assert_eq!(pr.net_heat().len(), pr.watch_nets().len() + pr.fire.len());
    }

    #[test]
    fn fast_and_gate_agree_on_fire_and_edge_counts() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let input = b"if true then go else stop if false then stop else go";

        let fast_pr = t.probes();
        let mut fast = t.fast_engine().with_probes(std::sync::Arc::clone(&fast_pr));
        fast.feed(input);
        fast.finish();

        let gate_pr = t.probes();
        let mut gate = t.gate_engine().unwrap().with_probes(std::sync::Arc::clone(&gate_pr));
        gate.feed(input).unwrap();
        gate.finish().unwrap();

        let mut fired = 0u64;
        let mut edges = 0u64;
        for (t_idx, &probe) in fast_pr.fire.iter().enumerate() {
            assert_eq!(
                fast_pr.bank().count(probe),
                gate_pr.bank().count(gate_pr.fire[t_idx]),
                "fire counts diverge for token {t_idx}"
            );
            fired += fast_pr.bank().count(probe);
        }
        for (t_idx, token_edges) in fast_pr.edges.iter().enumerate() {
            for (k, &probe) in token_edges.iter().enumerate() {
                assert_eq!(
                    fast_pr.bank().count(probe),
                    gate_pr.bank().count(gate_pr.edges[t_idx][k]),
                    "edge counts diverge for token {t_idx} edge {k}"
                );
                edges += fast_pr.bank().count(probe);
            }
        }
        assert!(fired > 0, "expected some token fires");
        assert!(edges > 0, "expected some FOLLOW-edge activations");
        // Gate-level decoder/stage activity flows through simulator
        // watches; at least the delimiter decoder must have counted.
        let dec_total: u64 = gate_pr.decoders.iter().map(|(_, p)| gate_pr.bank().count(*p)).sum();
        assert!(dec_total > 0, "decoder watches never fired");
    }
}
