//! Circuit probes for the compiled tagger — the runtime half of the
//! `circuit.json` topology.
//!
//! [`TaggerProbes`] pairs a [`cfg_hwgen::CircuitTopology`] with a live
//! [`ProbeBank`] whose dense indices follow the topology's probe-id
//! order exactly (`CircuitTopology::probe_ids` is the single source of
//! truth), plus the per-element index tables the engines consult on
//! their hot paths: which probe to hit when a byte lands in a decoder
//! class, when a tokenizer stage goes active, and when a token fires.
//!
//! A FOLLOW edge is a wire: its source tokenizer's match line ORed into
//! its followers' enables (§3.3, Figs. 8 and 11), so it pulses exactly
//! when its source fires. No engine records an edge: each
//! `follow/<u>-><f>` probe is an alias of `tok/<u>/fire` in the bank,
//! and reads that counter.
//!
//! [`crate::TokenTagger::with_probes`] attaches one `Arc<TaggerProbes>`
//! to a tagger handle, and every engine built from that handle counts
//! into it, whatever its kind; an engine with none attached skips every
//! probe update on its `None` branch.

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
}

impl TaggerProbes {
    /// Build the topology and its probe bank for a generated tagger.
    pub fn build(g: &Grammar, hw: &GeneratedTagger) -> TaggerProbes {
        let topology = CircuitTopology::build(g, hw);
        let mut bank = ProbeBank::new(topology.probe_ids());
        let probe = |id: &str| bank.probe(id).expect("topology probe id is in the bank");
        let decoders = hw
            .decoders
            .iter()
            .zip(&topology.decoders)
            .map(|((set, _), d)| (*set, probe(&d.probe)))
            .collect();
        let fire: Vec<u32> = topology.tokens.iter().map(|t| probe(&t.fire_probe)).collect();
        let stages = topology
            .tokens
            .iter()
            .map(|t| t.stage_probes.iter().map(|s| probe(s)).collect())
            .collect();
        for e in &topology.edges {
            let edge = bank.probe(&e.probe).expect("topology probe id is in the bank");
            bank.alias(edge, fire[e.from as usize]);
        }
        TaggerProbes { topology, bank: Arc::new(bank), decoders, fire, stages }
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
}

#[cfg(test)]
mod tests {
    use crate::engine::EngineKind;
    use crate::tagger::{TaggerOptions, TokenTagger};
    use cfg_grammar::{builtin, TokenId};
    use std::sync::Arc;

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
        // Every FOLLOW edge names its source and target tokens, and reads
        // its source's fire counter.
        for e in &pr.topology().edges {
            let name = |i: u32| t.grammar().token_name(TokenId(i));
            assert_eq!(e.probe, format!("follow/{}->{}", name(e.from), name(e.to)));
            let edge = pr.bank().probe(&e.probe).unwrap();
            pr.bank().hit(pr.fire[e.from as usize], 1);
            assert_eq!(pr.bank().count(edge), pr.bank().count(pr.fire[e.from as usize]));
        }
    }

    #[test]
    fn watch_nets_cover_decoders_and_stages() {
        let g = builtin::if_then_else();
        let t = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
        let pr = t.probes();
        let stage_count: usize = pr.stages.iter().map(Vec::len).sum();
        assert_eq!(pr.watch_nets().len(), pr.decoders.len() + stage_count);
    }

    /// Probes attached through the tagger count identically on every
    /// kind: fires and FOLLOW edges everywhere, and the software
    /// engines' decoder and stage counts too. Each fire probe counts its
    /// token's events, and each edge probe its source token's, so an
    /// engine that also hits an edge probe, or an edge that reads the
    /// wrong token, fails here.
    #[test]
    fn every_kind_agrees_on_fire_and_edge_counts() {
        let input = b"if true then go else stop if false then stop else go zz go if true then go";
        let g = builtin::if_then_else();
        for recover in [false, true] {
            let opts = TaggerOptions::builder().error_recovery(recover).build();
            let t = TokenTagger::compile(&g, opts).unwrap();
            let runs = EngineKind::ALL.map(|kind| {
                let pr = t.probes();
                let mut e = t.clone().with_probes(Arc::clone(&pr)).engine(kind).unwrap();
                let mut events = e.feed(input).unwrap();
                events.extend(e.finish().unwrap());
                let mut fires = vec![0u64; t.grammar().tokens().len()];
                for ev in &events {
                    fires[ev.token.index()] += 1;
                }
                (pr, fires)
            });
            let [(bit_pr, fires), (scalar_pr, _), (gate_pr, _)] = &runs;
            assert_eq!(bit_pr.bank().counts(), scalar_pr.bank().counts());

            for (kind, (pr, kind_fires)) in EngineKind::ALL.iter().zip(&runs) {
                assert_eq!(kind_fires, fires, "{kind:?} events");
                for (tok, &probe) in pr.fire.iter().enumerate() {
                    assert_eq!(pr.bank().count(probe), fires[tok], "{kind:?} fires of token {tok}");
                }
                for e in &pr.topology().edges {
                    let edge = pr.bank().probe(&e.probe).unwrap();
                    let want = fires[e.from as usize];
                    assert_eq!(pr.bank().count(edge), want, "{kind:?} {}", e.probe);
                }
            }
            assert!(fires.iter().sum::<u64>() > 0, "expected some token fires");
            let pulses: u64 = bit_pr.topology().edges.iter().map(|e| fires[e.from as usize]).sum();
            assert!(pulses > 0, "expected some FOLLOW-edge activations");
            // Gate-level decoder/stage activity flows through simulator
            // watches; at least the delimiter decoder must have counted.
            let dec_total: u64 =
                gate_pr.decoders.iter().map(|(_, p)| gate_pr.bank().count(*p)).sum();
            assert!(dec_total > 0, "decoder watches never fired");
        }
    }
}
