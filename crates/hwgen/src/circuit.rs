//! The circuit topology export — the paper's Figures 4–11 wiring as a
//! named graph with **stable probe ids**.
//!
//! A [`CircuitTopology`] names every observable element of a generated
//! tagger: one node per registered character decoder (`dec/<class>`),
//! one per tokenizer pipeline stage (`tok/<name>/stage<i>`) and fire
//! line (`tok/<name>/fire`), one per FOLLOW enable edge
//! (`follow/<from>-><to>`), plus the encoder summary. The id list from
//! [`CircuitTopology::probe_ids`] is the single source of truth shared
//! by `circuit.json` (served by `cfg-obs-http`) and the runtime
//! `ProbeBank` (in `cfg-obs`), which is what keeps `/circuit.json` and
//! `cfgtag_probe_total` series 1:1.

use crate::generate::GeneratedTagger;
use cfg_grammar::Grammar;
use cfg_netlist::NetId;

/// One registered character decoder (Figures 4–5).
#[derive(Debug, Clone)]
pub struct DecoderNode {
    /// Stable probe id, `dec/<class>`.
    pub probe: String,
    /// Compact class rendering (`i`, `[0-9]`, …).
    pub class: String,
    /// The registered decoder output net.
    pub net: NetId,
}

/// One tokenizer pipeline (Figures 6–7).
#[derive(Debug, Clone)]
pub struct TokenNode {
    /// Token name (with context suffix if duplicated).
    pub name: String,
    /// Stable probe id of the match/fire line, `tok/<name>/fire`.
    pub fire_probe: String,
    /// Stable probe ids of the position registers,
    /// `tok/<name>/stage<i>`.
    pub stage_probes: Vec<String>,
    /// The registered match line net.
    pub match_net: NetId,
    /// The position register nets, in pattern order.
    pub position_nets: Vec<NetId>,
    /// Encoder code (0 if no encoder).
    pub code: usize,
}

/// One FOLLOW enable edge (Figures 8–11).
#[derive(Debug, Clone)]
pub struct EdgeNode {
    /// Stable probe id, `follow/<from>-><to>`.
    pub probe: String,
    /// Source token index.
    pub from: u32,
    /// Destination token index.
    pub to: u32,
}

/// Encoder summary (§3.4).
#[derive(Debug, Clone)]
pub struct EncoderNode {
    /// Number of index output bits.
    pub index_bits: usize,
    /// Cycles from match line to index output.
    pub encoder_latency: u64,
    /// Cycles from a lexeme's last byte to its match line.
    pub match_latency: u64,
}

/// The complete named topology of one generated tagger.
#[derive(Debug, Clone)]
pub struct CircuitTopology {
    /// Registered character decoders, in creation order.
    pub decoders: Vec<DecoderNode>,
    /// Tokenizer pipelines, indexed by `TokenId`.
    pub tokens: Vec<TokenNode>,
    /// FOLLOW enable edges, ordered by `from` then ascending `to`.
    pub edges: Vec<EdgeNode>,
    /// Encoder summary.
    pub encoder: EncoderNode,
}

impl CircuitTopology {
    /// Build the topology for a generated tagger. The FOLLOW edges come
    /// from the grammar analysis — the same relation `build_control`
    /// wired into enables — ordered exactly as each token's FOLLOW set
    /// iterates, so per-token edge tables built from either source stay
    /// index-parallel.
    pub fn build(g: &Grammar, hw: &GeneratedTagger) -> CircuitTopology {
        let decoders = hw
            .decoders
            .iter()
            .map(|(set, net)| {
                let class = set.describe();
                DecoderNode { probe: format!("dec/{class}"), class, net: *net }
            })
            .collect();
        let tokens = hw
            .tokens
            .iter()
            .map(|t| TokenNode {
                fire_probe: format!("tok/{}/fire", t.name),
                stage_probes: (0..t.position_nets.len())
                    .map(|i| format!("tok/{}/stage{i}", t.name))
                    .collect(),
                name: t.name.clone(),
                match_net: t.match_q,
                position_nets: t.position_nets.clone(),
                code: t.code,
            })
            .collect();
        let edges = g
            .analyze()
            .follow_edges()
            .into_iter()
            .map(|(from, to)| EdgeNode {
                probe: format!("follow/{}->{}", g.token_name(from), g.token_name(to)),
                from: from.0,
                to: to.0,
            })
            .collect();
        CircuitTopology {
            decoders,
            tokens,
            edges,
            encoder: EncoderNode {
                index_bits: hw.index_bits.len(),
                encoder_latency: hw.encoder_latency,
                match_latency: hw.match_latency,
            },
        }
    }

    /// Every probe id in topology order: decoders, then each token's
    /// fire probe followed by its stage probes, then FOLLOW edges. This
    /// order defines the dense indices of the runtime `ProbeBank`.
    pub fn probe_ids(&self) -> Vec<String> {
        let mut ids = Vec::new();
        for d in &self.decoders {
            ids.push(d.probe.clone());
        }
        for t in &self.tokens {
            ids.push(t.fire_probe.clone());
            ids.extend(t.stage_probes.iter().cloned());
        }
        for e in &self.edges {
            ids.push(e.probe.clone());
        }
        ids
    }

    /// Encode as one JSON object (the `/circuit.json` payload).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"decoders\":[");
        for (i, d) in self.decoders.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"probe\":");
            push_json_str(&mut out, &d.probe);
            out.push_str(",\"class\":");
            push_json_str(&mut out, &d.class);
            out.push_str(&format!(",\"net\":{}}}", d.net.0));
        }
        out.push_str("],\"tokens\":[");
        for (i, t) in self.tokens.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_str(&mut out, &t.name);
            out.push_str(&format!(",\"code\":{},\"fire\":", t.code));
            push_json_str(&mut out, &t.fire_probe);
            out.push_str(",\"stages\":[");
            for (j, s) in t.stage_probes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, s);
            }
            out.push_str("]}");
        }
        out.push_str("],\"edges\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"probe\":");
            push_json_str(&mut out, &e.probe);
            out.push_str(&format!(",\"from\":{},\"to\":{}}}", e.from, e.to));
        }
        out.push_str(&format!(
            "],\"encoder\":{{\"index_bits\":{},\"encoder_latency\":{},\"match_latency\":{}}}}}",
            self.encoder.index_bits, self.encoder.encoder_latency, self.encoder.match_latency
        ));
        out
    }
}

/// Minimal JSON string escape (hwgen has no dependency on cfg-obs).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorOptions};
    use cfg_grammar::builtin;

    #[test]
    fn topology_names_every_element() {
        let g = builtin::if_then_else();
        let hw = generate(&g, &GeneratorOptions::default()).unwrap();
        let topo = CircuitTopology::build(&g, &hw);
        assert_eq!(topo.tokens.len(), 7);
        assert_eq!(topo.decoders.len(), hw.decoder_classes);
        assert!(topo.edges.iter().any(|e| e.probe == "follow/if->true"));
        assert!(topo.edges.iter().any(|e| e.probe == "follow/true->then"));
        let ids = topo.probe_ids();
        assert!(ids.contains(&"tok/if/fire".to_string()));
        assert!(ids.contains(&"tok/if/stage0".to_string()));
        assert!(ids.contains(&"tok/if/stage1".to_string()));
        // Probe ids are the bank's address space: no duplicates.
        let mut uniq = ids.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len(), "duplicate probe id");
    }

    #[test]
    fn json_lists_the_same_probes() {
        let g = builtin::if_then_else();
        let hw = generate(&g, &GeneratorOptions::default()).unwrap();
        let topo = CircuitTopology::build(&g, &hw);
        let json = topo.to_json();
        assert!(json.starts_with("{\"decoders\":["));
        for id in topo.probe_ids() {
            let mut quoted = String::new();
            push_json_str(&mut quoted, &id);
            assert!(json.contains(&quoted), "{id} missing from JSON");
        }
        assert!(json.contains("\"encoder\":{\"index_bits\":"));
    }

    #[test]
    fn edge_order_is_follow_set_iteration_order() {
        let g = builtin::if_then_else();
        let hw = generate(&g, &GeneratorOptions::default()).unwrap();
        let topo = CircuitTopology::build(&g, &hw);
        let analysis = g.analyze();
        let mut expected = Vec::new();
        for (u, _) in g.tokens().iter().enumerate() {
            for t in analysis.follow_of(cfg_grammar::TokenId(u as u32)).iter() {
                expected.push((u as u32, t.0));
            }
        }
        let got: Vec<(u32, u32)> = topo.edges.iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(got, expected);
    }
}
