//! `cfgtag watch scope` — circuit-level introspection over a running
//! exporter.
//!
//! Where `watch top` shows engine-level counters, `scope` shows the
//! *circuit*: the named topology fetched once (`/circuit.json`,
//! [`parse_circuit`]) and live per-element activity (the snapshot's
//! `cfgtag_probe_total` family, [`probes`]), rendered as the top-K hot
//! elements plus
//! FOLLOW-edge activity ([`render_scope`]) — a terminal logic analyzer
//! over the synthesized tagger. `--dot-out` additionally writes a
//! heat-annotated Graphviz graph of the grammar circuit
//! ([`render_heat_dot`]: token pipelines as nodes, FOLLOW enables as
//! edges, activity as a white→red ramp), and `--trigger` arms an
//! ILA-style capture on the serve side ([`arm`]) and dumps the pre/post
//! trace window as JSON lines when it fires ([`capture`]).

use crate::poll::{Miss, Poller};
use crate::CliError;
use cfg_netlist::heat_color;
use cfg_obs::json::Json;
use cfg_obs::Snapshot;
use std::fmt::Write as _;

/// One decoded `/circuit.json` topology, client side.
#[derive(Debug, Clone, Default)]
pub struct CircuitView {
    /// `(probe, class)` per decoder.
    pub decoders: Vec<(String, String)>,
    /// `(name, fire_probe, stage_probes)` per token.
    pub tokens: Vec<(String, String, Vec<String>)>,
    /// `(probe, from, to)` per FOLLOW edge (token indices).
    pub edges: Vec<(String, usize, usize)>,
}

impl CircuitView {
    /// Every probe id in topology order — must match the
    /// `cfgtag_probe_total` series 1:1.
    pub fn probe_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.decoders.iter().map(|(p, _)| p.clone()).collect();
        for (_, fire, stages) in &self.tokens {
            ids.push(fire.clone());
            ids.extend(stages.iter().cloned());
        }
        ids.extend(self.edges.iter().map(|(p, _, _)| p.clone()));
        ids
    }
}

/// Decode a `/circuit.json` body.
pub fn parse_circuit(body: &str) -> Result<CircuitView, CliError> {
    let v = Json::parse(body).map_err(|e| CliError::new(format!("bad circuit JSON: {e}"), 1))?;
    let mut c = CircuitView::default();
    let str_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_owned);
    for d in v.get("decoders").and_then(Json::as_array).unwrap_or(&Vec::new()) {
        let (Some(probe), Some(class)) = (str_of(d, "probe"), str_of(d, "class")) else {
            continue;
        };
        c.decoders.push((probe, class));
    }
    for t in v.get("tokens").and_then(Json::as_array).unwrap_or(&Vec::new()) {
        let (Some(name), Some(fire)) = (str_of(t, "name"), str_of(t, "fire")) else { continue };
        let stages = t
            .get("stages")
            .and_then(Json::as_array)
            .map(|s| s.iter().filter_map(|x| x.as_str().map(str::to_owned)).collect())
            .unwrap_or_default();
        c.tokens.push((name, fire, stages));
    }
    for e in v.get("edges").and_then(Json::as_array).unwrap_or(&Vec::new()) {
        let Some(probe) = str_of(e, "probe") else { continue };
        let from = e.get("from").and_then(Json::as_u64).unwrap_or(0) as usize;
        let to = e.get("to").and_then(Json::as_u64).unwrap_or(0) as usize;
        c.edges.push((probe, from, to));
    }
    if c.tokens.is_empty() {
        return Err(CliError::new("circuit JSON has no tokens", 1));
    }
    Ok(c)
}

/// The `cfgtag_probe_total` series of a registry snapshot as
/// `(id, count)` rows in bank order.
pub fn probes(snap: &Snapshot) -> Result<Vec<(String, u64)>, CliError> {
    let family = snap
        .get("cfgtag_probe_total")
        .ok_or_else(|| CliError::new("no probe bank attached (cfgtag serve attaches one)", 1))?;
    Ok(family
        .series
        .iter()
        .filter_map(|s| Some((s.label("probe")?.to_owned(), s.number()? as u64)))
        .collect())
}

fn count_of(probes: &[(String, u64)], id: &str) -> u64 {
    probes.iter().find(|(p, _)| p == id).map(|(_, c)| *c).unwrap_or(0)
}

/// Render one `scope` frame: topology summary, top-K hot elements with
/// rates (vs `prev` over `dt_secs`), and active FOLLOW edges — plus a
/// warning when the probes no longer match the circuit (serve
/// restarted with another grammar).
pub fn render_scope(
    circuit: &CircuitView,
    probes: &[(String, u64)],
    prev: Option<&[(String, u64)]>,
    dt_secs: f64,
    top_k: usize,
) -> String {
    let mut out = String::new();
    let active = probes.iter().filter(|(_, c)| *c > 0).count();
    let _ = writeln!(
        out,
        "cfgtag scope — {} decoders, {} tokenizers, {} FOLLOW edges; {active}/{} probes active",
        circuit.decoders.len(),
        circuit.tokens.len(),
        circuit.edges.len(),
        probes.len()
    );
    let rate = |now: u64, before: u64| -> f64 {
        if dt_secs > 0.0 {
            now.saturating_sub(before) as f64 / dt_secs
        } else {
            0.0
        }
    };
    let mut hot: Vec<&(String, u64)> = probes.iter().filter(|(_, c)| *c > 0).collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot.truncate(top_k);
    if !hot.is_empty() {
        let _ = writeln!(out, "{:<32} {:>14} {:>14}", "hot element", "count", "rate/s");
        for (id, count) in hot {
            let before = prev.map(|p| count_of(p, id)).unwrap_or(0);
            let _ = writeln!(out, "{id:<32} {count:>14} {:>14.1}", rate(*count, before));
        }
    }
    let mut edge_rows = String::new();
    for (probe, from, to) in &circuit.edges {
        let count = count_of(probes, probe);
        if count == 0 {
            continue;
        }
        let name =
            |i: usize| circuit.tokens.get(i).map(|(n, _, _)| n.as_str()).unwrap_or("?").to_owned();
        let before = prev.map(|p| count_of(p, probe)).unwrap_or(0);
        let _ = writeln!(
            edge_rows,
            "{:<32} {count:>14} {:>14.1}",
            format!("{} -> {}", name(*from), name(*to)),
            rate(count, before)
        );
    }
    if !edge_rows.is_empty() {
        let _ = writeln!(out, "{:<32} {:>14} {:>14}", "FOLLOW edge", "pulses", "rate/s");
        out.push_str(&edge_rows);
    }
    if !probes.iter().map(|(id, _)| id).eq(circuit.probe_ids().iter()) {
        let _ = writeln!(out, "warning: probe ids diverge from /circuit.json (serve restarted?)");
    }
    out
}

/// Render the grammar circuit as a heat-annotated Graphviz digraph:
/// one node per tokenizer (filled by fire count on the
/// [`heat_color`] white→red log ramp), one edge per FOLLOW enable
/// (penwidth scales with pulse count), decoders as a dim cluster.
pub fn render_heat_dot(circuit: &CircuitView, probes: &[(String, u64)]) -> String {
    let max_fire =
        circuit.tokens.iter().map(|(_, fire, _)| count_of(probes, fire)).max().unwrap_or(0);
    let max_edge = circuit.edges.iter().map(|(p, _, _)| count_of(probes, p)).max().unwrap_or(0);
    let mut s = String::from("digraph grammar_heat {\n  rankdir=LR;\n");
    s.push_str("  node [shape=box, style=filled];\n");
    for (i, (name, fire, stages)) in circuit.tokens.iter().enumerate() {
        let fires = count_of(probes, fire);
        let stage_hits: u64 = stages.iter().map(|p| count_of(probes, p)).sum();
        let _ = writeln!(
            s,
            "  t{i} [label=\"{}\\nfires={fires} stages={stage_hits}\", fillcolor=\"{}\"];",
            dot_escape(name),
            heat_color(fires, max_fire)
        );
    }
    for (probe, from, to) in &circuit.edges {
        let pulses = count_of(probes, probe);
        // Pen width 1..4 on the same log ramp as the fill.
        let w = if pulses == 0 || max_edge == 0 {
            1.0
        } else {
            1.0 + 3.0 * ((pulses as f64).ln_1p() / (max_edge as f64).ln_1p())
        };
        let _ = writeln!(s, "  t{from} -> t{to} [label=\"{pulses}\", penwidth={w:.2}];");
    }
    if !circuit.decoders.is_empty() {
        s.push_str(
            "  subgraph cluster_dec {\n    label=\"decoders\";\n    node [shape=ellipse];\n",
        );
        let max_dec = circuit.decoders.iter().map(|(p, _)| count_of(probes, p)).max().unwrap_or(0);
        for (i, (probe, class)) in circuit.decoders.iter().enumerate() {
            let hits = count_of(probes, probe);
            let _ = writeln!(
                s,
                "    d{i} [label=\"{}\\n{hits}\", fillcolor=\"{}\"];",
                dot_escape(class),
                heat_color(hits, max_dec)
            );
        }
        s.push_str("  }\n");
    }
    s.push_str("}\n");
    s
}

fn dot_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// Percent-encode one query component (trigger conditions carry `>`).
fn query_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' | b':' | b'/' => {
                out.push(b as char);
            }
            b => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

/// Arm a trigger on the serve side (`cond` is `token:<name>`,
/// `edge:<from>-><to>` or `dead`) and return a note naming the window
/// the server armed, which it clamps to its flight ring.
pub fn arm(poller: &mut Poller, cond: &str, pre: usize, post: usize) -> Result<String, Miss> {
    let reply =
        poller.get(&format!("/trigger?cond={}&pre={pre}&post={post}", query_encode(cond)))?;
    let v = Json::parse(&reply).map_err(|e| CliError::new(format!("bad trigger reply: {e}"), 1))?;
    let side = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
    Ok(format!("armed trigger {cond} (pre={}, post={})", side("pre"), side("post")))
}

/// The armed trigger's capture as JSON lines once it has fired and
/// filled its post window; `flush` forces out a partial post window.
/// `None` while the trigger has not fired.
pub fn capture(poller: &Poller, flush: bool) -> Option<String> {
    poller.get_if_ok(if flush { "/capture.jsonl?flush=1" } else { "/capture.jsonl" })
}

#[cfg(test)]
mod tests {
    use super::*;

    const CIRCUIT: &str = concat!(
        "{\"decoders\":[{\"probe\":\"dec/i\",\"class\":\"i\",\"net\":3}],",
        "\"tokens\":[",
        "{\"name\":\"if\",\"code\":1,\"fire\":\"tok/if/fire\",\"stages\":[\"tok/if/stage0\",\"tok/if/stage1\"]},",
        "{\"name\":\"go\",\"code\":2,\"fire\":\"tok/go/fire\",\"stages\":[\"tok/go/stage0\",\"tok/go/stage1\"]}],",
        "\"edges\":[{\"probe\":\"follow/if->go\",\"from\":0,\"to\":1}],",
        "\"encoder\":{\"index_bits\":2,\"encoder_latency\":1,\"match_latency\":2}}"
    );

    fn probes(fire_if: u64, fire_go: u64, edge: u64) -> Vec<(String, u64)> {
        vec![
            ("dec/i".into(), 40),
            ("tok/if/fire".into(), fire_if),
            ("tok/if/stage0".into(), 11),
            ("tok/if/stage1".into(), 7),
            ("tok/go/fire".into(), fire_go),
            ("tok/go/stage0".into(), 5),
            ("tok/go/stage1".into(), 5),
            ("follow/if->go".into(), edge),
        ]
    }

    #[test]
    fn circuit_and_probe_ids_stay_one_to_one() {
        let c = parse_circuit(CIRCUIT).unwrap();
        assert_eq!(c.decoders, vec![("dec/i".to_string(), "i".to_string())]);
        assert_eq!(c.tokens.len(), 2);
        assert_eq!(c.edges, vec![("follow/if->go".to_string(), 0, 1)]);
        let p = probes(3, 9, 2);
        let ids: Vec<String> = p.iter().map(|(id, _)| id.clone()).collect();
        assert_eq!(c.probe_ids(), ids);
        assert!(parse_circuit("{}").is_err());
        assert!(parse_circuit("nope").is_err());
        // The bank's own export reads back as the same rows.
        let bank = cfg_obs::ProbeBank::new(ids.clone());
        bank.hit(1, 3);
        let mut snap = Snapshot::default();
        bank.export(&mut snap);
        let rows = super::probes(&snap).unwrap();
        assert_eq!(rows.iter().map(|(id, _)| id.clone()).collect::<Vec<_>>(), ids);
        assert_eq!(rows[1], ("tok/if/fire".to_owned(), 3));
        assert!(super::probes(&Snapshot::default()).is_err());
    }

    #[test]
    fn frame_shows_hot_elements_and_edges_with_rates() {
        let c = parse_circuit(CIRCUIT).unwrap();
        let t0 = probes(3, 9, 2);
        let t1 = probes(5, 29, 8);
        let frame = render_scope(&c, &t1, Some(&t0), 2.0, 3);
        assert!(frame.contains("1 decoders, 2 tokenizers, 1 FOLLOW edges"), "{frame}");
        // Hottest first: dec/i (40), then tok/go/fire (29) with its
        // (29-9)/2 = 10.0/s rate; top-3 cuts the rest.
        let hot: Vec<&str> = frame
            .lines()
            .filter(|l| l.starts_with("dec/") || l.starts_with("tok/") || l.starts_with("follow/"))
            .collect();
        assert_eq!(hot.len(), 3, "{frame}");
        assert!(hot[0].starts_with("dec/i"));
        assert!(hot[1].starts_with("tok/go/fire") && hot[1].contains("10.0"), "{frame}");
        // Edge section resolves token names, counts pulses and rates.
        let edge_line = frame.lines().find(|l| l.contains("if -> go")).unwrap();
        assert!(edge_line.contains('8') && edge_line.contains("3.0"), "{frame}");
        // First frame: no prev, rates fall back to totals/dt.
        let first = render_scope(&c, &t0, None, 1.0, 8);
        assert!(first.contains("if -> go"));
        assert!(!first.contains("warning"), "{first}");
        // Probes from another circuit (serve restarted) are flagged.
        let stale = render_scope(&c, &t0[1..], None, 1.0, 8);
        assert!(stale.contains("warning: probe ids diverge"), "{stale}");
    }

    #[test]
    fn heat_dot_colors_tokens_and_weights_edges() {
        let c = parse_circuit(CIRCUIT).unwrap();
        let dot = render_heat_dot(&c, &probes(2, 50, 7));
        assert!(dot.starts_with("digraph grammar_heat {"));
        // The hottest fire saturates red; the cooler one does not.
        assert!(
            dot.contains("t1 [label=\"go\\nfires=50 stages=10\", fillcolor=\"#ff0000\"]"),
            "{dot}"
        );
        let t0_line = dot.lines().find(|l| l.trim_start().starts_with("t0 ")).unwrap();
        assert!(!t0_line.contains("#ff0000") && !t0_line.contains("#ffffff"), "{t0_line}");
        // The FOLLOW edge carries its pulse count and a widened pen.
        assert!(dot.contains("t0 -> t1 [label=\"7\", penwidth=4.00]"), "{dot}");
        // Decoder cluster present with its hit count.
        assert!(dot.contains("cluster_dec") && dot.contains("d0 [label=\"i\\n40\""), "{dot}");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn zero_activity_renders_cleanly() {
        let c = parse_circuit(CIRCUIT).unwrap();
        let idle: Vec<(String, u64)> = probes(0, 0, 0).into_iter().map(|(id, _)| (id, 0)).collect();
        let frame = render_scope(&c, &idle, None, 1.0, 8);
        assert!(frame.contains("0/8 probes active"), "{frame}");
        // No hot-element or edge tables when nothing has counted.
        assert!(!frame.contains("pulses") && !frame.contains("rate/s"), "{frame}");
        let dot = render_heat_dot(&c, &idle);
        assert!(dot.contains("fillcolor=\"#ffffff\""));
        assert!(dot.contains("penwidth=1.00"));
    }

    #[test]
    fn query_encoding_for_trigger_specs() {
        assert_eq!(query_encode("token:go"), "token:go");
        assert_eq!(query_encode("edge:if->true"), "edge:if-%3Etrue");
        assert_eq!(query_encode("token:a b"), "token:a%20b");
    }
}
