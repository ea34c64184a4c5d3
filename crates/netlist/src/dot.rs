//! Graphviz DOT export of netlists — for documentation and debugging of
//! generated circuits (the Figure 11 wiring diagrams of small grammars
//! render nicely through `dot -Tsvg`).

use crate::ir::{Netlist, Op};
use std::fmt::Write as _;

/// Map an activity count onto a white→red fill color, log-scaled so a
/// 10× hotter element reads clearly hotter rather than saturating.
pub fn heat_color(count: u64, max: u64) -> String {
    if count == 0 || max == 0 {
        return "#ffffff".to_owned();
    }
    let ratio = ((count as f64).ln_1p() / (max as f64).ln_1p()).clamp(0.0, 1.0);
    let cool = (255.0 * (1.0 - ratio)).round() as u8;
    format!("#ff{cool:02x}{cool:02x}")
}

/// Render a netlist as a Graphviz digraph. Registers are boxes, gates
/// are ellipses, inputs/outputs are diamonds; named nets carry their
/// names as labels.
pub fn to_dot(nl: &Netlist, graph_name: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph {graph_name} {{");
    s.push_str("  rankdir=LR;\n");
    for (i, net) in nl.nets().iter().enumerate() {
        let label = match &net.op {
            Op::Input => "IN",
            Op::Const(true) => "1",
            Op::Const(false) => "0",
            Op::And(_) => "AND",
            Op::Or(_) => "OR",
            Op::Not(_) => "NOT",
            Op::Xor(..) => "XOR",
            Op::Reg { .. } => "REG",
        };
        let shape = match &net.op {
            Op::Reg { .. } => "box",
            Op::Input | Op::Const(_) => "diamond",
            _ => "ellipse",
        };
        let name = net.name.as_deref().map(|n| format!("\\n{n}")).unwrap_or_default();
        let _ = writeln!(s, "  n{i} [label=\"{label}{name}\", shape={shape}];");
    }
    for (i, net) in nl.nets().iter().enumerate() {
        for (k, o) in net.op.operands().iter().enumerate() {
            let style = match (&net.op, k) {
                (Op::Reg { en: Some(_), .. }, 1) => " [style=dashed,label=en]",
                _ => "",
            };
            let _ = writeln!(s, "  n{} -> n{i}{style};", o.index());
        }
    }
    for (name, id) in nl.outputs() {
        let _ = writeln!(s, "  out_{name} [label=\"{name}\", shape=diamond];");
        let _ = writeln!(s, "  n{} -> out_{name};", id.index());
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn renders_structure() {
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and2(a, c);
        let en = b.input("en");
        let q = b.reg(x, Some(en), false);
        b.name(q, "state");
        b.output("q", q);
        let dot = to_dot(&b.finish(), "tiny");

        assert!(dot.starts_with("digraph tiny {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("label=\"AND\""));
        assert!(dot.contains("label=\"REG\\nstate\""));
        assert!(dot.contains("[style=dashed,label=en]"));
        assert!(dot.contains("out_q"));
        // One edge per operand: AND has two, REG has two (d + en), output one.
        let edges = dot.matches(" -> ").count();
        assert_eq!(edges, 5);
        assert!(!dot.contains("fillcolor"));
    }

    #[test]
    fn heat_color_ramp() {
        assert_eq!(heat_color(0, 100), "#ffffff");
        assert_eq!(heat_color(5, 0), "#ffffff");
        assert_eq!(heat_color(100, 100), "#ff0000");
        let mid = heat_color(10, 100);
        assert!(mid.starts_with("#ff") && mid != "#ff0000" && mid != "#ffffff", "{mid}");
        // Monotone: hotter counts are redder (smaller green/blue byte).
        let g = |s: &str| u8::from_str_radix(&s[3..5], 16).unwrap();
        assert!(g(&heat_color(50, 100)) < g(&heat_color(5, 100)));
    }
}
