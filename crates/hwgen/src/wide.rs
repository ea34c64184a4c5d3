//! Wide datapath generation — §5.2: "Other improvements in speed can be
//! gained by scaling the design to process 32-bits or 64-bits per clock
//! cycle."
//!
//! A W-byte datapath replicates the decoder logic per byte *lane* and
//! lets the tokenizer chains ripple **combinationally across the lanes
//! within one cycle**: position `p` in lane `ℓ` fires from position
//! results of lane `ℓ−1` of the same cycle (lane 0 reads the registers
//! holding the previous cycle's last-lane state). The syntactic control
//! flow ripples the same way — a match in lane `ℓ` enables its FOLLOW
//! set in lane `ℓ+1` combinationally, and the §3.2 delimiter-arming
//! chain threads through the lanes before being registered at the cycle
//! boundary.
//!
//! The Figure 7 longest-match lookahead of the **last** lane needs the
//! *next* cycle's lane-0 decode: those taps are registered and resolved
//! one cycle later, so the last lane's match lines (and the FOLLOW
//! enables they drive into the next cycle's lane 0) carry one extra
//! cycle of latency — pipelining, not a semantic change.
//!
//! The engineering trade this exposes (and `cfg-bench` measures): logic
//! depth grows roughly linearly with W, so the clock slows, but W bytes
//! arrive per cycle — net bandwidth rises sublinearly, exactly the
//! trade the paper anticipates.

use crate::control::StartMode;
use crate::decoder::DecoderBank;
use crate::generate::{validate, GenError};
use cfg_grammar::{Grammar, TokenId};
use cfg_netlist::{NetId, Netlist, NetlistBuilder};
use cfg_regex::Template;

/// Per-token, per-lane match nets of a wide tagger.
#[derive(Debug, Clone)]
pub struct WideTokenHw {
    /// Token name.
    pub name: String,
    /// `match_q[ℓ]`: registered match line for a lexeme ending in lane
    /// `ℓ`. Post-step latency: [`GeneratedWideTagger::match_latency`]
    /// cycles for lanes `< W−1`, one more for the last lane.
    pub match_q: Vec<NetId>,
}

/// A generated W-bytes-per-cycle tagger circuit.
#[derive(Debug, Clone)]
pub struct GeneratedWideTagger {
    /// The circuit. Inputs: `data{lane}_{bit}` (8 bits × W lanes, lane
    /// 0 = earliest byte), then `start`.
    pub netlist: Netlist,
    /// Per-token nets.
    pub tokens: Vec<WideTokenHw>,
    /// Bytes per cycle.
    pub lanes: usize,
    /// Post-step read latency (cycles) for lanes `0..W−1`.
    pub match_latency: u64,
    /// Extra cycles for the last lane's match lines.
    pub last_lane_extra: u64,
    /// A delimiter byte for padding partial final cycles and flushing.
    pub flush_byte: u8,
}

impl GeneratedWideTagger {
    /// Bytes consumed per cycle.
    pub fn lane_count(&self) -> usize {
        self.lanes
    }

    /// Cycles of flush (delimiter-padded) input a driver must append.
    pub fn flush_cycles(&self) -> usize {
        (self.match_latency + self.last_lane_extra + 1) as usize
    }
}

/// Generate a W-byte-per-cycle tagger.
#[allow(clippy::needless_range_loop)] // parallel per-position arrays
pub fn generate_wide(
    g: &Grammar,
    lanes: usize,
    start_mode: StartMode,
) -> Result<GeneratedWideTagger, GenError> {
    assert!(lanes >= 1, "need at least one lane");
    validate(g)?;
    let delim = g.delimiters();

    let analysis = g.analyze();
    let n_tokens = g.tokens().len();
    let templates: Vec<Template> =
        g.tokens().iter().map(|t| t.pattern.template().clone()).collect();
    let mut b = NetlistBuilder::new();

    // Registered data inputs per lane; raw class decodes over them give
    // a one-cycle-delayed, same-cycle-consistent byte view per lane.
    let mut banks: Vec<DecoderBank> = (0..lanes)
        .map(|lane| {
            let data_q: Vec<NetId> = (0..8)
                .map(|bit| {
                    let pad = b.input(&format!("data{lane}_{bit}"));
                    let r = b.reg(pad, None, false);
                    b.name(r, &format!("data{lane}_{bit}_q"));
                    r
                })
                .collect();
            DecoderBank::from_data_bits(data_q)
        })
        .collect();
    let start = b.input("start");
    let start_q = b.reg(start, None, false);
    b.name(start_q, "start_q");

    // Cycle-boundary state (feedback registers, connected at the end):
    // last-lane position state, arm state, deferred last-lane match
    // taps, and the registered in-cycle part of the last lane's match.
    let pos_regs: Vec<Vec<NetId>> = templates
        .iter()
        .enumerate()
        .map(|(t, tpl)| {
            (0..tpl.positions.len())
                .map(|p| {
                    let r = b.reg_feedback(false);
                    b.name(r, &format!("w_tok{t}_pos{p}"));
                    r
                })
                .collect()
        })
        .collect();
    let arm_regs: Vec<NetId> = (0..n_tokens)
        .map(|t| {
            let r = b.reg_feedback(false);
            b.name(r, &format!("w_arm{t}"));
            r
        })
        .collect();
    // Deferred taps: per token, per lookahead-needing last position.
    let deferred_last: Vec<Vec<usize>> = templates
        .iter()
        .map(|tpl| {
            tpl.last.iter().copied().filter(|&p| !tpl.continuation_class(p).is_empty()).collect()
        })
        .collect();
    let tap_regs: Vec<Vec<NetId>> = deferred_last
        .iter()
        .enumerate()
        .map(|(t, ps)| {
            ps.iter()
                .map(|p| {
                    let r = b.reg_feedback(false);
                    b.name(r, &format!("w_tap{t}_p{p}"));
                    r
                })
                .collect()
        })
        .collect();
    let in_cycle_match_regs: Vec<NetId> = (0..n_tokens)
        .map(|t| {
            let r = b.reg_feedback(false);
            b.name(r, &format!("w_lastmatch{t}"));
            r
        })
        .collect();

    // Carry into lane 0: last-lane matches of the previous cycle. The
    // in-cycle part was registered; the deferred lookahead part resolves
    // now, against this cycle's lane-0 decode.
    let mut carry: Vec<NetId> = Vec::with_capacity(n_tokens);
    for t in 0..n_tokens {
        let mut taps: Vec<NetId> = Vec::new();
        for (&p, &tap_q) in deferred_last[t].iter().zip(&tap_regs[t]) {
            let cont = templates[t].continuation_class(p);
            let cont_cls = banks[0].raw_class(&mut b, cont);
            let not_cont = b.not(cont_cls);
            taps.push(b.and2(tap_q, not_cont));
        }
        let resolved = b.or_many(&taps);
        b.name(resolved, &format!("w_carry_resolved{t}"));
        let c = b.or2(in_cycle_match_regs[t], resolved);
        carry.push(c);
    }
    // FOLLOW predecessors per token.
    let mut predecessors: Vec<Vec<usize>> = vec![Vec::new(); n_tokens];
    for u in 0..n_tokens {
        for t in analysis.follow_of(TokenId(u as u32)).iter() {
            predecessors[t.index()].push(u);
        }
    }

    // Ripple across the lanes.
    let mut prev_fired: Vec<Vec<NetId>> = pos_regs.clone();
    let mut armed: Vec<NetId> = arm_regs.clone();
    let mut prev_lane_match: Vec<NetId> = carry.clone();
    let mut match_outputs: Vec<Vec<NetId>> = vec![Vec::new(); n_tokens];
    let mut last_in_cycle: Vec<NetId> = Vec::new();
    let mut last_tap_values: Vec<Vec<NetId>> = vec![Vec::new(); n_tokens];

    for lane in 0..lanes {
        let delim_here = banks[lane].raw_class(&mut b, delim);
        let mut fired_this: Vec<Vec<NetId>> = Vec::with_capacity(n_tokens);
        let mut match_this: Vec<NetId> = Vec::with_capacity(n_tokens);

        // Enables: previous lane's matches (carry for lane 0), start
        // pulse, armed chain.
        let mut enables: Vec<NetId> = Vec::with_capacity(n_tokens);
        for t in 0..n_tokens {
            let mut sources: Vec<NetId> =
                predecessors[t].iter().map(|&u| prev_lane_match[u]).collect();
            if analysis.start_set.contains(TokenId(t as u32)) {
                match start_mode {
                    StartMode::AtStart => {
                        if lane == 0 {
                            sources.push(start_q);
                        }
                    }
                    StartMode::Always => sources.push(b.constant(true)),
                }
            }
            sources.push(armed[t]);
            enables.push(b.or_many(&sources));
        }

        for (t, tpl) in templates.iter().enumerate() {
            let np = tpl.positions.len();
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); np];
            for (p, fs) in tpl.follow.iter().enumerate() {
                for &q in fs {
                    preds[q].push(p);
                }
            }
            let mut fired_tok: Vec<NetId> = Vec::with_capacity(np);
            for p in 0..np {
                let cls = banks[lane].raw_class(&mut b, tpl.positions[p]);
                let mut srcs: Vec<NetId> = preds[p].iter().map(|&q| prev_fired[t][q]).collect();
                if tpl.first.contains(&p) {
                    srcs.push(enables[t]);
                }
                let armed_in = b.or_many(&srcs);
                fired_tok.push(b.and2(cls, armed_in));
            }

            // Match taps: in-cycle lookahead against lane+1; the last
            // lane's lookahead-needing taps are deferred via tap_regs.
            let mut taps: Vec<NetId> = Vec::new();
            for &p in &tpl.last {
                let cont = tpl.continuation_class(p);
                if cont.is_empty() {
                    taps.push(fired_tok[p]);
                } else if lane + 1 < lanes {
                    let cont_cls = banks[lane + 1].raw_class(&mut b, cont);
                    let not_cont = b.not(cont_cls);
                    taps.push(b.and2(fired_tok[p], not_cont));
                }
                // else: deferred — handled after the loop.
            }
            if lane + 1 == lanes {
                last_tap_values[t] = deferred_last[t].iter().map(|&p| fired_tok[p]).collect();
            }
            let m = b.or_many(&taps);
            b.name(m, &format!("w_match_t{t}_l{lane}"));
            match_this.push(m);
            fired_this.push(fired_tok);
        }

        // Arm ripple: armed' = enable & delim.
        let armed_next: Vec<NetId> =
            (0..n_tokens).map(|t| b.and2(enables[t], delim_here)).collect();

        if lane + 1 == lanes {
            last_in_cycle = match_this.clone();
        } else {
            // Observable match line for an interior lane.
            for (t, &m) in match_this.iter().enumerate() {
                let q = b.reg(m, None, false);
                b.name(q, &format!("w_matchq_t{t}_l{lane}"));
                match_outputs[t].push(q);
            }
        }

        prev_fired = fired_this;
        armed = armed_next;
        prev_lane_match = match_this;
    }

    // Connect the cycle-boundary feedback registers.
    for (t, regs) in pos_regs.iter().enumerate() {
        for (p, &r) in regs.iter().enumerate() {
            b.connect_reg(r, prev_fired[t][p], None);
        }
    }
    for (t, &r) in arm_regs.iter().enumerate() {
        b.connect_reg(r, armed[t], None);
    }
    for (t, taps) in tap_regs.iter().enumerate() {
        for (&r, &v) in taps.iter().zip(&last_tap_values[t]) {
            b.connect_reg(r, v, None);
        }
    }
    for (t, &r) in in_cycle_match_regs.iter().enumerate() {
        b.connect_reg(r, last_in_cycle[t], None);
    }

    // Last-lane observable match: the carry (in-cycle registered part OR
    // deferred resolution) registered once — one cycle later than the
    // interior lanes.
    for t in 0..n_tokens {
        let q = b.reg(carry[t], None, false);
        b.name(q, &format!("w_matchq_t{t}_l{}", lanes - 1));
        match_outputs[t].push(q);
    }

    // Outputs.
    for (t, qs) in match_outputs.iter().enumerate() {
        for (l, &q) in qs.iter().enumerate() {
            // Interior lanes were pushed in order 0..W-2, last lane
            // appended — reorder index for the last lane.
            let lane_idx = if l + 1 == qs.len() { lanes - 1 } else { l };
            b.output(&format!("m{t}_{lane_idx}"), q);
        }
    }

    let tokens = g
        .tokens()
        .iter()
        .enumerate()
        .map(|(t, tok)| WideTokenHw { name: tok.name.clone(), match_q: match_outputs[t].clone() })
        .collect();

    let flush_byte = delim.iter().next().unwrap_or(b' ');
    Ok(GeneratedWideTagger {
        netlist: b.finish(),
        tokens,
        lanes,
        match_latency: 1,
        last_lane_extra: 1,
        flush_byte,
    })
}
