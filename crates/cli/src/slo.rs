//! `cfgtag watch slo` — an SLO dashboard over a traced ingest server.
//!
//! Decodes `/slo.json` from a `cfgtag serve --listen --trace-sample`
//! (or `server_loop`) exporter ([`parse_slo`]) and renders the latency
//! objective, error budget, and a per-stage waterfall ([`render`]):
//! p50/p90/p99/p99.9 per serving stage plus each stage's share of the
//! end-to-end p50, so queue-wait vs. engine vs. ack-write attribution is
//! readable at a glance. Burn rate comes from diffing two consecutive
//! polls.

use crate::CliError;
use cfg_obs::json::Json;
use std::fmt::Write as _;

/// Latency quantiles for one stage (or end-to-end), in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct StageRow {
    /// Observations folded into this row.
    pub count: u64,
    /// p50 / p90 / p99 / p99.9 in nanoseconds.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// One decoded `/slo.json` sample.
#[derive(Debug, Clone, Default)]
pub struct SloSample {
    /// Latency objective in milliseconds.
    pub objective_ms: f64,
    /// Objective target fraction (e.g. 0.99).
    pub target: f64,
    /// Frames observed since the server started.
    pub total: u64,
    /// Frames over the objective.
    pub breaches: u64,
    /// Lifetime error-budget consumption (1.0 = budget gone).
    pub budget_consumed: f64,
    /// End-to-end quantiles.
    pub e2e: StageRow,
    /// Per-stage quantiles, in pipeline order.
    pub stages: Vec<(String, StageRow)>,
}

fn decode_row(v: &Json) -> StageRow {
    let ns = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
    StageRow {
        count: ns("count"),
        p50: ns("p50_ns"),
        p90: ns("p90_ns"),
        p99: ns("p99_ns"),
        p999: ns("p999_ns"),
    }
}

/// Decode a `/slo.json` body into an [`SloSample`].
pub fn parse_slo(body: &str) -> Result<SloSample, CliError> {
    let v = Json::parse(body).map_err(|e| CliError::new(format!("bad SLO JSON: {e}"), 1))?;
    let e2e = v.get("e2e").ok_or_else(|| CliError::new("SLO report has no e2e summary", 1))?;
    let mut s = SloSample {
        objective_ms: v.get("objective_ms").and_then(Json::as_f64).unwrap_or(0.0),
        target: v.get("target").and_then(Json::as_f64).unwrap_or(0.0),
        total: v.get("total").and_then(Json::as_u64).unwrap_or(0),
        breaches: v.get("breaches").and_then(Json::as_u64).unwrap_or(0),
        budget_consumed: v.get("budget_consumed").and_then(Json::as_f64).unwrap_or(0.0),
        e2e: decode_row(e2e),
        ..Default::default()
    };
    if let Some(stages) = v.get("stages").and_then(Json::as_object) {
        s.stages = stages.iter().map(|(name, row)| (name.clone(), decode_row(row))).collect();
    }
    Ok(s)
}

/// Format nanoseconds for humans: `850ns`, `12.3µs`, `4.56ms`, `1.20s`.
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Render one `slo` frame: objective health, budget burn (rate vs
/// `prev` over `dt_secs`), and the per-stage latency waterfall.
pub fn render(prev: Option<&SloSample>, cur: &SloSample, dt_secs: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cfgtag slo — objective p{:.4$} < {:.2}ms   frames {}   breaches {}",
        cur.target * 100.0,
        cur.objective_ms,
        cur.total,
        cur.breaches,
        if (cur.target * 1000.0) % 10.0 == 0.0 { 0 } else { 1 },
    );
    // Burn rate 1.0 = consuming budget exactly as fast as the
    // objective allows; >1 = burning towards exhaustion. With no prior
    // poll — or an idle window with zero new frames — there is no rate
    // to compute, so the dashboard shows `-` instead of a made-up 0x.
    let window_burn = prev.and_then(|p| {
        let frames = cur.total.saturating_sub(p.total);
        let breaches = cur.breaches.saturating_sub(p.breaches);
        (frames > 0).then(|| (breaches as f64 / frames as f64) / (1.0 - cur.target).max(1e-9))
    });
    let _ = write!(out, "error budget: {:5.1}% consumed", cur.budget_consumed * 100.0);
    match window_burn {
        Some(burn) => {
            let _ = writeln!(out, "   burn rate {burn:.2}x over last {dt_secs:.1}s");
        }
        None => {
            let _ = writeln!(out, "   burn rate -");
        }
    }
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>7}  share of e2e p50",
        "stage", "p50", "p90", "p99", "p99.9", "count"
    );
    let e2e_p50 = cur.e2e.p50.max(1);
    let mut rows: Vec<(&str, &StageRow)> =
        cur.stages.iter().map(|(n, r)| (n.as_str(), r)).collect();
    rows.push(("e2e", &cur.e2e));
    for (name, row) in rows {
        let bar = if name == "e2e" {
            String::new()
        } else {
            // 24 columns = 100% of the end-to-end p50.
            let cols = ((row.p50 as f64 / e2e_p50 as f64) * 24.0).round() as usize;
            let pct = row.p50 as f64 / e2e_p50 as f64 * 100.0;
            format!("{:<24} {pct:5.1}%", "#".repeat(cols.min(24)))
        };
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>9} {:>9} {:>9} {:>7}  {}",
            name,
            fmt_ns(row.p50),
            fmt_ns(row.p90),
            fmt_ns(row.p99),
            fmt_ns(row.p999),
            row.count,
            bar,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An `/slo.json` body in the exact shape the tracker renders.
    fn body(total: u64, breaches: u64) -> String {
        let row = |p50: u64, count: u64| {
            format!(
                "{{\"count\":{count},\"mean_ns\":{p50}.0,\"max_ns\":{},\"p50_ns\":{p50},\
                 \"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
                p50 * 8,
                p50 * 2,
                p50 * 4,
                p50 * 8,
            )
        };
        format!(
            "{{\"objective_ms\":50.0,\"target\":0.99,\"total\":{total},\"breaches\":{breaches},\
             \"error_rate\":0.0,\"budget_consumed\":{},\"e2e\":{},\"stages\":{{\
             \"frame_read\":{},\"queue_wait\":{},\"engine\":{},\"ack_write\":{}}}}}",
            breaches as f64 / total.max(1) as f64 / 0.01,
            row(100_000, total),
            row(5_000, total),
            row(60_000, total),
            row(30_000, total),
            row(5_000, total),
        )
    }

    #[test]
    fn parse_slo_decodes_objective_and_stages() {
        let s = parse_slo(&body(1000, 10)).unwrap();
        assert_eq!(s.objective_ms, 50.0);
        assert_eq!(s.target, 0.99);
        assert_eq!(s.total, 1000);
        assert_eq!(s.breaches, 10);
        assert_eq!(s.e2e.p50, 100_000);
        assert_eq!(s.e2e.p999, 800_000);
        let names: Vec<&str> = s.stages.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["frame_read", "queue_wait", "engine", "ack_write"]);
        let queue = &s.stages[1].1;
        assert_eq!(queue.p50, 60_000);
        assert_eq!(queue.count, 1000);
        assert!(parse_slo("{}").is_err());
        assert!(parse_slo("not json").is_err());
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(850), "850ns");
        assert_eq!(fmt_ns(12_300), "12.3µs");
        assert_eq!(fmt_ns(4_560_000), "4.56ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }

    #[test]
    fn render_shows_waterfall_and_burn_rate() {
        let t0 = parse_slo(&body(1000, 10)).unwrap();
        let t1 = parse_slo(&body(2000, 110)).unwrap();
        let frame = render(Some(&t0), &t1, 2.0);
        assert!(frame.contains("objective p99 < 50.00ms"), "{frame}");
        // 100 breaches over 1000 frames against a 1% budget: 10x burn.
        assert!(frame.contains("burn rate 10.00x"), "{frame}");
        // The waterfall attributes queue-wait as the dominant stage:
        // 60µs of a 100µs e2e p50.
        let queue_line = frame.lines().find(|l| l.starts_with("queue_wait")).unwrap();
        assert!(queue_line.contains("60.0µs") && queue_line.contains("60.0%"), "{frame}");
        let engine_line = frame.lines().find(|l| l.starts_with("engine")).unwrap();
        assert!(engine_line.contains("30.0%"), "{frame}");
        assert!(frame.lines().any(|l| l.starts_with("e2e")), "{frame}");
        // First frame has no previous sample: burn rate defers.
        let first = render(None, &t0, 1.0);
        assert!(first.contains("burn rate -"), "{first}");
        assert!(!first.contains("0.00x"), "first poll must not fake a rate: {first}");
    }

    #[test]
    fn render_burn_rate_dashes_on_idle_window() {
        // Two polls with identical totals: no frames arrived in the
        // window, so there is no rate — not a 0.00x, not a NaN.
        let t0 = parse_slo(&body(1000, 10)).unwrap();
        let frame = render(Some(&t0), &t0, 1.0);
        assert!(frame.contains("burn rate -"), "{frame}");
        assert!(!frame.contains("NaN") && !frame.contains("0.00x"), "{frame}");
    }
}
