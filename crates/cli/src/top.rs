//! `cfgtag watch top` — engine counters over a running exporter.
//!
//! Decodes `/report.json` from a `cfgtag serve` (or `router_loop`)
//! exporter ([`parse_report`]) and renders counters with per-second
//! rates, histogram quantiles and the hottest tokens ([`render`]).
//! Rates come from diffing two consecutive samples against the poll
//! interval; the polling itself is [`crate::watch`]'s.

use crate::CliError;
use cfg_obs::json::Json;
use cfg_obs::HistogramSnapshot;
use std::fmt::Write as _;

/// One decoded `/report.json` sample.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Service is compiled and the stream is alive.
    pub ready: bool,
    /// The stream has died.
    pub dead: bool,
    /// Token names from the serve metadata (may be empty).
    pub tokens: Vec<String>,
    /// Merged counters, in exporter order.
    pub counters: Vec<(String, u64)>,
    /// Merged per-token fire counts.
    pub token_fires: Vec<u64>,
    /// Merged histograms, reconstructed for quantile estimation.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Sample {
    fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    }
}

/// Decode a `/report.json` body into a [`Sample`].
pub fn parse_report(body: &str) -> Result<Sample, CliError> {
    let v = Json::parse(body).map_err(|e| CliError::new(format!("bad report JSON: {e}"), 1))?;
    let merged = v
        .get("stats")
        .and_then(|s| s.get("merged"))
        .ok_or_else(|| CliError::new("report has no stats.merged", 1))?;
    let mut s = Sample {
        ready: v.get("ready").and_then(Json::as_bool).unwrap_or(false),
        dead: v.get("dead").and_then(Json::as_bool).unwrap_or(false),
        ..Default::default()
    };
    if let Some(tokens) = v.get("meta").and_then(|m| m.get("tokens")).and_then(Json::as_array) {
        s.tokens = tokens.iter().filter_map(|t| t.as_str().map(str::to_owned)).collect();
    }
    if let Some(counters) = merged.get("counters").and_then(Json::as_object) {
        s.counters = counters.iter().map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0))).collect();
    }
    if let Some(fires) = merged.get("token_fires").and_then(Json::as_array) {
        s.token_fires = fires.iter().map(|v| v.as_u64().unwrap_or(0)).collect();
    }
    if let Some(hists) = merged.get("histograms").and_then(Json::as_object) {
        for (name, h) in hists {
            s.histograms.push((name.clone(), decode_histogram(h)));
        }
    }
    Ok(s)
}

/// Rebuild a [`HistogramSnapshot`] from its `to_json` encoding
/// (`"buckets"` maps the upper edge `"<2^(i+1)"` back to bucket `i`).
fn decode_histogram(h: &Json) -> HistogramSnapshot {
    let mut snap = HistogramSnapshot {
        buckets: Vec::new(),
        count: h.get("count").and_then(Json::as_u64).unwrap_or(0),
        sum: h.get("sum").and_then(Json::as_u64).unwrap_or(0),
        max: h.get("max").and_then(Json::as_u64).unwrap_or(0),
    };
    if let Some(buckets) = h.get("buckets").and_then(Json::as_object) {
        for (edge, n) in buckets {
            let Ok(hi) = edge.trim_start_matches('<').parse::<u128>() else { continue };
            if !hi.is_power_of_two() {
                continue;
            }
            let i = hi.trailing_zeros() as usize - 1;
            if snap.buckets.len() <= i {
                snap.buckets.resize(i + 1, 0);
            }
            snap.buckets[i] = n.as_u64().unwrap_or(0);
        }
    }
    snap
}

/// Render one `top` frame: counters + rates (vs `prev` over `dt_secs`),
/// histogram quantiles, and the `top_k` hottest tokens.
pub fn render(prev: Option<&Sample>, cur: &Sample, dt_secs: f64, top_k: usize) -> String {
    let mut out = String::new();
    let health = if cur.dead {
        "DEAD"
    } else if cur.ready {
        "ready"
    } else {
        "not ready"
    };
    let _ = writeln!(out, "cfgtag top — {health}");
    let rate = |now: u64, before: u64| -> f64 {
        if dt_secs > 0.0 {
            now.saturating_sub(before) as f64 / dt_secs
        } else {
            0.0
        }
    };
    let _ = writeln!(out, "{:<24} {:>14} {:>14}", "counter", "total", "rate/s");
    for (name, total) in &cur.counters {
        if *total == 0 {
            continue;
        }
        let r = rate(*total, prev.map(|p| p.counter(name)).unwrap_or(0));
        let _ = writeln!(out, "{name:<24} {total:>14} {r:>14.1}");
    }
    if !cur.histograms.is_empty() {
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "p50", "p90", "p99", "count"
        );
        for (name, h) in &cur.histograms {
            let _ = writeln!(
                out,
                "{:<24} {:>10.0} {:>10.0} {:>10.0} {:>10}",
                name,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.count
            );
        }
    }
    let mut fires: Vec<(usize, u64)> =
        cur.token_fires.iter().copied().enumerate().filter(|(_, n)| *n > 0).collect();
    if !fires.is_empty() && top_k > 0 {
        fires.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        fires.truncate(top_k);
        let _ = writeln!(out, "{:<24} {:>14} {:>14}", "token", "fires", "rate/s");
        for (i, n) in fires {
            let name = cur.tokens.get(i).cloned().unwrap_or_else(|| format!("tok{i}"));
            let before = prev.and_then(|p| p.token_fires.get(i).copied()).unwrap_or(0);
            let _ = writeln!(out, "{name:<24} {n:>14} {:>14.1}", rate(n, before));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report body in the exact shape the exporter renders.
    fn report(bytes: u64, fires: [u64; 2], lat_bucket4: u64) -> String {
        format!(
            concat!(
                "{{\"ready\":true,\"dead\":false,",
                "\"meta\":{{\"tokens\":[\"methodName\",\"INT\"]}},",
                "\"stats\":{{\"merged\":{{",
                "\"counters\":{{\"bytes_in\":{},\"events_out\":{}}},",
                "\"token_fires\":[{},{}],",
                "\"histograms\":{{\"decision_latency_ns\":{{\"count\":{},\"sum\":100,",
                "\"max\":30,\"mean\":25.0,\"buckets\":{{\"<32\":{}}}}}}},",
                "\"timings\":[]}},\"sinks\":{{}}}}}}"
            ),
            bytes,
            fires[0] + fires[1],
            fires[0],
            fires[1],
            lat_bucket4,
            lat_bucket4,
        )
    }

    #[test]
    fn parse_report_decodes_counters_fires_and_histograms() {
        let s = parse_report(&report(1000, [30, 12], 8)).unwrap();
        assert!(s.ready && !s.dead);
        assert_eq!(s.tokens, vec!["methodName", "INT"]);
        assert_eq!(s.counter("bytes_in"), 1000);
        assert_eq!(s.token_fires, vec![30, 12]);
        let (name, h) = &s.histograms[0];
        assert_eq!(name, "decision_latency_ns");
        assert_eq!(h.count, 8);
        // "<32" is the upper edge of bucket 4 ([16,32)).
        assert_eq!(h.buckets[4], 8);
        let p50 = h.quantile(0.5);
        assert!((16.0..=30.0).contains(&p50), "p50={p50}");
        assert!(parse_report("{}").is_err());
        assert!(parse_report("not json").is_err());
    }

    #[test]
    fn render_shows_totals_rates_and_top_tokens() {
        let t0 = parse_report(&report(1000, [30, 12], 8)).unwrap();
        let t1 = parse_report(&report(3000, [80, 12], 9)).unwrap();
        let frame = render(Some(&t0), &t1, 2.0, 8);
        assert!(frame.contains("cfgtag top — ready"));
        // bytes_in went 1000 -> 3000 over 2s: 1000.0/s.
        assert!(frame.contains("bytes_in") && frame.contains("1000.0"), "{frame}");
        // Hottest token first, with its rate (80-30)/2 = 25.0/s.
        let method_line = frame.lines().find(|l| l.contains("methodName")).unwrap();
        assert!(method_line.contains("80") && method_line.contains("25.0"), "{frame}");
        assert!(frame.contains("decision_latency_ns"));
        assert!(frame.contains("p99"));
        // First frame has no previous sample: rates fall back to totals/dt.
        let first = render(None, &t0, 1.0, 1);
        assert!(first.contains("bytes_in"));
        // top_k=1 keeps only the hottest token row.
        assert!(first.contains("methodName") && !first.contains("INT"), "{first}");
    }
}
