//! `cfgtag watch top` — engine counters over a running exporter.
//!
//! Renders one registry [`Snapshot`] ([`render`]): every [`Stat`]
//! counter summed over the registered sinks with per-second rates,
//! every histogram series' quantiles, and the hottest tokens. Rates come
//! from diffing two consecutive snapshots against the poll interval; the
//! polling itself is [`crate::watch`]'s.

use cfg_obs::{Kind, Snapshot, Stat};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fires per token index, summed over sinks.
fn token_fires(snap: &Snapshot) -> BTreeMap<usize, u64> {
    let mut fires = BTreeMap::new();
    for s in snap.get("cfgtag_token_fires_total").map_or(&[][..], |f| &f.series) {
        if let (Some(token), Some(n)) = (s.label("token").and_then(|t| t.parse().ok()), s.number())
        {
            *fires.entry(token).or_insert(0) += n as u64;
        }
    }
    fires
}

/// Render one `top` frame: counters + rates (vs `prev` over `dt_secs`),
/// histogram quantiles, and the `top_k` hottest tokens.
pub fn render(prev: Option<&Snapshot>, cur: &Snapshot, dt_secs: f64, top_k: usize) -> String {
    let mut out = String::new();
    let health = if cur.value("cfgtag_dead", &[]) == Some(1.0) {
        "DEAD"
    } else if cur.value("cfgtag_ready", &[]) == Some(1.0) {
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
    for stat in Stat::ALL {
        let family = format!("cfgtag_{}_total", stat.name());
        let total = cur.total(&family) as u64;
        if total > 0 {
            let r = rate(total, prev.map_or(0, |p| p.total(&family) as u64));
            let _ = writeln!(out, "{:<24} {total:>14} {r:>14.1}", stat.name());
        }
    }
    let mut hists = String::new();
    for f in cur.families.iter().filter(|f| f.kind == Kind::Histogram) {
        for s in &f.series {
            let Some(h) = s.histogram() else { continue };
            let mut name = f.name.trim_start_matches("cfgtag_").to_owned();
            if !s.labels.is_empty() {
                let values: Vec<&str> = s.labels.iter().map(|(_, v)| v.as_str()).collect();
                let _ = write!(name, "{{{}}}", values.join(","));
            }
            let [p50, p90, p99] = [0.50, 0.90, 0.99].map(|q| h.quantile(q));
            let _ = writeln!(hists, "{name:<24} {p50:>10} {p90:>10} {p99:>10} {:>10}", h.count);
        }
    }
    if !hists.is_empty() {
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "p50", "p90", "p99", "count"
        );
        out.push_str(&hists);
    }
    let before = prev.map(token_fires).unwrap_or_default();
    let mut fires: Vec<(usize, u64)> =
        token_fires(cur).into_iter().filter(|(_, n)| *n > 0).collect();
    if !fires.is_empty() && top_k > 0 {
        fires.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        fires.truncate(top_k);
        let _ = writeln!(out, "{:<24} {:>14} {:>14}", "token", "fires", "rate/s");
        for (i, n) in fires {
            let name = cur
                .get("cfgtag_token_info")
                .and_then(|f| f.find(&[("token", &i.to_string())]))
                .and_then(|s| s.label("name"))
                .map_or_else(|| format!("tok{i}"), str::to_owned);
            let r = rate(n, before.get(&i).copied().unwrap_or(0));
            let _ = writeln!(out, "{name:<24} {n:>14} {r:>14.1}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfg_obs::{MetricsSink, Part, Registry, StatsSink};
    use std::sync::Arc;

    /// A registry snapshot after `bytes` bytes and `fires` per token.
    fn snapshot(bytes: u64, fires: [u64; 2], latencies: &[u64]) -> Snapshot {
        let reg = Registry::new();
        reg.set_ready(true);
        reg.attach(Part::Tokens(vec!["methodName".into(), "INT".into()]));
        let sink = Arc::new(StatsSink::with_tokens(2));
        sink.add(Stat::BytesIn, bytes);
        for (token, n) in fires.iter().enumerate() {
            sink.token_fire(token as u32, *n);
        }
        for &v in latencies {
            sink.observe("decision_latency_ns", v);
        }
        reg.register("engine", sink);
        reg.snapshot()
    }

    #[test]
    fn render_shows_totals_rates_quantiles_and_top_tokens() {
        let t0 = snapshot(1000, [30, 12], &[20; 8]);
        let t1 = snapshot(3000, [80, 12], &[20; 9]);
        let frame = render(Some(&t0), &t1, 2.0, 8);
        assert!(frame.contains("cfgtag top — ready"), "{frame}");
        // bytes_in went 1000 -> 3000 over 2s: 1000.0/s.
        let bytes = frame.lines().find(|l| l.starts_with("bytes_in")).unwrap();
        assert!(bytes.contains("3000") && bytes.contains("1000.0"), "{frame}");
        // events_out sums the token fires: 92 - 42 over 2s.
        let events = frame.lines().find(|l| l.starts_with("events_out")).unwrap();
        assert!(events.contains("92") && events.contains("25.0"), "{frame}");
        // Hottest token first, named, with its rate (80-30)/2 = 25.0/s.
        let method_line = frame.lines().find(|l| l.starts_with("methodName")).unwrap();
        assert!(method_line.contains("80") && method_line.contains("25.0"), "{frame}");
        let hist = frame.lines().find(|l| l.starts_with("decision_latency_ns")).unwrap();
        assert_eq!(
            hist.split_whitespace().collect::<Vec<_>>(),
            ["decision_latency_ns", "20", "20", "20", "9"]
        );
        // First frame has no previous sample: rates fall back to totals/dt.
        let first = render(None, &t0, 1.0, 1);
        assert!(first.contains("bytes_in"));
        // top_k=1 keeps only the hottest token row.
        assert!(first.contains("methodName") && !first.contains("INT"), "{first}");
        // A dead stream says so.
        let reg = Registry::new();
        reg.set_dead(true);
        assert!(render(None, &reg.snapshot(), 1.0, 8).contains("cfgtag top — DEAD"));
    }
}
