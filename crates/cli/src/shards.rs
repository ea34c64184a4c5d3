//! `cfgtag watch shards` — a pool-saturation view over a running
//! ingest server.
//!
//! Renders the `cfgtag_shard_*` gauges of a registry [`Snapshot`]
//! (utilization, queue depth, arrival/completion rates and the
//! Little's-law predicted queue wait per shard) next to queue-depth
//! sparklines from `/timeseries.json` ([`parse_depth_history`]), as
//! served by `cfgtag serve --listen --sample-hz N` ([`render`]). When
//! the server also traces (`--trace-sample`), the footer compares the
//! prediction to the *measured* mean `queue_wait` of the same snapshot —
//! agreement means the queue model holds; divergence means burstiness
//! or a stall.

use crate::slo::fmt_ns;
use crate::CliError;
use cfg_obs::json::Json;
use cfg_obs::Snapshot;
use std::fmt::Write as _;

/// Decode a `/timeseries.json` body into per-shard queue-depth
/// histories (outer index = shard, inner = ring order, oldest first).
pub fn parse_depth_history(body: &str) -> Result<Vec<Vec<u64>>, CliError> {
    let v = Json::parse(body).map_err(|e| CliError::new(format!("bad timeseries JSON: {e}"), 1))?;
    let samples = v
        .get("samples")
        .and_then(Json::as_array)
        .ok_or_else(|| CliError::new("timeseries report has no samples array", 1))?;
    let mut history: Vec<Vec<u64>> = Vec::new();
    for sample in samples {
        let Some(shards) = sample.get("shards").and_then(Json::as_array) else { continue };
        if history.len() < shards.len() {
            history.resize(shards.len(), Vec::new());
        }
        for (i, shard) in shards.iter().enumerate() {
            let depth = shard.get("queue_depth").and_then(Json::as_u64).unwrap_or(0);
            history[i].push(depth);
        }
    }
    Ok(history)
}

/// Render `depths` as a unicode sparkline, scaled to the series max
/// (a flat all-zero series is all `▁`). At most the newest `width`
/// points are shown.
pub fn sparkline(depths: &[u64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = &depths[depths.len().saturating_sub(width)..];
    let max = tail.iter().copied().max().unwrap_or(0).max(1);
    tail.iter()
        .map(|&d| BARS[(d as usize * (BARS.len() - 1)).div_ceil(max as usize).min(7)])
        .collect()
}

/// Render one `shards` frame: per-shard gauges with depth sparklines,
/// plus the predicted-vs-measured queue-wait footer. A snapshot without
/// the shard gauges draws the telemetry-off frame.
pub fn render(snap: &Snapshot, history: &[Vec<u64>]) -> String {
    let mut out = String::new();
    let Some(window_ms) = snap.value("cfgtag_shard_window_ms", &[]) else {
        let _ = writeln!(out, "cfgtag shards — pool saturation is off");
        let _ = writeln!(
            out,
            "no shard gauges yet — serve with --sample-hz N (saturation telemetry is off)"
        );
        return out;
    };
    let _ =
        writeln!(out, "cfgtag shards — pool saturation over the last {:.1}s", window_ms / 1000.0);
    let _ = writeln!(
        out,
        "{:<6} {:>6} {:>7} {:>10} {:>10} {:>10}  depth history",
        "shard", "util%", "depth", "arrive/s", "done/s", "pred wait"
    );
    // The pool-level prediction weights each shard's by its arrival
    // rate, so an idle shard cannot drag it toward zero.
    let (mut weighted, mut total_rate) = (0.0, 0.0);
    for s in snap.get("cfgtag_shard_queue_depth").map_or(&[][..], |f| &f.series) {
        let Some(shard) = s.label("shard") else { continue };
        let gauge = |name: &str| snap.value(name, &[("shard", shard)]).unwrap_or(0.0);
        let arrivals = gauge("cfgtag_shard_arrivals_per_sec");
        let wait = gauge("cfgtag_shard_predicted_wait_ns");
        weighted += wait * arrivals;
        total_rate += arrivals;
        let spark = shard
            .parse::<usize>()
            .ok()
            .and_then(|i| history.get(i))
            .map(|h| sparkline(h, 32))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{:<6} {:>6.1} {:>7} {:>10.1} {:>10.1} {:>10}  {}",
            shard,
            gauge("cfgtag_shard_utilization_pct"),
            s.number().unwrap_or(0.0) as u64,
            arrivals,
            gauge("cfgtag_shard_completions_per_sec"),
            fmt_ns(wait as u64),
            spark,
        );
    }
    let measured = snap.histogram("cfgtag_srv_stage_ns", &[("stage", "queue_wait")]);
    match (total_rate > 0.0, measured) {
        (true, Some(h)) => {
            let _ = writeln!(
                out,
                "queue wait: predicted {} (Little's law) vs measured mean {}",
                fmt_ns((weighted / total_rate) as u64),
                fmt_ns(h.mean() as u64),
            );
        }
        (true, None) => {
            let _ = writeln!(
                out,
                "queue wait: predicted {} (Little's law); no measured queue wait to compare — serve with --trace-sample N",
                fmt_ns((weighted / total_rate) as u64),
            );
        }
        (false, _) => {
            let _ = writeln!(out, "queue wait: no arrivals in the window");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfg_obs::Kind;

    /// A snapshot carrying two shards' gauges over a 12.75 s window:
    /// shard 0 busy, shard 1 idle.
    fn gauges() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.push("cfgtag_shard_window_ms", Kind::Gauge).push(&[], 12_750.0);
        for (name, busy, idle) in [
            ("cfgtag_shard_queue_depth", 5.0, 0.0),
            ("cfgtag_shard_utilization_pct", 83.25, 12.0),
            ("cfgtag_shard_arrivals_per_sec", 1200.5, 0.0),
            ("cfgtag_shard_completions_per_sec", 1195.0, 0.0),
            ("cfgtag_shard_predicted_wait_ns", 4_200_000.0, 0.0),
        ] {
            snap.push(name, Kind::Gauge)
                .push(&[("shard", "0")], busy)
                .push(&[("shard", "1")], idle);
        }
        snap
    }

    fn ring_body() -> &'static str {
        "{\"interval_ms\":50,\"samples\":[\
         {\"t_ms\":0,\"shards\":[{\"queue_depth\":1},{\"queue_depth\":0}]},\
         {\"t_ms\":50,\"shards\":[{\"queue_depth\":3},{\"queue_depth\":0}]},\
         {\"t_ms\":100,\"shards\":[{\"queue_depth\":8},{\"queue_depth\":0}]}]}"
    }

    #[test]
    fn parse_depth_history_pivots_to_per_shard_series() {
        let h = parse_depth_history(ring_body()).unwrap();
        assert_eq!(h, vec![vec![1, 3, 8], vec![0, 0, 0]]);
        let empty = parse_depth_history("{\"interval_ms\":0,\"samples\":[]}").unwrap();
        assert!(empty.is_empty());
        assert!(parse_depth_history("{}").is_err());
    }

    #[test]
    fn sparkline_scales_to_series_max() {
        let s = sparkline(&[0, 4, 8], 32);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'), "{s}");
        assert!(s.ends_with('█'), "{s}");
        // All-zero series stays on the floor instead of dividing by 0.
        assert_eq!(sparkline(&[0, 0], 32), "▁▁");
        // Only the newest `width` points are shown.
        assert_eq!(sparkline(&[9, 9, 1, 2], 2).chars().count(), 2);
        assert_eq!(sparkline(&[], 32), "");
    }

    #[test]
    fn render_shows_gauges_sparkline_and_prediction_footer() {
        let history = parse_depth_history(ring_body()).unwrap();
        let untraced = render(&gauges(), &history);
        assert!(untraced.contains("pool saturation over the last 12.8s"), "{untraced}");
        let shard0 = untraced.lines().find(|l| l.starts_with("0 ")).unwrap();
        assert!(shard0.contains("83.2") && shard0.contains("4.20ms"), "{untraced}");
        assert!(shard0.contains('█'), "sparkline rides the row: {untraced}");
        // The idle shard does not dilute the busy one's prediction, and
        // without tracing the footer says how to get the comparison.
        assert!(untraced.contains("predicted 4.20ms (Little's law); no measured"), "{untraced}");
        assert!(untraced.contains("--trace-sample N"), "{untraced}");

        let mut traced = gauges();
        let tracker = cfg_obs::SloTracker::new(50_000_000, 0.99);
        let mut span = cfg_obs::Span::detached();
        span.stamp_at(cfg_obs::Stage::QueueWait, 3_900_000);
        tracker.observe(&span);
        tracker.export(&mut traced);
        let frame = render(&traced, &history);
        let footer = frame.lines().last().unwrap();
        assert!(
            footer.starts_with("queue wait: predicted 4.20ms (Little's law) vs measured mean 3."),
            "{frame}"
        );

        // Telemetry off: an actionable hint instead of an empty table.
        let dark = render(&Snapshot::default(), &[]);
        assert!(dark.contains("--sample-hz"), "{dark}");
    }
}
