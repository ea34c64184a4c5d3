//! `cfgtag watch shards` — a pool-saturation view over a running
//! ingest server.
//!
//! Decodes `/shards.json` (current per-shard gauges, [`parse_shards`])
//! and `/timeseries.json` (the snapshot ring, for queue-depth
//! sparklines, [`parse_depth_history`]) from a `cfgtag serve --listen
//! --sample-hz N` exporter and renders utilization, queue depth,
//! arrival/completion rates and the Little's-law predicted queue wait
//! per shard ([`render`]). When the server also traces
//! (`--trace-sample`), the footer compares the prediction to the
//! *measured* `queue_wait` p50 from `/slo.json`
//! ([`measured_queue_wait`]) — agreement means the queue model holds;
//! divergence means burstiness or a stall.

use crate::slo::fmt_ns;
use crate::CliError;
use cfg_obs::json::Json;
use std::fmt::Write as _;

/// One decoded per-shard gauge row from `/shards.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaugeRow {
    /// Shard index.
    pub shard: u64,
    /// Frames queued right now.
    pub queue_depth: u64,
    /// Fraction of the window the worker was busy, 0..=100.
    pub utilization_pct: f64,
    /// Frames entering the shard queue per second over the window.
    pub arrivals_per_sec: f64,
    /// Frames fully tagged per second over the window.
    pub completions_per_sec: f64,
    /// Little's-law predicted queue wait (mean depth / arrival rate).
    pub predicted_wait_ns: u64,
}

/// One decoded `/shards.json` sample.
#[derive(Debug, Clone, Default)]
pub struct ShardsSample {
    /// The window the gauges average over, in milliseconds.
    pub window_ms: u64,
    /// Per-shard gauge rows.
    pub shards: Vec<GaugeRow>,
}

impl ShardsSample {
    /// The pool-level Little's-law prediction: per-shard predictions
    /// weighted by arrival rate (an idle shard must not drag the
    /// prediction toward zero). `None` when no shard saw arrivals.
    pub fn predicted_wait_ns(&self) -> Option<u64> {
        let total_rate: f64 = self.shards.iter().map(|s| s.arrivals_per_sec).sum();
        if total_rate <= 0.0 {
            return None;
        }
        let weighted: f64 =
            self.shards.iter().map(|s| s.predicted_wait_ns as f64 * s.arrivals_per_sec).sum();
        Some((weighted / total_rate) as u64)
    }
}

/// Decode a `/shards.json` body into a [`ShardsSample`].
pub fn parse_shards(body: &str) -> Result<ShardsSample, CliError> {
    let v = Json::parse(body).map_err(|e| CliError::new(format!("bad shards JSON: {e}"), 1))?;
    let rows = v
        .get("shards")
        .and_then(Json::as_array)
        .ok_or_else(|| CliError::new("shards report has no shards array", 1))?;
    let mut s = ShardsSample {
        window_ms: v.get("window_ms").and_then(Json::as_u64).unwrap_or(0),
        ..Default::default()
    };
    for row in rows {
        let u = |key: &str| row.get(key).and_then(Json::as_u64).unwrap_or(0);
        let f = |key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        s.shards.push(GaugeRow {
            shard: u("shard"),
            queue_depth: u("queue_depth"),
            utilization_pct: f("utilization_pct"),
            arrivals_per_sec: f("arrivals_per_sec"),
            completions_per_sec: f("completions_per_sec"),
            // Rendered as a float (Little's law divides); truncate for
            // display.
            predicted_wait_ns: f("predicted_wait_ns") as u64,
        });
    }
    Ok(s)
}

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
/// plus the predicted-vs-measured queue-wait footer when the server
/// also serves `/slo.json` (`measured_queue_wait_ns` is its
/// `queue_wait` p50; `None` when tracing is off).
pub fn render(
    cur: &ShardsSample,
    history: &[Vec<u64>],
    measured_queue_wait_ns: Option<u64>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cfgtag shards — pool saturation over the last {:.1}s",
        cur.window_ms as f64 / 1000.0
    );
    if cur.shards.is_empty() {
        let _ = writeln!(
            out,
            "no shard gauges yet — serve with --sample-hz N (saturation telemetry is off)"
        );
        return out;
    }
    let _ = writeln!(
        out,
        "{:<6} {:>6} {:>7} {:>10} {:>10} {:>10}  depth history",
        "shard", "util%", "depth", "arrive/s", "done/s", "pred wait"
    );
    for row in &cur.shards {
        let spark = history.get(row.shard as usize).map(|h| sparkline(h, 32)).unwrap_or_default();
        let _ = writeln!(
            out,
            "{:<6} {:>6.1} {:>7} {:>10.1} {:>10.1} {:>10}  {}",
            row.shard,
            row.utilization_pct,
            row.queue_depth,
            row.arrivals_per_sec,
            row.completions_per_sec,
            fmt_ns(row.predicted_wait_ns),
            spark,
        );
    }
    match (cur.predicted_wait_ns(), measured_queue_wait_ns) {
        (Some(pred), Some(meas)) => {
            let _ = writeln!(
                out,
                "queue wait: predicted {} (Little's law) vs measured p50 {} (/slo.json)",
                fmt_ns(pred),
                fmt_ns(meas),
            );
        }
        (Some(pred), None) => {
            let _ = writeln!(
                out,
                "queue wait: predicted {} (Little's law); no /slo.json to compare — serve with --trace-sample N",
                fmt_ns(pred),
            );
        }
        (None, _) => {
            let _ = writeln!(out, "queue wait: no arrivals in the window");
        }
    }
    out
}

/// The measured `queue_wait` p50 in an `/slo.json` body, if it has one.
pub fn measured_queue_wait(slo_body: &str) -> Option<u64> {
    let slo = crate::slo::parse_slo(slo_body).ok()?;
    slo.stages.iter().find(|(name, _)| name == "queue_wait").map(|(_, row)| row.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `/shards.json` body in the exact shape the timeseries renders.
    fn shards_body() -> &'static str {
        "{\"window_ms\":12750,\"shards\":[\
         {\"shard\":0,\"queue_depth\":5,\"utilization_pct\":83.25,\"arrivals_per_sec\":1200.5,\
          \"completions_per_sec\":1195.0,\"predicted_wait_ns\":4200000},\
         {\"shard\":1,\"queue_depth\":0,\"utilization_pct\":12.0,\"arrivals_per_sec\":0.0,\
          \"completions_per_sec\":0.0,\"predicted_wait_ns\":0}]}"
    }

    fn ring_body() -> &'static str {
        "{\"interval_ms\":50,\"samples\":[\
         {\"t_ms\":0,\"shards\":[{\"queue_depth\":1},{\"queue_depth\":0}]},\
         {\"t_ms\":50,\"shards\":[{\"queue_depth\":3},{\"queue_depth\":0}]},\
         {\"t_ms\":100,\"shards\":[{\"queue_depth\":8},{\"queue_depth\":0}]}]}"
    }

    #[test]
    fn parse_shards_decodes_gauges() {
        let s = parse_shards(shards_body()).unwrap();
        assert_eq!(s.window_ms, 12750);
        assert_eq!(s.shards.len(), 2);
        assert_eq!(s.shards[0].queue_depth, 5);
        assert!((s.shards[0].utilization_pct - 83.25).abs() < 1e-9);
        assert!((s.shards[0].arrivals_per_sec - 1200.5).abs() < 1e-9);
        assert_eq!(s.shards[0].predicted_wait_ns, 4_200_000);
        assert_eq!(s.shards[1].shard, 1);
        // The empty-but-attached body parses to zero shards.
        let empty = parse_shards("{\"window_ms\":0,\"shards\":[]}").unwrap();
        assert!(empty.shards.is_empty());
        assert!(parse_shards("{}").is_err());
        assert!(parse_shards("not json").is_err());
    }

    #[test]
    fn pool_prediction_is_arrival_weighted() {
        let s = parse_shards(shards_body()).unwrap();
        // Shard 1 is idle (zero arrivals): it must not dilute shard 0's
        // prediction.
        assert_eq!(s.predicted_wait_ns(), Some(4_200_000));
        let idle = parse_shards("{\"window_ms\":100,\"shards\":[]}").unwrap();
        assert_eq!(idle.predicted_wait_ns(), None);
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
    fn measured_queue_wait_reads_the_slo_stage_p50() {
        let slo = "{\"e2e\":{\"p50_ns\":9000},\"stages\":{\"queue_wait\":{\"p50_ns\":4200}}}";
        assert_eq!(measured_queue_wait(slo), Some(4200));
        assert_eq!(measured_queue_wait("{\"e2e\":{},\"stages\":{}}"), None);
        assert_eq!(measured_queue_wait("not json"), None);
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
        let cur = parse_shards(shards_body()).unwrap();
        let history = parse_depth_history(ring_body()).unwrap();
        let frame = render(&cur, &history, Some(3_900_000));
        assert!(frame.contains("pool saturation over the last 12.8s"), "{frame}");
        let shard0 = frame.lines().find(|l| l.starts_with("0 ")).unwrap();
        assert!(shard0.contains("83.2") && shard0.contains("4.20ms"), "{frame}");
        assert!(shard0.contains('█'), "sparkline rides the row: {frame}");
        assert!(
            frame.contains("predicted 4.20ms (Little's law) vs measured p50 3.90ms"),
            "{frame}"
        );
        // Without /slo.json the footer says how to get the comparison.
        let untraced = render(&cur, &history, None);
        assert!(untraced.contains("no /slo.json to compare"), "{untraced}");
        // Telemetry off: an actionable hint instead of an empty table.
        let dark = render(&ShardsSample::default(), &[], None);
        assert!(dark.contains("--sample-hz"), "{dark}");
    }
}
