//! `cfgtag watch shards` — the ingest server's shard gates under load.
//!
//! Every shard gate counts its load on its shard's sink (`shard0`, …)
//! as five monotonic counters, `cfgtag_shard_<x>_total{sink}`: frames
//! admitted (`arrivals`), frames that took the gate (`dequeues`),
//! frames tagged to completion (`completions`), and the nanoseconds
//! the gate was held (`busy_ns`) and frames waited for it (`wait_ns`).
//! [`loads`] derives each gate's load from two snapshots, as Prometheus
//! `rate()` does: utilization is Δbusy_ns / Δt, and since the sum of
//! waits is the integral of the queue depth over time, the mean depth
//! is L̄_q = Δwait_ns / Δt and Little's law gives W_q = L̄_q / λ =
//! Δwait_ns / Δarrivals ([`littles_wait_ns`]), with nothing sampled.
//! [`render`] draws one frame; when the server also traces
//! (`--trace-sample`), its footer sets W_q beside the span histogram's
//! mean `queue_wait`.

use crate::slo::fmt_ns;
use cfg_obs::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Points kept per sparkline: one per poll interval, newest last.
pub const SPARK_WIDTH: usize = 32;

/// Each gate's mean queue depth (L̄_q) per poll interval, oldest first,
/// at most [`SPARK_WIDTH`] points, keyed by sink.
pub type DepthHistory = BTreeMap<String, Vec<f64>>;

/// One shard gate's load over the interval between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// Δbusy_ns / Δt as a percentage, clamped to `[0, 100]`.
    pub utilization_pct: f64,
    /// Frames admitted per second.
    pub arrivals_per_sec: f64,
    /// Frames tagged to completion per second.
    pub completions_per_sec: f64,
    /// Mean wait of the frames that took the gate, Δwait_ns /
    /// Δdequeues; zero when none did.
    pub mean_wait_ns: f64,
    /// Mean queue depth, L̄_q = Δwait_ns / Δt.
    pub mean_depth: f64,
}

/// One shard gate: its counts at the later snapshot and, given an
/// earlier one, its rates between the two.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLoad {
    /// The gate's sink name (`shard0`, …).
    pub sink: String,
    /// Frames admitted, ever.
    pub arrivals: u64,
    /// Frames waiting for the gate: arrivals − dequeues.
    pub depth: u64,
    /// `None` without an earlier snapshot (the first frame).
    pub rates: Option<Rates>,
}

/// Whether `sink` names a shard (`shard` and a number).
fn is_shard(sink: &str) -> bool {
    sink.strip_prefix("shard")
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// Every `shard<i>` sink's load in `cur`, in registration order, with
/// rates against `prev` over `dt_secs` seconds.
pub fn loads(prev: Option<&Snapshot>, cur: &Snapshot, dt_secs: f64) -> Vec<ShardLoad> {
    let family = cur.get("cfgtag_shard_arrivals_total");
    let sinks = family.map_or(&[][..], |f| &f.series).iter().filter_map(|s| s.label("sink"));
    sinks
        .filter(|sink| is_shard(sink))
        .map(|sink| {
            let counter = |snap: &Snapshot, stat: &str| {
                snap.value(&format!("cfgtag_shard_{stat}_total"), &[("sink", sink)]).unwrap_or(0.0)
            };
            let rates = prev.filter(|_| dt_secs > 0.0).map(|prev| {
                let delta = |stat| (counter(cur, stat) - counter(prev, stat)).max(0.0);
                let (dequeued, waited) = (delta("dequeues"), delta("wait_ns"));
                Rates {
                    utilization_pct: (delta("busy_ns") / (dt_secs * 1e9) * 100.0).clamp(0.0, 100.0),
                    arrivals_per_sec: delta("arrivals") / dt_secs,
                    completions_per_sec: delta("completions") / dt_secs,
                    mean_wait_ns: if dequeued > 0.0 { waited / dequeued } else { 0.0 },
                    mean_depth: waited / (dt_secs * 1e9),
                }
            });
            let arrivals = counter(cur, "arrivals");
            ShardLoad {
                sink: sink.to_owned(),
                arrivals: arrivals as u64,
                depth: (arrivals - counter(cur, "dequeues")).max(0.0) as u64,
                rates,
            }
        })
        .collect()
}

/// Little's law over every gate: W_q = Σ L̄_q / Σ λ (so Δwait_ns /
/// Δarrivals, each gate weighted by its arrivals), in nanoseconds.
/// `None` without rates or without arrivals in the interval.
pub fn littles_wait_ns(loads: &[ShardLoad]) -> Option<f64> {
    let (depth, rate) = loads
        .iter()
        .filter_map(|l| l.rates)
        .fold((0.0, 0.0), |(d, r), x| (d + x.mean_depth, r + x.arrivals_per_sec));
    (rate > 0.0).then(|| depth / rate * 1e9)
}

/// Append each gate's interval L̄_q to its history, keeping the newest
/// [`SPARK_WIDTH`] points.
pub fn record(history: &mut DepthHistory, loads: &[ShardLoad]) {
    for load in loads {
        if let Some(rates) = load.rates {
            let points = history.entry(load.sink.clone()).or_default();
            points.push(rates.mean_depth);
            let excess = points.len().saturating_sub(SPARK_WIDTH);
            points.drain(..excess);
        }
    }
}

/// Render `points` as a unicode sparkline scaled to their max (an
/// all-zero series is all `▁`). At most the newest `width` points are
/// shown.
pub fn sparkline(points: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = &points[points.len().saturating_sub(width)..];
    let max = tail.iter().copied().fold(0.0, f64::max);
    tail.iter()
        .map(|&p| {
            let level = if max > 0.0 { (p / max * 7.0).ceil() as usize } else { 0 };
            BARS[level.min(7)]
        })
        .collect()
}

/// Render one `shards` frame from `loads` (see [`loads`]), the depth
/// sparklines in `history`, and `cur`'s span histogram for the footer.
/// With no gate that ever admitted a frame it draws the off frame.
pub fn render(cur: &Snapshot, loads: &[ShardLoad], history: &DepthHistory, dt_secs: f64) -> String {
    let mut out = String::new();
    if loads.iter().all(|l| l.arrivals == 0) {
        let _ = writeln!(out, "cfgtag shards — no shard gate has admitted a frame");
        let _ = writeln!(
            out,
            "shard gates count load in the ingest server: cfgtag serve --listen ADDR"
        );
        return out;
    }
    let rated = loads.iter().any(|l| l.rates.is_some());
    let over = if rated {
        format!("rates over the last {dt_secs:.1}s")
    } else {
        "rates from the next poll".to_owned()
    };
    let plural = if loads.len() == 1 { "" } else { "s" };
    let _ = writeln!(out, "cfgtag shards — {} shard gate{plural}, {over}", loads.len());
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>6} {:>10} {:>10} {:>10}  mean depth",
        "sink", "depth", "util%", "arrive/s", "done/s", "mean wait"
    );
    for load in loads {
        let cells = match load.rates {
            Some(r) => format!(
                "{:>6.1} {:>10.1} {:>10.1} {:>10}",
                r.utilization_pct,
                r.arrivals_per_sec,
                r.completions_per_sec,
                fmt_ns(r.mean_wait_ns as u64)
            ),
            None => format!("{:>6} {:>10} {:>10} {:>10}", "-", "-", "-", "-"),
        };
        let spark = history.get(&load.sink).map(|h| sparkline(h, SPARK_WIDTH)).unwrap_or_default();
        let _ = writeln!(out, "{:<8} {:>6} {cells}  {spark}", load.sink, load.depth);
    }
    let measured = cur.histogram("cfgtag_srv_stage_ns", &[("stage", "queue_wait")]);
    let footer = match (littles_wait_ns(loads), measured) {
        _ if !rated => "queue wait: W_q from the next poll".to_owned(),
        (None, _) => format!("queue wait: no arrivals in the last {dt_secs:.1}s"),
        (Some(w), Some(h)) => format!(
            "queue wait: W_q {} (Little's law) vs measured mean {}",
            fmt_ns(w as u64),
            fmt_ns(h.mean() as u64),
        ),
        (Some(w), None) => format!(
            "queue wait: W_q {} (Little's law); no measured queue wait to compare — \
             serve with --trace-sample N",
            fmt_ns(w as u64),
        ),
    };
    let _ = writeln!(out, "{footer}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfg_obs::{Kind, Stat};

    /// A snapshot of two shard gates' counters plus a `server` sink,
    /// laid out as the registry exports them. Each row is one sink's
    /// (arrivals, dequeues, completions, busy_ns, wait_ns).
    fn snapshot(rows: &[(&str, [f64; 5])]) -> Snapshot {
        let mut snap = Snapshot::default();
        let stats = [
            Stat::ShardArrivals,
            Stat::ShardDequeues,
            Stat::ShardCompletions,
            Stat::ShardBusyNs,
            Stat::ShardWaitNs,
        ];
        for (i, stat) in stats.iter().enumerate() {
            let family = snap.push(format!("cfgtag_{}_total", stat.name()), Kind::Counter);
            for (sink, values) in rows {
                family.push(&[("sink", sink)], values[i]);
            }
        }
        snap
    }

    /// Two snapshots 2 s apart: shard0 busy (1200 arrivals, 75% busy,
    /// 8 s of waits over 1000 dequeues), shard1 idle.
    fn busy_and_idle() -> (Snapshot, Snapshot) {
        let before = snapshot(&[
            ("shard0", [100.0, 98.0, 98.0, 1e9, 2e9]),
            ("shard1", [5.0, 5.0, 5.0, 1e6, 0.0]),
            ("server", [0.0; 5]),
        ]);
        let after = snapshot(&[
            ("shard0", [1300.0, 1098.0, 1096.0, 2.5e9, 10e9]),
            ("shard1", [5.0, 5.0, 5.0, 1e6, 0.0]),
            ("server", [0.0; 5]),
        ]);
        (before, after)
    }

    #[test]
    fn loads_derive_utilization_rates_waits_and_littles_law() {
        let (before, after) = busy_and_idle();
        let first = loads(None, &before, 2.0);
        let sinks: Vec<&str> = first.iter().map(|l| l.sink.as_str()).collect();
        assert_eq!(sinks, ["shard0", "shard1"], "only shard sinks are gates");
        assert_eq!((first[0].depth, first[0].rates), (2, None), "no rates without a prior");

        let l = loads(Some(&before), &after, 2.0);
        assert_eq!((l[0].arrivals, l[0].depth), (1300, 202));
        let r = l[0].rates.unwrap();
        assert!((r.utilization_pct - 75.0).abs() < 1e-9, "{r:?}");
        assert!((r.arrivals_per_sec - 600.0).abs() < 1e-9, "{r:?}");
        assert!((r.completions_per_sec - 499.0).abs() < 1e-9, "{r:?}");
        assert!((r.mean_wait_ns - 8e6).abs() < 1e-3, "8 s of waits over 1000 frames: {r:?}");
        assert!((r.mean_depth - 4.0).abs() < 1e-9, "8 s of waits over 2 s: {r:?}");
        let idle = l[1].rates.unwrap();
        assert_eq!((idle.arrivals_per_sec, idle.mean_wait_ns, idle.mean_depth), (0.0, 0.0, 0.0));
        // W_q = L̄_q / λ = 4 / 600 per s; the idle gate adds nothing.
        let w = littles_wait_ns(&l).unwrap();
        assert!((w - 4.0 / 600.0 * 1e9).abs() < 1.0, "{w}");
        assert_eq!(littles_wait_ns(&first), None);
        assert_eq!(littles_wait_ns(&loads(Some(&after), &after, 2.0)), None, "no arrivals");
    }

    #[test]
    fn sparkline_scales_to_series_max() {
        let s = sparkline(&[0.0, 0.4, 0.8], 32);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'), "{s}");
        assert!(s.ends_with('█'), "{s}");
        // All-zero series stays on the floor instead of dividing by 0.
        assert_eq!(sparkline(&[0.0, 0.0], 32), "▁▁");
        // Only the newest `width` points are shown.
        assert_eq!(sparkline(&[9.0, 9.0, 1.0, 2.0], 2).chars().count(), 2);
        assert_eq!(sparkline(&[], 32), "");
    }

    #[test]
    fn record_keeps_each_intervals_mean_depth() {
        let (before, after) = busy_and_idle();
        let mut history = DepthHistory::new();
        record(&mut history, &loads(None, &before, 1.0));
        assert!(history.is_empty(), "the first frame has no interval");
        for _ in 0..SPARK_WIDTH + 5 {
            record(&mut history, &loads(Some(&before), &after, 2.0));
        }
        assert_eq!(history["shard0"].len(), SPARK_WIDTH);
        assert!(history["shard0"].iter().all(|&d| (d - 4.0).abs() < 1e-9));
        assert_eq!(history["shard1"], vec![0.0; SPARK_WIDTH]);
    }

    #[test]
    fn render_shows_rates_sparkline_and_littles_law_footer() {
        let (before, after) = busy_and_idle();
        let mut history = DepthHistory::new();
        history.insert("shard0".into(), vec![0.0, 2.0, 4.0]);

        let first = render(&before, &loads(None, &before, 1.0), &history, 1.0);
        assert!(first.contains("2 shard gates, rates from the next poll"), "{first}");
        assert!(first.lines().any(|l| l.starts_with("shard0") && l.contains(" - ")), "{first}");
        assert!(first.ends_with("queue wait: W_q from the next poll\n"), "{first}");

        let l = loads(Some(&before), &after, 2.0);
        let untraced = render(&after, &l, &history, 2.0);
        assert!(untraced.contains("rates over the last 2.0s"), "{untraced}");
        let shard0 = untraced.lines().find(|l| l.starts_with("shard0")).unwrap();
        assert!(shard0.contains("75.0") && shard0.contains("8.00ms"), "{untraced}");
        assert!(shard0.contains("202") && shard0.contains('█'), "{untraced}");
        assert!(untraced.contains("W_q 6.67ms (Little's law); no measured"), "{untraced}");
        assert!(untraced.contains("--trace-sample N"), "{untraced}");

        let mut traced = after.clone();
        let tracker = cfg_obs::SloTracker::new(50_000_000, 0.99);
        let mut span = cfg_obs::Span::detached();
        span.stamp_at(cfg_obs::Stage::QueueWait, 6_000_000);
        tracker.observe(&span);
        tracker.export(&mut traced);
        let frame = render(&traced, &l, &history, 2.0);
        let footer = frame.lines().last().unwrap();
        assert!(
            footer.starts_with("queue wait: W_q 6.67ms (Little's law) vs measured mean 6."),
            "{frame}"
        );

        let quiet = render(&after, &loads(Some(&after), &after, 2.0), &history, 2.0);
        assert!(quiet.ends_with("queue wait: no arrivals in the last 2.0s\n"), "{quiet}");
    }

    #[test]
    fn render_without_an_admitted_frame_draws_the_off_frame() {
        // Stream mode's `shard<i>` sinks belong to its line workers, not
        // to gates: they never count an arrival.
        let workers = snapshot(&[("shard0", [0.0; 5]), ("shard1", [0.0; 5])]);
        for snap in [Snapshot::default(), workers] {
            let off = render(&snap, &loads(None, &snap, 1.0), &DepthHistory::new(), 1.0);
            assert!(off.contains("no shard gate has admitted a frame"), "{off}");
            assert!(off.contains("cfgtag serve --listen"), "{off}");
        }
    }
}
