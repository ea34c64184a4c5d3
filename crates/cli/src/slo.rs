//! `cfgtag watch slo` — an SLO dashboard over a traced ingest server.
//!
//! Renders the SLO tracker's families of a registry [`Snapshot`]
//! ([`render`]): the latency objective, the error budget, and a
//! per-stage waterfall — p50/p90/p99/p99.9 per serving stage
//! (`cfgtag_srv_stage_ns`) plus each stage's share of the end-to-end
//! p50 (`cfgtag_srv_span_ns`), so queue-wait vs. engine vs. ack-write
//! attribution is readable at a glance. Burn rate comes from diffing two
//! consecutive polls.

use crate::CliError;
use cfg_obs::{HistogramSnapshot, Snapshot};
use std::fmt::Write as _;

/// Format nanoseconds for humans: `850ns`, `12.3µs`, `4.56ms`, `1.20s`.
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// `(frames, breaches)` observed so far, when the snapshot carries an
/// SLO tracker.
fn frames(snap: &Snapshot) -> Option<(u64, u64)> {
    let frames = snap.value("cfgtag_slo_frames_total", &[])?;
    Some((frames as u64, snap.value("cfgtag_slo_breaches_total", &[])? as u64))
}

/// Render one `slo` frame: objective health, budget burn (rate vs
/// `prev` over `dt_secs`), and the per-stage latency waterfall. A
/// snapshot without an SLO tracker is an error naming the flag that
/// attaches one.
pub fn render(prev: Option<&Snapshot>, cur: &Snapshot, dt_secs: f64) -> Result<String, CliError> {
    let (Some((total, breaches)), Some(e2e)) =
        (frames(cur), cur.histogram("cfgtag_srv_span_ns", &[]))
    else {
        return Err(CliError::new(
            "no SLO tracker attached (serve --listen with --trace-sample N)",
            1,
        ));
    };
    let target = cur.value("cfgtag_slo_target", &[]).unwrap_or(0.0);
    let objective_ms = cur.value("cfgtag_slo_objective_ns", &[]).unwrap_or(0.0) / 1e6;
    let allowed = (1.0 - target).max(1e-9);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cfgtag slo — objective p{:.4$} < {:.2}ms   frames {}   breaches {}",
        target * 100.0,
        objective_ms,
        total,
        breaches,
        if (target * 1000.0) % 10.0 == 0.0 { 0 } else { 1 },
    );
    // Burn rate 1.0 = consuming budget exactly as fast as the
    // objective allows; >1 = burning towards exhaustion. With no prior
    // poll — or an idle window with zero new frames — there is no rate
    // to compute, so the dashboard shows `-` instead of a made-up 0x.
    let window_burn = prev.and_then(frames).and_then(|(p_total, p_breaches)| {
        let frames = total.saturating_sub(p_total);
        let breaches = breaches.saturating_sub(p_breaches);
        (frames > 0).then(|| (breaches as f64 / frames as f64) / allowed)
    });
    let consumed = if total == 0 { 0.0 } else { breaches as f64 / total as f64 / allowed };
    let _ = write!(out, "error budget: {:5.1}% consumed", consumed * 100.0);
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
    let e2e_p50 = e2e.quantile(0.5).max(1);
    let row = |out: &mut String, name: &str, h: &HistogramSnapshot, bar: String| {
        let [p50, p90, p99, p999] = [0.5, 0.9, 0.99, 0.999].map(|q| fmt_ns(h.quantile(q)));
        let _ =
            writeln!(out, "{name:<16} {p50:>9} {p90:>9} {p99:>9} {p999:>9} {:>7}  {bar}", h.count);
    };
    for s in cur.get("cfgtag_srv_stage_ns").map_or(&[][..], |f| &f.series) {
        let (Some(name), Some(h)) = (s.label("stage"), s.histogram()) else { continue };
        // 24 columns = 100% of the end-to-end p50.
        let share = h.quantile(0.5) as f64 / e2e_p50 as f64;
        let cols = (share * 24.0).round() as usize;
        row(&mut out, name, h, format!("{:<24} {:5.1}%", "#".repeat(cols.min(24)), share * 100.0));
    }
    row(&mut out, "e2e", e2e, String::new());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfg_obs::{SloTracker, Span, Stage};

    /// A tracker's snapshot after `frames` frames, `slow` of them over
    /// the 50 ms objective. Every frame spends 5 µs reading, 60 µs
    /// queued, 30 µs in the engine and 5 µs writing its ack.
    fn snapshot(frames: u64, slow: u64) -> Snapshot {
        let tracker = SloTracker::new(50_000_000, 0.99);
        for i in 0..frames {
            let mut span = Span::detached();
            span.stamp_at(Stage::FrameRead, 5_000);
            span.stamp_at(Stage::QueueWait, 65_000);
            span.stamp_at(Stage::Engine, 95_000);
            span.stamp_at(Stage::AckWrite, if i < slow { 60_000_000 } else { 100_000 });
            tracker.observe(&span);
        }
        let mut snap = Snapshot::default();
        tracker.export(&mut snap);
        snap
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
        let t0 = snapshot(1000, 10);
        let t1 = snapshot(2000, 110);
        let frame = render(Some(&t0), &t1, 2.0).unwrap();
        assert!(frame.contains("objective p99 < 50.00ms   frames 2000   breaches 110"), "{frame}");
        // 100 breaches over 1000 frames against a 1% budget: 10x burn.
        assert!(frame.contains("burn rate 10.00x"), "{frame}");
        // The waterfall attributes queue-wait as the dominant stage:
        // about 60µs of a 100µs e2e p50 (log-linear buckets, ~6%).
        let queue_line = frame.lines().find(|l| l.starts_with("queue_wait")).unwrap();
        assert!(queue_line.contains("µs") && queue_line.contains("2000"), "{frame}");
        let share: f64 =
            queue_line.split_whitespace().last().unwrap().trim_end_matches('%').parse().unwrap();
        assert!((55.0..=66.0).contains(&share), "{frame}");
        assert!(frame.lines().any(|l| l.starts_with("e2e")), "{frame}");
        // First frame has no previous sample: burn rate defers.
        let first = render(None, &t0, 1.0).unwrap();
        assert!(first.contains("burn rate -"), "{first}");
        assert!(!first.contains("0.00x"), "first poll must not fake a rate: {first}");
    }

    #[test]
    fn render_burn_rate_dashes_on_idle_window() {
        // Two polls with identical totals: no frames arrived in the
        // window, so there is no rate — not a 0.00x, not a NaN.
        let t0 = snapshot(1000, 10);
        let frame = render(Some(&t0), &t0, 1.0).unwrap();
        assert!(frame.contains("burn rate -"), "{frame}");
        assert!(!frame.contains("NaN") && !frame.contains("0.00x"), "{frame}");
    }

    #[test]
    fn an_untraced_snapshot_names_the_flag() {
        let e = render(None, &Snapshot::default(), 1.0).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("--trace-sample N"), "{e}");
    }
}
