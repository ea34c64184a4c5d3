//! The SLO pipeline: a latency histogram per serving stage plus
//! error-budget accounting against a latency objective.
//!
//! [`SloTracker`] aggregates every traced frame: one [`Histogram`] per
//! [`Stage`] plus end-to-end, and a latency objective ("99% of frames
//! under 50 ms") with breach counting. [`SloTracker::snapshot`] reports
//! count/mean/max/p50/p90/p99/p99.9 per stage; [`SloTracker::export`]
//! writes the same histograms into the registry snapshot, where
//! `cfgtag watch slo` reads them and turns two consecutive polls into a
//! burn rate.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::snapshot::{Kind, Snapshot};
use crate::span::{Span, Stage};
use std::sync::atomic::{AtomicU64, Ordering};

/// p50/p90/p99/p99.9 plus count, mean and max for one latency series.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSummary {
    /// Observations in the series.
    pub count: u64,
    /// Mean, in the series' unit (nanoseconds on the serving path).
    pub mean: f64,
    /// Largest observation.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl QuantileSummary {
    fn from_snapshot(s: &HistogramSnapshot) -> QuantileSummary {
        QuantileSummary {
            count: s.count,
            mean: s.mean(),
            max: s.max,
            p50: s.quantile(0.50),
            p90: s.quantile(0.90),
            p99: s.quantile(0.99),
            p999: s.quantile(0.999),
        }
    }
}

/// Aggregates traced frames against a latency objective.
///
/// `observe` is called once per finished span (by the connection thread,
/// after the ack is written): every stamped stage's duration lands in
/// that stage's histogram, the end-to-end latency in the `e2e`
/// histogram, and the objective comparison bumps the breach counter.
#[derive(Debug)]
pub struct SloTracker {
    objective_ns: u64,
    target: f64,
    stages: Vec<Histogram>,
    e2e: Histogram,
    total: AtomicU64,
    breaches: AtomicU64,
}

impl SloTracker {
    /// A tracker with objective "`target` of frames finish within
    /// `objective_ns`". `target` is a fraction, e.g. `0.99`.
    pub fn new(objective_ns: u64, target: f64) -> SloTracker {
        SloTracker {
            objective_ns: objective_ns.max(1),
            target: target.clamp(0.0, 0.9999),
            stages: (0..Stage::COUNT).map(|_| Histogram::new()).collect(),
            e2e: Histogram::new(),
            total: AtomicU64::new(0),
            breaches: AtomicU64::new(0),
        }
    }

    /// Fold one finished span into the histograms.
    pub fn observe(&self, span: &Span) {
        for stage in Stage::ALL {
            if let Some(ns) = span.stage_ns(stage) {
                self.stages[stage as usize].record(ns);
            }
        }
        let total = span.total_ns();
        self.e2e.record(total);
        self.total.fetch_add(1, Ordering::Relaxed);
        if total > self.objective_ns {
            self.breaches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Write the tracker's families into `snap`: the objective and
    /// target gauges, the frames and breaches counters, end-to-end
    /// latency (`cfgtag_srv_span_ns`) and per-stage latency
    /// (`cfgtag_srv_stage_ns`, its `stage` label a [`Stage::name`]) —
    /// perfbench's `srv_span_us` and `srv_<stage>_us`, in nanoseconds.
    pub fn export(&self, snap: &mut Snapshot) {
        snap.push("cfgtag_slo_objective_ns", Kind::Gauge).push(&[], self.objective_ns as f64);
        snap.push("cfgtag_slo_target", Kind::Gauge).push(&[], self.target);
        let total = self.total.load(Ordering::Relaxed) as f64;
        snap.push("cfgtag_slo_frames_total", Kind::Counter).push(&[], total);
        let breaches = self.breaches.load(Ordering::Relaxed) as f64;
        snap.push("cfgtag_slo_breaches_total", Kind::Counter).push(&[], breaches);
        snap.push("cfgtag_srv_span_ns", Kind::Histogram).push_histogram(&[], self.e2e.snapshot());
        let stages = snap.push("cfgtag_srv_stage_ns", Kind::Histogram);
        for stage in Stage::ALL {
            stages
                .push_histogram(&[("stage", stage.name())], self.stages[stage as usize].snapshot());
        }
    }

    /// A point-in-time summary of everything observed so far.
    pub fn snapshot(&self) -> SloSnapshot {
        SloSnapshot {
            objective_ns: self.objective_ns,
            target: self.target,
            total: self.total.load(Ordering::Relaxed),
            breaches: self.breaches.load(Ordering::Relaxed),
            e2e: QuantileSummary::from_snapshot(&self.e2e.snapshot()),
            stages: Stage::ALL
                .iter()
                .map(|&s| {
                    (s.name(), QuantileSummary::from_snapshot(&self.stages[s as usize].snapshot()))
                })
                .collect(),
        }
    }
}

/// What [`SloTracker::snapshot`] reports.
#[derive(Debug, Clone)]
pub struct SloSnapshot {
    /// The latency objective, in nanoseconds.
    pub objective_ns: u64,
    /// The fraction of frames that must meet the objective.
    pub target: f64,
    /// Frames observed.
    pub total: u64,
    /// Frames that exceeded the objective.
    pub breaches: u64,
    /// End-to-end latency summary.
    pub e2e: QuantileSummary,
    /// Per-stage summaries, in [`Stage::ALL`] order.
    pub stages: Vec<(&'static str, QuantileSummary)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker_with(totals: &[u64]) -> SloTracker {
        let tracker = SloTracker::new(1_000, 0.99);
        for &total in totals {
            let mut span = Span::detached();
            span.stamp_at(Stage::QueueWait, total / 2);
            span.stamp_at(Stage::Engine, total * 3 / 4);
            span.stamp_at(Stage::AckWrite, total);
            tracker.observe(&span);
        }
        tracker
    }

    #[test]
    fn tracker_attributes_stages_and_counts_breaches() {
        let snap = tracker_with(&[500, 800, 2_000]).snapshot();
        assert_eq!(snap.total, 3);
        assert_eq!(snap.breaches, 1, "only the 2000ns span breaches the 1000ns objective");
        assert_eq!(snap.e2e.count, 3);
        assert_eq!(snap.e2e.max, 2_000);
        let queue = &snap.stages[Stage::QueueWait as usize];
        assert_eq!(queue.0, "queue_wait");
        assert_eq!(queue.1.count, 3);
        let frame_read = &snap.stages[Stage::FrameRead as usize];
        assert_eq!(frame_read.1.count, 0, "unstamped stages record nothing");
    }

    #[test]
    fn export_writes_objective_counts_and_stage_histograms() {
        let mut snap = Snapshot::default();
        tracker_with(&[500, 800, 2_000]).export(&mut snap);
        assert_eq!(snap.value("cfgtag_slo_objective_ns", &[]), Some(1_000.0));
        assert_eq!(snap.value("cfgtag_slo_target", &[]), Some(0.99));
        assert_eq!(snap.value("cfgtag_slo_frames_total", &[]), Some(3.0));
        assert_eq!(snap.value("cfgtag_slo_breaches_total", &[]), Some(1.0));
        let e2e = snap.histogram("cfgtag_srv_span_ns", &[]).unwrap();
        assert_eq!((e2e.count, e2e.sum, e2e.max), (3, 3_300, 2_000));
        for stage in Stage::ALL {
            let h = snap.histogram("cfgtag_srv_stage_ns", &[("stage", stage.name())]).unwrap();
            let stamped = matches!(stage, Stage::QueueWait | Stage::Engine | Stage::AckWrite);
            assert_eq!(h.count, if stamped { 3 } else { 0 }, "{}", stage.name());
        }
    }
}
