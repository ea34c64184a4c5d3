//! The SLO pipeline: fine-grained latency histograms per serving stage
//! plus error-budget accounting against a configurable objective.
//!
//! The existing [`crate::Histogram`] uses one bucket per power of two —
//! perfect for throughput counters, too coarse for latency quantiles
//! (a p50 can be off by ~50% inside one octave). [`FineHistogram`]
//! subdivides each octave into 16 log-linear sub-buckets, bounding the
//! relative quantile error at ~6% while staying a fixed array of
//! atomics (no allocation on the record path).
//!
//! [`SloTracker`] aggregates every traced frame: one fine histogram per
//! [`Stage`] plus end-to-end, and a latency objective (e.g. "99% of
//! frames under 50 ms") with breach counting. Its snapshot reports
//! p50/p90/p99/p99.9 per stage and how much of the error budget is
//! burnt — `cfgtag watch slo` turns two consecutive snapshots into a burn
//! rate.

use crate::json;
use crate::span::{Span, Stage};
use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave (16).
const SUB: usize = 1 << SUB_BITS;
/// Total buckets: values below 16 get exact buckets, every octave from
/// 2^4 up to 2^63 gets 16 sub-buckets.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index for a value (log-linear: octave, then linear within).
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (msb as u32 - SUB_BITS)) as usize) & (SUB - 1);
    SUB + (msb - SUB_BITS as usize) * SUB + sub
}

/// `[lo, hi)` bounds of bucket `i` (hi saturates at `u64::MAX`).
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64 + 1);
    }
    let octave = (i - SUB) / SUB;
    let sub = ((i - SUB) % SUB) as u64;
    let msb = octave as u32 + SUB_BITS;
    let step = 1u64 << (msb - SUB_BITS);
    let lo = (1u64 << msb) + sub * step;
    (lo, lo.saturating_add(step))
}

/// A lock-free log-linear histogram with ~6% quantile resolution.
#[derive(Debug)]
pub struct FineHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for FineHistogram {
    fn default() -> FineHistogram {
        FineHistogram::new()
    }
}

impl FineHistogram {
    /// An empty histogram.
    pub fn new() -> FineHistogram {
        FineHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy for quantile queries.
    pub fn snapshot(&self) -> FineSnapshot {
        FineSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`FineHistogram`].
#[derive(Debug, Clone)]
pub struct FineSnapshot {
    buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl FineSnapshot {
    /// The `q`-quantile (`0.0..=1.0`), linearly interpolated within the
    /// winning bucket and clamped to the observed max. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                let into = (rank - (seen - n)) as f64 / n as f64;
                let est = lo as f64 + (hi.saturating_sub(lo)) as f64 * into;
                return (est as u64).min(self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

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
    fn from_snapshot(s: &FineSnapshot) -> QuantileSummary {
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

    fn push_json(&self, out: &mut String) {
        out.push_str("{\"count\":");
        out.push_str(&self.count.to_string());
        out.push_str(",\"mean_ns\":");
        json::push_f64(out, self.mean);
        out.push_str(",\"max_ns\":");
        out.push_str(&self.max.to_string());
        out.push_str(",\"p50_ns\":");
        out.push_str(&self.p50.to_string());
        out.push_str(",\"p90_ns\":");
        out.push_str(&self.p90.to_string());
        out.push_str(",\"p99_ns\":");
        out.push_str(&self.p99.to_string());
        out.push_str(",\"p999_ns\":");
        out.push_str(&self.p999.to_string());
        out.push('}');
    }
}

/// Aggregates traced frames against a latency objective.
///
/// `observe` is called once per finished span (by the shard worker,
/// after the ack is written): every stamped stage's duration lands in
/// that stage's histogram, the end-to-end latency in the `e2e`
/// histogram, and the objective comparison bumps the breach counter.
#[derive(Debug)]
pub struct SloTracker {
    objective_ns: u64,
    target: f64,
    stages: Vec<FineHistogram>,
    e2e: FineHistogram,
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
            stages: (0..Stage::COUNT).map(|_| FineHistogram::new()).collect(),
            e2e: FineHistogram::new(),
            total: AtomicU64::new(0),
            breaches: AtomicU64::new(0),
        }
    }

    /// The configured objective, in nanoseconds.
    pub fn objective_ns(&self) -> u64 {
        self.objective_ns
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

impl SloSnapshot {
    /// Observed breach fraction (0 when nothing observed).
    pub fn error_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.breaches as f64 / self.total as f64
        }
    }

    /// Fraction of the error budget consumed: the observed error rate
    /// over the allowed one (`1 - target`). 1.0 means the budget is
    /// exactly spent; above 1.0 the SLO is being violated.
    pub fn budget_consumed(&self) -> f64 {
        self.error_rate() / (1.0 - self.target)
    }

    /// The `/slo.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"objective_ms\":");
        json::push_f64(&mut out, self.objective_ns as f64 / 1e6);
        out.push_str(",\"target\":");
        json::push_f64(&mut out, self.target);
        out.push_str(",\"total\":");
        out.push_str(&self.total.to_string());
        out.push_str(",\"breaches\":");
        out.push_str(&self.breaches.to_string());
        out.push_str(",\"error_rate\":");
        json::push_f64(&mut out, self.error_rate());
        out.push_str(",\"budget_consumed\":");
        json::push_f64(&mut out, self.budget_consumed());
        out.push_str(",\"e2e\":");
        self.e2e.push_json(&mut out);
        out.push_str(",\"stages\":{");
        for (i, (name, summary)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_str(&mut out, name);
            out.push(':');
            summary.push_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn bucket_index_and_bounds_agree() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 65_535, 1 << 30, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && (v < hi || hi == u64::MAX), "v={v} i={i} lo={lo} hi={hi}");
        }
        // Bounds tile the axis without gaps.
        let mut expect_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i} starts where {} ended", i.saturating_sub(1));
            assert!(hi > lo);
            if hi == u64::MAX {
                break;
            }
            expect_lo = hi;
        }
    }

    #[test]
    fn quantiles_are_tight() {
        let h = FineHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        for (q, exact) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
            let got = s.quantile(q) as f64;
            let err = (got - exact).abs() / exact;
            assert!(err < 0.07, "q{q}: got {got}, want ~{exact} (err {err:.3})");
        }
        assert_eq!(s.quantile(1.0), 10_000);
        assert!((s.mean() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = FineHistogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn tracker_attributes_stages_and_counts_breaches() {
        let tracker = SloTracker::new(1_000, 0.99);
        for total in [500u64, 800, 2_000] {
            let mut span = Span::detached();
            span.stamp_at(Stage::QueueWait, total / 2);
            span.stamp_at(Stage::Engine, total * 3 / 4);
            span.stamp_at(Stage::AckWrite, total);
            tracker.observe(&span);
        }
        let snap = tracker.snapshot();
        assert_eq!(snap.total, 3);
        assert_eq!(snap.breaches, 1, "only the 2000ns span breaches the 1000ns objective");
        assert!((snap.error_rate() - 1.0 / 3.0).abs() < 1e-9);
        // Budget: (1/3) / (1 - 0.99) ≈ 33×.
        assert!(snap.budget_consumed() > 30.0);
        assert_eq!(snap.e2e.count, 3);
        let queue = &snap.stages[Stage::QueueWait as usize];
        assert_eq!(queue.0, "queue_wait");
        assert_eq!(queue.1.count, 3);
        let frame_read = &snap.stages[Stage::FrameRead as usize];
        assert_eq!(frame_read.1.count, 0, "unstamped stages record nothing");
    }

    #[test]
    fn slo_json_round_trips() {
        let tracker = SloTracker::new(50_000_000, 0.99);
        let mut span = Span::detached();
        span.stamp_at(Stage::Engine, 1_000);
        span.stamp_at(Stage::AckWrite, 1_500);
        tracker.observe(&span);
        let v = Json::parse(&tracker.snapshot().to_json()).unwrap();
        assert_eq!(v.get("objective_ms").unwrap().as_f64(), Some(50.0));
        assert_eq!(v.get("total").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("breaches").unwrap().as_u64(), Some(0));
        let e2e = v.get("e2e").unwrap();
        assert_eq!(e2e.get("count").unwrap().as_u64(), Some(1));
        assert!(e2e.get("p50_ns").unwrap().as_u64().unwrap() >= 1_400);
        let stages = v.get("stages").unwrap();
        assert_eq!(stages.get("engine").unwrap().get("count").unwrap().as_u64(), Some(1));
        assert_eq!(stages.get("frame_read").unwrap().get("count").unwrap().as_u64(), Some(0));
    }
}
