//! The one histogram: log-linear buckets with ~6% quantile resolution.
//!
//! Each octave is split into 16 linear sub-buckets, so a quantile read
//! back from the buckets is within ~6% of the true value while the
//! histogram stays a fixed array of atomics (no allocation on the
//! record path). Values below 16 get exact buckets. Every latency and
//! size distribution in the workspace — stats-sink histograms, the SLO
//! tracker's per-stage series — records into this type, and `/metrics`
//! renders each bucket under its largest member (`le`, inclusive).

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave (16).
const SUB: usize = 1 << SUB_BITS;
/// Total buckets: values below 16 get exact buckets, every octave from
/// 2^4 up to 2^63 gets 16 sub-buckets.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index for a value (log-linear: octave, then linear within).
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (msb as u32 - SUB_BITS)) as usize) & (SUB - 1);
    SUB + (msb - SUB_BITS as usize) * SUB + sub
}

/// The smallest and the largest member of bucket `i`, both inclusive.
fn bucket_range(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64);
    }
    let octave = (i - SUB) / SUB;
    let sub = ((i - SUB) % SUB) as u64;
    let msb = octave as u32 + SUB_BITS;
    let step = 1u64 << (msb - SUB_BITS);
    let lo = (1u64 << msb) + sub * step;
    (lo, lo + (step - 1))
}

/// A lock-free log-linear histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
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

    /// A point-in-time copy (relaxed loads: consistent enough to read
    /// while other threads keep recording).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> =
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts by bucket index, up to the last non-empty one.
    buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Rebuild a snapshot from `(le, n)` bucket pairs as
    /// [`HistogramSnapshot::buckets`] yields them.
    pub fn from_buckets(
        pairs: impl IntoIterator<Item = (u64, u64)>,
        count: u64,
        sum: u64,
        max: u64,
    ) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot { buckets: Vec::new(), count, sum, max };
        for (le, n) in pairs.into_iter().filter(|(_, n)| *n > 0) {
            let i = bucket_index(le);
            if snap.buckets.len() <= i {
                snap.buckets.resize(i + 1, 0);
            }
            snap.buckets[i] = snap.buckets[i].saturating_add(n);
        }
        snap
    }

    /// The non-empty buckets as `(le, n)`: `le` is the bucket's largest
    /// member, `n` its own (not cumulative) count, in ascending order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (bucket_range(i).1, *n))
    }

    /// The `q`-quantile (`0.0..=1.0`), linearly interpolated within the
    /// winning bucket and clamped to the observed max, so `quantile(1.0)`
    /// is the max. 0 when empty.
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
            seen = seen.saturating_add(n);
            if seen >= rank {
                let (lo, last) = bucket_range(i);
                let into = (rank - (seen - n)) as f64 / n as f64;
                let est = lo as f64 + (last - lo + 1) as f64 * into;
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

    /// Fold another snapshot's observations into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_range_agree() {
        for v in [0u64, 1, 15, 16, 17, 100, 128, 1_000, 65_535, 1 << 30, u64::MAX] {
            let (lo, last) = bucket_range(bucket_index(v));
            assert!(lo <= v && v <= last, "v={v} lo={lo} last={last}");
        }
        // Ranges tile the axis without gaps, up to u64::MAX.
        let mut expect_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, last) = bucket_range(i);
            assert_eq!(lo, expect_lo, "bucket {i}");
            assert!(last >= lo);
            if last == u64::MAX {
                assert_eq!(i, BUCKETS - 1);
                break;
            }
            expect_lo = last + 1;
        }
    }

    #[test]
    fn quantiles_are_tight() {
        let h = Histogram::new();
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
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.buckets().count(), 0);
    }

    #[test]
    fn buckets_round_trip_and_merge() {
        let h = Histogram::new();
        for v in [3u64, 128, 700, 700, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let pairs: Vec<(u64, u64)> = s.buckets().collect();
        assert_eq!(pairs.first(), Some(&(3, 1)));
        assert_eq!(pairs.last(), Some(&(u64::MAX, 1)));
        let back = HistogramSnapshot::from_buckets(pairs, s.count, s.sum, s.max);
        assert_eq!(back.buckets().collect::<Vec<_>>(), s.buckets().collect::<Vec<_>>());
        assert_eq!(back.quantile(0.5), s.quantile(0.5));

        let mut merged = HistogramSnapshot::default();
        merged.merge(&s);
        merged.merge(&HistogramSnapshot::default());
        assert_eq!(merged, s);
        merged.merge(&s);
        assert_eq!((merged.count, merged.max), (10, u64::MAX));
    }
}
