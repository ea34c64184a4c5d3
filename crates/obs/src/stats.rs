//! The recording sink: counters, token fires and histograms. A span
//! timing is one more histogram observation under the span's name.
//! Trace events belong to the flight ring ([`crate::FlightRecorder`]),
//! so this sink keeps none.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::sink::{MetricsSink, Stat};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A sink that actually records.
///
/// Counters and token fires are plain relaxed atomics (lock-free);
/// histograms take a `Mutex` but sit on per-message or per-stage
/// paths, never per-byte ones.
#[derive(Debug)]
pub struct StatsSink {
    counters: [AtomicU64; Stat::COUNT],
    token_fires: Vec<AtomicU64>,
    histograms: Mutex<Vec<(&'static str, Histogram)>>,
}

impl Default for StatsSink {
    fn default() -> Self {
        StatsSink::new()
    }
}

impl StatsSink {
    /// A sink with no per-token counters.
    pub fn new() -> StatsSink {
        StatsSink::with_tokens(0)
    }

    /// A sink tracking per-token fire counts for token indices
    /// `0..tokens`; fires of out-of-range indices only bump the
    /// aggregate counter.
    pub fn with_tokens(tokens: usize) -> StatsSink {
        StatsSink {
            counters: [(); Stat::COUNT].map(|_| AtomicU64::new(0)),
            token_fires: (0..tokens).map(|_| AtomicU64::new(0)).collect(),
            histograms: Mutex::new(Vec::new()),
        }
    }

    /// Current value of one counter.
    pub fn get(&self, stat: Stat) -> u64 {
        self.counters[stat as usize].load(Ordering::Relaxed)
    }

    /// Current fire count of one token (0 if untracked).
    pub fn token_fires(&self, index: u32) -> u64 {
        self.token_fires.get(index as usize).map(|c| c.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Take a plain-data snapshot of everything recorded so far.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            counters: Stat::ALL.iter().map(|s| (s.name(), self.get(*s))).collect(),
            token_fires: self.token_fires.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(name, h)| (*name, h.snapshot()))
                .collect(),
        }
    }
}

impl MetricsSink for StatsSink {
    fn add(&self, stat: Stat, n: u64) {
        self.counters[stat as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn token_fire(&self, index: u32, n: u64) {
        self.counters[Stat::EventsOut as usize].fetch_add(n, Ordering::Relaxed);
        if let Some(c) = self.token_fires.get(index as usize) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn observe(&self, hist: &'static str, value: u64) {
        let mut hists = self.histograms.lock().unwrap();
        if let Some((_, h)) = hists.iter().find(|(name, _)| *name == hist) {
            h.record(value);
        } else {
            let h = Histogram::new();
            h.record(value);
            hists.push((hist, h));
        }
    }

    fn time(&self, span: &'static str, nanos: u64) {
        self.observe(span, nanos);
    }

    fn wants_trace(&self) -> bool {
        false
    }
}

/// Plain-data view of a [`StatsSink`], suitable for rendering.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// `(name, value)` for every [`Stat`], in index order.
    pub counters: Vec<(&'static str, u64)>,
    /// Fire count per token index.
    pub token_fires: Vec<u64>,
    /// Named histograms (span timings included), in first-use order.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl StatsSnapshot {
    /// An all-zero snapshot covering every [`Stat`] — the identity
    /// element for [`StatsSnapshot::merge`].
    pub fn empty() -> StatsSnapshot {
        StatsSnapshot {
            counters: Stat::ALL.iter().map(|s| (s.name(), 0)).collect(),
            token_fires: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Look up a counter by its [`Stat`] name.
    pub fn counter(&self, stat: Stat) -> u64 {
        self.counters.iter().find(|(name, _)| *name == stat.name()).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Fold another snapshot into this one: counters and per-token
    /// fires add element-wise (the fire vector grows to the longer of
    /// the two) and histograms merge by name.
    /// Point-in-time merged views over many sinks are built by folding
    /// from [`StatsSnapshot::empty`].
    pub fn merge(&mut self, other: &StatsSnapshot) {
        for (name, v) in &other.counters {
            if let Some((_, mine)) = self.counters.iter_mut().find(|(n, _)| n == name) {
                *mine += *v;
            } else {
                self.counters.push((name, *v));
            }
        }
        if other.token_fires.len() > self.token_fires.len() {
            self.token_fires.resize(other.token_fires.len(), 0);
        }
        for (mine, theirs) in self.token_fires.iter_mut().zip(other.token_fires.iter()) {
            *mine += *theirs;
        }
        for (name, h) in &other.histograms {
            if let Some((_, mine)) = self.histograms.iter_mut().find(|(n, _)| n == name) {
                mine.merge(h);
            } else {
                self.histograms.push((name, h.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = StatsSink::new();
        s.add(Stat::BytesIn, 100);
        s.add(Stat::BytesIn, 28);
        s.add(Stat::Resyncs, 1);
        assert_eq!(s.get(Stat::BytesIn), 128);
        assert_eq!(s.get(Stat::Resyncs), 1);
        assert_eq!(s.get(Stat::EventsOut), 0);
    }

    #[test]
    fn token_fires_tracked_and_aggregated() {
        let s = StatsSink::with_tokens(4);
        s.token_fire(0, 2);
        s.token_fire(3, 1);
        s.token_fire(99, 5); // out of range: aggregate only
        assert_eq!(s.token_fires(0), 2);
        assert_eq!(s.token_fires(3), 1);
        assert_eq!(s.token_fires(99), 0);
        assert_eq!(s.get(Stat::EventsOut), 8);
    }

    #[test]
    fn snapshot_holds_counters_fires_and_timings_as_histograms() {
        let s = StatsSink::with_tokens(2);
        s.add(Stat::BytesIn, 7);
        s.token_fire(1, 3);
        s.observe("latency", 10);
        s.time("compile", 1234);
        s.time("compile", 766);
        let snap = s.snapshot();
        assert_eq!(snap.counter(Stat::BytesIn), 7);
        assert_eq!(snap.token_fires, vec![0, 3]);
        assert_eq!(snap.histogram("latency").unwrap().count, 1);
        let compile = snap.histogram("compile").unwrap();
        assert_eq!((compile.count, compile.sum, compile.max), (2, 2000, 1234));
    }

    #[test]
    fn snapshot_merge_folds_counters_fires_and_histograms() {
        let a = StatsSink::with_tokens(2);
        a.add(Stat::BytesIn, 10);
        a.token_fire(0, 1);
        a.observe("lat", 4);
        let b = StatsSink::with_tokens(3);
        b.add(Stat::BytesIn, 5);
        b.add(Stat::Resyncs, 2);
        b.token_fire(2, 7);
        b.observe("lat", 8);
        b.observe("other", 1);
        let mut m = StatsSnapshot::empty();
        m.merge(&a.snapshot());
        m.merge(&b.snapshot());
        assert_eq!(m.counter(Stat::BytesIn), 15);
        assert_eq!(m.counter(Stat::Resyncs), 2);
        assert_eq!(m.token_fires, vec![1, 0, 7]);
        assert_eq!(m.histogram("lat").unwrap().count, 2);
        assert_eq!(m.histogram("lat").unwrap().sum, 12);
        assert_eq!(m.histogram("other").unwrap().count, 1);
        assert!(m.histogram("missing").is_none());
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let s = Arc::new(StatsSink::with_tokens(1));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.add(Stat::BytesIn, 1);
                        s.token_fire(0, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.get(Stat::BytesIn), 4000);
        assert_eq!(s.token_fires(0), 4000);
        assert_eq!(s.get(Stat::EventsOut), 4000);
    }
}
