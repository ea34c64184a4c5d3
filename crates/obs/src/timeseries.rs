//! Saturation time series: per-shard load accounting plus a fixed ring
//! of periodic snapshots.
//!
//! The span pipeline says how long one frame waited in a shard queue;
//! this module says *why* — what the shard's workers were doing with
//! their time while the queue filled. A [`ShardLoadBank`] holds one
//! [`ShardLoad`] per shard: monotonic arrival/dequeue/completion
//! counters and cumulative busy nanoseconds, all relaxed atomics the
//! submit path and worker loop bump only when a bank is attached (an
//! unattached pool takes a `None` branch per message and reads no
//! clock).
//!
//! A [`TimeSeries`] snapshots the bank on a configurable interval into
//! an [`EventRing`] of [`TickSnapshot`]s — the raw dump behind
//! `/timeseries.json` — and derives per-shard [`ShardGauge`]s over the
//! ring's window: utilization %, arrival/service rates, and a
//! Little's-law predicted queue wait (`W_q = L̄_q / λ`) — exported as
//! the `cfgtag_shard_*` gauges — that `cfgtag watch shards` puts next to
//! the *measured* mean `queue_wait` of the SLO tracker. When the two
//! agree, queueing theory explains the latency; when they diverge,
//! something other than steady-state saturation (bursts, a stalled
//! worker) is going on.

use crate::json;
use crate::ring::EventRing;
use crate::snapshot::{Kind, Snapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Monotonic load counters for one shard. All relaxed atomics: the
/// writers are one submit path and one worker thread, the reader is the
/// sampler, and every field is a cumulative count — exactness at a
/// sampling instant is not required, monotonicity is.
#[derive(Debug, Default)]
pub struct ShardLoad {
    arrivals: AtomicU64,
    dequeues: AtomicU64,
    completions: AtomicU64,
    busy_ns: AtomicU64,
}

impl ShardLoad {
    fn sample(&self) -> ShardSample {
        let arrivals = self.arrivals.load(Ordering::Relaxed);
        let dequeues = self.dequeues.load(Ordering::Relaxed);
        ShardSample {
            queue_depth: arrivals.saturating_sub(dequeues),
            arrivals,
            completions: self.completions.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

/// One shard's counters at a sampling instant. Queue depth is derived
/// (`arrivals - dequeues`) so the counters themselves stay monotonic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardSample {
    /// Messages accepted but not yet picked up by the worker.
    pub queue_depth: u64,
    /// Messages accepted onto the shard's queue, ever.
    pub arrivals: u64,
    /// Messages fully processed (a caught panic dequeues but does not
    /// complete).
    pub completions: u64,
    /// Cumulative worker time spent inside the handler.
    pub busy_ns: u64,
}

impl ShardSample {
    /// Fuse two shards' samples into a pool-wide view: counters and
    /// depths sum.
    pub fn merge(&self, other: &ShardSample) -> ShardSample {
        ShardSample {
            queue_depth: self.queue_depth + other.queue_depth,
            arrivals: self.arrivals + other.arrivals,
            completions: self.completions + other.completions,
            busy_ns: self.busy_ns + other.busy_ns,
        }
    }
}

/// The per-shard load counters, plus the epoch every snapshot
/// timestamp is relative to.
#[derive(Debug)]
pub struct ShardLoadBank {
    shards: Vec<ShardLoad>,
    epoch: Instant,
}

impl ShardLoadBank {
    /// A bank for `shards` shards (clamped to at least one).
    pub fn new(shards: usize) -> ShardLoadBank {
        ShardLoadBank {
            shards: (0..shards.max(1)).map(|_| ShardLoad::default()).collect(),
            epoch: Instant::now(),
        }
    }

    /// Number of shards tracked.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// A message was accepted onto shard `i`'s queue.
    pub fn arrive(&self, i: usize) {
        if let Some(s) = self.shards.get(i) {
            s.arrivals.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Shard `i`'s worker picked a message up.
    pub fn dequeue(&self, i: usize) {
        if let Some(s) = self.shards.get(i) {
            s.dequeues.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Shard `i`'s worker spent `busy_ns` in the handler; `completed`
    /// is false when the handler panicked (busy time still counts —
    /// the worker was not idle — but the message was not served).
    pub fn record_work(&self, i: usize, busy_ns: u64, completed: bool) {
        if let Some(s) = self.shards.get(i) {
            s.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
            if completed {
                s.completions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Nanoseconds since the bank was created — the timestamp base for
    /// every [`TickSnapshot`].
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Point-in-time samples of every shard, in shard order.
    pub fn sample(&self) -> Vec<ShardSample> {
        self.shards.iter().map(ShardLoad::sample).collect()
    }
}

/// One periodic snapshot: when it was taken (nanoseconds since the
/// bank's epoch) and every shard's counters at that instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickSnapshot {
    /// Nanoseconds since the bank epoch.
    pub t_ns: u64,
    /// Per-shard samples, in shard order.
    pub shards: Vec<ShardSample>,
}

impl TickSnapshot {
    /// All shards fused into one pool-wide sample.
    pub fn merged(&self) -> ShardSample {
        self.shards.iter().fold(ShardSample::default(), |acc, s| acc.merge(s))
    }
}

/// Derived rates for one shard over a snapshot window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardGauge {
    /// Shard index.
    pub shard: usize,
    /// Queue depth at the window's end.
    pub queue_depth: u64,
    /// Worker busy time as a percentage of the window's wall time,
    /// clamped to `[0, 100]`.
    pub utilization_pct: f64,
    /// Messages accepted per second over the window.
    pub arrivals_per_sec: f64,
    /// Messages completed per second over the window.
    pub completions_per_sec: f64,
    /// Little's-law predicted queue wait: mean queue depth over the
    /// window divided by the arrival rate (`W_q = L̄_q / λ`), in
    /// nanoseconds. Zero when nothing arrived.
    pub predicted_wait_ns: f64,
}

/// Derive per-shard gauges from a snapshot window (oldest tick first).
/// Needs at least two ticks; fewer yield an empty vector.
pub fn derive_gauges(window: &[TickSnapshot]) -> Vec<ShardGauge> {
    let (Some(first), Some(last)) = (window.first(), window.last()) else {
        return Vec::new();
    };
    let dt_ns = last.t_ns.saturating_sub(first.t_ns);
    if dt_ns == 0 {
        return Vec::new();
    }
    let dt_secs = dt_ns as f64 / 1e9;
    let shards = first.shards.len().min(last.shards.len());
    (0..shards)
        .map(|i| {
            let (a, b) = (&first.shards[i], &last.shards[i]);
            let busy = b.busy_ns.saturating_sub(a.busy_ns);
            let arrivals = b.arrivals.saturating_sub(a.arrivals);
            let completions = b.completions.saturating_sub(a.completions);
            let mean_depth =
                window.iter().filter_map(|t| t.shards.get(i)).map(|s| s.queue_depth).sum::<u64>()
                    as f64
                    / window.len() as f64;
            let arrival_rate = arrivals as f64 / dt_secs;
            ShardGauge {
                shard: i,
                queue_depth: b.queue_depth,
                utilization_pct: (busy as f64 / dt_ns as f64 * 100.0).clamp(0.0, 100.0),
                arrivals_per_sec: arrival_rate,
                completions_per_sec: completions as f64 / dt_secs,
                predicted_wait_ns: if arrivals == 0 {
                    0.0
                } else {
                    mean_depth / arrival_rate * 1e9
                },
            }
        })
        .collect()
}

/// A bounded ring of [`TickSnapshot`]s over one [`ShardLoadBank`] —
/// the store behind `/timeseries.json` and the `cfgtag_shard_*` gauges.
#[derive(Debug)]
pub struct TimeSeries {
    bank: Arc<ShardLoadBank>,
    interval: Duration,
    ring: EventRing<TickSnapshot>,
}

impl TimeSeries {
    /// A ring of at most `capacity` snapshots (clamped to at least
    /// two — gauges need a window), sampled every `interval` by
    /// [`TimeSeries::start_sampler`].
    pub fn new(bank: Arc<ShardLoadBank>, capacity: usize, interval: Duration) -> TimeSeries {
        TimeSeries { bank, interval, ring: EventRing::new(capacity.max(2)) }
    }

    /// The bank this series samples.
    pub fn bank(&self) -> &Arc<ShardLoadBank> {
        &self.bank
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Snapshots currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no snapshots yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Take one snapshot of the bank now and push it, evicting the
    /// oldest once the ring is full.
    pub fn sample_now(&self) {
        self.push(TickSnapshot { t_ns: self.bank.elapsed_ns(), shards: self.bank.sample() });
    }

    /// Push an explicit snapshot — the deterministic entry point unit
    /// tests use in place of the wall clock.
    pub fn push(&self, tick: TickSnapshot) {
        self.ring.push(tick);
    }

    /// The retained snapshots, oldest first.
    pub fn ticks(&self) -> Vec<TickSnapshot> {
        self.ring.entries().into_iter().map(|(_, tick)| tick).collect()
    }

    /// Derived per-shard gauges over the retained window. With fewer
    /// than two snapshots there is no window yet: depths come straight
    /// from the live bank and every rate is zero.
    pub fn gauges(&self) -> Vec<ShardGauge> {
        self.gauges_over(&self.ticks())
    }

    fn gauges_over(&self, ticks: &[TickSnapshot]) -> Vec<ShardGauge> {
        let derived = derive_gauges(ticks);
        if !derived.is_empty() {
            return derived;
        }
        self.bank
            .sample()
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardGauge {
                shard,
                queue_depth: s.queue_depth,
                utilization_pct: 0.0,
                arrivals_per_sec: 0.0,
                completions_per_sec: 0.0,
                predicted_wait_ns: 0.0,
            })
            .collect()
    }

    /// The `/timeseries.json` body: the ring dump, oldest snapshot
    /// first. An empty ring renders `"samples":[]`, never an error.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"interval_ms\":");
        out.push_str(&self.interval.as_millis().to_string());
        out.push_str(",\"samples\":[");
        for (i, tick) in self.ticks().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"t_ms\":");
            out.push_str(&(tick.t_ns / 1_000_000).to_string());
            out.push_str(",\"shards\":[");
            for (j, s) in tick.shards.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json::object_u64(&[
                    ("queue_depth", s.queue_depth),
                    ("arrivals", s.arrivals),
                    ("completions", s.completions),
                    ("busy_ns", s.busy_ns),
                ]));
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }

    /// Write the `cfgtag_shard_*` gauges: the window the rates were
    /// derived over (`cfgtag_shard_window_ms`), then per shard (`shard`
    /// label) queue depth, utilization %, arrival and completion rates
    /// and the Little's-law predicted queue wait.
    pub fn export(&self, snap: &mut Snapshot) {
        let ticks = self.ticks();
        let window_ms = match (ticks.first(), ticks.last()) {
            (Some(a), Some(b)) => b.t_ns.saturating_sub(a.t_ns) / 1_000_000,
            _ => 0,
        };
        snap.push("cfgtag_shard_window_ms", Kind::Gauge).push(&[], window_ms as f64);
        let gauges = self.gauges_over(&ticks);
        let mut gauge = |name: &str, read: fn(&ShardGauge) -> f64| {
            let family = snap.push(name, Kind::Gauge);
            for g in &gauges {
                family.push(&[("shard", &g.shard.to_string())], read(g));
            }
        };
        gauge("cfgtag_shard_queue_depth", |g| g.queue_depth as f64);
        gauge("cfgtag_shard_utilization_pct", |g| g.utilization_pct);
        gauge("cfgtag_shard_arrivals_per_sec", |g| g.arrivals_per_sec);
        gauge("cfgtag_shard_completions_per_sec", |g| g.completions_per_sec);
        gauge("cfgtag_shard_predicted_wait_ns", |g| g.predicted_wait_ns);
    }

    /// Spawn the sampler thread: one [`TimeSeries::sample_now`] per
    /// interval until the handle is stopped (or dropped).
    pub fn start_sampler(self: &Arc<Self>) -> SamplerHandle {
        let series = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let interval = self.interval;
        let handle = std::thread::Builder::new()
            .name("cfgtag-saturation".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    series.sample_now();
                }
            })
            .expect("spawn saturation sampler");
        SamplerHandle { stop, handle: Some(handle) }
    }
}

/// A running time-series sampler thread; stop it explicitly or by drop.
#[derive(Debug)]
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl SamplerHandle {
    /// Stop sampling and join the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(t_ms: u64, shards: &[(u64, u64, u64, u64)]) -> TickSnapshot {
        TickSnapshot {
            t_ns: t_ms * 1_000_000,
            shards: shards
                .iter()
                .map(|&(queue_depth, arrivals, completions, busy_ns)| ShardSample {
                    queue_depth,
                    arrivals,
                    completions,
                    busy_ns,
                })
                .collect(),
        }
    }

    fn series(capacity: usize) -> TimeSeries {
        TimeSeries::new(Arc::new(ShardLoadBank::new(2)), capacity, Duration::from_millis(10))
    }

    #[test]
    fn bank_counts_and_derives_depth() {
        let bank = ShardLoadBank::new(2);
        bank.arrive(0);
        bank.arrive(0);
        bank.arrive(1);
        bank.dequeue(0);
        bank.record_work(0, 500, true);
        bank.record_work(1, 300, false);
        let s = bank.sample();
        assert_eq!(s[0], ShardSample { queue_depth: 1, arrivals: 2, completions: 1, busy_ns: 500 });
        assert_eq!(s[1], ShardSample { queue_depth: 1, arrivals: 1, completions: 0, busy_ns: 300 });
        // Out-of-range shard indices are ignored, not panics.
        bank.arrive(9);
        bank.dequeue(9);
        bank.record_work(9, 1, true);
        assert_eq!(bank.sample().len(), 2);
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_newest() {
        let ts = series(3);
        for i in 0..7u64 {
            ts.push(tick(i, &[(0, i, i, 0)]));
        }
        let ticks = ts.ticks();
        assert_eq!(ticks.len(), 3);
        let t_ms: Vec<u64> = ticks.iter().map(|t| t.t_ns / 1_000_000).collect();
        assert_eq!(t_ms, vec![4, 5, 6], "oldest snapshots evicted first");
    }

    #[test]
    fn live_snapshots_are_monotonic() {
        let bank = Arc::new(ShardLoadBank::new(1));
        let ts = TimeSeries::new(Arc::clone(&bank), 8, Duration::from_millis(1));
        for round in 0..5u64 {
            bank.arrive(0);
            bank.dequeue(0);
            bank.record_work(0, 100 * (round + 1), true);
            ts.sample_now();
        }
        let ticks = ts.ticks();
        assert_eq!(ticks.len(), 5);
        for pair in ticks.windows(2) {
            assert!(pair[1].t_ns >= pair[0].t_ns, "timestamps march forward");
            let (a, b) = (&pair[0].shards[0], &pair[1].shards[0]);
            assert!(b.arrivals >= a.arrivals);
            assert!(b.completions >= a.completions);
            assert!(b.busy_ns > a.busy_ns, "busy time strictly grew each round");
        }
    }

    #[test]
    fn merge_fuses_shards_into_pool_view() {
        let t = tick(10, &[(2, 10, 8, 1_000), (3, 20, 17, 2_500)]);
        let merged = t.merged();
        assert_eq!(
            merged,
            ShardSample { queue_depth: 5, arrivals: 30, completions: 25, busy_ns: 3_500 }
        );
        assert_eq!(ShardSample::default().merge(&merged), merged);
    }

    #[test]
    fn gauges_derive_utilization_rates_and_littles_law() {
        // 1s window, shard 0: 50% busy, 100 arrivals, depth steady at 4.
        let window = [
            tick(0, &[(4, 0, 0, 0)]),
            tick(500, &[(4, 50, 46, 250_000_000)]),
            tick(1000, &[(4, 100, 96, 500_000_000)]),
        ];
        let g = derive_gauges(&window);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].queue_depth, 4);
        assert!((g[0].utilization_pct - 50.0).abs() < 1e-9, "{:?}", g[0]);
        assert!((g[0].arrivals_per_sec - 100.0).abs() < 1e-9);
        assert!((g[0].completions_per_sec - 96.0).abs() < 1e-9);
        // Little: mean depth 4 / 100 per sec = 40ms predicted wait.
        assert!((g[0].predicted_wait_ns - 40_000_000.0).abs() < 1.0, "{:?}", g[0]);
    }

    #[test]
    fn gauges_handle_degenerate_windows() {
        assert!(derive_gauges(&[]).is_empty());
        assert!(derive_gauges(&[tick(5, &[(1, 1, 1, 1)])]).is_empty(), "one tick is no window");
        let same_instant = [tick(5, &[(1, 1, 1, 1)]), tick(5, &[(2, 2, 2, 2)])];
        assert!(derive_gauges(&same_instant).is_empty(), "zero-width window");
        // An idle window predicts zero wait rather than dividing by zero.
        let idle = [tick(0, &[(0, 10, 10, 0)]), tick(1000, &[(0, 10, 10, 0)])];
        let g = derive_gauges(&idle);
        assert_eq!(g[0].predicted_wait_ns, 0.0);
        assert_eq!(g[0].arrivals_per_sec, 0.0);
    }

    #[test]
    fn empty_ring_renders_empty_samples_array() {
        let ts = series(4);
        let body = ts.to_json();
        let v = json::Json::parse(&body).unwrap();
        assert_eq!(v.get("samples").unwrap().as_array().unwrap().len(), 0);
        assert_eq!(v.get("interval_ms").unwrap().as_u64(), Some(10));
        // Gauges without a window fall back to live depths + zero rates.
        let mut snap = Snapshot::default();
        ts.export(&mut snap);
        assert_eq!(snap.value("cfgtag_shard_window_ms", &[]), Some(0.0));
        let util = snap.get("cfgtag_shard_utilization_pct").unwrap();
        assert_eq!(util.series.len(), 2);
        assert_eq!(util.series[0].number(), Some(0.0));
    }

    #[test]
    fn json_round_trips_through_parser() {
        let ts = series(4);
        ts.push(tick(1, &[(1, 2, 1, 100), (0, 3, 3, 200)]));
        ts.push(tick(11, &[(2, 6, 3, 900), (0, 7, 7, 1_100)]));
        let v = json::Json::parse(&ts.to_json()).unwrap();
        let samples = v.get("samples").unwrap().as_array().unwrap();
        assert_eq!(samples.len(), 2);
        let shard1 = &samples[1].get("shards").unwrap().as_array().unwrap()[0];
        assert_eq!(shard1.get("queue_depth").unwrap().as_u64(), Some(2));
        assert_eq!(shard1.get("busy_ns").unwrap().as_u64(), Some(900));
        let mut snap = Snapshot::default();
        ts.export(&mut snap);
        assert_eq!(snap.value("cfgtag_shard_window_ms", &[]), Some(10.0));
        let wait = snap.get("cfgtag_shard_predicted_wait_ns").unwrap();
        assert_eq!(wait.series.len(), 2);
        assert!(snap.value("cfgtag_shard_predicted_wait_ns", &[("shard", "0")]).unwrap() > 0.0);
    }

    #[test]
    fn sampler_thread_snapshots_an_idle_bank() {
        let bank = Arc::new(ShardLoadBank::new(1));
        let ts = Arc::new(TimeSeries::new(Arc::clone(&bank), 4, Duration::from_millis(1)));
        let sampler = ts.start_sampler();
        for _ in 0..200 {
            if ts.len() >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        sampler.stop();
        assert!(ts.len() >= 2, "sampler thread produced snapshots");
        assert!(ts.ticks().iter().all(|t| t.shards[0].arrivals == 0));
    }
}
