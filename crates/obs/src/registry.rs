//! The one registry: every telemetry source a process exposes, and the
//! one [`Snapshot`] they all write into.
//!
//! A [`Registry`] holds the named [`StatsSink`]s, the service flags
//! (ready, dead, overloaded), and every attached [`Part`]: the token
//! names, the compile report, the circuit topology, the probe bank, the
//! trigger hub, the SLO tracker, the span recorder, the saturation time
//! series, the audit bank and the mismatch ring. Registration and
//! attachment happen once per component; [`Registry::snapshot`] walks
//! lock-free counters, so an exporter thread can take one at any moment
//! without pausing an engine mid-stream.

use crate::audit::{AuditBank, Mismatch};
use crate::probe::ProbeBank;
use crate::report::CompileReport;
use crate::ring::EventRing;
use crate::sink::Stat;
use crate::slo::SloTracker;
use crate::snapshot::{metric_chunk, Kind, Snapshot};
use crate::span::SpanRecorder;
use crate::stats::{StatsSink, StatsSnapshot};
use crate::timeseries::TimeSeries;
use crate::trigger::TriggerHub;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// One attachable telemetry part; see [`Registry::attach`].
#[derive(Debug)]
pub enum Part {
    /// Token names, in token-index order: the `name` label of per-token
    /// series and the `cfgtag_token_info` family.
    Tokens(Vec<String>),
    /// The compile pipeline's report.
    Compile(CompileReport),
    /// The pre-encoded circuit topology served at `/circuit.json` (one
    /// JSON value; its probe ids match the probe bank's order).
    Circuit(String),
    /// Per-circuit-element activity counters.
    Probes(Arc<ProbeBank>),
    /// The ILA-style trigger behind `/trigger` and `/capture.jsonl`.
    Trigger(Arc<TriggerHub>),
    /// End-to-end and per-stage serving latency.
    Slo(Arc<SloTracker>),
    /// Retained frame spans behind `/spans.jsonl`.
    Spans(Arc<SpanRecorder>),
    /// Per-shard saturation snapshots behind `/timeseries.json`.
    TimeSeries(Arc<TimeSeries>),
    /// Shadow-audit verdicts.
    Audit(Arc<AuditBank>),
    /// Divergence evidence behind `/mismatches.jsonl`.
    Mismatches(Arc<EventRing<Mismatch>>),
}

/// Every attached part, as [`Registry::parts`] hands them out. Unset
/// parts are `None`: off means not attached.
#[derive(Debug, Clone, Default)]
pub struct Parts {
    /// See [`Part::Tokens`].
    pub tokens: Vec<String>,
    /// See [`Part::Compile`].
    pub compile: Option<CompileReport>,
    /// See [`Part::Circuit`].
    pub circuit: Option<Arc<str>>,
    /// See [`Part::Probes`].
    pub probes: Option<Arc<ProbeBank>>,
    /// See [`Part::Trigger`].
    pub trigger: Option<Arc<TriggerHub>>,
    /// See [`Part::Slo`].
    pub slo: Option<Arc<SloTracker>>,
    /// See [`Part::Spans`].
    pub spans: Option<Arc<SpanRecorder>>,
    /// See [`Part::TimeSeries`].
    pub timeseries: Option<Arc<TimeSeries>>,
    /// See [`Part::Audit`].
    pub audit: Option<Arc<AuditBank>>,
    /// See [`Part::Mismatches`].
    pub mismatches: Option<Arc<EventRing<Mismatch>>>,
}

/// The registry of one process's telemetry. Share it as an
/// `Arc<Registry>`; every clone sees the same sinks, flags and parts.
#[derive(Debug, Default)]
pub struct Registry {
    sinks: Mutex<Vec<(String, Arc<StatsSink>)>>,
    ready: AtomicBool,
    dead: AtomicBool,
    overloaded: AtomicBool,
    parts: Mutex<Parts>,
}

impl Registry {
    /// An empty registry: no sinks, no parts, not ready.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register (or replace) the sink recorded under `name` — the idiom
    /// for a restarted worker is re-registration under its old name.
    pub fn register(&self, name: impl Into<String>, sink: Arc<StatsSink>) {
        let name = name.into();
        let mut sinks = self.sinks.lock().unwrap();
        match sinks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, slot)) => *slot = sink,
            None => sinks.push((name, sink)),
        }
    }

    /// Registered sink names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.sinks.lock().unwrap().iter().map(|(n, _)| n.clone()).collect()
    }

    /// Attach one part, replacing any earlier part of the same kind.
    pub fn attach(&self, part: Part) {
        let mut p = self.parts.lock().unwrap();
        match part {
            Part::Tokens(names) => p.tokens = names,
            Part::Compile(report) => p.compile = Some(report),
            Part::Circuit(json) => p.circuit = Some(json.into()),
            Part::Probes(bank) => p.probes = Some(bank),
            Part::Trigger(hub) => p.trigger = Some(hub),
            Part::Slo(tracker) => p.slo = Some(tracker),
            Part::Spans(recorder) => p.spans = Some(recorder),
            Part::TimeSeries(series) => p.timeseries = Some(series),
            Part::Audit(bank) => p.audit = Some(bank),
            Part::Mismatches(ring) => p.mismatches = Some(ring),
        }
    }

    /// The attached parts (shared handles; cheap to clone).
    pub fn parts(&self) -> Parts {
        self.parts.lock().unwrap().clone()
    }

    /// Mark the tagger compiled (the readiness gate).
    pub fn set_ready(&self, ready: bool) {
        self.ready.store(ready, Ordering::Relaxed);
    }

    /// Record whether the stream is in the dead state; a dead stream
    /// drops `/readyz` to 503 so an orchestrator can recycle the process.
    pub fn set_dead(&self, dead: bool) {
        self.dead.store(dead, Ordering::Relaxed);
    }

    /// Record whether the serving layer is shedding load; an overloaded
    /// service drops `/readyz` to 503 without being unhealthy.
    pub fn set_overloaded(&self, overloaded: bool) {
        self.overloaded.store(overloaded, Ordering::Relaxed);
    }

    /// Whether [`Registry::set_ready`] was last called with `true`.
    pub fn ready(&self) -> bool {
        self.ready.load(Ordering::Relaxed)
    }

    /// Whether the stream was marked dead.
    pub fn dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Whether the serving layer reported itself shedding load.
    pub fn overloaded(&self) -> bool {
        self.overloaded.load(Ordering::Relaxed)
    }

    /// Every family at this instant: the service gauges, each [`Stat`]
    /// counter per sink, per-token fires, the token names, then each
    /// attached part's families, then the sinks' histograms merged by
    /// name.
    pub fn snapshot(&self) -> Snapshot {
        let sinks: Vec<(String, StatsSnapshot)> =
            self.sinks.lock().unwrap().iter().map(|(n, s)| (n.clone(), s.snapshot())).collect();
        let parts = self.parts();
        let names = &parts.tokens;
        let flag = |b: bool| if b { 1.0 } else { 0.0 };
        let mut snap = Snapshot::default();
        snap.push("cfgtag_ready", Kind::Gauge).push(&[], flag(self.ready() && !self.dead()));
        snap.push("cfgtag_dead", Kind::Gauge).push(&[], flag(self.dead()));
        snap.push("cfgtag_overloaded", Kind::Gauge).push(&[], flag(self.overloaded()));
        snap.push("cfgtag_sinks", Kind::Gauge).push(&[], sinks.len() as f64);
        for (i, stat) in Stat::ALL.iter().enumerate() {
            let family = snap.push(format!("cfgtag_{}_total", stat.name()), Kind::Counter);
            for (sink, s) in &sinks {
                family.push(&[("sink", sink)], s.counters[i].1 as f64);
            }
        }
        // Token names come straight out of the user's grammar; the
        // renderers escape them.
        let fires = snap.push("cfgtag_token_fires_total", Kind::Counter);
        for (sink, s) in &sinks {
            for (index, &n) in s.token_fires.iter().enumerate().filter(|(_, n)| **n > 0) {
                let token = index.to_string();
                let mut labels = vec![("sink", sink.as_str()), ("token", token.as_str())];
                labels.extend(names.get(index).map(|name| ("name", name.as_str())));
                fires.push(&labels, n as f64);
            }
        }
        if !names.is_empty() {
            let info = snap.push("cfgtag_token_info", Kind::Gauge);
            for (index, name) in names.iter().enumerate() {
                info.push(&[("token", &index.to_string()), ("name", name)], 1.0);
            }
        }
        if let Some(report) = &parts.compile {
            report.export(&mut snap);
        }
        if let Some(bank) = &parts.probes {
            bank.export(&mut snap);
        }
        if let Some(bank) = &parts.audit {
            bank.export(&mut snap, names);
        }
        if let Some(tracker) = &parts.slo {
            tracker.export(&mut snap);
        }
        if let Some(series) = &parts.timeseries {
            series.export(&mut snap);
        }
        let mut merged = StatsSnapshot::empty();
        for (_, s) in &sinks {
            merged.merge(s);
        }
        for (name, h) in merged.histograms {
            snap.push(format!("cfgtag_{}", metric_chunk(name)), Kind::Histogram)
                .push_histogram(&[], h);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MetricsSink;

    #[test]
    fn snapshot_labels_counters_by_sink_and_merges_histograms() {
        let reg = Registry::new();
        let engine = Arc::new(StatsSink::with_tokens(2));
        let router = Arc::new(StatsSink::new());
        reg.register("engine", Arc::clone(&engine));
        reg.register("router", Arc::clone(&router));
        reg.attach(Part::Tokens(vec!["a".into(), "b".into()]));
        engine.add(Stat::BytesIn, 100);
        engine.token_fire(1, 4);
        router.add(Stat::RouteBank, 3);
        for (sink, v) in [(&engine, 10), (&engine, 20), (&router, 5000)] {
            sink.observe("chunk_bytes", v);
        }
        reg.register("idle", Arc::new(StatsSink::new()));

        let snap = reg.snapshot();
        assert_eq!(snap.value("cfgtag_sinks", &[]), Some(3.0));
        assert_eq!(snap.value("cfgtag_bytes_in_total", &[("sink", "engine")]), Some(100.0));
        assert_eq!(snap.value("cfgtag_bytes_in_total", &[("sink", "idle")]), Some(0.0));
        assert_eq!(snap.total("cfgtag_events_out_total"), 4.0);
        let fire = snap.get("cfgtag_token_fires_total").unwrap().find(&[("token", "1")]).unwrap();
        assert_eq!((fire.label("sink"), fire.label("name")), (Some("engine"), Some("b")));
        // One merged series per histogram: max and sum over every sink,
        // and an empty sink folds in as nothing.
        let h = snap.histogram("cfgtag_chunk_bytes", &[]).unwrap();
        assert_eq!((h.count, h.sum, h.max), (3, 5030, 5000));
        assert_eq!(snap.get("cfgtag_chunk_bytes").unwrap().series.len(), 1);
        // Nothing attached, nothing exported.
        assert!(snap.get("cfgtag_probe_total").is_none());
        assert!(snap.get("cfgtag_slo_frames_total").is_none());
    }

    #[test]
    fn snapshots_while_recording_are_monotone() {
        let reg = Arc::new(Registry::new());
        let sink = Arc::new(StatsSink::new());
        reg.register("engine", Arc::clone(&sink));
        let writer = {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                for _ in 0..20_000 {
                    sink.add(Stat::BytesIn, 1);
                }
            })
        };
        let mut last = 0.0;
        for _ in 0..50 {
            let v = reg.snapshot().total("cfgtag_bytes_in_total");
            assert!(v >= last, "counter went backwards: {v} < {last}");
            last = v;
        }
        writer.join().unwrap();
        assert_eq!(reg.snapshot().total("cfgtag_bytes_in_total"), 20_000.0);
    }

    #[test]
    fn reregistration_and_reattachment_replace() {
        let reg = Registry::new();
        reg.register("w", Arc::new(StatsSink::new()));
        let restarted = Arc::new(StatsSink::new());
        restarted.add(Stat::BytesIn, 5);
        reg.register("w", restarted);
        assert_eq!(reg.names(), vec!["w".to_string()]);
        assert_eq!(reg.snapshot().total("cfgtag_bytes_in_total"), 5.0);
        reg.attach(Part::Circuit("{}".into()));
        reg.attach(Part::Circuit("{\"decoders\":[]}".into()));
        assert_eq!(reg.parts().circuit.as_deref(), Some("{\"decoders\":[]}"));
        assert!(reg.parts().probes.is_none());
    }

    #[test]
    fn flags_gate_ready_and_export_as_gauges() {
        let reg = Registry::new();
        assert!(!reg.ready() && !reg.dead() && !reg.overloaded());
        reg.set_ready(true);
        reg.set_overloaded(true);
        let snap = reg.snapshot();
        assert_eq!(snap.value("cfgtag_ready", &[]), Some(1.0));
        assert_eq!(snap.value("cfgtag_overloaded", &[]), Some(1.0));
        reg.set_dead(true);
        let snap = reg.snapshot();
        assert_eq!(snap.value("cfgtag_ready", &[]), Some(0.0), "a dead stream is not ready");
        assert_eq!(snap.value("cfgtag_dead", &[]), Some(1.0));
    }
}
