//! The `Metrics` handle held by instrumented components.

use crate::sink::{MetricsSink, Stat};
use crate::trace::TraceEvent;
use std::sync::Arc;

/// A cloneable handle to an optional metrics sink.
///
/// This is the type components store. When built with [`Metrics::off`]
/// (the `Default`), every method is a branch on a local `Option` and
/// nothing else — the compiler sees a `None` constant propagated into
/// the branch and eliminates the recording code from the hot path.
#[derive(Clone, Default)]
pub struct Metrics {
    sink: Option<Arc<dyn MetricsSink>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics").field("on", &self.sink.is_some()).finish()
    }
}

impl Metrics {
    /// The disabled handle: recording methods do nothing.
    pub fn off() -> Metrics {
        Metrics { sink: None }
    }

    /// A handle recording into `sink`.
    pub fn new(sink: Arc<dyn MetricsSink>) -> Metrics {
        Metrics { sink: Some(sink) }
    }

    /// Whether a sink is installed at all (cheap; check once per buffer
    /// before doing per-event bookkeeping).
    #[inline]
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Whether the sink wants per-event detail. `false` both when off
    /// and when the sink is a discard-everything sink.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        match &self.sink {
            Some(s) => s.is_enabled(),
            None => false,
        }
    }

    /// Whether [`Metrics::trace`] events would be kept: `false` when off
    /// and for sinks that keep no traces, such as [`crate::StatsSink`].
    /// Engines check it once to decide whether they owe per-byte trace
    /// lines.
    #[inline]
    pub fn wants_trace(&self) -> bool {
        self.sink.as_ref().is_some_and(|s| s.wants_trace())
    }

    /// Bump a counter.
    #[inline]
    pub fn add(&self, stat: Stat, n: u64) {
        if let Some(s) = &self.sink {
            s.add(stat, n);
        }
    }

    /// Record `n` fires of token `index`.
    #[inline]
    pub fn token_fire(&self, index: u32, n: u64) {
        if let Some(s) = &self.sink {
            s.token_fire(index, n);
        }
    }

    /// Record a histogram observation.
    #[inline]
    pub fn observe(&self, hist: &'static str, value: u64) {
        if let Some(s) = &self.sink {
            s.observe(hist, value);
        }
    }

    /// Record a span duration directly.
    #[inline]
    pub fn time(&self, span: &'static str, nanos: u64) {
        if let Some(s) = &self.sink {
            s.time(span, nanos);
        }
    }

    /// Append a trace event. The closure only runs when a sink is
    /// installed *and* it keeps traces ([`MetricsSink::wants_trace`]),
    /// so callers never build events that would be dropped.
    #[inline]
    pub fn trace(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(s) = &self.sink {
            if s.wants_trace() {
                s.trace(build());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StatsSink;

    #[test]
    fn off_handle_is_inert() {
        let m = Metrics::off();
        assert!(!m.is_on());
        assert!(!m.is_enabled());
        m.add(Stat::BytesIn, 10);
        m.token_fire(0, 1);
        m.observe("h", 1);
        m.time("s", 1);
        let mut built = false;
        m.trace(|| {
            built = true;
            TraceEvent::new("never")
        });
        assert!(!built, "trace closure must not run when metrics are off");
    }

    #[test]
    fn on_handle_records() {
        let sink = Arc::new(StatsSink::with_tokens(2));
        let m = Metrics::new(sink.clone());
        assert!(m.is_on());
        assert!(m.is_enabled());
        m.add(Stat::BytesIn, 5);
        m.token_fire(1, 2);
        m.time("work", 7);
        assert_eq!(sink.get(Stat::BytesIn), 5);
        assert_eq!(sink.token_fires(1), 2);
        assert_eq!(sink.snapshot().histogram("work").map(|h| h.count), Some(1));
    }

    #[test]
    fn traceless_sink_skips_the_build_closure() {
        let m = Metrics::new(Arc::new(StatsSink::new()));
        let mut built = false;
        m.trace(|| {
            built = true;
            TraceEvent::new("never")
        });
        assert!(!built, "a sink that keeps no traces must not build trace events");
        assert!(!m.wants_trace());
        assert!(!Metrics::off().wants_trace());
        let flight = Arc::new(crate::FlightRecorder::new(4));
        let kept = Metrics::new(flight.clone());
        assert!(kept.wants_trace());
        kept.trace(|| TraceEvent::new("kept"));
        assert_eq!(flight.len(), 1);
    }

    #[test]
    fn noop_sink_is_on_but_not_enabled() {
        let m = Metrics::new(Arc::new(crate::sink::NoopSink));
        assert!(m.is_on());
        assert!(!m.is_enabled());
    }

    #[test]
    fn clones_share_the_sink() {
        let sink = Arc::new(StatsSink::new());
        let a = Metrics::new(sink.clone());
        let b = a.clone();
        a.add(Stat::BytesIn, 1);
        b.add(Stat::BytesIn, 2);
        assert_eq!(sink.get(Stat::BytesIn), 3);
    }
}
