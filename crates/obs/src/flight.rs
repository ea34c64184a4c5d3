//! The flight recorder: a fixed-size ring of the most recent trace
//! events and span timings, kept cheaply at all times and dumped only
//! when something goes wrong (a stream entering the dead state, an
//! exit-code-3 run). This captures the events *leading up to* a failure
//! without paying for always-on trace persistence.

use crate::ring::EventRing;
use crate::sink::MetricsSink;
use crate::trace::TraceEvent;

/// Default ring capacity: the trace depth `cfgtag tag --trace-out` has
/// always kept, and far above the 256 events a post-mortem needs to
/// reconstruct the approach to a dead state.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// A bounded in-memory recorder of recent trace events and span
/// timings: an [`EventRing`] of [`TraceEvent`]s, dumped as
/// `{"seq":N,"kind":...}` JSON lines.
///
/// Implements [`MetricsSink`], so it can be attached directly or fanned
/// into alongside a [`crate::StatsSink`] via [`TeeSink`]. Counter and
/// histogram updates are ignored (those live in the stats sink); trace
/// events and span timings go into the ring.
pub type FlightRecorder = EventRing<TraceEvent>;

impl Default for FlightRecorder {
    fn default() -> Self {
        EventRing::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl MetricsSink for FlightRecorder {
    fn time(&self, span: &'static str, nanos: u64) {
        self.push(TraceEvent::new("span").field("name", span).field("nanos", nanos));
    }

    fn trace(&self, event: TraceEvent) {
        self.push(event);
    }
}

/// A sink that forwards every call to each of its children — the way to
/// attach a [`FlightRecorder`] *and* a [`crate::StatsSink`] to the same
/// engine through one [`crate::Metrics`] handle.
pub struct TeeSink {
    sinks: Vec<std::sync::Arc<dyn MetricsSink>>,
}

impl std::fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeSink").field("sinks", &self.sinks.len()).finish()
    }
}

impl TeeSink {
    /// A tee over the given children, called in order.
    pub fn new(sinks: Vec<std::sync::Arc<dyn MetricsSink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl MetricsSink for TeeSink {
    fn add(&self, stat: crate::sink::Stat, n: u64) {
        for s in &self.sinks {
            s.add(stat, n);
        }
    }

    fn token_fire(&self, index: u32, n: u64) {
        for s in &self.sinks {
            s.token_fire(index, n);
        }
    }

    fn observe(&self, hist: &'static str, value: u64) {
        for s in &self.sinks {
            s.observe(hist, value);
        }
    }

    fn time(&self, span: &'static str, nanos: u64) {
        for s in &self.sinks {
            s.time(span, nanos);
        }
    }

    fn trace(&self, event: TraceEvent) {
        for s in self.sinks.iter().filter(|s| s.wants_trace()) {
            s.trace(event.clone());
        }
    }

    fn is_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.is_enabled())
    }

    fn wants_trace(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{NoopSink, Stat};
    use crate::stats::StatsSink;
    use std::sync::Arc;

    #[test]
    fn dump_is_jsonl_with_sequence_numbers() {
        let fr = FlightRecorder::new(8);
        fr.trace(TraceEvent::new("token_fire").field("token", 3u32));
        fr.time("feed", 1234);
        let dump = fr.dump_jsonl();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.starts_with("{\"seq\":0,\"kind\":\"token_fire\",\"token\":3}"));
        assert!(dump.contains("{\"seq\":1,\"kind\":\"span\",\"name\":\"feed\",\"nanos\":1234}"));
        assert!(dump.ends_with('\n'));
    }

    #[test]
    fn default_capacity_covers_a_256_event_post_mortem() {
        let fr = FlightRecorder::default();
        assert!(fr.capacity() >= 256);
        for i in 0..5000u64 {
            fr.trace(TraceEvent::new("e").field("i", i));
        }
        assert_eq!(fr.len(), DEFAULT_FLIGHT_CAPACITY);
        assert!(fr.dump_jsonl().lines().count() >= 256);
    }

    #[test]
    fn tee_forwards_to_all_children() {
        let stats = Arc::new(StatsSink::with_tokens(2));
        let flight = Arc::new(FlightRecorder::new(8));
        let tee = TeeSink::new(vec![Arc::clone(&stats) as _, Arc::clone(&flight) as _]);
        tee.add(Stat::BytesIn, 9);
        tee.token_fire(1, 2);
        tee.observe("h", 5);
        tee.time("span", 7);
        tee.trace(TraceEvent::new("e"));
        assert_eq!(stats.get(Stat::BytesIn), 9);
        assert_eq!(stats.token_fires(1), 2);
        // The flight recorder keeps the span and the trace event only.
        assert_eq!(flight.len(), 2);
        assert!(tee.is_enabled());
        assert!(!TeeSink::new(vec![Arc::new(NoopSink) as _]).is_enabled());
        assert!(!TeeSink::new(Vec::new()).is_enabled());
    }
}
