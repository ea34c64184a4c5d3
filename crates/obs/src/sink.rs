//! The sink trait implemented by metric backends, the well-known
//! counter names, and the do-nothing sink.

use crate::trace::TraceEvent;

/// Well-known counters recorded by the instrumented components.
///
/// Using a closed enum (rather than string keys) keeps the hot-path
/// cost of a counter bump at "atomic add at a fixed index" and makes
/// snapshots exhaustively enumerable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stat {
    /// Bytes consumed by a streaming engine (`BitEngine`,
    /// `ScalarEngine`, `GateEngine`, `WideTagger`).
    BytesIn,
    /// Tag events emitted (token fires), across all tokens.
    EventsOut,
    /// §5.2 error-recovery resynchronisations taken by a streaming
    /// engine.
    Resyncs,
    /// Transitions from "some state live" to "no state live" while
    /// recovery is off (the stream is stuck until a new delimiter).
    DeadEntries,
    /// Clock cycles simulated by the gate-level engine.
    GateCycles,
    /// Parser runs that accepted their input.
    ParseAccepts,
    /// Parser runs that rejected their input.
    ParseRejects,
    /// XML-RPC messages routed to the bank service.
    RouteBank,
    /// XML-RPC messages routed to the shop service.
    RouteShop,
    /// XML-RPC messages with no recognised method name.
    RouteUnknown,
    /// Streams rejected as malformed by the router front-end.
    MalformedRejected,
    /// Panics caught while tagging a frame on an ingest connection's
    /// thread, each answered and survived.
    WorkerRestarts,
    /// Messages (or connections) shed with an explicit BUSY instead of
    /// blocking — the ingest server's overload valve.
    LoadShed,
    /// Sessions evicted by the ingest server: silent past the idle
    /// timeout, or a reply not taken within it.
    SessionsEvicted,
    /// Frames admitted to an ingest shard's gate, whether they took it
    /// at once or waited; a shed frame counts under
    /// [`Stat::LoadShed`] instead.
    ShardArrivals,
    /// Frames that took an ingest shard's gate. The frames waiting for
    /// it are `shard_arrivals - shard_dequeues`.
    ShardDequeues,
    /// Frames tagged to completion under an ingest shard's gate. A
    /// caught panic dequeues but does not complete.
    ShardCompletions,
    /// Nanoseconds an ingest shard's gate was held while tagging.
    ShardBusyNs,
    /// Nanoseconds frames spent between admission and taking an ingest
    /// shard's gate. The sum of waits is the integral of the queue
    /// depth over time, so its rate is the mean depth.
    ShardWaitNs,
}

impl Stat {
    /// Number of variants (sizes the counter array in `StatsSink`).
    pub const COUNT: usize = 19;

    /// All variants, in index order.
    pub const ALL: [Stat; Stat::COUNT] = [
        Stat::BytesIn,
        Stat::EventsOut,
        Stat::Resyncs,
        Stat::DeadEntries,
        Stat::GateCycles,
        Stat::ParseAccepts,
        Stat::ParseRejects,
        Stat::RouteBank,
        Stat::RouteShop,
        Stat::RouteUnknown,
        Stat::MalformedRejected,
        Stat::WorkerRestarts,
        Stat::LoadShed,
        Stat::SessionsEvicted,
        Stat::ShardArrivals,
        Stat::ShardDequeues,
        Stat::ShardCompletions,
        Stat::ShardBusyNs,
        Stat::ShardWaitNs,
    ];

    /// Stable snake_case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Stat::BytesIn => "bytes_in",
            Stat::EventsOut => "events_out",
            Stat::Resyncs => "resyncs",
            Stat::DeadEntries => "dead_entries",
            Stat::GateCycles => "gate_cycles",
            Stat::ParseAccepts => "parse_accepts",
            Stat::ParseRejects => "parse_rejects",
            Stat::RouteBank => "route_bank",
            Stat::RouteShop => "route_shop",
            Stat::RouteUnknown => "route_unknown",
            Stat::MalformedRejected => "malformed_rejected",
            Stat::WorkerRestarts => "worker_restarts",
            Stat::LoadShed => "load_shed",
            Stat::SessionsEvicted => "sessions_evicted",
            Stat::ShardArrivals => "shard_arrivals",
            Stat::ShardDequeues => "shard_dequeues",
            Stat::ShardCompletions => "shard_completions",
            Stat::ShardBusyNs => "shard_busy_ns",
            Stat::ShardWaitNs => "shard_wait_ns",
        }
    }
}

/// A metrics backend. All methods default to no-ops so sinks only
/// implement what they care about; implementations must be thread-safe
/// because engines may be driven from multiple threads.
pub trait MetricsSink: Send + Sync {
    /// Bump a well-known counter by `n`.
    fn add(&self, _stat: Stat, _n: u64) {}

    /// Record `n` fires of token `index` (the grammar's token index).
    fn token_fire(&self, _index: u32, _n: u64) {}

    /// Record one observation of `value` into the named histogram.
    fn observe(&self, _hist: &'static str, _value: u64) {}

    /// Record that the named span took `nanos` wall-clock nanoseconds.
    fn time(&self, _span: &'static str, _nanos: u64) {}

    /// Append a structured event to the trace buffer.
    fn trace(&self, _event: TraceEvent) {}

    /// Whether per-event recording is worth the caller's effort.
    ///
    /// Hot paths may consult this once per buffer and skip building
    /// per-event updates entirely when it returns `false`.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Whether [`MetricsSink::trace`] events would actually be kept.
    ///
    /// [`crate::Metrics::trace`] consults this before running its build
    /// closure, so a sink that discards traces (a zero-capacity ring, a
    /// tee with no tracing children) never pays the event allocation.
    /// Calling `trace` directly still behaves as each sink documents.
    fn wants_trace(&self) -> bool {
        true
    }
}

/// A sink that accepts everything and records nothing.
///
/// Installing this instead of leaving [`crate::Metrics`] off exercises
/// the full instrumented call path (branch + virtual dispatch) — the
/// overhead bench compares exactly these two configurations.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl MetricsSink for NoopSink {
    fn is_enabled(&self) -> bool {
        false
    }

    fn wants_trace(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_names_are_unique_and_indexed() {
        let mut seen = std::collections::HashSet::new();
        for (i, s) in Stat::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert!(seen.insert(s.name()));
        }
        assert_eq!(Stat::ALL.len(), Stat::COUNT);
    }

    #[test]
    fn noop_sink_accepts_everything() {
        let s = NoopSink;
        s.add(Stat::BytesIn, 10);
        s.token_fire(3, 1);
        s.observe("h", 42);
        s.time("span", 1000);
        s.trace(TraceEvent::new("kind"));
        assert!(!s.is_enabled());
    }
}
