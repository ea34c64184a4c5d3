//! cfg-obs: observability layer for the CFG token tagger workspace.
//!
//! The design goal is *zero overhead when off*: every instrumented
//! component holds a [`Metrics`] handle, which is a newtype over
//! `Option<Arc<dyn MetricsSink>>`. When no sink is installed the handle
//! is `None` and every recording method is a single branch on a local
//! `Option` — no allocation, no atomics, no virtual dispatch. Hot loops
//! that would otherwise pay even that branch per byte check
//! [`Metrics::is_enabled`] once per buffer and batch their updates.
//!
//! Four sinks ship with the crate:
//!
//! * [`NoopSink`] — accepts and discards everything. Useful to verify
//!   that the instrumented code path is behaviourally identical to the
//!   un-instrumented one (see the overhead bench in `cfg-bench`).
//! * [`StatsSink`] — lock-free counters (atomics), per-token fire
//!   counters, and histograms (a span timing is one more histogram
//!   observation).
//! * [`FlightRecorder`] — the one ring of recent trace events and span
//!   timings, dumped as JSON lines (`--trace-out`, post-mortem when a
//!   stream dies, and the window a triggered capture cuts out).
//! * [`TeeSink`] — fans one [`Metrics`] handle out to several sinks
//!   (typically a [`StatsSink`] plus a [`FlightRecorder`]).
//!
//! Every bounded buffer — the flight recorder, the span ring and the
//! audit mismatch evidence — is one generic [`EventRing`]: fixed
//! capacity, oldest evicted first, a sequence number per offered entry,
//! and a JSON-lines dump.
//!
//! For *live* observability there is one [`Registry`]: it holds the
//! named [`StatsSink`]s, the ready/dead/overloaded flags, and every
//! attached [`Part`] (token names, compile report, circuit topology,
//! probe bank, trigger hub, SLO tracker, span recorder, audit bank,
//! mismatch ring). [`Registry::snapshot`] gathers every bank's numbers
//! into one [`Snapshot`] of labelled counter, gauge and histogram
//! families. The `cfg-obs-http` exporter serves it as Prometheus text
//! (`/metrics`) and as JSON (`/snapshot.json`), and [`Snapshot::parse`]
//! reads the JSON back for every `cfgtag watch` view. The one
//! [`Histogram`] is log-linear, good to ~6% at any quantile.
//!
//! Nothing samples on a timer. Load is counted, not sampled: an ingest
//! shard gate's arrivals, dequeues, completions, busy and wait
//! nanoseconds are five [`Stat`] counters on the shard's sink, and a
//! reader derives utilization, rates and the mean queue depth from two
//! snapshots, as Prometheus `rate()` does.
//!
//! Below the engine counters sits the *circuit* view: a [`ProbeBank`]
//! holds one dense atomic counter per synthesized circuit element
//! (decoder, tokenizer stage, FOLLOW edge), addressed by the stable
//! probe ids minted in `circuit.json`, and a [`TriggerHub`] arms
//! ILA-style captures ([`TriggerCondition`]) that freeze a pre/post
//! window of the flight ring around a token fire, a FOLLOW-edge
//! traversal, or a dead stream.
//!
//! The *correctness* view rides the same rails: an [`AuditBank`] holds
//! the shadow-audit lane's counters (sessions sampled, fires confirmed
//! by the exact parser, per-token false positives, cross-engine
//! divergences) and an [`EventRing`] of [`Mismatch`]es keeps the
//! evidence for each divergence, both metrics-dark unless a server was
//! asked to audit.
//!
//! All JSON is hand-rolled, both directions ([`json`]); the crate has
//! zero dependencies.

#![forbid(unsafe_code)]

mod audit;
mod flight;
mod histogram;
pub mod json;
mod metrics;
mod probe;
mod registry;
mod report;
mod ring;
mod sink;
mod slo;
mod snapshot;
mod span;
mod stats;
mod trace;
mod trigger;

pub use audit::{AuditBank, AuditEvent, Mismatch};
pub use flight::{FlightRecorder, TeeSink, DEFAULT_FLIGHT_CAPACITY};
pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::Metrics;
pub use probe::ProbeBank;
pub use registry::{Part, Parts, Registry};
pub use report::{CompileReport, StageTiming};
pub use ring::{EventRing, JsonLine};
pub use sink::{MetricsSink, NoopSink, Stat};
pub use slo::{QuantileSummary, SloSnapshot, SloTracker};
pub use snapshot::{Family, Group, Kind, Reading, Sample, Series, Snapshot, QUANTILES};
pub use span::{Span, SpanRecorder, Stage};
pub use stats::{StatsSink, StatsSnapshot};
pub use trace::{TraceEvent, Value};
pub use trigger::{Trigger, TriggerCondition, TriggerHub};
