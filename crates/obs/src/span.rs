//! Frame spans: stage-attributed latency for the serving path.
//!
//! A [`Span`] is born when the server's reader accepts a frame and dies
//! when the ack (or error) has been written. In between, each serving
//! stage leaves one monotonic stamp — nanoseconds since the span
//! started — so the frame's end-to-end latency decomposes *exactly*
//! into per-stage durations: stage `i`'s duration is the difference
//! between its stamp and the previous stamped stage, and the durations
//! telescope back to the final stamp. There is no way to record a span
//! whose stages disagree with its total.
//!
//! The [`SpanRecorder`] keeps an [`EventRing`] of recent spans for
//! `/spans.jsonl`. Retention is head-sampled — the sampling decision is
//! made at [`SpanRecorder::begin`], deterministically, from a counter —
//! with one escape hatch: a span whose end-to-end latency breaches the
//! slow threshold is always retained, so the ring never misses the
//! frames an operator actually wants to see.
//!
//! Like the rest of cfg-obs, the layer is zero-overhead when off: a
//! server without tracing configured holds no recorder and threads
//! `Option<Span>::None` through the stack — no `Instant::now()` calls,
//! no allocation, nothing but a never-taken branch per frame.

use crate::json;
use crate::ring::{EventRing, JsonLine};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The serving stages a frame passes through, in pipeline order.
///
/// Stage durations are attributed *between consecutive stamps*, so the
/// order here is the order stamps must be (and are) taken in. Stages a
/// frame never reaches (e.g. a shed frame never sees `Engine`) simply
/// stay unstamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Socket bytes buffered until the frame was complete.
    FrameRead,
    /// Frame decoded and the pool message built.
    Parse,
    /// Session touched and its in-flight counter bumped.
    SessionLookup,
    /// Message offered to (and accepted by) a shard queue.
    Enqueue,
    /// Time spent queued before a worker picked the message up.
    QueueWait,
    /// Engine feed + finish on the worker.
    Engine,
    /// Ack (or error) frame written back to the client.
    AckWrite,
}

impl Stage {
    /// Number of stages (sizes the stamp array in [`Span`]).
    pub const COUNT: usize = 7;

    /// All stages, in pipeline (and index) order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::FrameRead,
        Stage::Parse,
        Stage::SessionLookup,
        Stage::Enqueue,
        Stage::QueueWait,
        Stage::Engine,
        Stage::AckWrite,
    ];

    /// Stable snake_case name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::FrameRead => "frame_read",
            Stage::Parse => "parse",
            Stage::SessionLookup => "session_lookup",
            Stage::Enqueue => "enqueue",
            Stage::QueueWait => "queue_wait",
            Stage::Engine => "engine",
            Stage::AckWrite => "ack_write",
        }
    }
}

/// Sentinel for "this stage was never stamped".
const UNSET: u64 = u64::MAX;

/// One frame's trip through the serving stack.
///
/// Stamps are nanoseconds since the span started (plus an optional
/// *lead* — time that passed before the span object existed, e.g. the
/// socket reads that buffered the frame). Stamps are first-write-wins
/// and clamped non-decreasing, so a recorded span is well-formed by
/// construction: [`Span::stage_ns`] values are non-negative and sum to
/// [`Span::total_ns`] exactly.
#[derive(Debug, Clone)]
pub struct Span {
    id: u64,
    sampled: bool,
    started: Instant,
    lead_ns: u64,
    stamps: [u64; Stage::COUNT],
    session: u64,
    seq: u64,
}

impl Span {
    fn new(id: u64, sampled: bool, lead_ns: u64) -> Span {
        Span {
            id,
            sampled,
            started: Instant::now(),
            lead_ns,
            stamps: [UNSET; Stage::COUNT],
            session: 0,
            seq: 0,
        }
    }

    /// A detached span (id 0, sampled) for tests and one-off timing.
    pub fn detached() -> Span {
        Span::new(0, true, 0)
    }

    /// Head-sampling verdict made at [`SpanRecorder::begin`]. When
    /// false, the span still feeds the SLO histograms but is only
    /// retained in the ring if it turns out slow.
    pub fn sampled(&self) -> bool {
        self.sampled
    }

    /// The recorder-assigned span id (its begin-order index).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach the session id and frame sequence number for JSON output.
    pub fn set_ids(&mut self, session: u64, seq: u64) {
        self.session = session;
        self.seq = seq;
    }

    /// Nanoseconds since the span started, including the lead.
    fn elapsed_ns(&self) -> u64 {
        let e = self.started.elapsed().as_nanos();
        self.lead_ns.saturating_add(u64::try_from(e).unwrap_or(u64::MAX))
    }

    /// Stamp `stage` as ending now. First write wins, and the stamp is
    /// clamped to be no earlier than any existing stamp, so stamps are
    /// non-decreasing in stage order no matter how threads interleave.
    pub fn stamp(&mut self, stage: Stage) {
        self.stamp_at(stage, self.elapsed_ns());
    }

    /// Stamp `stage` at an explicit offset (nanoseconds since span
    /// start) — the deterministic entry point the unit tests use.
    pub fn stamp_at(&mut self, stage: Stage, at_ns: u64) {
        if self.stamps[stage as usize] != UNSET {
            return;
        }
        let floor = self.last_stamp_ns();
        self.stamps[stage as usize] = at_ns.max(floor);
    }

    /// The latest stamp taken so far (0 if none).
    fn last_stamp_ns(&self) -> u64 {
        self.stamps.iter().filter(|&&s| s != UNSET).max().copied().unwrap_or(0)
    }

    /// Duration attributed to `stage`: its stamp minus the previous
    /// stamped stage's stamp. `None` if the stage was never reached.
    pub fn stage_ns(&self, stage: Stage) -> Option<u64> {
        let end = self.stamps[stage as usize];
        if end == UNSET {
            return None;
        }
        let start = self.stamps[..stage as usize]
            .iter()
            .filter(|&&s| s != UNSET)
            .max()
            .copied()
            .unwrap_or(0);
        Some(end - start)
    }

    /// End-to-end latency: the last stamp taken. Because stage
    /// durations telescope, the stamped [`Span::stage_ns`] values sum
    /// to exactly this.
    pub fn total_ns(&self) -> u64 {
        self.last_stamp_ns()
    }

    /// Whether the stamps are non-decreasing in stage order (always
    /// true by construction; the chaos test asserts it anyway).
    pub fn is_well_formed(&self) -> bool {
        let mut floor = 0u64;
        for &s in &self.stamps {
            if s == UNSET {
                continue;
            }
            if s < floor {
                return false;
            }
            floor = s;
        }
        true
    }
}

/// A `/spans.jsonl` line: ids, the total, and every stamped stage's
/// attributed duration. A span carries its own begin-order `id` (its
/// `seq` is the frame's), so the ring's sequence number is not repeated.
impl JsonLine for Span {
    fn push_json_line(&self, _ring_seq: u64, out: &mut String) {
        out.push_str("{\"id\":");
        out.push_str(&self.id.to_string());
        out.push_str(",\"session\":");
        out.push_str(&self.session.to_string());
        out.push_str(",\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"sampled\":");
        out.push_str(if self.sampled { "true" } else { "false" });
        out.push_str(",\"total_ns\":");
        out.push_str(&self.total_ns().to_string());
        out.push_str(",\"stages\":{");
        let mut first = true;
        for stage in Stage::ALL {
            if let Some(ns) = self.stage_ns(stage) {
                if !first {
                    out.push(',');
                }
                first = false;
                json::push_str(out, stage.name());
                out.push(':');
                out.push_str(&ns.to_string());
            }
        }
        out.push_str("}}\n");
    }
}

/// Hands out spans and keeps a bounded ring of the retained ones.
///
/// `begin` is the only clock-touching call on the hot path besides the
/// stamps themselves; everything else is a counter bump. The retention
/// rule at [`SpanRecorder::record`]: head-sampled spans always, plus
/// any span at or over the slow threshold (`slow_ns`, 0 disables the
/// escape hatch).
#[derive(Debug)]
pub struct SpanRecorder {
    sample_every: u64,
    slow_ns: u64,
    counter: AtomicU64,
    recorded: AtomicU64,
    slow_extras: AtomicU64,
    ring: EventRing<Span>,
}

impl SpanRecorder {
    /// A recorder retaining every `sample_every`-th span (plus slow
    /// ones) in a ring of `capacity` spans.
    pub fn new(capacity: usize, sample_every: u64, slow_ns: u64) -> SpanRecorder {
        SpanRecorder {
            sample_every: sample_every.max(1),
            slow_ns,
            counter: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            slow_extras: AtomicU64::new(0),
            ring: EventRing::new(capacity),
        }
    }

    /// Start a span for the next frame. The head-sampling decision is
    /// made here, deterministically: span `n` is sampled iff
    /// `n % sample_every == 0`.
    pub fn begin(&self) -> Span {
        self.begin_with_lead(0)
    }

    /// Like [`SpanRecorder::begin`], but back-dates the span by
    /// `lead_ns` — time already spent on the frame (socket reads)
    /// before the span object existed.
    pub fn begin_with_lead(&self, lead_ns: u64) -> Span {
        let id = self.counter.fetch_add(1, Ordering::Relaxed);
        Span::new(id, id.is_multiple_of(self.sample_every), lead_ns)
    }

    /// Finish a span: decide retention and (maybe) push it into the
    /// ring. Returns whether the span was retained.
    pub fn record(&self, span: &Span) -> bool {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let slow = self.slow_ns > 0 && span.total_ns() >= self.slow_ns;
        if !span.sampled && !slow {
            return false;
        }
        if !span.sampled {
            self.slow_extras.fetch_add(1, Ordering::Relaxed);
        }
        self.ring.push(span.clone());
        true
    }

    /// Spans started (every `begin`, retained or not).
    pub fn started(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Spans finished via [`SpanRecorder::record`].
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans retained (head-sampled or slow), evicted ones included.
    pub fn retained(&self) -> u64 {
        self.ring.recorded()
    }

    /// Retained spans that were *not* head-sampled — kept only because
    /// they breached the slow threshold.
    pub fn slow_extras(&self) -> u64 {
        self.slow_extras.load(Ordering::Relaxed)
    }

    /// The retained spans as JSON lines, oldest first.
    pub fn spans_jsonl(&self) -> String {
        self.ring.dump_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn stage_names_are_unique_and_indexed() {
        let mut seen = std::collections::HashSet::new();
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert!(seen.insert(s.name()));
        }
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
    }

    #[test]
    fn stage_durations_telescope_to_total() {
        let mut span = Span::detached();
        span.stamp_at(Stage::FrameRead, 100);
        span.stamp_at(Stage::Parse, 150);
        span.stamp_at(Stage::SessionLookup, 160);
        span.stamp_at(Stage::Enqueue, 200);
        span.stamp_at(Stage::QueueWait, 900);
        span.stamp_at(Stage::Engine, 1_100);
        span.stamp_at(Stage::AckWrite, 1_500);
        assert_eq!(span.stage_ns(Stage::FrameRead), Some(100));
        assert_eq!(span.stage_ns(Stage::Parse), Some(50));
        assert_eq!(span.stage_ns(Stage::QueueWait), Some(700));
        assert_eq!(span.total_ns(), 1_500);
        let sum: u64 = Stage::ALL.iter().filter_map(|&s| span.stage_ns(s)).sum();
        assert_eq!(sum, span.total_ns(), "stage durations must sum to end-to-end");
        assert!(span.is_well_formed());
    }

    #[test]
    fn skipped_stages_attribute_to_the_next_stamp() {
        // A frame that sheds never reaches Engine/AckWrite; a stamp
        // after a gap attributes the whole gap to itself.
        let mut span = Span::detached();
        span.stamp_at(Stage::FrameRead, 10);
        span.stamp_at(Stage::QueueWait, 500);
        assert_eq!(span.stage_ns(Stage::Parse), None);
        assert_eq!(span.stage_ns(Stage::QueueWait), Some(490));
        assert_eq!(span.total_ns(), 500);
        let sum: u64 = Stage::ALL.iter().filter_map(|&s| span.stage_ns(s)).sum();
        assert_eq!(sum, span.total_ns());
    }

    #[test]
    fn stamps_are_first_write_wins_and_monotonic() {
        let mut span = Span::detached();
        span.stamp_at(Stage::Parse, 100);
        span.stamp_at(Stage::Parse, 999);
        assert_eq!(span.stage_ns(Stage::Parse), Some(100), "first write wins");
        // A later stage stamped with an earlier clock value clamps up.
        span.stamp_at(Stage::Engine, 40);
        assert_eq!(span.stage_ns(Stage::Engine), Some(0));
        assert_eq!(span.total_ns(), 100);
        assert!(span.is_well_formed());
    }

    #[test]
    fn lead_backdates_the_first_stamp() {
        let recorder = SpanRecorder::new(8, 1, 0);
        let mut span = recorder.begin_with_lead(5_000);
        span.stamp(Stage::FrameRead);
        assert!(span.stage_ns(Stage::FrameRead).unwrap() >= 5_000, "lead is part of frame_read");
    }

    #[test]
    fn sampling_is_deterministic() {
        let recorder = SpanRecorder::new(64, 3, 0);
        let sampled: Vec<bool> = (0..9).map(|_| recorder.begin().sampled()).collect();
        assert_eq!(
            sampled,
            vec![true, false, false, true, false, false, true, false, false],
            "every 3rd span is head-sampled, starting at 0"
        );
        assert_eq!(recorder.started(), 9);
    }

    #[test]
    fn ring_retains_sampled_and_slow_spans_only() {
        let recorder = SpanRecorder::new(64, 2, 1_000);
        // Span 0: sampled, fast → retained.
        let mut s0 = recorder.begin();
        s0.stamp_at(Stage::AckWrite, 10);
        assert!(recorder.record(&s0));
        // Span 1: unsampled, fast → dropped.
        let mut s1 = recorder.begin();
        s1.stamp_at(Stage::AckWrite, 10);
        assert!(!recorder.record(&s1));
        // Span 3 (unsampled) but slow → the escape hatch retains it.
        let _ = recorder.begin();
        let mut s3 = recorder.begin();
        assert!(!s3.sampled());
        s3.stamp_at(Stage::AckWrite, 5_000);
        assert!(recorder.record(&s3));
        assert_eq!(recorder.recorded(), 3);
        assert_eq!(recorder.retained(), 2);
        assert_eq!(recorder.slow_extras(), 1);
        assert_eq!(recorder.spans_jsonl().lines().count(), 2);
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let recorder = SpanRecorder::new(2, 1, 0);
        for i in 0..5u64 {
            let mut s = recorder.begin();
            s.stamp_at(Stage::AckWrite, 10 * (i + 1));
            recorder.record(&s);
        }
        let jsonl = recorder.spans_jsonl();
        let ids: Vec<u64> = jsonl
            .lines()
            .map(|l| Json::parse(l).unwrap().get("id").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(ids, vec![3, 4], "ring keeps the most recent spans");
    }

    #[test]
    fn span_json_round_trips() {
        let recorder = SpanRecorder::new(4, 1, 0);
        let mut span = recorder.begin();
        span.set_ids(42, 7);
        span.stamp_at(Stage::FrameRead, 100);
        span.stamp_at(Stage::Engine, 300);
        recorder.record(&span);
        let v = Json::parse(recorder.spans_jsonl().trim_end()).unwrap();
        assert_eq!(v.get("session").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("seq").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("sampled").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("total_ns").unwrap().as_u64(), Some(300));
        let stages = v.get("stages").unwrap();
        assert_eq!(stages.get("frame_read").unwrap().as_u64(), Some(100));
        assert_eq!(stages.get("engine").unwrap().as_u64(), Some(200));
        assert!(stages.get("parse").is_none());
    }
}
