//! ILA-style triggered capture: arm on a condition, capture a pre/post
//! window of trace events around the moment it fires.
//!
//! On an FPGA this is ChipScope: a probe watches a signal, and when the
//! trigger condition is met the surrounding samples are frozen and read
//! out. Here the "signal" is the trace-event stream: a [`TriggerHub`]
//! sits on the metrics tee, records every event into the process's one
//! [`FlightRecorder`] ring, and when the armed [`TriggerCondition`]
//! matches it snapshots the ring (the *pre* window, which already ends
//! with the triggering event) and keeps collecting until the *post*
//! window is full.

use crate::flight::FlightRecorder;
use crate::ring::JsonLine;
use crate::sink::MetricsSink;
use crate::trace::{TraceEvent, Value};
use std::sync::{Arc, Mutex};

/// What arms a capture.
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerCondition {
    /// A `token_fire` event for any of these token indices
    /// (`token:<name>`).
    TokenFire(Vec<u32>),
    /// A `follow_edge` traversal matching any of these `(from, to)`
    /// token-index pairs (`edge:<from>-><to>`).
    Edge(Vec<(u32, u32)>),
    /// The stream entering the dead state (`dead`).
    Dead,
}

impl TriggerCondition {
    /// Parse a condition string against the tagger's token names.
    ///
    /// Accepted forms: `token:<name>`, `edge:<from>-><to>`, `dead`.
    /// Names match a token exactly, or its base name when the grammar
    /// mints context-qualified variants (`name@2` matches `name`).
    pub fn parse(spec: &str, token_names: &[String]) -> Result<TriggerCondition, String> {
        let indices_of = |pat: &str| -> Vec<u32> {
            token_names
                .iter()
                .enumerate()
                .filter(|(_, n)| n.as_str() == pat || n.split('@').next() == Some(pat))
                .map(|(i, _)| i as u32)
                .collect()
        };
        if spec == "dead" {
            return Ok(TriggerCondition::Dead);
        }
        if let Some(name) = spec.strip_prefix("token:") {
            let hits = indices_of(name);
            if hits.is_empty() {
                return Err(format!(
                    "trigger: unknown token {name:?} (try one of: {})",
                    token_names.join(", ")
                ));
            }
            return Ok(TriggerCondition::TokenFire(hits));
        }
        if let Some(edge) = spec.strip_prefix("edge:") {
            let (from, to) = edge.split_once("->").ok_or_else(|| {
                format!("trigger: edge condition needs <from>-><to>, got {edge:?}")
            })?;
            let froms = indices_of(from);
            let tos = indices_of(to);
            if froms.is_empty() || tos.is_empty() {
                let bad = if froms.is_empty() { from } else { to };
                return Err(format!("trigger: unknown token {bad:?} in edge condition"));
            }
            let mut pairs = Vec::new();
            for &f in &froms {
                for &t in &tos {
                    pairs.push((f, t));
                }
            }
            return Ok(TriggerCondition::Edge(pairs));
        }
        Err(format!(
            "trigger: unknown condition {spec:?} (want token:<name>, edge:<from>-><to>, or dead)"
        ))
    }

    /// Whether a trace event satisfies this condition.
    pub fn matches(&self, event: &TraceEvent) -> bool {
        let get = |key: &str| {
            event.fields.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
                Value::U(x) => Some(*x as u32),
                Value::I(x) => Some(*x as u32),
                _ => None,
            })
        };
        match self {
            TriggerCondition::TokenFire(set) => {
                event.kind == "token_fire" && get("token").is_some_and(|t| set.contains(&t))
            }
            TriggerCondition::Edge(pairs) => {
                event.kind == "follow_edge"
                    && match (get("from"), get("to")) {
                        (Some(f), Some(t)) => pairs.contains(&(f, t)),
                        _ => false,
                    }
            }
            TriggerCondition::Dead => event.kind == "dead_entry",
        }
    }
}

#[derive(Debug)]
enum CaptureState {
    Armed,
    Capturing { events: Vec<(u64, TraceEvent)>, remaining: usize },
    Complete(Vec<(u64, TraceEvent)>),
}

/// One armed capture: a condition plus a pre/post window.
#[derive(Debug)]
pub struct Trigger {
    cond: TriggerCondition,
    pre: usize,
    post: usize,
    state: Mutex<CaptureState>,
}

impl Trigger {
    fn new(cond: TriggerCondition, pre: usize, post: usize) -> Trigger {
        Trigger { cond, pre, post, state: Mutex::new(CaptureState::Armed) }
    }

    /// The armed condition.
    pub fn condition(&self) -> &TriggerCondition {
        &self.cond
    }

    /// The `(pre, post)` window this trigger captures, after clamping.
    pub fn window(&self) -> (usize, usize) {
        (self.pre, self.post)
    }

    /// Whether the condition has fired (capture may still be filling).
    pub fn fired(&self) -> bool {
        !matches!(*self.state.lock().unwrap(), CaptureState::Armed)
    }

    /// Whether the post window is full and the capture is readable.
    pub fn complete(&self) -> bool {
        matches!(*self.state.lock().unwrap(), CaptureState::Complete(_))
    }

    /// Offer one event (already recorded in `ring` under `seq`). The
    /// ring snapshot taken at trigger time *includes* the triggering
    /// event, so the capture window always contains it.
    fn offer(&self, seq: u64, event: &TraceEvent, ring: &FlightRecorder) {
        let mut state = self.state.lock().unwrap();
        match &mut *state {
            CaptureState::Armed => {
                if !self.cond.matches(event) {
                    return;
                }
                let mut events = ring.entries();
                // Keep `pre` events of history plus the trigger itself.
                let keep = self.pre.saturating_add(1);
                if events.len() > keep {
                    events.drain(..events.len() - keep);
                }
                *state = if self.post == 0 {
                    CaptureState::Complete(events)
                } else {
                    CaptureState::Capturing { events, remaining: self.post }
                };
            }
            CaptureState::Capturing { events, remaining } => {
                events.push((seq, event.clone()));
                *remaining -= 1;
                if *remaining == 0 {
                    let done = std::mem::take(events);
                    *state = CaptureState::Complete(done);
                }
            }
            CaptureState::Complete(_) => {}
        }
    }

    /// Force completion with whatever has been captured so far (used at
    /// stream end so a fired-but-unfilled post window is still
    /// readable). No-op while still armed.
    pub fn flush(&self) {
        let mut state = self.state.lock().unwrap();
        if let CaptureState::Capturing { events, .. } = &mut *state {
            let done = std::mem::take(events);
            *state = CaptureState::Complete(done);
        }
    }

    /// The completed capture as `{"seq":N,...}` JSON lines (oldest
    /// first, trailing newline), or `None` until [`Trigger::complete`].
    pub fn capture_jsonl(&self) -> Option<String> {
        match &*self.state.lock().unwrap() {
            CaptureState::Complete(events) => {
                let mut out = String::new();
                for (seq, event) in events {
                    event.push_json_line(*seq, &mut out);
                }
                Some(out)
            }
            _ => None,
        }
    }
}

/// The trigger hub: a [`MetricsSink`] that records the trace stream
/// into a flight ring and drives at most one armed [`Trigger`] over it.
///
/// Tee it in next to the stats sink, in place of the flight recorder it
/// writes; arming and reading out happen from the exporter thread while
/// the engine keeps streaming.
#[derive(Debug)]
pub struct TriggerHub {
    token_names: Vec<String>,
    flight: Arc<FlightRecorder>,
    active: Mutex<Option<Arc<Trigger>>>,
}

impl TriggerHub {
    /// A hub resolving condition strings against these token names and
    /// recording every trace event into `flight`, the ring its captures
    /// are cut from.
    pub fn new(token_names: Vec<String>, flight: Arc<FlightRecorder>) -> TriggerHub {
        TriggerHub { token_names, flight, active: Mutex::new(None) }
    }

    /// The token names conditions are resolved against.
    pub fn token_names(&self) -> &[String] {
        &self.token_names
    }

    /// Arm a capture (replacing any previous one): `spec` is a
    /// [`TriggerCondition`] string, `pre`/`post` size the window. Both
    /// sides arrive from untrusted input (`/trigger?pre=&post=`), so each
    /// is clamped to the flight ring's capacity; [`Trigger::window`]
    /// reports what was armed.
    pub fn arm(&self, spec: &str, pre: usize, post: usize) -> Result<Arc<Trigger>, String> {
        let cond = TriggerCondition::parse(spec, &self.token_names)?;
        let cap = self.flight.capacity();
        let trigger = Arc::new(Trigger::new(cond, pre.min(cap), post.min(cap)));
        *self.active.lock().unwrap() = Some(Arc::clone(&trigger));
        Ok(trigger)
    }

    /// The currently armed (or fired) trigger, if any.
    pub fn active(&self) -> Option<Arc<Trigger>> {
        self.active.lock().unwrap().clone()
    }

    /// The active trigger's completed capture, if it is readable.
    pub fn capture_jsonl(&self) -> Option<String> {
        self.active().and_then(|t| t.capture_jsonl())
    }

    /// Force-complete a fired capture at stream end (see
    /// [`Trigger::flush`]).
    pub fn flush(&self) {
        if let Some(t) = self.active() {
            t.flush();
        }
    }
}

impl MetricsSink for TriggerHub {
    fn time(&self, span: &'static str, nanos: u64) {
        self.trace(TraceEvent::new("span").field("name", span).field("nanos", nanos));
    }

    fn trace(&self, event: TraceEvent) {
        match self.active() {
            Some(trigger) => {
                let seq = self.flight.push(event.clone());
                trigger.offer(seq, &event, &self.flight);
            }
            None => {
                self.flight.push(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        ["if", "true", "then", "go"].iter().map(|s| s.to_string()).collect()
    }

    fn hub() -> TriggerHub {
        TriggerHub::new(names(), Arc::new(FlightRecorder::default()))
    }

    #[test]
    fn parse_conditions() {
        let n = names();
        assert_eq!(
            TriggerCondition::parse("token:go", &n),
            Ok(TriggerCondition::TokenFire(vec![3]))
        );
        assert_eq!(
            TriggerCondition::parse("edge:if->true", &n),
            Ok(TriggerCondition::Edge(vec![(0, 1)]))
        );
        assert_eq!(TriggerCondition::parse("dead", &n), Ok(TriggerCondition::Dead));
        assert!(TriggerCondition::parse("token:nope", &n).is_err());
        assert!(TriggerCondition::parse("edge:if>true", &n).is_err());
        assert!(TriggerCondition::parse("edge:if->nope", &n).is_err());
        assert!(TriggerCondition::parse("bogus", &n).is_err());
    }

    #[test]
    fn context_qualified_names_match_base() {
        let n = vec!["if".to_string(), "go@1".to_string(), "go@2".to_string()];
        assert_eq!(
            TriggerCondition::parse("token:go", &n),
            Ok(TriggerCondition::TokenFire(vec![1, 2]))
        );
    }

    #[test]
    fn capture_window_contains_the_trigger() {
        let hub = hub();
        let trigger = hub.arm("token:go", 2, 1).unwrap();
        for i in 0..5u32 {
            hub.trace(TraceEvent::new("token_fire").field("token", 0u32).field("i", i));
        }
        assert!(!trigger.fired());
        hub.trace(TraceEvent::new("token_fire").field("token", 3u32));
        assert!(trigger.fired());
        assert!(!trigger.complete());
        hub.trace(TraceEvent::new("span").field("name", "feed").field("nanos", 1u64));
        assert!(trigger.complete());
        let dump = hub.capture_jsonl().unwrap();
        // 2 pre + trigger + 1 post = 4 lines, trigger third.
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("\"token\":3"));
        assert!(lines[3].contains("\"kind\":\"span\""));
        assert!(dump.ends_with('\n'));
    }

    #[test]
    fn zero_post_completes_immediately_and_rearming_replaces() {
        let hub = hub();
        let t1 = hub.arm("token:if", 8, 0).unwrap();
        hub.trace(TraceEvent::new("token_fire").field("token", 0u32));
        assert!(t1.complete());
        assert!(hub.capture_jsonl().unwrap().contains("\"token\":0"));
        // Re-arm: the hub drives the new trigger; the old Arc stays
        // readable.
        let t2 = hub.arm("dead", 0, 0).unwrap();
        hub.trace(TraceEvent::new("dead_entry").field("at", 9u64));
        assert!(t2.complete());
        assert!(t1.complete());
        let dump = hub.capture_jsonl().unwrap();
        assert_eq!(dump.lines().count(), 1);
        assert!(dump.contains("\"kind\":\"dead_entry\""));
    }

    #[test]
    fn edge_condition_fires_on_follow_edge_events() {
        let hub = hub();
        let trigger = hub.arm("edge:if->true", 0, 0).unwrap();
        hub.trace(TraceEvent::new("follow_edge").field("from", 0u32).field("to", 2u32));
        assert!(!trigger.fired());
        hub.trace(TraceEvent::new("follow_edge").field("from", 0u32).field("to", 1u32));
        assert!(trigger.complete());
    }

    #[test]
    fn flush_makes_a_partial_post_window_readable() {
        let hub = hub();
        let trigger = hub.arm("token:go", 0, 100).unwrap();
        hub.flush(); // still armed: no-op
        assert!(!trigger.fired());
        hub.trace(TraceEvent::new("token_fire").field("token", 3u32));
        assert!(trigger.fired() && !trigger.complete());
        hub.flush();
        assert!(trigger.complete());
        assert_eq!(hub.capture_jsonl().unwrap().lines().count(), 1);
    }

    #[test]
    fn hostile_windows_clamp_to_the_ring_capacity() {
        let flight = Arc::new(FlightRecorder::new(8));
        let hub = TriggerHub::new(names(), Arc::clone(&flight));
        // A huge post window still completes once the ring's worth of
        // events has followed the trigger.
        let trigger = hub.arm("token:go", usize::MAX, usize::MAX).unwrap();
        assert_eq!(trigger.window(), (8, 8));
        for i in 0..3u32 {
            hub.trace(TraceEvent::new("token_fire").field("token", 0u32).field("i", i));
        }
        hub.trace(TraceEvent::new("token_fire").field("token", 3u32));
        for i in 0..7u32 {
            hub.trace(TraceEvent::new("span").field("i", i));
        }
        assert!(!trigger.complete());
        hub.trace(TraceEvent::new("span").field("i", 7u32));
        assert!(trigger.complete());
        // A huge pre window keeps all the history the ring held, with
        // the triggering event in it.
        let dump = hub.capture_jsonl().unwrap();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4 + 8);
        assert!(lines[3].contains("\"token\":3"), "{lines:?}");
        assert_eq!(flight.recorded(), 12, "each event is recorded once, in the shared ring");
    }
}
