//! Shadow-audit telemetry: live correctness counters and the evidence
//! kept for each divergence.
//!
//! The ingest server samples live sessions and replays them through the
//! reference engines off the fast path (see `cfg-server`). What that
//! audit lane *learns* lands here: an [`AuditBank`] of relaxed counters
//! (sessions sampled/audited/shed, fires confirmed by the exact parser,
//! per-token false positives, cross-engine divergences) and one
//! [`Mismatch`] per divergence — the byte window, its offset, and both
//! engines' event streams — kept in an [`crate::EventRing`] and dumped
//! as JSON lines for post-mortem diffing.
//!
//! The same zero-overhead-when-off discipline as the rest of the crate
//! applies: a server that was not asked to audit never constructs
//! either structure, so the serving path stays metrics-dark.

use crate::json;
use crate::ring::{push_seq_open, JsonLine};
use crate::snapshot::{Kind, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// One tag event as the audit lane stores it. `cfg-obs` sits below the
/// tagger, so this is a plain `(token, start, end)` triple; the server
/// converts the engine's events on the way in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditEvent {
    /// Token index (the grammar's token table order).
    pub token: u32,
    /// Lexeme start offset within the audited frame.
    pub start: u64,
    /// Lexeme end offset (exclusive) within the audited frame.
    pub end: u64,
}

/// Relaxed counters for the shadow-audit lane.
///
/// All increments are `Relaxed` atomics — audit workers on several
/// threads bump them concurrently and scrapes tolerate being a hair
/// stale.
#[derive(Debug)]
pub struct AuditBank {
    sessions_sampled: AtomicU64,
    sessions_audited: AtomicU64,
    sessions_shed: AtomicU64,
    frames_audited: AtomicU64,
    bytes_audited: AtomicU64,
    fires_total: AtomicU64,
    fires_confirmed: AtomicU64,
    divergences: AtomicU64,
    /// One false-positive counter per token, dense in token order.
    false_positives: Vec<AtomicU64>,
}

impl AuditBank {
    /// A bank with one false-positive counter per token.
    pub fn new(token_count: usize) -> AuditBank {
        AuditBank {
            sessions_sampled: AtomicU64::new(0),
            sessions_audited: AtomicU64::new(0),
            sessions_shed: AtomicU64::new(0),
            frames_audited: AtomicU64::new(0),
            bytes_audited: AtomicU64::new(0),
            fires_total: AtomicU64::new(0),
            fires_confirmed: AtomicU64::new(0),
            divergences: AtomicU64::new(0),
            false_positives: (0..token_count).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A session matched the 1-in-N sample and its bytes are being
    /// mirrored.
    pub fn session_sampled(&self) {
        self.sessions_sampled.fetch_add(1, Ordering::Relaxed);
    }

    /// A sampled session's replay completed.
    pub fn session_audited(&self) {
        self.sessions_audited.fetch_add(1, Ordering::Relaxed);
    }

    /// A sampled session was dropped because the audit queue was full
    /// (the fast path never blocks on the audit lane).
    pub fn session_shed(&self) {
        self.sessions_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// One frame of `bytes` payload bytes was replayed.
    pub fn frame_audited(&self, bytes: u64) {
        self.frames_audited.fetch_add(1, Ordering::Relaxed);
        self.bytes_audited.fetch_add(bytes, Ordering::Relaxed);
    }

    /// The production engine fired `total` events on an audited frame,
    /// of which the exact parser confirmed `confirmed`.
    pub fn fires(&self, total: u64, confirmed: u64) {
        self.fires_total.fetch_add(total, Ordering::Relaxed);
        self.fires_confirmed.fetch_add(confirmed, Ordering::Relaxed);
    }

    /// One unconfirmed fire of `token` — the paper's §3.5 false
    /// positive, observed live.
    pub fn false_positive(&self, token: u32) {
        if let Some(c) = self.false_positives.get(token as usize) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The fast and reference engines disagreed on an audited frame.
    pub fn divergence(&self) {
        self.divergences.fetch_add(1, Ordering::Relaxed);
    }

    /// Sessions that matched the sample.
    pub fn sessions_sampled(&self) -> u64 {
        self.sessions_sampled.load(Ordering::Relaxed)
    }

    /// Sampled sessions fully replayed.
    pub fn sessions_audited(&self) -> u64 {
        self.sessions_audited.load(Ordering::Relaxed)
    }

    /// Sampled sessions shed on a full audit queue.
    pub fn sessions_shed(&self) -> u64 {
        self.sessions_shed.load(Ordering::Relaxed)
    }

    /// Frames replayed.
    pub fn frames_audited(&self) -> u64 {
        self.frames_audited.load(Ordering::Relaxed)
    }

    /// Payload bytes replayed.
    pub fn bytes_audited(&self) -> u64 {
        self.bytes_audited.load(Ordering::Relaxed)
    }

    /// Production fires observed on audited frames.
    pub fn fires_total(&self) -> u64 {
        self.fires_total.load(Ordering::Relaxed)
    }

    /// Fires the exact parser confirmed.
    pub fn fires_confirmed(&self) -> u64 {
        self.fires_confirmed.load(Ordering::Relaxed)
    }

    /// Cross-engine divergences observed.
    pub fn divergences(&self) -> u64 {
        self.divergences.load(Ordering::Relaxed)
    }

    /// False positives recorded for `token` (0 for out-of-range ids).
    pub fn false_positives(&self, token: u32) -> u64 {
        self.false_positives.get(token as usize).map(|c| c.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Tokens the bank tracks.
    pub fn token_count(&self) -> usize {
        self.false_positives.len()
    }

    /// Live precision: confirmed fires / total fires, as a percentage.
    /// `None` until an audited frame has fired at all.
    pub fn precision_pct(&self) -> Option<f64> {
        let total = self.fires_total();
        (total > 0).then(|| self.fires_confirmed() as f64 / total as f64 * 100.0)
    }

    /// Write the `cfgtag_audit_*` families: session outcomes, frames,
    /// bytes, fires by verdict, per-token false positives (nonzero
    /// tokens only, labelled `token` and, from `names`, `name`),
    /// divergences, and the precision gauge once a fire was audited.
    pub fn export(&self, snap: &mut Snapshot, names: &[String]) {
        let sessions = snap.push("cfgtag_audit_sessions_total", Kind::Counter);
        sessions.push(&[("outcome", "sampled")], self.sessions_sampled() as f64);
        sessions.push(&[("outcome", "audited")], self.sessions_audited() as f64);
        sessions.push(&[("outcome", "shed")], self.sessions_shed() as f64);
        snap.push("cfgtag_audit_frames_total", Kind::Counter)
            .push(&[], self.frames_audited() as f64);
        snap.push("cfgtag_audit_bytes_total", Kind::Counter).push(&[], self.bytes_audited() as f64);
        snap.push("cfgtag_audit_fires_total", Kind::Counter)
            .push(&[("verdict", "all")], self.fires_total() as f64)
            .push(&[("verdict", "confirmed")], self.fires_confirmed() as f64);
        let fps = snap.push("cfgtag_audit_false_positives_total", Kind::Counter);
        for (i, c) in self.false_positives.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n > 0 {
                let token = i.to_string();
                let mut labels = vec![("token", token.as_str())];
                labels.extend(names.get(i).map(|name| ("name", name.as_str())));
                fps.push(&labels, n as f64);
            }
        }
        snap.push("cfgtag_audit_divergences_total", Kind::Counter)
            .push(&[], self.divergences() as f64);
        if let Some(precision) = self.precision_pct() {
            snap.push("cfgtag_audit_precision_pct", Kind::Gauge).push(&[], precision);
        }
    }
}

/// Evidence for one cross-engine divergence: where it happened and
/// what each engine said.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Session id of the audited stream.
    pub session: u64,
    /// Frame index within the session (0-based, Data frames only).
    pub frame: u64,
    /// Byte offset of `window` within the frame payload.
    pub window_start: u64,
    /// The audited bytes (possibly truncated to a window).
    pub window: Vec<u8>,
    /// The production (bit) engine's events for the frame.
    pub fast: Vec<AuditEvent>,
    /// The reference (scalar) engine's events for the frame.
    pub reference: Vec<AuditEvent>,
}

/// A `/mismatches.jsonl` line: the window (UTF-8, lossy) and both
/// event streams.
impl JsonLine for Mismatch {
    fn push_json_line(&self, seq: u64, out: &mut String) {
        push_seq_open(out, seq);
        out.push_str("\"session\":");
        out.push_str(&self.session.to_string());
        out.push_str(",\"frame\":");
        out.push_str(&self.frame.to_string());
        out.push_str(",\"window_start\":");
        out.push_str(&self.window_start.to_string());
        out.push_str(",\"window\":");
        json::push_str(out, &String::from_utf8_lossy(&self.window));
        for (key, events) in [("fast", &self.fast), ("reference", &self.reference)] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":[");
            for (i, e) in events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"token\":{},\"start\":{},\"end\":{}}}",
                    e.token, e.start, e.end
                ));
            }
            out.push(']');
        }
        out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::ring::EventRing;

    #[test]
    fn audit_bank_counts_and_exports() {
        let bank = AuditBank::new(3);
        assert_eq!(bank.precision_pct(), None);
        bank.session_sampled();
        bank.session_sampled();
        bank.session_audited();
        bank.session_shed();
        bank.frame_audited(100);
        bank.frame_audited(28);
        bank.fires(10, 9);
        bank.false_positive(1);
        bank.false_positive(1);
        bank.false_positive(99); // out of range: ignored, not a panic
        bank.divergence();
        assert_eq!(bank.sessions_sampled(), 2);
        assert_eq!(bank.sessions_audited(), 1);
        assert_eq!(bank.sessions_shed(), 1);
        assert_eq!(bank.frames_audited(), 2);
        assert_eq!(bank.bytes_audited(), 128);
        assert_eq!(bank.fires_total(), 10);
        assert_eq!(bank.fires_confirmed(), 9);
        assert_eq!(bank.false_positives(1), 2);
        assert_eq!(bank.false_positives(0), 0);
        assert_eq!(bank.false_positives(99), 0);
        assert_eq!(bank.divergences(), 1);
        assert!((bank.precision_pct().unwrap() - 90.0).abs() < 1e-9);

        let mut snap = Snapshot::default();
        bank.export(&mut snap, &["A".to_string(), "B".to_string(), "C".to_string()]);
        let count = |name: &str, labels: &[(&str, &str)]| snap.value(name, labels).unwrap();
        assert_eq!(count("cfgtag_audit_sessions_total", &[("outcome", "sampled")]), 2.0);
        assert_eq!(count("cfgtag_audit_bytes_total", &[]), 128.0);
        assert_eq!(count("cfgtag_audit_fires_total", &[("verdict", "confirmed")]), 9.0);
        assert_eq!(count("cfgtag_audit_divergences_total", &[]), 1.0);
        assert!((count("cfgtag_audit_precision_pct", &[]) - 90.0).abs() < 1e-9);
        let fps = &snap.get("cfgtag_audit_false_positives_total").unwrap().series;
        assert_eq!(fps.len(), 1, "zero-count tokens are skipped");
        assert_eq!((fps[0].label("token"), fps[0].label("name")), (Some("1"), Some("B")));
        assert_eq!(fps[0].number(), Some(2.0));
    }

    #[test]
    fn empty_bank_exports_no_precision() {
        let mut snap = Snapshot::default();
        AuditBank::new(1).export(&mut snap, &[]);
        assert!(snap.get("cfgtag_audit_precision_pct").is_none());
        assert!(snap.get("cfgtag_audit_false_positives_total").unwrap().series.is_empty());
        assert_eq!(snap.value("cfgtag_audit_frames_total", &[]), Some(0.0));
    }

    fn mismatch(session: u64) -> Mismatch {
        Mismatch {
            session,
            frame: 3,
            window_start: 0,
            window: b"if true \"quoted\"".to_vec(),
            fast: vec![AuditEvent { token: 0, start: 0, end: 2 }],
            reference: vec![
                AuditEvent { token: 0, start: 0, end: 2 },
                AuditEvent { token: 1, start: 3, end: 7 },
            ],
        }
    }

    #[test]
    fn mismatch_lines_carry_the_window_and_both_event_streams() {
        let ring = EventRing::new(2);
        for s in 0..3 {
            ring.push(mismatch(s));
        }
        let dump = ring.dump_jsonl();
        assert_eq!(dump.lines().count(), 2);
        let first = Json::parse(dump.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("seq").and_then(Json::as_u64), Some(1));
        assert_eq!(first.get("session").and_then(Json::as_u64), Some(1));
        assert_eq!(first.get("frame").and_then(Json::as_u64), Some(3));
        // The quoted window survives JSON escaping.
        assert_eq!(first.get("window").and_then(Json::as_str), Some("if true \"quoted\""));
        assert_eq!(first.get("fast").and_then(Json::as_array).map(|a| a.len()), Some(1));
        let reference = first.get("reference").and_then(Json::as_array).unwrap();
        assert_eq!(reference.len(), 2);
        assert_eq!(reference[1].get("start").and_then(Json::as_u64), Some(3));
    }
}
