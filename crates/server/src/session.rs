//! The session table: who is connected, how recently they spoke, and
//! where their replies go.
//!
//! Each accepted connection becomes a session with a stable `u64` id —
//! the same id used for [`cfg_tagger::ShardPool::submit_to`] affinity,
//! so one session's messages always land on one shard in order. The
//! table enforces the `max_sessions` cap at open, timestamps every
//! frame ([`SessionTable::touch`]), and lets a janitor sweep idle
//! sessions in deterministic least-recently-active order. A session
//! with a frame still in flight is waiting on the server, not idle, so
//! the sweep passes it over.
//!
//! The table is generic over the reply-writer type: the server stores
//! a `TcpStream` clone, the unit tests a plain marker — eviction
//! ordering is testable without sockets or sleeps because every
//! time-dependent method has an `*_at` variant taking an explicit
//! `Instant`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Entry<W> {
    writer: Arc<Mutex<W>>,
    /// Accepted-but-not-yet-acked frames; `Close` drains this to zero
    /// before the server says `Bye`.
    pending: Arc<AtomicU64>,
    last_active: Instant,
    /// Monotonic touch counter — total-orders sessions whose `Instant`s
    /// are equal, so eviction order is deterministic.
    touch_seq: u64,
}

struct Inner<W> {
    sessions: HashMap<u64, Entry<W>>,
    next_id: u64,
    next_seq: u64,
}

/// A concurrent registry of live sessions with a hard cap.
pub struct SessionTable<W> {
    inner: Mutex<Inner<W>>,
    max_sessions: usize,
}

impl<W> SessionTable<W> {
    /// An empty table admitting at most `max_sessions` (≥ 1) sessions.
    pub fn new(max_sessions: usize) -> SessionTable<W> {
        SessionTable {
            inner: Mutex::new(Inner { sessions: HashMap::new(), next_id: 0, next_seq: 0 }),
            max_sessions: max_sessions.max(1),
        }
    }

    /// Admit a session now; see [`SessionTable::open_at`].
    pub fn open(&self, writer: W) -> Option<(u64, Arc<Mutex<W>>)> {
        self.open_at(writer, Instant::now())
    }

    /// Admit a session with `now` as its first activity. Returns its id
    /// and the shared reply-writer handle, or `None` when the table is
    /// at the cap (the caller answers BUSY and hangs up).
    pub fn open_at(&self, writer: W, now: Instant) -> Option<(u64, Arc<Mutex<W>>)> {
        let mut inner = self.inner.lock().expect("session table lock");
        if inner.sessions.len() >= self.max_sessions {
            return None;
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let writer = Arc::new(Mutex::new(writer));
        inner.sessions.insert(
            id,
            Entry {
                writer: Arc::clone(&writer),
                pending: Arc::new(AtomicU64::new(0)),
                last_active: now,
                touch_seq: seq,
            },
        );
        Some((id, writer))
    }

    /// Record activity now; see [`SessionTable::touch_at`].
    pub fn touch(&self, id: u64) {
        self.touch_at(id, Instant::now());
    }

    /// Record activity on `id` at `now`, refreshing its idle clock.
    pub fn touch_at(&self, id: u64, now: Instant) {
        self.touch_entry(id, now, false);
    }

    /// One in-flight frame of `id` was answered: release it from the
    /// drain count and refresh the idle clock, since a session that
    /// just got a reply has not gone quiet.
    pub fn answered(&self, id: u64) {
        self.touch_entry(id, Instant::now(), true);
    }

    fn touch_entry(&self, id: u64, now: Instant, answered: bool) {
        let mut inner = self.inner.lock().expect("session table lock");
        let seq = inner.next_seq;
        if let Some(entry) = inner.sessions.get_mut(&id) {
            entry.last_active = now;
            entry.touch_seq = seq;
            if answered {
                entry.pending.fetch_sub(1, Ordering::AcqRel);
            }
            inner.next_seq += 1;
        }
    }

    /// The reply-writer handle for a live session.
    pub fn writer(&self, id: u64) -> Option<Arc<Mutex<W>>> {
        self.inner
            .lock()
            .expect("session table lock")
            .sessions
            .get(&id)
            .map(|e| Arc::clone(&e.writer))
    }

    /// The in-flight (accepted, not yet acked) counter for a live
    /// session — incremented by the reader on accept, released by
    /// [`SessionTable::answered`] after the ack (or err) is written.
    pub fn pending(&self, id: u64) -> Option<Arc<AtomicU64>> {
        self.inner
            .lock()
            .expect("session table lock")
            .sessions
            .get(&id)
            .map(|e| Arc::clone(&e.pending))
    }

    /// Remove a session (client closed or connection died). Returns
    /// whether it was present.
    pub fn close(&self, id: u64) -> bool {
        self.inner.lock().expect("session table lock").sessions.remove(&id).is_some()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("session table lock").sessions.len()
    }

    /// Whether no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evict sessions idle at `now` for longer than `idle`; see
    /// [`SessionTable::evict_idle_at`].
    pub fn evict_idle(&self, idle: Duration) -> Vec<(u64, Arc<Mutex<W>>)> {
        self.evict_idle_at(idle, Instant::now())
    }

    /// Remove every session whose last activity is more than `idle`
    /// before `now` and that has no frame in flight, returning them
    /// **least-recently-active first** (by touch order) so the janitor
    /// reclaims the stalest session even if it stops after the first
    /// eviction.
    pub fn evict_idle_at(&self, idle: Duration, now: Instant) -> Vec<(u64, Arc<Mutex<W>>)> {
        let mut inner = self.inner.lock().expect("session table lock");
        let mut expired: Vec<(u64, u64)> = inner
            .sessions
            .iter()
            .filter(|(_, e)| {
                now.duration_since(e.last_active) > idle && e.pending.load(Ordering::Acquire) == 0
            })
            .map(|(id, e)| (e.touch_seq, *id))
            .collect();
        expired.sort_unstable();
        expired
            .into_iter()
            .map(|(_, id)| {
                let entry = inner.sessions.remove(&id).expect("session present");
                (id, entry.writer)
            })
            .collect()
    }
}

impl<W> std::fmt::Debug for SessionTable<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTable")
            .field("live", &self.len())
            .field("max_sessions", &self.max_sessions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_is_enforced_and_close_frees_a_slot() {
        let table: SessionTable<&'static str> = SessionTable::new(2);
        let (a, _) = table.open("a").unwrap();
        let (b, _) = table.open("b").unwrap();
        assert!(table.open("c").is_none(), "cap of 2 refuses a third session");
        assert!(table.close(a));
        assert!(!table.close(a), "double close is a no-op");
        let (c, writer) = table.open("c").unwrap();
        assert_ne!(c, b, "ids are never reused");
        assert_eq!(*writer.lock().unwrap(), "c");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn eviction_orders_least_recently_active_first() {
        let table: SessionTable<u32> = SessionTable::new(8);
        let base = Instant::now();
        let (a, _) = table.open_at(10, base).unwrap();
        let (b, _) = table.open_at(20, base).unwrap();
        let (c, _) = table.open_at(30, base).unwrap();
        // c is never touched after open, so it holds the oldest touch
        // sequence; b's refresh predates a's.
        table.touch_at(b, base + Duration::from_millis(1));
        table.touch_at(a, base + Duration::from_millis(2));
        let evicted = table.evict_idle_at(Duration::from_secs(1), base + Duration::from_secs(10));
        let ids: Vec<u64> = evicted.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![c, b, a], "stalest touch first");
        assert!(table.is_empty());
    }

    #[test]
    fn touch_keeps_a_session_out_of_the_sweep() {
        let table: SessionTable<u32> = SessionTable::new(8);
        let base = Instant::now();
        let (a, _) = table.open_at(1, base).unwrap();
        let (b, _) = table.open_at(2, base).unwrap();
        table.touch_at(b, base + Duration::from_millis(900));
        let evicted =
            table.evict_idle_at(Duration::from_millis(500), base + Duration::from_millis(1000));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, a);
        assert_eq!(table.len(), 1);
        assert!(table.writer(b).is_some());
        assert!(table.writer(a).is_none());
    }

    #[test]
    fn frames_in_flight_keep_a_session_out_of_the_sweep() {
        let table: SessionTable<u32> = SessionTable::new(8);
        let base = Instant::now();
        let (a, _) = table.open_at(1, base).unwrap();
        let pending = table.pending(a).unwrap();
        pending.fetch_add(1, Ordering::AcqRel);
        let late = base + Duration::from_secs(10);
        assert!(table.evict_idle_at(Duration::from_secs(1), late).is_empty());
        pending.fetch_sub(1, Ordering::AcqRel);
        let evicted = table.evict_idle_at(Duration::from_secs(1), late);
        assert_eq!(evicted.len(), 1, "acked and still silent: now it is idle");
    }

    #[test]
    fn an_answer_releases_the_frame_and_restarts_the_idle_clock() {
        let table: SessionTable<u32> = SessionTable::new(8);
        let (a, _) = table.open_at(1, Instant::now() - Duration::from_secs(10)).unwrap();
        let pending = table.pending(a).unwrap();
        pending.fetch_add(1, Ordering::AcqRel);
        table.answered(a);
        assert_eq!(pending.load(Ordering::Acquire), 0);
        assert!(table.evict_idle(Duration::from_secs(1)).is_empty(), "just answered: not idle");
    }
}
