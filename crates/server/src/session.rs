//! The session table: how many sessions are live, and their ids.
//!
//! Each accepted connection becomes a session with a stable `u64` id,
//! never reused; the id picks the session's shard gate (`id % shards`).
//! The table enforces the `max_sessions` cap at open and frees the slot
//! at close. Everything else about a session — its socket, its buffers,
//! its idle clock — belongs to the one reader thread that serves it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A concurrent count of live sessions with a hard cap.
pub struct SessionTable {
    live: AtomicUsize,
    next_id: AtomicU64,
    max_sessions: usize,
}

impl SessionTable {
    /// An empty table admitting at most `max_sessions` (≥ 1) sessions.
    pub fn new(max_sessions: usize) -> SessionTable {
        SessionTable {
            live: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            max_sessions: max_sessions.max(1),
        }
    }

    /// Admit a session: its id, or `None` when the table is at the cap
    /// (the caller answers `Busy` and hangs up).
    pub fn open(&self) -> Option<u64> {
        self.live
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.max_sessions).then_some(n + 1)
            })
            .ok()?;
        Some(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Free one admitted session's slot. Call once per session that
    /// [`SessionTable::open`] admitted.
    pub fn close(&self) {
        self.live.fetch_sub(1, Ordering::AcqRel);
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// Whether no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for SessionTable {
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
        let table = SessionTable::new(2);
        let a = table.open().unwrap();
        let b = table.open().unwrap();
        assert!(table.open().is_none(), "cap of 2 refuses a third session");
        table.close();
        let c = table.open().unwrap();
        assert!(c != a && c != b, "ids are never reused");
        assert_eq!(table.len(), 2);
        table.close();
        table.close();
        assert!(table.is_empty());
    }
}
