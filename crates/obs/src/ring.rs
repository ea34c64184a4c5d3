//! [`EventRing`]: the one bounded buffer under every telemetry ring —
//! the flight recorder, the span recorder and the audit lane's mismatch
//! evidence.
//!
//! A ring holds at most `capacity` entries and evicts the oldest first.
//! Every offered entry is stamped with the next sequence number, also at
//! capacity 0 where nothing is kept, so [`EventRing::recorded`] counts
//! everything ever offered and the first sequence number of a dump says
//! how many entries were evicted ahead of it.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// An entry type an [`EventRing`] can dump as JSON lines.
pub trait JsonLine {
    /// Append this entry, stamped `seq`, as one JSON object followed by
    /// a newline.
    fn push_json_line(&self, seq: u64, out: &mut String);
}

/// Append `{"seq":N,` — the opening every sequence-stamped line shares.
pub(crate) fn push_seq_open(out: &mut String, seq: u64) {
    out.push_str("{\"seq\":");
    out.push_str(&seq.to_string());
    out.push(',');
}

/// The sequence counter and the held entries, kept under one lock so
/// entries sit in the ring in sequence order.
struct Slots<T> {
    next_seq: u64,
    entries: VecDeque<(u64, T)>,
}

/// A fixed-capacity ring of sequence-stamped entries, oldest evicted
/// first.
pub struct EventRing<T> {
    capacity: usize,
    slots: Mutex<Slots<T>>,
}

impl<T> EventRing<T> {
    /// A ring holding up to `capacity` entries (0 counts offers but
    /// keeps none).
    pub fn new(capacity: usize) -> EventRing<T> {
        EventRing { capacity, slots: Mutex::new(Slots { next_seq: 0, entries: VecDeque::new() }) }
    }

    fn slots(&self) -> MutexGuard<'_, Slots<T>> {
        self.slots.lock().expect("event ring lock poisoned")
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.slots().entries.len()
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries ever offered, evicted and capacity-0 ones included — the
    /// sequence number the next entry will carry.
    pub fn recorded(&self) -> u64 {
        self.slots().next_seq
    }

    /// Offer one entry, evicting the oldest when full, and return the
    /// sequence number it was stamped with.
    pub fn push(&self, item: T) -> u64 {
        let mut slots = self.slots();
        let seq = slots.next_seq;
        slots.next_seq += 1;
        if self.capacity > 0 {
            if slots.entries.len() == self.capacity {
                slots.entries.pop_front();
            }
            slots.entries.push_back((seq, item));
        }
        seq
    }
}

impl<T: Clone> EventRing<T> {
    /// Copy out the held entries, oldest first, each with its sequence
    /// number.
    pub fn entries(&self) -> Vec<(u64, T)> {
        self.slots().entries.iter().cloned().collect()
    }
}

impl<T: JsonLine> EventRing<T> {
    /// The held entries as JSON lines, oldest first, each ending in a
    /// newline (empty when nothing is held).
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, item) in &self.slots().entries {
            item.push_json_line(*seq, &mut out);
        }
        out
    }
}

impl<T> std::fmt::Debug for EventRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_entries_with_their_sequence_numbers() {
        let ring = EventRing::new(3);
        for i in 0..5u32 {
            assert_eq!(ring.push(i), u64::from(i));
        }
        assert_eq!((ring.len(), ring.recorded(), ring.capacity()), (3, 5, 3));
        assert_eq!(ring.entries(), vec![(2, 2), (3, 3), (4, 4)], "oldest evicted first");
    }

    #[test]
    fn zero_capacity_counts_offers_but_keeps_nothing() {
        let ring = EventRing::new(0);
        assert_eq!(ring.push('a'), 0);
        assert_eq!(ring.push('b'), 1);
        assert!(ring.is_empty());
        assert_eq!(ring.recorded(), 2);
        assert_eq!(ring.entries(), Vec::new());
    }
}
