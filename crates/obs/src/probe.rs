//! The probe bank: dense atomic counters addressed by stable probe ids.
//!
//! Where [`crate::StatsSink`] aggregates *engine*-level activity, a
//! [`ProbeBank`] watches individual *circuit elements* — one counter per
//! character decoder, tokenizer pipeline stage, and FOLLOW enable edge
//! of the synthesized tagger. Probe ids are strings minted by the
//! topology builder (`circuit.json`); indices into the bank are dense
//! `u32`s so the hot path is a bounds check plus one relaxed
//! `fetch_add`.
//!
//! Like the sink layer, the bank is zero-overhead-when-off: an engine
//! with no bank attached skips every probe update on its `None` branch.

use crate::json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed set of named activity counters over a synthesized circuit.
///
/// Construction fixes the id set (ids come from the circuit topology,
/// in topology order); recording is lock-free. Clone the
/// `Arc<ProbeBank>` freely — all clones see the same counters.
#[derive(Debug)]
pub struct ProbeBank {
    ids: Vec<String>,
    index: HashMap<String, u32>,
    counts: Vec<AtomicU64>,
}

impl ProbeBank {
    /// A bank over the given probe ids. Duplicate
    /// ids keep the first index (later duplicates still get a counter,
    /// but [`ProbeBank::probe`] resolves to the first).
    pub fn new(ids: Vec<String>) -> ProbeBank {
        let mut index = HashMap::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            index.entry(id.clone()).or_insert(i as u32);
        }
        let counts = ids.iter().map(|_| AtomicU64::new(0)).collect();
        ProbeBank { ids, index, counts }
    }

    /// Resolve a probe id to its dense index (build-time lookup only —
    /// the hot path works in indices).
    pub fn probe(&self, id: &str) -> Option<u32> {
        self.index.get(id).copied()
    }

    /// Record `n` activations of probe `idx`. Out-of-range indices are
    /// ignored (a bank rebuilt from a stale topology must not panic an
    /// engine mid-stream).
    #[inline]
    pub fn hit(&self, idx: u32, n: u64) {
        if let Some(c) = self.counts.get(idx as usize) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the bank has no probes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id of probe `i`.
    pub fn id(&self, i: u32) -> Option<&str> {
        self.ids.get(i as usize).map(String::as_str)
    }

    /// All probe ids, in topology order.
    pub fn ids(&self) -> &[String] {
        &self.ids
    }

    /// Current count of probe `idx` (0 if out of range).
    pub fn count(&self, idx: u32) -> u64 {
        self.counts.get(idx as usize).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// A point-in-time copy of every counter, in topology order.
    pub fn counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Encode as one JSON object:
    /// `{"enabled":true,"probes":[{"id":"...","count":N},...]}`. A bank
    /// is live whenever it is attached, so `enabled` is always `true`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + 32 * self.ids.len());
        out.push_str("{\"enabled\":true,\"probes\":[");
        for (i, id) in self.ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            json::push_str(&mut out, id);
            out.push_str(",\"count\":");
            out.push_str(&self.counts[i].load(Ordering::Relaxed).to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_resolve_and_count() {
        let bank =
            ProbeBank::new(vec!["dec/i".into(), "tok/if/fire".into(), "follow/if->true".into()]);
        assert_eq!(bank.len(), 3);
        assert!(!bank.is_empty());
        assert_eq!(bank.probe("tok/if/fire"), Some(1));
        assert_eq!(bank.probe("missing"), None);
        assert_eq!(bank.id(2), Some("follow/if->true"));
        bank.hit(1, 3);
        bank.hit(1, 1);
        bank.hit(99, 7); // out of range: ignored
        assert_eq!(bank.count(1), 4);
        assert_eq!(bank.count(99), 0);
        assert_eq!(bank.counts(), vec![0, 4, 0]);
    }

    #[test]
    fn json_shape_escapes_ids() {
        let bank = ProbeBank::new(vec!["dec/\"q".into()]);
        bank.hit(0, 5);
        assert_eq!(
            bank.to_json(),
            "{\"enabled\":true,\"probes\":[{\"id\":\"dec/\\\"q\",\"count\":5}]}"
        );
    }

    #[test]
    fn duplicate_ids_resolve_to_first() {
        let bank = ProbeBank::new(vec!["a".into(), "a".into()]);
        assert_eq!(bank.probe("a"), Some(0));
        assert_eq!(bank.len(), 2);
    }
}
