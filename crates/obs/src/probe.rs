//! The probe bank: dense atomic counters addressed by stable probe ids.
//!
//! Where [`crate::StatsSink`] aggregates *engine*-level activity, a
//! [`ProbeBank`] watches individual *circuit elements* — one probe per
//! character decoder, tokenizer pipeline stage, fire line and FOLLOW
//! enable edge of the synthesized tagger. Probe ids are strings minted
//! by the topology builder (`circuit.json`); indices into the bank are
//! dense `u32`s so the hot path is a bounds check plus one relaxed
//! `fetch_add`. A probe that is a wire from another element reads that
//! element's counter through an alias ([`ProbeBank::alias`]).
//!
//! Like the sink layer, the bank is zero-overhead-when-off: an engine
//! with no bank attached skips every probe update on its `None` branch.

use crate::snapshot::{Kind, Snapshot};
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
    /// The counter each probe reads and hits: its own, or the one it
    /// aliases.
    counter: Vec<u32>,
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
        let counter = (0..ids.len() as u32).collect();
        let counts = ids.iter().map(|_| AtomicU64::new(0)).collect();
        ProbeBank { ids, index, counter, counts }
    }

    /// Make probe `idx` read probe `source`'s counter: a wire that
    /// pulses exactly when its source does counts nothing of its own.
    /// Out-of-range indices are ignored.
    pub fn alias(&mut self, idx: u32, source: u32) {
        if let Some(&c) = self.counter.get(source as usize) {
            if let Some(slot) = self.counter.get_mut(idx as usize) {
                *slot = c;
            }
        }
    }

    /// The counter probe `idx` reads, if it is in range.
    fn counter(&self, idx: u32) -> Option<&AtomicU64> {
        self.counter.get(idx as usize).map(|&c| &self.counts[c as usize])
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
        if let Some(c) = self.counter(idx) {
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
        self.counter(idx).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// A point-in-time copy of every probe's count, in topology order.
    pub fn counts(&self) -> Vec<u64> {
        self.counter.iter().map(|&c| self.counts[c as usize].load(Ordering::Relaxed)).collect()
    }

    /// Write `cfgtag_probe_total`: one series per probe (`probe`
    /// label), in topology order with zero counts included, so a reader
    /// can hold the ids against `/circuit.json` 1:1.
    pub fn export(&self, snap: &mut Snapshot) {
        let family = snap.push("cfgtag_probe_total", Kind::Counter);
        for (id, count) in self.ids.iter().zip(self.counts()) {
            family.push(&[("probe", id)], count as f64);
        }
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
    fn export_lists_every_probe_in_order() {
        let bank = ProbeBank::new(vec!["dec/\"q".into(), "tok/go/fire".into()]);
        bank.hit(0, 5);
        let mut snap = Snapshot::default();
        bank.export(&mut snap);
        let family = snap.get("cfgtag_probe_total").unwrap();
        let rows: Vec<(&str, f64)> = family
            .series
            .iter()
            .map(|s| (s.label("probe").unwrap(), s.number().unwrap()))
            .collect();
        assert_eq!(rows, vec![("dec/\"q", 5.0), ("tok/go/fire", 0.0)]);
    }

    #[test]
    fn an_alias_reads_and_hits_its_source_counter() {
        let mut bank = ProbeBank::new(vec![
            "tok/if/fire".into(),
            "tok/go/fire".into(),
            "follow/if->go".into(),
        ]);
        bank.alias(2, 0);
        bank.alias(7, 0); // out of range: ignored
        bank.alias(1, 9);
        bank.hit(0, 3);
        bank.hit(1, 1);
        assert_eq!(bank.counts(), vec![3, 1, 3]);
        assert_eq!(bank.count(2), 3);
        let mut snap = Snapshot::default();
        bank.export(&mut snap);
        assert_eq!(snap.value("cfgtag_probe_total", &[("probe", "follow/if->go")]), Some(3.0));
    }

    #[test]
    fn duplicate_ids_resolve_to_first() {
        let bank = ProbeBank::new(vec!["a".into(), "a".into()]);
        assert_eq!(bank.probe("a"), Some(0));
        assert_eq!(bank.len(), 2);
    }
}
