//! The streaming-engine API — one trait, one constructor.
//!
//! Three engines execute the same compiled structure — the production
//! engine ([`BitEngine`], a table walk over the bit-parallel tables),
//! the scalar reference ([`crate::ScalarEngine`]) and the simulated circuit
//! ([`crate::GateEngine`], wrapped in a [`GateStream`]) — behind one
//! object-safe [`Engine`] trait and one constructor,
//! [`crate::TokenTagger::engine`], selected by [`EngineKind`].
//!
//! The trait is slice-first: callers hand the engine whole buffers and
//! a reusable output vector ([`Engine::feed_slice`]), so the bit
//! engine's table walk and dead-run skip see the full slice instead of
//! a per-byte drip, and the server/shard hot paths stop allocating a
//! `Vec` per frame. An engine tags one stream; build a fresh one per
//! stream — a bit engine allocates nothing.
//!
//! ```
//! use cfg_grammar::builtin;
//! use cfg_tagger::{Engine, EngineKind, TaggerOptions, TokenTagger};
//!
//! let t = TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap();
//! for kind in EngineKind::ALL {
//!     let mut e = t.engine(kind).unwrap();
//!     let mut events = Vec::new();
//!     e.feed_slice(b"if true then go else stop", &mut events).unwrap();
//!     e.finish_into(&mut events).unwrap();
//!     assert_eq!(events.len(), 6, "{kind}");
//!     assert!(!e.is_dead());
//! }
//! ```
//!
//! Methods return `Result` because the gate-level engine can fail in
//! the simulator; the software engines always return `Ok`.

use crate::bitset::{BitEngine, BitTables};
use crate::error::Error;
use crate::event::TagEvent;
use crate::gate::GateEngine;
use cfg_obs::{Metrics, Stat, StatsSink};
use cfg_regex::Nfa;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A streaming token-tagging engine over one compiled grammar.
///
/// Object-safe: [`crate::TokenTagger::engine`] hands out
/// `Box<dyn Engine>` so callers select the implementation at runtime
/// (e.g. `cfgtag tag --engine scalar`).
pub trait Engine: Send {
    /// Feed a whole buffer; completed events are appended to `out` (an
    /// event is only emitted once its lookahead byte has been seen).
    /// Panics if the engine has finished.
    fn feed_slice(&mut self, bytes: &[u8], out: &mut Vec<TagEvent>) -> Result<(), Error>;

    /// End the stream (flush lookahead / pipeline), appending the final
    /// events to `out`. The engine is exhausted afterwards: a second
    /// call appends nothing and records nothing.
    fn finish_into(&mut self, out: &mut Vec<TagEvent>) -> Result<(), Error>;

    /// Is the machine dead — no live state, so no further events can
    /// fire until a §5.2 resync (or never, with recovery off)?
    fn is_dead(&self) -> bool;

    /// Allocating convenience wrapper over [`Engine::feed_slice`].
    fn feed(&mut self, bytes: &[u8]) -> Result<Vec<TagEvent>, Error> {
        let mut out = Vec::new();
        self.feed_slice(bytes, &mut out)?;
        Ok(out)
    }

    /// Allocating convenience wrapper over [`Engine::finish_into`].
    fn finish(&mut self) -> Result<Vec<TagEvent>, Error> {
        let mut out = Vec::new();
        self.finish_into(&mut out)?;
        Ok(out)
    }
}

/// Which engine [`crate::TokenTagger::engine`] should construct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The production engine ([`BitEngine`]): a lazily built table over
    /// the bit-parallel step — the default.
    #[default]
    Bit,
    /// The scalar reference mirror ([`crate::ScalarEngine`]).
    Scalar,
    /// The generated circuit, simulated cycle by cycle and wrapped in
    /// a [`GateStream`] for span recovery and liveness.
    Gate,
}

impl EngineKind {
    /// All kinds, for exhaustive cross-engine tests.
    pub const ALL: [EngineKind; 3] = [EngineKind::Bit, EngineKind::Scalar, EngineKind::Gate];

    /// The stable CLI name (`bit` / `scalar` / `gate`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Bit => "bit",
            EngineKind::Scalar => "scalar",
            EngineKind::Gate => "gate",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineKind, String> {
        match s {
            "bit" => Ok(EngineKind::Bit),
            "scalar" => Ok(EngineKind::Scalar),
            "gate" => Ok(EngineKind::Gate),
            other => Err(format!("unknown engine {other:?} (expected one of: bit, scalar, gate)")),
        }
    }
}

/// The gate-level engine adapted to the streaming [`Engine`] API.
///
/// The circuit only asserts match *ends*; spans are recovered in
/// software by running each token's reversed automaton backwards over
/// the stream seen so far (§3.4), back to a byte where the circuit's
/// enable wire for the token was high, which is why this wrapper
/// buffers the input. Liveness (`is_dead`, §5.2 resync counting) is not
/// observable on the match lines either, so a [`BitEngine`] mirror with
/// a private stats sink is fed in lockstep. At `finish` the mirror's
/// `resyncs` / `dead_entries` counters are folded into the engine's
/// metrics handle so observability matches the software path.
pub struct GateStream {
    gate: GateEngine,
    mirror: BitEngine,
    mirror_sink: Arc<StatsSink>,
    reverse_nfas: Arc<Vec<Nfa>>,
    buf: Vec<u8>,
    metrics: Metrics,
    /// Reused sink for the mirror's (discarded) events, so the trait's
    /// slice path does not allocate a vector per frame.
    mirror_out: Vec<TagEvent>,
    finished: bool,
}

impl GateStream {
    /// Wrap `gate`, with a liveness mirror over `tables` that records
    /// into a private sink so bytes and events are not counted twice.
    pub(crate) fn new(
        gate: GateEngine,
        tables: Arc<BitTables>,
        reverse_nfas: Arc<Vec<Nfa>>,
        metrics: Metrics,
    ) -> GateStream {
        let mirror_sink = Arc::new(StatsSink::new());
        let mirror = BitEngine::new(tables).with_metrics(Metrics::new(mirror_sink.clone()));
        GateStream {
            gate,
            mirror,
            mirror_sink,
            reverse_nfas,
            buf: Vec::new(),
            metrics,
            mirror_out: Vec::new(),
            finished: false,
        }
    }

    fn resolve(&self, raw: &[crate::event::RawMatch]) -> Vec<TagEvent> {
        crate::gate::resolve_spans(&self.reverse_nfas, &self.gate, &self.buf, raw)
    }
}

impl fmt::Debug for GateStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GateStream").field("buffered", &self.buf.len()).finish_non_exhaustive()
    }
}

impl Engine for GateStream {
    fn feed_slice(&mut self, bytes: &[u8], out: &mut Vec<TagEvent>) -> Result<(), Error> {
        assert!(!self.finished, "feed after finish");
        self.buf.extend_from_slice(bytes);
        self.mirror_out.clear();
        self.mirror.feed_slice(bytes, &mut self.mirror_out)?;
        let raw = self.gate.feed(bytes)?;
        out.extend(self.resolve(&raw));
        Ok(())
    }

    fn finish_into(&mut self, out: &mut Vec<TagEvent>) -> Result<(), Error> {
        if std::mem::replace(&mut self.finished, true) {
            return Ok(());
        }
        self.mirror.finish_into(&mut self.mirror_out)?;
        let raw = self.gate.finish()?;
        // Liveness counters come from the functional mirror; fold them
        // in without double-counting bytes or events (the mirror's sink
        // is private and otherwise discarded).
        self.metrics.add(Stat::Resyncs, self.mirror_sink.get(Stat::Resyncs));
        self.metrics.add(Stat::DeadEntries, self.mirror_sink.get(Stat::DeadEntries));
        out.extend(self.resolve(&raw));
        Ok(())
    }

    fn is_dead(&self) -> bool {
        self.mirror.is_dead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagger::{TaggerOptions, TokenTagger};
    use cfg_grammar::builtin;

    fn tagger(opts: TaggerOptions) -> TokenTagger {
        TokenTagger::compile(&builtin::if_then_else(), opts).unwrap()
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.name().parse::<EngineKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        // Unknown names are refused with the list of kinds that exist.
        let err = "fpga".parse::<EngineKind>().unwrap_err();
        assert!(err.contains("bit, scalar, gate"), "{err}");
    }

    #[test]
    fn all_kinds_agree_through_the_trait() {
        let t = tagger(TaggerOptions::default());
        let input = b"if true then go else stop";
        let expect = t.tag(input);
        assert_eq!(expect.len(), 6);
        for kind in EngineKind::ALL {
            let mut e = t.engine(kind).unwrap();
            let mut events = e.feed(input).unwrap();
            events.extend(e.finish().unwrap());
            assert_eq!(events, expect, "kind {kind}");
        }
    }

    #[test]
    fn chunked_feeds_match_batch_for_every_kind() {
        let t = tagger(TaggerOptions::default());
        let input = b"if false then stop else go";
        let expect = t.tag(&input[..]);
        for kind in EngineKind::ALL {
            for chunk in [1usize, 3, 5] {
                let mut e = t.engine(kind).unwrap();
                let mut events = Vec::new();
                for c in input.chunks(chunk) {
                    events.extend(e.feed(c).unwrap());
                }
                events.extend(e.finish().unwrap());
                assert_eq!(events, expect, "kind {kind} chunk {chunk}");
            }
        }
    }

    #[test]
    fn is_dead_reported_uniformly() {
        let t = tagger(TaggerOptions::default());
        for kind in EngineKind::ALL {
            let mut e = t.engine(kind).unwrap();
            assert!(!e.is_dead(), "fresh {kind} engine is live");
            e.feed(b"zzzz ").unwrap();
            e.finish().unwrap();
            assert!(e.is_dead(), "kind {kind} should be dead after garbage");
        }
    }

    #[test]
    fn gate_stream_folds_liveness_counters() {
        use cfg_obs::{Metrics, Stat, StatsSink};
        use std::sync::Arc;
        let sink = Arc::new(StatsSink::new());
        let opts = TaggerOptions::builder().metrics(Metrics::new(sink.clone())).build();
        let t = tagger(opts);
        let mut e = t.engine(EngineKind::Gate).unwrap();
        e.feed(b"go zzz").unwrap();
        e.finish().unwrap();
        assert!(e.is_dead());
        assert_eq!(sink.get(Stat::DeadEntries), 1);
        // Bytes are counted once (by the gate engine, not the mirror).
        assert_eq!(sink.get(Stat::BytesIn), 6);
        assert!(sink.get(Stat::GateCycles) > 0, "gate engine cycles recorded");
    }

    /// With an empty FIRST(start) the machine is dead from its first
    /// byte. Every kind counts that dead entry as the scalar reference
    /// does, in every start mode × recovery combination.
    #[test]
    fn empty_first_set_counts_its_dead_entry() {
        use cfg_grammar::Grammar;
        use cfg_obs::{Metrics, Stat, StatsSink};
        use std::sync::Arc;
        let g = Grammar::parse("A a\nB b\n%%\ns: s A s;\n%%\n").unwrap();
        for (always, recover) in [(false, false), (true, false), (false, true), (true, true)] {
            let opts = TaggerOptions::builder()
                .start_mode(if always {
                    crate::StartMode::Always
                } else {
                    crate::StartMode::AtStart
                })
                .error_recovery(recover)
                .build();
            let t = TokenTagger::compile(&g, opts).unwrap();
            let run = |kind: EngineKind| {
                let sink = Arc::new(StatsSink::new());
                let mut e =
                    t.clone().with_metrics(Metrics::new(sink.clone())).engine(kind).unwrap();
                e.feed(b"ab ab").unwrap();
                e.finish().unwrap();
                (sink.get(Stat::DeadEntries), sink.get(Stat::Resyncs), e.is_dead())
            };
            let expect = run(EngineKind::Scalar);
            if (always, recover) == (false, false) {
                assert_eq!(expect, (1, 0, true));
            }
            for kind in [EngineKind::Bit, EngineKind::Gate] {
                assert_eq!(run(kind), expect, "{kind} always={always} recover={recover}");
            }
        }
    }

    /// A second `finish` is a no-op for every kind: it appends no event
    /// and moves no counter, so the gate kind neither folds its mirror's
    /// liveness counters nor clocks its flush twice.
    #[test]
    fn second_finish_changes_nothing() {
        use cfg_obs::{Metrics, Stat, StatsSink};
        use std::sync::Arc;
        let input = b"zz go zz if true then go else stop";
        for recover in [false, true] {
            let t = tagger(TaggerOptions::builder().error_recovery(recover).build());
            for kind in EngineKind::ALL {
                let sink = Arc::new(StatsSink::new());
                let mut e =
                    t.clone().with_metrics(Metrics::new(sink.clone())).engine(kind).unwrap();
                e.feed(input).unwrap();
                e.finish().unwrap();
                let counters = Stat::ALL.map(|s| sink.get(s));
                let expect = if recover { (2, 2) } else { (1, 0) };
                assert_eq!(
                    (sink.get(Stat::DeadEntries), sink.get(Stat::Resyncs)),
                    expect,
                    "{kind} recover={recover}"
                );
                assert_eq!(e.finish().unwrap(), [], "{kind} recover={recover}");
                assert_eq!(Stat::ALL.map(|s| sink.get(s)), counters, "{kind} recover={recover}");
            }
        }
    }
}
