//! # cfg-tagger — the streaming token tagger (core public API)
//!
//! The paper's primary contribution as a library: compile a context-free
//! grammar into a streaming engine that tags each token occurrence with
//! its **grammatical context** at wire speed.
//!
//! [`TokenTagger::compile`] builds one compiled core that every clone of
//! the tagger shares: the grammar and the production engine's tables,
//! with the circuit and the other engines' tables built on first use.
//! [`TokenTagger::engine`] is the one way to build an engine over it,
//! driven through the [`Engine`] trait, and [`TokenTagger::tag`] tags a
//! whole input with the production engine. Three engines execute the
//! *same* generated structure:
//!
//! * [`GateEngine`] — drives the generated gate-level netlist cycle by
//!   cycle through `cfg-netlist`'s simulator: the circuit itself decides
//!   which token fires when (our stand-in for the FPGA).
//! * [`ScalarEngine`] — a functional mirror of that circuit at
//!   token/position granularity, hundreds of times faster; the readable
//!   reference the other software engines are checked against.
//! * [`BitEngine`] — the production engine: the circuit's finite-state
//!   machine as a lazily built tagged DFA, one table lookup per byte,
//!   with lexeme starts in a few registers. Its cold path is the
//!   bit-parallel step (all Glushkov positions in `u64` words, decoded
//!   through a 256-row byte-class ROM), which builds the table's
//!   transitions and runs the engine when probes, a trace-keeping sink
//!   or a grammar past the table's budget need it. A dead machine skips
//!   the rest of each slice in O(1). Property tests assert all three
//!   engines agree event-for-event (the repo's substitute for
//!   hardware/software co-verification).
//!
//! ```
//! use cfg_grammar::Grammar;
//! use cfg_tagger::{EngineKind, TaggerOptions, TokenTagger};
//!
//! let g = Grammar::parse(r#"
//!     %%
//!     E: "if" C "then" E "else" E | "go" | "stop";
//!     C: "true" | "false";
//!     %%
//! "#).unwrap();
//! let tagger = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
//! let input = b"if true then go else stop";
//! let events = tagger.tag(input);
//! assert_eq!(events.len(), 6);
//! assert_eq!(tagger.token_name(events[0].token), "if");
//! assert_eq!(&input[events[3].start..events[3].end], b"go");
//!
//! // The same events from the simulated circuit, streamed in two slices.
//! let mut gate = tagger.engine(EngineKind::Gate).unwrap();
//! let mut streamed = gate.feed(&input[..9]).unwrap();
//! streamed.extend(gate.feed(&input[9..]).unwrap());
//! streamed.extend(gate.finish().unwrap());
//! assert_eq!(streamed, events);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bitset;
pub mod engine;
pub mod error;
pub mod event;
pub mod fast;
pub mod gate;
pub mod pda;
pub mod probes;
pub mod shard;
pub mod tagger;
pub mod wide;

pub use backend::Backend;
pub use bitset::{BitEngine, BitTables, TableStats};
pub use engine::{Engine, EngineKind, GateStream};
pub use error::Error;
pub use event::TagEvent;
pub use fast::ScalarEngine;
pub use gate::GateEngine;
pub use pda::{PdaParser, PdaResult};
pub use probes::TaggerProbes;
pub use shard::{PoolOptions, ShardPool, ShardReport, SubmitOutcome};
pub use tagger::{EncoderKind, StartMode, TaggerOptions, TaggerOptionsBuilder, TokenTagger};
pub use wide::WideTagger;
