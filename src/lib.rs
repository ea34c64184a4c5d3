//! # cfg-token-tagger — umbrella crate
//!
//! Reproduction of *Context-Free-Grammar based Token Tagger in
//! Reconfigurable Devices* (Cho, Moscola, Lockwood, 2006): a
//! grammar-to-hardware generator that tags tokens **with their grammatical
//! context** in a streaming byte input, plus the simulation, timing and
//! application substrates needed to regenerate the paper's evaluation.
//!
//! This crate re-exports the public API of the workspace crates so that
//! examples and downstream users can depend on a single crate:
//!
//! * [`grammar`] — CFG model, Lex/Yacc-style parser, FIRST/FOLLOW.
//! * [`regex`] — token patterns, Glushkov templates, reference matcher.
//! * [`netlist`] — gate-level IR, cycle-accurate simulator, 4-LUT mapper.
//! * [`hwgen`] — the paper's generator: grammar → circuit (+ VHDL).
//! * [`tagger`] — the streaming [`tagger::TokenTagger`] API: one
//!   compiled core, [`tagger::TokenTagger::engine`] to build an engine of
//!   any kind, [`tagger::TokenTagger::tag`] to tag a whole input.
//! * [`fpga`] — VirtexE/Virtex-4 device models and static timing.
//! * [`baseline`] — naive DPI matcher, Aho–Corasick, software lexer, LL(1).
//! * [`xmlrpc`] — the XML-RPC grammar, workload generator and router.
//! * [`obs`] — zero-overhead-when-off metrics, traces, the flight
//!   recorder, and the one registry and snapshot behind live telemetry.
//! * [`obs_http`] — dependency-free exporter over the registry:
//!   `/metrics` (Prometheus), `/snapshot.json`, health probes.
//! * [`server`] — the supervised multi-session TCP ingest server and
//!   its deterministic fault-injection harness.
//!
//! ## Quickstart
//!
//! ```
//! use cfg_token_tagger::grammar::Grammar;
//! use cfg_token_tagger::tagger::{TokenTagger, TaggerOptions};
//!
//! // The paper's Figure 9 grammar.
//! let g = Grammar::parse(
//!     r#"
//!     %%
//!     E: "if" C "then" E "else" E | "go" | "stop";
//!     C: "true" | "false";
//!     %%
//!     "#,
//! ).unwrap();
//! let tagger = TokenTagger::compile(&g, TaggerOptions::default()).unwrap();
//! let events = tagger.tag(b"if true then go else stop");
//! let names: Vec<&str> = events.iter().map(|e| tagger.token_name(e.token)).collect();
//! assert_eq!(names, ["if", "true", "then", "go", "else", "stop"]);
//! ```

#![forbid(unsafe_code)]

pub use cfg_baseline as baseline;
pub use cfg_fpga as fpga;
pub use cfg_grammar as grammar;
pub use cfg_hwgen as hwgen;
pub use cfg_netlist as netlist;
pub use cfg_obs as obs;
pub use cfg_obs_http as obs_http;
pub use cfg_regex as regex;
pub use cfg_server as server;
pub use cfg_tagger as tagger;
pub use cfg_xmlrpc as xmlrpc;
