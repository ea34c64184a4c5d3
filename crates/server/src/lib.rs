//! # cfg-server — the supervised multi-session ingest server
//!
//! The paper's tagger is a streaming circuit meant to sit on a live
//! network link (§1: gigabit streams tagged at wire speed). This crate
//! is that serving layer for the software reproduction: a concurrent
//! TCP ingest server that tags each frame on the thread that read it
//! and survives the things real links do — overload, silent clients,
//! half-written frames, and the occasional poison message.
//!
//! * [`frame`] — the length-prefixed wire protocol (`Data`/`Close` in,
//!   `Ack`/`Busy`/`Err`/`Bye` out; acks carry the tag events), with an
//!   incremental zero-copy decoder ([`frame::FrameReader`]).
//! * [`session`] — the session table: ids and the max-sessions cap.
//! * [`server`] — the acceptor, one reader thread per session that
//!   tags its frames under a per-shard admission gate and writes each
//!   ack itself, idle eviction, and graceful shutdown.
//! * [`client`] — the reference client.
//! * [`fault`] — the seeded fault-injection harness driving the chaos
//!   integration test.
//!
//! ```no_run
//! use cfg_grammar::builtin;
//! use cfg_server::{Client, IngestServer, Reply, ServerConfig};
//! use cfg_tagger::{TaggerOptions, TokenTagger};
//!
//! let tagger = TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap();
//! let server = IngestServer::start(&tagger, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! match client.request(b"if true then go else stop").unwrap() {
//!     Reply::Acked { events, .. } => assert_eq!(events.len(), 6),
//!     other => panic!("unexpected reply: {other:?}"),
//! }
//! client.close().unwrap();
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod frame;
pub mod server;
pub mod session;

pub use client::{Client, Reply};
pub use fault::{ClientOutcome, FaultPlan};
pub use frame::{Frame, FrameKind, MAX_FRAME};
pub use server::{
    AuditConfig, IngestServer, SaturationConfig, ServerConfig, ServerReport, TraceConfig,
};
pub use session::SessionTable;
