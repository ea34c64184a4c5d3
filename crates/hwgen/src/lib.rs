//! # cfg-hwgen — the grammar-to-hardware generator
//!
//! This crate is the paper's automatic VHDL generator, retargeted at the
//! `cfg-netlist` gate IR (with VHDL text emission kept as an output
//! format). Given a [`cfg_grammar::Grammar`] it produces one circuit
//! containing:
//!
//! * **character decoders** (Figures 4–5) — shared, registered decoders
//!   for every distinct byte class any token uses, built from aligned
//!   power-of-two block comparators ORed together ([`decoder`]);
//! * **tokenizers** (Figures 6–7) — one pipeline register per pattern
//!   position (the Glushkov template), with the longest-match lookahead
//!   gate derived from each last position's continuation class
//!   ([`tokenizer`]);
//! * **syntactic control flow** (Figures 8–11) — FOLLOW-set wiring from
//!   each token's match line to the enables of its successors, with a
//!   per-token *arm* register that holds a pending enable across
//!   delimiter runs ([`control`]);
//! * **token index encoder** (§3.4, equations 1–5) — a pipelined binary
//!   OR tree emitting the matched token's index, with the priority-index
//!   assignment of equation 5 for tokens that can assert simultaneously
//!   ([`encoder`]);
//! * a [`generate::GeneratedTagger`] tying it together with latency
//!   metadata, plus [`vhdl`] emission.
//!
//! ```
//! use cfg_grammar::builtin;
//! use cfg_hwgen::{generate, GeneratorOptions};
//!
//! let g = builtin::if_then_else();
//! let hw = generate(&g, &GeneratorOptions::default()).unwrap();
//! assert_eq!(hw.tokens.len(), 7);
//! assert!(hw.netlist.reg_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod control;
pub mod decoder;
pub mod encoder;
pub mod generate;
pub mod tokenizer;
pub mod vhdl;
pub mod wide;

pub use circuit::CircuitTopology;
pub use generate::{
    generate, validate, GenError, GeneratedTagger, GeneratorOptions, StartMode, TokenHw,
};
pub use wide::{generate_wide, GeneratedWideTagger, WideTokenHw};
