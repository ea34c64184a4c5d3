//! # cfg-grammar — context-free grammars for the token tagger
//!
//! This crate implements the grammar substrate of *Context-Free-Grammar
//! based Token Tagger in Reconfigurable Devices* (Cho, Moscola, Lockwood,
//! 2006):
//!
//! * a CFG data model ([`Grammar`], [`Symbol`], [`Production`]) with
//!   Lex/Yacc-style terminals defined by [`cfg_regex::Pattern`]s,
//! * a parser for the Lex/Yacc-flavoured text format the paper's code
//!   generator consumes (§4.1, Figure 14),
//! * the nullable/FIRST/FOLLOW fixpoint of Figure 8 ([`analysis`]),
//! * the multi-context **token duplication** transform of §3.2
//!   ([`transform`]), which gives each hardware tokenizer instance a
//!   unique grammatical context,
//! * the grammar **replication** used by the paper's scalability study
//!   (§4.3, Table 1 / Figure 15) ([`scale`]),
//! * the example grammars from the paper's figures ([`builtin`]),
//! * seeded random grammars, sentences and mutants for property tests
//!   ([`random`]).
//!
//! ```
//! use cfg_grammar::Grammar;
//!
//! let g = Grammar::parse(r#"
//!     NUM [0-9]+
//!     %%
//!     expr: NUM | "(" expr ")";
//!     %%
//! "#).unwrap();
//! assert_eq!(g.tokens().len(), 3);
//! let a = g.analyze();
//! assert_eq!(a.start_set.iter().count(), 2); // NUM or "("
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod builtin;
pub mod lint;
pub mod parse;
pub mod random;
pub mod scale;
pub mod transform;

pub use analysis::{Analysis, TokenSet};
pub use ast::{Context, Grammar, NtId, Production, Symbol, TokenDef, TokenId};
pub use lint::{lint, Lint, Severity};
pub use parse::GrammarError;
