//! The one error surface of the tagger workspace.
//!
//! Every fallible operation in `cfg-tagger` (and the layers built on
//! top of it: the ingest server, the CLI) reports
//! through this single [`Error`] enum. Variant names are stable API;
//! callers map them to exit codes / wire responses in exactly one
//! place instead of re-matching ad-hoc `io::Error` passthroughs.
//!
//! Causes are chained: [`std::error::Error::source`] returns the
//! underlying generator / simulator / IO error, so `anyhow`-style
//! "caused by" printing works without this crate depending on anything.

use cfg_hwgen::GenError;
use cfg_netlist::SimError;
use std::fmt;

/// Everything that can go wrong compiling or streaming.
///
/// Marked `non_exhaustive`: downstream matches must keep a wildcard
/// arm, which lets later PRs add failure modes without a breaking
/// release.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The grammar text did not parse.
    Grammar(cfg_grammar::GrammarError),
    /// Hardware generation failed.
    Generate(GenError),
    /// The gate-level simulator rejected the netlist (internal bug if it
    /// ever happens — generated circuits are loop-free by construction).
    Sim(SimError),
    /// An I/O error while reading or serving a stream.
    Io(std::io::Error),
    /// The stream ended (or a frame arrived) with the machine dead and
    /// §5.2 error recovery off.
    DeadStream,
    /// The peer violated the wire protocol (bad frame kind, oversized
    /// length, truncated payload, …).
    Protocol(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Grammar(e) => write!(f, "grammar error: {e}"),
            Error::Generate(e) => write!(f, "hardware generation failed: {e}"),
            Error::Sim(e) => write!(f, "simulation failed: {e}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::DeadStream => write!(f, "stream ended in a dead state (no error recovery)"),
            Error::Protocol(detail) => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Grammar(e) => Some(e),
            Error::Generate(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cfg_grammar::GrammarError> for Error {
    fn from(e: cfg_grammar::GrammarError) -> Self {
        Error::Grammar(e)
    }
}

impl From<GenError> for Error {
    fn from(e: GenError) -> Self {
        Error::Generate(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_names_are_stable() {
        assert_eq!(
            Error::DeadStream.to_string(),
            "stream ended in a dead state (no error recovery)"
        );
        assert!(Error::Protocol("frame too large".into()).to_string().contains("frame too large"));
    }

    #[test]
    fn sources_chain_for_wrapped_causes() {
        let io = Error::from(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe"));
        assert!(io.source().is_some());
        assert!(io.to_string().contains("pipe"));
        assert!(Error::DeadStream.source().is_none());
        let g = Error::from(cfg_grammar::Grammar::parse("not a grammar").unwrap_err());
        assert!(g.source().is_some());
        assert!(g.to_string().starts_with("grammar error:"));
    }
}
