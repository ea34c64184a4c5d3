//! Back-end processors — §3.5 of the paper.
//!
//! "The back-end processor is customizable logic where many different
//! data processing functions can be implemented." Here it is a trait:
//! implementations receive each [`TagEvent`] together with the tagger
//! (for names/contexts) and the input buffer (for lexemes). The XML-RPC
//! content-based router of §4 lives in `cfg-xmlrpc` and implements this
//! trait; [`crate::TokenTagger::process`] drives one over an input.

use crate::event::TagEvent;
use crate::tagger::TokenTagger;

/// A streaming consumer of tag events.
pub trait Backend {
    /// Called for every tagged token, in stream order.
    fn on_event(&mut self, event: TagEvent, tagger: &TokenTagger, input: &[u8]);
    /// Called once after the stream ends.
    fn on_end(&mut self, _tagger: &TokenTagger) {}
}
