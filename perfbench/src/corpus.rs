//! Seeded inputs for every workload, and the reference events each
//! frame must produce.
//!
//! The program under test only ever sees the generated frames; the seed
//! decides every byte, so the same seed gives the same inputs.

use cfg_grammar::{builtin, Grammar};
use cfg_tagger::{EngineKind, TagEvent, TaggerOptions, TokenTagger};
use cfg_xmlrpc::workload::{MessageKind, WorkloadGenerator};
use cfg_xmlrpc::xmlrpc_grammar;
use rand::prelude::*;

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
const DIGITS: &[u8] = b"0123456789";

/// The grammars of the live mix, by name.
pub const LIVE_GRAMMARS: [&str; 5] =
    ["xmlrpc", "json", "key_value", "http_request_line", "arithmetic"];

/// One grammar's frames and the events the reference engine tags in
/// each frame.
pub struct Corpus {
    pub grammar: Grammar,
    /// §5.2 error recovery: on for the live and served mixes, so a frame
    /// holding several sentences stays taggable past its first; off for
    /// the dead stream, as `fast_throughput` tags it.
    pub recovery: bool,
    pub frames: Vec<Vec<u8>>,
    pub expected: Vec<Vec<TagEvent>>,
}

impl Corpus {
    pub fn bytes(&self) -> usize {
        self.frames.iter().map(Vec::len).sum()
    }

    pub fn compile(&self) -> TokenTagger {
        TokenTagger::compile(
            &self.grammar,
            TaggerOptions::builder().error_recovery(self.recovery).build(),
        )
        .expect("built-in grammar compiles")
    }
}

fn grammar(name: &str) -> Grammar {
    match name {
        "xmlrpc" => xmlrpc_grammar(),
        "json" => builtin::json(),
        "key_value" => builtin::key_value(),
        "http_request_line" => builtin::http_request_line(),
        "arithmetic" => builtin::arithmetic(),
        other => unreachable!("no grammar named {other}"),
    }
}

/// Compile the grammar and tag every frame with the scalar reference
/// engine: the oracle the production engine and the server's acks are
/// checked against.
fn corpus(name: &str, recovery: bool, frames: Vec<Vec<u8>>) -> Corpus {
    let mut c = Corpus { grammar: grammar(name), recovery, frames, expected: Vec::new() };
    let tagger = c.compile();
    c.expected = c
        .frames
        .iter()
        .map(|f| {
            let mut e = tagger.engine(EngineKind::Scalar).expect("scalar engine builds");
            let mut out = Vec::new();
            e.feed_slice(f, &mut out).expect("scalar engine feeds");
            e.finish_into(&mut out).expect("scalar engine finishes");
            out
        })
        .collect();
    c
}

fn word(rng: &mut StdRng, alphabet: &[u8], len: std::ops::Range<usize>, out: &mut String) {
    for _ in 0..rng.random_range(len) {
        out.push(*alphabet.choose(rng).expect("nonempty alphabet") as char);
    }
}

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items.choose(rng).expect("nonempty choice")
}

/// One conforming sentence of grammar `name`.
fn sentence(name: &str, rng: &mut StdRng, xmlrpc: &mut WorkloadGenerator, out: &mut String) {
    match name {
        "xmlrpc" => {
            let kind =
                if rng.random_bool(0.2) { MessageKind::Adversarial } else { MessageKind::Honest };
            out.push_str(std::str::from_utf8(&xmlrpc.message(kind).bytes).expect("ascii message"));
        }
        "json" => json_value(rng, 3, out),
        "key_value" => {
            for i in 0..rng.random_range(2..8) {
                if i > 0 {
                    out.push(' ');
                }
                word(rng, LOWER, 1..2, out);
                word(rng, b"abcdefghijklmnopqrstuvwxyz0123456789_", 2..10, out);
                out.push('=');
                word(
                    rng,
                    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789./:",
                    1..20,
                    out,
                );
                out.push(';');
            }
        }
        "http_request_line" => {
            out.push_str(pick(rng, &["GET", "POST", "PUT", "DELETE", "HEAD"]));
            out.push(' ');
            for _ in 0..rng.random_range(1..5) {
                out.push('/');
                word(rng, ALNUM, 1..10, out);
            }
            if rng.random_bool(0.5) {
                out.push_str(pick(rng, &[".html", ".json", ".png", "_v2.txt"]));
            }
            out.push_str(pick(rng, &[" HTTP/1.0", " HTTP/1.1", " HTTP/2.0"]));
        }
        "arithmetic" => arith_expr(rng, 3, out),
        other => unreachable!("no grammar named {other}"),
    }
}

fn json_value(rng: &mut StdRng, depth: usize, out: &mut String) {
    let choice = if depth == 0 { rng.random_range(2..7) } else { rng.random_range(0..7) };
    match choice {
        0 => {
            out.push('{');
            for i in 0..rng.random_range(0..5) {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                word(rng, LOWER, 1..10, out);
                out.push_str("\": ");
                json_value(rng, depth - 1, out);
            }
            out.push('}');
        }
        1 => {
            out.push('[');
            for i in 0..rng.random_range(0..5) {
                if i > 0 {
                    out.push(',');
                }
                json_value(rng, depth - 1, out);
            }
            out.push(']');
        }
        2 => {
            out.push('"');
            word(rng, b"abcdefghij klmnopqrstuvwxyz0123456789 .,:", 0..24, out);
            out.push('"');
        }
        3 | 4 => {
            if rng.random_bool(0.3) {
                out.push('-');
            }
            word(rng, DIGITS, 1..7, out);
            if rng.random_bool(0.4) {
                out.push('.');
                word(rng, DIGITS, 1..4, out);
            }
        }
        _ => out.push_str(pick(rng, &["true", "false", "null"])),
    }
}

fn arith_expr(rng: &mut StdRng, depth: usize, out: &mut String) {
    for i in 0..rng.random_range(1..5) {
        if i > 0 {
            out.push_str(pick(rng, &[" + ", " - ", " * ", " / "]));
        }
        match if depth == 0 { rng.random_range(0..2) } else { rng.random_range(0..3) } {
            0 => word(rng, DIGITS, 1..6, out),
            1 => {
                word(rng, b"abcdefghijklmnopqrstuvwxyzXYZ", 1..2, out);
                word(rng, ALNUM, 0..6, out);
            }
            _ => {
                out.push('(');
                arith_expr(rng, depth - 1, out);
                out.push(')');
            }
        }
    }
}

/// Live frames of one grammar: newline-separated conforming sentences,
/// about `size` bytes a frame, `total` bytes in all.
fn live_frames(
    name: &str,
    rng: &mut StdRng,
    total: usize,
    size: std::ops::Range<usize>,
) -> Vec<Vec<u8>> {
    let mut xmlrpc = WorkloadGenerator::new(rng.random());
    let mut frames = Vec::new();
    let mut bytes = 0;
    while bytes < total {
        let target = rng.random_range(size.clone());
        let mut frame = String::new();
        while frame.len() < target {
            if !frame.is_empty() {
                frame.push('\n');
            }
            sentence(name, rng, &mut xmlrpc, &mut frame);
        }
        bytes += frame.len();
        frames.push(frame.into_bytes());
    }
    frames
}

/// The live mix: every built-in protocol grammar, frames of a few
/// conforming sentences each, so the machine stays live on almost
/// every byte.
pub fn live(seed: u64) -> Vec<Corpus> {
    LIVE_GRAMMARS
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(i as u64));
            corpus(name, true, live_frames(name, &mut rng, 256 << 10, 256..4096))
        })
        .collect()
}

/// XML-RPC frames for the served workload: one to four messages a frame.
pub fn served(seed: u64) -> Vec<Corpus> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(97));
    vec![corpus("xmlrpc", true, live_frames("xmlrpc", &mut rng, 1 << 20, 128..2048))]
}

/// The repository's dead-dominated stream, as `fast_throughput` and
/// `obs_overhead` build it: 4 MiB of honest XML-RPC messages, each
/// followed by a newline, tagged without error recovery. It is cut at
/// message boundaries into 64 KiB frames, each tagged by a fresh engine,
/// so every frame is live for its first message and dead after it.
pub fn dead(seed: u64) -> Vec<Corpus> {
    let mut gen = WorkloadGenerator::new(seed);
    let mut frames = Vec::new();
    let mut frame = Vec::new();
    let mut bytes = 0;
    while bytes < 4 << 20 {
        let message = gen.message(MessageKind::Honest).bytes;
        bytes += message.len() + 1;
        frame.extend_from_slice(&message);
        frame.push(b'\n');
        if frame.len() >= 64 << 10 {
            frames.push(std::mem::take(&mut frame));
        }
    }
    if !frame.is_empty() {
        frames.push(frame);
    }
    vec![corpus("xmlrpc", false, frames)]
}
