//! The wire-frame fuzzer: seeded byte mutants of real `Data`/`Close`
//! streams.
//!
//! Every mutant starts from a stream written with [`frame::write_frame`]
//! (one to four `Data` frames of `if_then_else` text, then `Close`) and
//! takes one to four seeded edits: a kind byte set to any value, a
//! length prefix set to 0, `MAX_FRAME + 1` or `u32::MAX`, a truncation,
//! a duplicated span, a flipped bit, or (rarely) a full-size length
//! prefix followed by a frame's worth of filler. Each mutant is then
//! cut at seeded split points. The checks:
//!
//! * [`frame::FrameReader`], fed the pieces as the server's reader
//!   feeds it, never panics; every outcome is a frame, a partial frame
//!   or `Error::Protocol`; and `buffered()` never exceeds one maximum
//!   frame (header and payload) plus one [`frame::READ_CHUNK`];
//! * a smaller set goes through a live server, which answers each
//!   mutated session with well-formed reply frames or a hang-up, never
//!   a hang, and afterwards serves a clean session correctly.
//!
//! The short runs gate in ci; the long run is
//! `cargo test --release -p cfg-server --test wire_fuzz -- --ignored --nocapture`.

use cfg_grammar::builtin;
use cfg_grammar::random::Rng;
use cfg_server::client::decode_reply;
use cfg_server::frame::{self, FrameKind, FrameReader, HEADER_LEN, MAX_FRAME, READ_CHUNK};
use cfg_server::{Client, IngestServer, Reply, ServerConfig};
use cfg_tagger::{Error, TaggerOptions, TokenTagger};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What the payloads are drawn from: sentences, a fragment, junk.
const PAYLOADS: [&[u8]; 6] = [
    b"if true then go else stop",
    b"go",
    b"if false then if true then go else stop else go",
    b"stop stop",
    b"zzz not grammar",
    b"",
];

/// A clean stream and the offset of every frame header in it.
fn clean_stream(rng: &mut Rng) -> (Vec<u8>, Vec<usize>) {
    let (mut wire, mut starts) = (Vec::new(), Vec::new());
    for _ in 0..1 + rng.below(4) {
        starts.push(wire.len());
        let payload = PAYLOADS[rng.below(PAYLOADS.len())];
        frame::write_frame(&mut wire, FrameKind::Data, payload).unwrap();
    }
    starts.push(wire.len());
    frame::write_frame(&mut wire, FrameKind::Close, b"").unwrap();
    (wire, starts)
}

/// The mutant of seed `seed`, with a description of its edits.
fn mutant(seed: u64) -> (Vec<u8>, String) {
    let mut rng = Rng::new(seed);
    let (mut wire, starts) = clean_stream(&mut rng);
    let mut edits = Vec::new();
    for _ in 0..1 + rng.below(4) {
        let header = starts[rng.below(starts.len())];
        let has_header = header + HEADER_LEN <= wire.len();
        match rng.below(7) {
            0 if has_header => {
                let kind = rng.below(256) as u8;
                wire[header] = kind;
                edits.push(format!("kind@{header}={kind:#04x}"));
            }
            1 if has_header => {
                let len = [0, MAX_FRAME as u32 + 1, u32::MAX][rng.below(3)];
                wire[header + 1..header + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
                edits.push(format!("len@{header}={len}"));
            }
            2 => {
                let cut = rng.below(wire.len() + 1);
                wire.truncate(cut);
                edits.push(format!("truncate@{cut}"));
            }
            3 => {
                let from = rng.below(wire.len() + 1);
                let to = from + rng.below(wire.len() - from + 1);
                let span = wire[from..to].to_vec();
                wire.splice(to..to, span);
                edits.push(format!("dup {from}..{to}"));
            }
            4 if has_header && rng.chance(5) => {
                // A full-size frame: the longest a reader may buffer.
                let len = MAX_FRAME as u32;
                wire[header + 1..header + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
                wire.resize(wire.len() + MAX_FRAME + READ_CHUNK, b' ');
                edits.push(format!("len@{header}={len} + filler"));
            }
            _ if !wire.is_empty() => {
                let at = rng.below(wire.len());
                wire[at] ^= 1 << rng.below(8);
                edits.push(format!("flip@{at}"));
            }
            _ => {}
        }
    }
    let what = format!("seed {seed}: {} bytes, {}", wire.len(), edits.join(", "));
    (wire, what)
}

/// Cut `wire` into pieces of 1 to 16 bytes or 1 to `READ_CHUNK` bytes,
/// the split drawn per mutant.
fn pieces<'a>(wire: &'a [u8], rng: &mut Rng) -> Vec<&'a [u8]> {
    let max = if rng.chance(50) { 16 } else { READ_CHUNK };
    let mut out = Vec::new();
    let mut rest = wire;
    while !rest.is_empty() {
        let (piece, tail) = rest.split_at((1 + rng.below(max)).min(rest.len()));
        out.push(piece);
        rest = tail;
    }
    out
}

/// How a decode ended.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// Every byte was consumed by complete frames.
    Frames,
    /// A frame was still partial when the bytes ran out.
    Partial,
    /// The reader refused the stream.
    Protocol,
}

/// Push the pieces of `wire` into a reader, draining complete frames
/// after each push as the server does, and check every step.
fn decode(wire: &[u8], rng: &mut Rng) -> Outcome {
    let bound = HEADER_LEN + MAX_FRAME + READ_CHUNK;
    let mut reader = FrameReader::new();
    for piece in pieces(wire, rng) {
        reader.push(piece);
        assert!(reader.buffered() <= bound, "{} bytes buffered", reader.buffered());
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => assert!(frame.payload.len() <= MAX_FRAME),
                Ok(None) => break,
                Err(Error::Protocol(_)) => return Outcome::Protocol,
                Err(other) => panic!("not a protocol error: {other}"),
            }
        }
    }
    if reader.buffered() == 0 {
        Outcome::Frames
    } else {
        Outcome::Partial
    }
}

/// Decode `cases` mutants from `first_seed` on; a panic names the
/// mutant. Returns the count of each outcome and the slowest case.
fn fuzz_decoder(first_seed: u64, cases: u64) -> ([u64; 3], Duration, String) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let (mut outcomes, mut slowest) = ([0u64; 3], (Duration::ZERO, String::new()));
    for seed in first_seed..first_seed + cases {
        let (wire, what) = mutant(seed);
        let mut rng = Rng::new(!seed);
        let started = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| decode(&wire, &mut rng))) {
            Ok(outcome) => outcomes[outcome as usize] += 1,
            Err(_) => panic!("{what}: the frame reader panicked"),
        }
        if started.elapsed() > slowest.0 {
            slowest = (started.elapsed(), what);
        }
    }
    (outcomes, slowest.0, slowest.1)
}

/// Send each of `cases` mutants from `first_seed` on as one session of a
/// live server, in seeded pieces, then half-close. The server must
/// answer with well-formed replies and hang up; then a clean session is
/// served exactly.
fn fuzz_server(first_seed: u64, cases: u64) {
    let tagger = TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap();
    let server = IngestServer::start(&tagger, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    for seed in first_seed..first_seed + cases {
        let (wire, what) = mutant(seed);
        session(addr, &wire, &mut Rng::new(!seed)).unwrap_or_else(|e| panic!("{what}: {e}"));
    }
    let sentence = PAYLOADS[0];
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client.request(sentence).unwrap(),
        Reply::Acked { seq: 0, events: tagger.tag(sentence) }
    );
    assert!(client.close().unwrap().is_empty());
    let report = server.shutdown();
    assert_eq!(report.sessions_served, cases + 1);
}

/// One mutated session: every reply the server sends before it hangs up
/// must decode. A read that times out means the server hung the session.
fn session(addr: SocketAddr, wire: &[u8], rng: &mut Rng) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    for piece in pieces(wire, rng) {
        // The server may refuse the stream and hang up mid-send.
        if stream.write_all(piece).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
    loop {
        match frame::read_frame(&mut stream) {
            Ok(Some(reply)) => {
                decode_reply(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"))?;
            }
            // A clean hang-up, a reset, or a reply cut short by a reset.
            Ok(None) | Err(Error::Protocol(_)) => return Ok(()),
            Err(Error::Io(e))
                if !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(())
            }
            Err(e) => return Err(format!("no hang-up: {e}")),
        }
    }
}

#[test]
fn wire_mutants_decode_to_frames_or_protocol_errors() {
    let ([frames, partial, protocol], _, _) = fuzz_decoder(0, 4_000);
    // The edits must reach every outcome, or the fuzzer tests too little.
    assert!(frames > 0 && partial > 0 && protocol > 0, "{frames}/{partial}/{protocol}");
}

#[test]
fn wire_mutants_never_wedge_a_live_server() {
    fuzz_server(0, 200);
}

/// The long run: `cargo test --release -p cfg-server --test wire_fuzz --
/// --ignored --nocapture`.
#[test]
#[ignore]
fn wire_mutants_long() {
    let ([frames, partial, protocol], slowest, case) = fuzz_decoder(1 << 32, 200_000);
    println!(
        "200000 decoder mutants: {frames} whole, {partial} partial, {protocol} refused; \
         slowest {slowest:?}, {case}"
    );
    fuzz_server(1 << 32, 5_000);
    println!("5000 server mutants answered or hung up; a clean session after them was served");
}
