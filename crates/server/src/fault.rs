//! Deterministic fault injection — the chaos half of the ingest
//! server's test harness.
//!
//! A [`FaultPlan`] is a seeded recipe of client misbehaviour:
//! mid-stream disconnects, truncated and corrupt frames, slow-loris
//! byte dribbling, and poison payloads that trip the server's injected
//! worker panic. Every decision comes from an [`StdRng`] seeded from
//! the plan (never wall-clock), so a failing chaos run replays exactly
//! with the same seed.
//!
//! [`run_client`] drives one faulty session against a live server and
//! reports what was *actually* sent and what the server acknowledged —
//! the data the chaos test needs to check the core invariant: **an
//! acked frame's events are always byte-identical to an unfaulted
//! run's**, no matter what the client did around it.
//! [`flood_until_busy`] overloads a server on purpose, until a shard
//! gate sheds.

use crate::client::{decode_reply, Client, Reply};
use crate::frame::{self, FrameKind};
use cfg_tagger::{Error, TagEvent};
use rand::prelude::*;
use std::io::Write;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A seeded recipe of client misbehaviour. Probabilities are rolled
/// per message, in the order: poison → corrupt → truncate → slow-loris
/// → (after sending) disconnect.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for every random decision (combined with the client index).
    pub seed: u64,
    /// Probability a payload gets the server's panic token appended.
    pub poison: f64,
    /// Probability a frame is sent with a garbage kind byte.
    pub corrupt: f64,
    /// Probability a frame is cut off mid-payload (then disconnect).
    pub truncate: f64,
    /// Probability a frame is dribbled byte-by-byte.
    pub slow_loris: f64,
    /// Sleep between dribbled bytes.
    pub dribble_delay: Duration,
    /// Probability of dropping the socket right after a send.
    pub disconnect: f64,
    /// The byte string the server treats as a panic trigger; used by
    /// poisoned payloads.
    pub panic_token: Vec<u8>,
}

impl FaultPlan {
    /// A mostly-polite client with occasional faults.
    pub fn calm(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            poison: 0.05,
            corrupt: 0.02,
            truncate: 0.02,
            slow_loris: 0.05,
            dribble_delay: Duration::from_millis(1),
            disconnect: 0.05,
            panic_token: b"POISON".to_vec(),
        }
    }

    /// An aggressively hostile client.
    pub fn hostile(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            poison: 0.25,
            corrupt: 0.15,
            truncate: 0.15,
            slow_loris: 0.25,
            dribble_delay: Duration::from_millis(2),
            disconnect: 0.2,
            panic_token: b"POISON".to_vec(),
        }
    }

    fn rng(&self, client_index: u64) -> StdRng {
        // Mix the client index in with an odd constant so adjacent
        // indices do not share prefixes of their decision streams.
        StdRng::seed_from_u64(
            self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(client_index),
        )
    }
}

/// What one faulty client session actually did and received.
#[derive(Debug, Default, Clone)]
pub struct ClientOutcome {
    /// Complete, well-formed `Data` frames that reached the wire, as
    /// `(seq, payload)` — the ground truth acks are checked against.
    pub sent: Vec<(u32, Vec<u8>)>,
    /// Acked frames: `(seq, events)`.
    pub acked: Vec<(u32, Vec<TagEvent>)>,
    /// Seqs the server shed with `Busy`.
    pub busy: Vec<u32>,
    /// `Err` reasons received (worker panics, protocol rejections).
    pub errors: Vec<String>,
    /// Whether this client deliberately dropped the socket mid-stream.
    pub disconnected: bool,
}

/// Drive one faulty client session: send each message through the
/// fault plan's dice, then close (cleanly if the dice allowed) and
/// collect every reply.
pub fn run_client<A: ToSocketAddrs>(
    addr: A,
    plan: &FaultPlan,
    client_index: u64,
    messages: &[Vec<u8>],
) -> Result<ClientOutcome, Error> {
    let mut rng = plan.rng(client_index);
    let mut out = ClientOutcome::default();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut seq: u32 = 0;

    for message in messages {
        let mut payload = message.clone();
        if rng.random_bool(plan.poison) {
            payload.extend_from_slice(&plan.panic_token);
        }
        let mut wire = Vec::with_capacity(frame::HEADER_LEN + payload.len());
        frame::write_frame(&mut wire, FrameKind::Data, &payload)?;

        if rng.random_bool(plan.corrupt) {
            // A garbage kind byte: the server must answer Err and hang
            // up; nothing after this frame counts as sent.
            wire[0] = 0x7f;
            let _ = stream.write_all(&wire);
            let _ = stream.flush();
            break;
        }
        if rng.random_bool(plan.truncate) {
            let cut = wire.len() / 2;
            let _ = stream.write_all(&wire[..cut]);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            out.disconnected = true;
            break;
        }
        if rng.random_bool(plan.slow_loris) {
            for byte in &wire {
                stream.write_all(std::slice::from_ref(byte))?;
                stream.flush()?;
                std::thread::sleep(plan.dribble_delay);
            }
        } else {
            stream.write_all(&wire)?;
            stream.flush()?;
        }
        out.sent.push((seq, payload));
        seq = seq.wrapping_add(1);

        if rng.random_bool(plan.disconnect) {
            let _ = stream.shutdown(Shutdown::Both);
            out.disconnected = true;
            break;
        }
    }

    if !out.disconnected {
        let _ = frame::write_frame(&mut stream, FrameKind::Close, b"");
    }
    collect_replies(&mut stream, &mut out);
    Ok(out)
}

/// Read replies until `Bye`, EOF, or timeout, folding them into the
/// outcome. Transport errors end collection silently — a faulted
/// session has no reply guarantees; the invariants are on what *was*
/// collected.
fn collect_replies(stream: &mut TcpStream, out: &mut ClientOutcome) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    loop {
        let frame = match frame::read_frame(stream) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        match decode_reply(&frame) {
            Ok(Reply::Acked { seq, events }) => out.acked.push((seq, events)),
            Ok(Reply::Busy { seq }) => out.busy.push(seq.unwrap_or(u32::MAX)),
            Ok(Reply::Rejected { reason }) => out.errors.push(reason),
            Ok(Reply::Bye) => return,
            Err(_) => return,
        }
    }
}

/// A frame that takes milliseconds to tag yet earns a small ack, for the
/// `if_then_else` grammar: one sentence with a 512 KiB run of spaces
/// inside it. The engine stays live across the run, stepping every
/// byte, and fires six tokens.
pub fn slow_frame() -> Vec<u8> {
    let mut payload = b"if true then go else".to_vec();
    payload.resize(payload.len() + (512 << 10), b' ');
    payload.extend_from_slice(b"stop");
    payload
}

/// Open `sessions` sessions, then drive each as a closed loop sending
/// `payload` until any of them is answered `Busy` or each has sent
/// `attempts` frames; returns the `Busy` replies seen. Opened together,
/// the sessions take consecutive ids, so `shards * k` of them put `k`
/// on every shard gate: `queue_depth + 2` on a gate (one holding it,
/// `queue_depth` waiting, one more) can shed.
pub fn flood_until_busy<A: ToSocketAddrs>(
    addr: A,
    sessions: usize,
    payload: &[u8],
    attempts: usize,
) -> Result<usize, Error> {
    let clients = (0..sessions).map(|_| Client::connect(&addr)).collect::<Result<Vec<_>, _>>()?;
    let shed = AtomicBool::new(false);
    std::thread::scope(|s| {
        let floods: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let shed = &shed;
                s.spawn(move || {
                    let mut busys = 0;
                    for _ in 0..attempts {
                        if shed.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Reply::Busy { .. } = client.request(payload)? {
                            busys += 1;
                            shed.store(true, Ordering::SeqCst);
                        }
                    }
                    client.close()?;
                    Ok(busys)
                })
            })
            .collect();
        floods.into_iter().map(|f| f.join().expect("flood session panicked")).sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed_and_client() {
        let plan = FaultPlan::hostile(42);
        let mut a = plan.rng(3);
        let mut b = plan.rng(3);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = plan.rng(4);
        let first_diverges = (0..64).any(|_| a.next_u64() != c.next_u64());
        assert!(first_diverges, "different client indices draw different dice");
    }

    #[test]
    fn presets_are_within_probability_bounds() {
        for plan in [FaultPlan::calm(1), FaultPlan::hostile(1)] {
            for p in [plan.poison, plan.corrupt, plan.truncate, plan.slow_loris, plan.disconnect] {
                assert!((0.0..=1.0).contains(&p));
            }
            assert!(!plan.panic_token.is_empty());
        }
    }
}
