//! Served tagging: socket bytes in, acked events out, through the
//! ingest server over loopback TCP.
//!
//! A closed loop: [`CLIENTS`] sessions, each sending its next Data frame
//! only after the previous one was acked. With at most `CLIENTS` frames
//! in flight the shard queues never fill, so no frame is shed. Every
//! ack's events are compared against the scalar reference.

use crate::corpus::Corpus;
use cfg_server::{Client, IngestServer, Reply, ServerConfig, TraceConfig};
use cfg_tagger::TokenTagger;
use std::time::{Duration, Instant};

/// Concurrent client sessions: one per shard worker of the default
/// server configuration.
pub const CLIENTS: usize = 2;

/// A running server and its connected client fleet.
pub type Fleet = (IngestServer, Vec<Client>);

/// What served passes measured.
#[derive(Default)]
pub struct ServedRun {
    pub frames: u64,
    pub failed: u64,
    pub bytes: u64,
    /// Timed span of the client fleets, summed over servers.
    pub span: Duration,
    /// Per-frame round trip, Data written to Ack decoded.
    pub rtt_ns: Vec<u64>,
    /// Per server stage, in the server's stage order, the summed time of
    /// every traced frame (traced passes only).
    pub stage_ns: Vec<(&'static str, f64)>,
    /// Summed server span, frame read to ack write, over traced frames.
    pub span_ns: f64,
    /// Frames the servers traced.
    pub traced: u64,
}

/// Start a default-configured server for `tagger` and connect the
/// client fleet. With `trace`, every frame's stage times are recorded.
pub fn start(tagger: &TokenTagger, trace: bool) -> Fleet {
    let config = ServerConfig {
        trace: trace.then(|| TraceConfig { sample_every: 1, ..TraceConfig::default() }),
        ..ServerConfig::default()
    };
    let server =
        IngestServer::start(tagger, "127.0.0.1:0", config).expect("bind ingest server on loopback");
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.local_addr()).expect("connect to ingest server"))
        .collect();
    (server, clients)
}

/// Serve every corpus through its fleet in turn, splitting `budget` by
/// corpus bytes, then shut the servers down, adding to `run`.
pub fn run(
    corpora: &[Corpus],
    fleets: Vec<Fleet>,
    budget: Duration,
    trace: bool,
    run: &mut ServedRun,
) {
    let total: usize = corpora.iter().map(Corpus::bytes).sum();
    for (corpus, (server, clients)) in corpora.iter().zip(fleets) {
        let share = budget.mul_f64(corpus.bytes() as f64 / total as f64);
        let t0 = Instant::now();
        // The first twentieth warms the server's threads and buffers;
        // its frames are checked, not timed.
        let from = t0 + share / 20;
        let deadline = t0 + share;
        let results: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(c, client)| s.spawn(move || drive(client, corpus, c, from, deadline)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        run.span += deadline - from;
        if trace {
            let snap = server.slo_tracker().expect("tracing is on").snapshot();
            let n = snap.e2e.count as f64;
            run.traced += snap.e2e.count;
            run.span_ns += snap.e2e.mean * n;
            for (i, (name, q)) in snap.stages.iter().enumerate() {
                if run.stage_ns.len() <= i {
                    run.stage_ns.push((name, 0.0));
                }
                run.stage_ns[i].1 += q.mean * n;
            }
        }
        run.failed += server.shutdown().shed;
        for r in results {
            run.frames += r.frames;
            run.failed += r.failed;
            run.bytes += r.bytes;
            run.rtt_ns.extend(r.rtt_ns);
        }
    }
}

#[derive(Default)]
struct ClientRun {
    frames: u64,
    failed: u64,
    bytes: u64,
    rtt_ns: Vec<u64>,
}

/// One session's closed loop: client `c` of [`CLIENTS`] walks the frames
/// with stride `CLIENTS`, so the fleet covers the corpus together.
/// Frames sent before `from` are checked but not timed.
fn drive(
    mut client: Client,
    corpus: &Corpus,
    c: usize,
    from: Instant,
    deadline: Instant,
) -> ClientRun {
    let mut run = ClientRun::default();
    let n = corpus.frames.len();
    let mut i = c % n;
    loop {
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let frame = &corpus.frames[i];
        let reply = client.request(frame);
        let t1 = Instant::now();
        run.frames += 1;
        match reply {
            Ok(Reply::Acked { events, .. }) if events == corpus.expected[i] => {
                if t0 >= from {
                    run.bytes += frame.len() as u64;
                    run.rtt_ns.push((t1 - t0).as_nanos() as u64);
                }
            }
            _ => run.failed += 1,
        }
        i = (i + CLIENTS) % n;
    }
    match client.close() {
        Ok(late) if late.is_empty() => {}
        _ => run.failed += 1,
    }
    run
}
