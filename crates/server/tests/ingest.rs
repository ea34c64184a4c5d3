//! Integration tests for the ingest server: live sockets, real shard
//! workers, deterministic fault triggers.

use cfg_grammar::builtin;
use cfg_obs::{SharedRegistry, Stat};
use cfg_obs_http::ServiceState;
use cfg_server::{Client, FrameKind, IngestServer, Reply, SaturationConfig, ServerConfig};
use cfg_tagger::{StartMode, TaggerOptions, TokenTagger};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn tagger() -> TokenTagger {
    TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap()
}

#[test]
fn acks_carry_the_events_and_close_drains() {
    let t = tagger();
    let server = IngestServer::start(&t, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    let expected = t.tag_fast(b"if true then go else stop");
    match client.request(b"if true then go else stop").unwrap() {
        Reply::Acked { seq, events } => {
            assert_eq!(seq, 0);
            assert_eq!(events, expected);
        }
        other => panic!("expected ack, got {other:?}"),
    }
    // Burst without reading, then close: the drain guarantees every
    // accepted frame is acked before Bye.
    let mut client2 = Client::connect(addr).unwrap();
    for _ in 0..16 {
        client2.send(b"go stop go").unwrap();
    }
    let replies = client2.close().unwrap();
    let acks = replies.iter().filter(|r| matches!(r, Reply::Acked { .. })).count();
    let busys = replies.iter().filter(|r| matches!(r, Reply::Busy { .. })).count();
    assert_eq!(acks + busys, 16, "every frame is answered exactly once: {replies:?}");
    assert!(acks > 0);

    client.close().unwrap();
    let report = server.shutdown();
    assert_eq!(report.sessions_served, 2);
    assert!(report.shard.messages > acks as u64);
}

#[test]
fn session_cap_refuses_with_busy() {
    let t = tagger();
    let config = ServerConfig { max_sessions: 1, ..ServerConfig::default() };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let mut first = Client::connect(addr).unwrap();
    // A round trip proves the first session is admitted: the acceptor
    // registers a session before its reader thread can answer.
    assert!(matches!(first.request(b"go").unwrap(), Reply::Acked { .. }));
    let mut second = Client::connect(addr).unwrap();
    match second.recv().unwrap() {
        Reply::Busy { seq: None } => {}
        other => panic!("expected cap-refusal busy, got {other:?}"),
    }
    drop(second);
    first.close().unwrap();
    let report = server.shutdown();
    assert_eq!(report.sessions_served, 1);
}

#[test]
fn idle_sessions_are_evicted_and_counted() {
    let t = tagger();
    let registry = Arc::new(SharedRegistry::new());
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(80),
        registry: Some(Arc::clone(&registry)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();

    let mut idler = Client::connect(server.local_addr()).unwrap();
    assert!(matches!(idler.request(b"go").unwrap(), Reply::Acked { .. }));
    // Stay silent past the timeout; the janitor must hang up on us.
    let evicted = match idler.recv() {
        Ok(Reply::Rejected { reason }) => reason.contains("idle timeout"),
        Ok(other) => panic!("expected eviction notice, got {other:?}"),
        // The janitor may shut the socket before our read starts.
        Err(_) => true,
    };
    assert!(evicted);
    let snap = registry.snapshot();
    assert_eq!(snap.merged.counter(Stat::SessionsEvicted), 1);

    let report = server.shutdown();
    assert_eq!(report.evicted, 1);
}

#[test]
fn drain_deadline_timeout_is_counted() {
    let t = tagger();
    let registry = Arc::new(SharedRegistry::new());
    // One shard with a long post-panic backoff: a poison frame parks
    // the worker, so frames queued behind it cannot drain within the
    // (deliberately tiny) close deadline.
    let config = ServerConfig {
        shards: 1,
        panic_token: Some(b"POISON".to_vec()),
        backoff_base_ms: 500,
        backoff_max_ms: 500,
        drain_deadline: Duration::from_millis(20),
        registry: Some(Arc::clone(&registry)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.send(b"go POISON go").unwrap();
    // Give the worker time to pick up the poison and enter backoff,
    // then queue frames it cannot touch until the backoff ends.
    std::thread::sleep(Duration::from_millis(100));
    for _ in 0..4 {
        client.send(b"go").unwrap();
    }
    // close() returns once Bye arrives — the deadline guarantees it
    // does so long before the worker's backoff ends.
    client.close().unwrap();
    assert!(
        registry.snapshot().merged.counter(Stat::DrainTimeouts) >= 1,
        "drain deadline fired with pending frames but was not counted"
    );
    server.shutdown();
}

#[test]
fn worker_panics_answer_err_and_bump_restart_counter() {
    let t = tagger();
    let registry = Arc::new(SharedRegistry::new());
    let config = ServerConfig {
        shards: 1,
        panic_token: Some(b"POISON".to_vec()),
        backoff_base_ms: 1,
        backoff_max_ms: 2,
        registry: Some(Arc::clone(&registry)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.request(b"go POISON go").unwrap() {
        Reply::Rejected { reason } => {
            assert!(reason.contains("seq 0"), "{reason}");
            assert!(reason.contains("worker panic"), "{reason}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    // The worker survived: the next message is served normally.
    match client.request(b"stop").unwrap() {
        Reply::Acked { seq, events } => {
            assert_eq!(seq, 1);
            assert_eq!(events, t.tag_fast(b"stop"));
        }
        other => panic!("expected ack, got {other:?}"),
    }
    client.close().unwrap();
    let report = server.shutdown();
    assert_eq!(report.shard.restarts, 1);
    assert_eq!(registry.snapshot().merged.counter(Stat::WorkerRestarts), 1);
}

#[test]
fn overload_sheds_with_busy_and_flips_readiness() {
    let t = tagger();
    let state = Arc::new(ServiceState::new());
    let config = ServerConfig {
        shards: 1,
        queue_depth: 1,
        panic_token: Some(b"POISON".to_vec()),
        // A long backoff after the injected panic keeps the single
        // worker asleep while we flood the depth-1 queue.
        backoff_base_ms: 300,
        backoff_max_ms: 300,
        state: Some(Arc::clone(&state)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    assert!(state.ready());

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.send(b"POISON").unwrap();
    // While the worker is in its post-panic backoff, flood the queue.
    for _ in 0..8 {
        client.send(b"go").unwrap();
    }
    let replies = client.close().unwrap();
    let busys: Vec<_> = replies.iter().filter(|r| matches!(r, Reply::Busy { .. })).collect();
    assert!(!busys.is_empty(), "flood against a sleeping worker must shed: {replies:?}");
    let report = server.shutdown();
    assert!(report.shed >= busys.len() as u64);
    assert!(state.overloaded() || report.shed > 0);
}

#[test]
fn protocol_violations_get_err_frames() {
    use std::io::Write;
    let t = tagger();
    let server = IngestServer::start(&t, "127.0.0.1:0", ServerConfig::default()).unwrap();

    // An unknown kind byte must be answered with Err and a hangup.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&[0x7f, 0, 0, 0, 0]).unwrap();
    let frame = cfg_server::frame::read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(frame.kind, FrameKind::Err);
    assert!(String::from_utf8_lossy(&frame.payload).contains("unknown frame kind"));

    server.shutdown();
}

#[test]
fn an_ack_too_large_for_a_frame_answers_err() {
    // Under `Always` each "go" fires: 90,000 events make a ~1.08 MB
    // ack, over MAX_FRAME, from a 270 KB frame.
    let options = TaggerOptions { start_mode: StartMode::Always, ..TaggerOptions::default() };
    let t = TokenTagger::compile(&builtin::if_then_else(), options).unwrap();
    let server = IngestServer::start(&t, "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.request(&b"go ".repeat(90_000)).unwrap() {
        Reply::Rejected { reason } => assert_eq!(reason, "seq 0: reply too large"),
        other => panic!("expected a too-large rejection, got {other:?}"),
    }
    // The session is still served.
    assert!(matches!(client.request(b"go").unwrap(), Reply::Acked { seq: 1, .. }));
    client.close().unwrap();
    assert_eq!(server.shutdown().evicted, 0);
}

#[test]
fn interleaves_many_sessions() {
    let t = tagger();
    let config = ServerConfig { max_sessions: 64, shards: 2, ..ServerConfig::default() };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();

    // 32 clients live at once, each doing its own request/ack round
    // trips, interleaved over two shard workers.
    let mut clients: Vec<Client> = (0..32).map(|_| Client::connect(&addr).unwrap()).collect();
    let expected = t.tag_fast(b"if true then go else stop");
    for round in 0u32..3 {
        for (i, c) in clients.iter_mut().enumerate() {
            match c.request(b"if true then go else stop").unwrap() {
                Reply::Acked { seq, events } => {
                    assert_eq!(seq, round, "client {i}");
                    assert_eq!(events, expected, "client {i}");
                }
                other => panic!("client {i}: expected ack, got {other:?}"),
            }
        }
    }
    for c in clients.drain(..) {
        c.close().unwrap();
    }
    let report = server.shutdown();
    assert_eq!(report.sessions_served, 32);
    assert_eq!(report.shard.messages, 32 * 3);
}

#[test]
fn slow_reader_cannot_wedge_its_shard() {
    // Every "go" fires under `Always`, so each 60 KB frame earns a
    // ~240 KB ack: unread, a few of them fill the socket buffers and
    // the shard worker's next ack write blocks.
    let options = TaggerOptions { start_mode: StartMode::Always, ..TaggerOptions::default() };
    let t = TokenTagger::compile(&builtin::if_then_else(), options).unwrap();
    let registry = Arc::new(SharedRegistry::new());
    let idle_timeout = Duration::from_millis(300);
    let config = ServerConfig {
        shards: 1,
        idle_timeout,
        registry: Some(Arc::clone(&registry)),
        // Only for the arrival counter below.
        saturation: Some(SaturationConfig { interval_ms: 1_000, history: 2 }),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let mut slow = Client::connect(addr).unwrap();
    for _ in 0..64 {
        slow.send(&b"go ".repeat(20_000)).unwrap();
    }
    // Once the server holds all 64, a second session's frame queues
    // behind them on the same (only) shard.
    let loads = server.shard_loads().expect("saturation configured");
    let deadline = Instant::now() + Duration::from_secs(10);
    while loads.sample()[0].arrivals < 64 {
        assert!(Instant::now() < deadline, "server never took the slow reader's frames");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The write timeout evicts the slow reader, so this is acked
    // rather than stuck behind its unread acks.
    let mut other = Client::connect(addr).unwrap();
    let reply = loop {
        match other.request(b"go").unwrap() {
            Reply::Busy { .. } => std::thread::sleep(Duration::from_millis(20)),
            reply => break reply,
        }
    };
    match reply {
        Reply::Acked { events, .. } => assert_eq!(events, t.tag_fast(b"go")),
        other => panic!("co-sharded client got {other:?}"),
    }
    other.close().unwrap();
    assert_eq!(registry.snapshot().merged.counter(Stat::SessionsEvicted), 1);

    // Shutdown returns within a few idle timeouts, not never.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(server.shutdown()));
    let report = rx.recv_timeout(10 * idle_timeout).expect("shutdown hung behind a slow reader");
    assert_eq!(report.evicted, 1);
    drop(slow);
}
