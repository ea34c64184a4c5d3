//! Integration tests for the ingest server: live sockets, real shard
//! gates, deterministic fault triggers.

use cfg_grammar::builtin;
use cfg_obs::Registry;
use cfg_server::fault::{flood_until_busy, slow_frame};
use cfg_server::{frame, Client, FrameKind, IngestServer, Reply, ServerConfig};
use cfg_tagger::{StartMode, TaggerOptions, TokenTagger};
use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
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
    let expected = t.tag(b"if true then go else stop");
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

/// Listen mode names its tokens: a scrape after a few frames carries
/// `cfgtag_token_info` with every token's name, and every fire series a
/// `name` label beside its index.
#[test]
fn listen_mode_scrape_names_its_tokens() {
    let t = tagger();
    let registry = Arc::new(Registry::new());
    let config = ServerConfig { registry: Some(Arc::clone(&registry)), ..ServerConfig::default() };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter = cfg_obs_http::Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        let reply = client.request(b"if true then go else stop").unwrap();
        assert!(matches!(reply, Reply::Acked { .. }), "{reply:?}");
    }
    client.close().unwrap();

    let body =
        cfg_obs_http::http_get(&exporter.local_addr().to_string(), "/snapshot.json").unwrap();
    let snap = cfg_obs::Snapshot::parse(&body).unwrap();
    let info = snap.get("cfgtag_token_info").expect("token names attached");
    let names: Vec<&str> = t.grammar().tokens().iter().map(|tok| tok.name.as_str()).collect();
    assert_eq!(info.series.len(), names.len());
    for (index, name) in names.iter().enumerate() {
        assert_eq!(info.find(&[("token", &index.to_string())]).unwrap().label("name"), Some(*name));
    }
    let fires = snap.get("cfgtag_token_fires_total").expect("fires counted");
    assert!(!fires.series.is_empty());
    for s in &fires.series {
        let index: usize = s.label("token").unwrap().parse().unwrap();
        assert_eq!(s.label("name"), Some(names[index]), "{s:?}");
    }
    assert_eq!(snap.total("cfgtag_token_fires_total"), 3.0 * 6.0);
    exporter.stop();
    server.shutdown();
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
    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(80),
        registry: Some(Arc::clone(&registry)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();

    let mut idler = Client::connect(server.local_addr()).unwrap();
    assert!(matches!(idler.request(b"go").unwrap(), Reply::Acked { .. }));
    // Stay silent past the timeout; our reader must hang up on us.
    let evicted = match idler.recv() {
        Ok(Reply::Rejected { reason }) => reason.contains("idle timeout"),
        Ok(other) => panic!("expected eviction notice, got {other:?}"),
        // The server may shut the socket before our read starts.
        Err(_) => true,
    };
    assert!(evicted);
    assert_eq!(registry.snapshot().total("cfgtag_sessions_evicted_total"), 1.0);

    let report = server.shutdown();
    assert_eq!(report.evicted, 1);
}

#[test]
fn worker_panics_answer_err_and_bump_restart_counter() {
    let t = tagger();
    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        shards: 1,
        panic_token: Some(b"POISON".to_vec()),
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
    // The session survived: the next message is served normally.
    match client.request(b"stop").unwrap() {
        Reply::Acked { seq, events } => {
            assert_eq!(seq, 1);
            assert_eq!(events, t.tag(b"stop"));
        }
        other => panic!("expected ack, got {other:?}"),
    }
    client.close().unwrap();
    let report = server.shutdown();
    assert_eq!(report.shard.restarts, 1);
    let snap = registry.snapshot();
    assert_eq!(snap.total("cfgtag_worker_restarts_total"), 1.0);
    // Both frames took the gate; the poison frame held it but did not
    // complete.
    let gate = |stat: &str| shard_counter(&snap, stat, "shard0");
    assert_eq!(gate("arrivals"), 2.0);
    assert_eq!(gate("dequeues"), 2.0);
    assert_eq!(gate("completions"), 1.0);
    assert!(gate("busy_ns") > 0.0);
    assert_eq!(report.shard.per_shard, [1]);
}

/// One shard gate's load counter, `cfgtag_shard_<stat>_total` on `sink`.
fn shard_counter(snap: &cfg_obs::Snapshot, stat: &str, sink: &str) -> f64 {
    let family = format!("cfgtag_shard_{stat}_total");
    snap.value(&family, &[("sink", sink)]).unwrap_or_else(|| panic!("no {family}{{sink={sink}}}"))
}

#[test]
fn overload_sheds_with_busy_and_flips_readiness() {
    let t = tagger();
    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        shards: 1,
        queue_depth: 1,
        registry: Some(Arc::clone(&registry)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    assert!(registry.ready());

    // One frame tags under the gate and one waits for it: a third
    // session's frame, arriving while both are there, is shed.
    let busys = flood_until_busy(server.local_addr(), 3, &slow_frame(), 200).unwrap();
    assert!(busys > 0, "a flood past the gate's wait must shed");
    let report = server.shutdown();
    assert!(report.shed >= busys as u64);
    assert!(registry.overloaded() || report.shed > 0);
    // Every admitted frame took the gate and was tagged; a shed frame
    // was never admitted.
    let snap = registry.snapshot();
    assert_eq!(snap.total("cfgtag_load_shed_total"), report.shed as f64);
    let gate = |stat: &str| shard_counter(&snap, stat, "shard0");
    assert_eq!(gate("arrivals"), gate("dequeues"));
    assert_eq!(gate("dequeues"), gate("completions"));
    assert_eq!(gate("completions"), report.shard.messages as f64);
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
    // trips, interleaved over two shard gates.
    let mut clients: Vec<Client> = (0..32).map(|_| Client::connect(&addr).unwrap()).collect();
    let expected = t.tag(b"if true then go else stop");
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

/// Wait until the server stops admitting frames on shard 0: a session's
/// reader stops reading while its ack write blocks. Returns how many
/// frames the shard admitted.
fn await_stalled_reader(registry: &Registry) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = 0;
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = shard_counter(&registry.snapshot(), "arrivals", "shard0") as u64;
        if now > 0 && now == seen {
            return now;
        }
        assert!(Instant::now() < deadline, "the reader never stalled ({now} frames taken)");
        seen = now;
    }
}

/// Wait until `want` sessions were evicted, then insist on exactly that.
fn await_evicted(registry: &Registry, want: f64) {
    let evicted = || registry.snapshot().total("cfgtag_sessions_evicted_total");
    let deadline = Instant::now() + Duration::from_secs(10);
    while evicted() < want {
        assert!(Instant::now() < deadline, "{} of {want} evictions", evicted());
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(evicted(), want);
}

#[test]
fn slow_reader_cannot_wedge_its_shard() {
    // Every "go" fires under `Always`, so each 60 KB frame earns a
    // ~240 KB ack: unread, a few of them fill the socket buffers and
    // the reader's next ack write blocks.
    let options = TaggerOptions { start_mode: StartMode::Always, ..TaggerOptions::default() };
    let t = TokenTagger::compile(&builtin::if_then_else(), options).unwrap();
    let registry = Arc::new(Registry::new());
    let idle_timeout = Duration::from_millis(300);
    let config = ServerConfig {
        shards: 1,
        idle_timeout,
        registry: Some(Arc::clone(&registry)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // While its ack write blocks, the reader reads no more frames, so
    // the sender blocks too, until the eviction breaks the connection.
    let mut slow = Client::connect(addr).unwrap();
    let sender = std::thread::spawn(move || {
        for _ in 0..64 {
            if slow.send(&b"go ".repeat(20_000)).is_err() {
                break;
            }
        }
        slow
    });
    let taken = await_stalled_reader(&registry);
    assert!(taken < 64, "the reader took every frame: no ack write ever blocked");
    // The blocked writer holds no gate, so a second session on the same
    // (only) shard is acked rather than stuck behind its unread acks.
    let mut other = Client::connect(addr).unwrap();
    let reply = loop {
        match other.request(b"go").unwrap() {
            Reply::Busy { .. } => std::thread::sleep(Duration::from_millis(20)),
            reply => break reply,
        }
    };
    match reply {
        Reply::Acked { events, .. } => assert_eq!(events, t.tag(b"go")),
        other => panic!("co-sharded client got {other:?}"),
    }
    other.close().unwrap();
    // The write deadline evicts the slow reader.
    await_evicted(&registry, 1.0);

    // Shutdown returns within a few idle timeouts, not never.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(server.shutdown()));
    let report = rx.recv_timeout(10 * idle_timeout).expect("shutdown hung behind a slow reader");
    assert_eq!(report.evicted, 1);
    drop(sender.join().unwrap());
}

#[test]
fn trickling_reader_cannot_hold_its_shard() {
    // As above, each 60 KB frame earns a ~240 KB ack, but this peer
    // reads, 16 KB every 50 ms: too slowly to take an ack within the
    // idle timeout, fast enough that every `write` call moves some bytes
    // before the socket's per-call write timeout. (A 1 KB trickle does
    // not keep a call moving: the receive window reopens only after tens
    // of KB are read.) Only a deadline per ack cuts the reader loose.
    let options = TaggerOptions { start_mode: StartMode::Always, ..TaggerOptions::default() };
    let t = TokenTagger::compile(&builtin::if_then_else(), options).unwrap();
    let registry = Arc::new(Registry::new());
    let idle_timeout = Duration::from_millis(300);
    let config = ServerConfig {
        shards: 1,
        idle_timeout,
        registry: Some(Arc::clone(&registry)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let mut trickler = TcpStream::connect(addr).unwrap();
    let mut writer = trickler.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        for _ in 0..64 {
            let data = b"go ".repeat(20_000);
            if frame::write_frame(&mut writer, FrameKind::Data, &data).is_err() {
                break;
            }
        }
    });
    let stop = Arc::new(AtomicBool::new(false));
    let reader = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            let mut chunk = [0u8; 16 << 10];
            while !stop.load(Ordering::SeqCst) && matches!(trickler.read(&mut chunk), Ok(1..)) {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    });
    let taken = await_stalled_reader(&registry);
    assert!(taken < 64, "the reader took every frame: no ack write ever blocked");
    let started = Instant::now();
    let mut other = Client::connect(addr).unwrap();
    let reply = loop {
        match other.request(b"go").unwrap() {
            Reply::Busy { .. } => std::thread::sleep(Duration::from_millis(20)),
            reply => break reply,
        }
    };
    let waited = started.elapsed();
    stop.store(true, Ordering::SeqCst);
    match reply {
        Reply::Acked { events, .. } => assert_eq!(events, t.tag(b"go")),
        other => panic!("co-sharded client got {other:?}"),
    }
    // Per-call timeouts held a co-sharded ack for 2.8 s or more; one
    // deadline per ack, with the gate released before the write, holds
    // it for at most one frame's tagging.
    assert!(waited < Duration::from_millis(1_500), "co-sharded ack took {waited:?}");
    other.close().unwrap();
    await_evicted(&registry, 1.0);
    reader.join().unwrap();
    sender.join().unwrap();
    server.shutdown();
}
