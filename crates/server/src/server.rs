//! The supervised multi-session ingest server.
//!
//! One acceptor thread takes TCP connections; each connection becomes
//! a session served by its own reader thread speaking the
//! [`crate::frame`] protocol. The reader tags its own frames and writes
//! their acks, so a frame makes one hop: socket, engine, socket, all on
//! one thread. The moving parts:
//!
//! * **Shard gates**: a session's frames are tagged under its shard's
//!   gate (shard `id % shards`), which one frame holds at a time. A
//!   frame that finds the gate taken waits for it, unless `queue_depth`
//!   frames wait already: then it is answered `Busy` with its sequence
//!   number ([`Stat::LoadShed`] on the shard's sink, and the attached
//!   [`Registry`] flips `overloaded` so `/readyz` tells load balancers
//!   to back off). The gate is released before the ack is written, so
//!   a slow reader never holds a shard. Each gate counts its load on
//!   the shard's sink, always: frames admitted, frames that took the
//!   gate, frames tagged to completion, and the nanoseconds frames
//!   held it and waited for it ([`Stat::ShardArrivals`] through
//!   [`Stat::ShardWaitNs`]). A reader derives utilization, rates and
//!   the mean queue depth from two snapshots; nothing samples.
//! * **Supervision**: a panic while tagging is caught in place, counted
//!   under [`Stat::WorkerRestarts`] on the shard's sink, and answered
//!   with an `Err` frame naming the poison frame's sequence; the session
//!   goes on.
//! * **Sessions**: a session silent for longer than the idle timeout is
//!   told why and hung up on by its own reader
//!   ([`Stat::SessionsEvicted`]); a `max_sessions` cap refuses new
//!   connections with `Busy`.
//! * **Slow readers**: the idle timeout is also every reply's write
//!   deadline. A peer that does not take a reply within it is shut down
//!   and counted as evicted; it held no gate while it stalled.
//! * **Acks are completions**: `Ack` is written only after the frame
//!   was fully tagged, and carries the events — a client that received
//!   an `Ack` can never lose that work. A reader answers each frame
//!   before it reads the next, so on `Close` every ack is already sent
//!   when `Bye` goes out.
//! * **Shadow audit**: with [`ServerConfig::audit`] set, 1-in-N
//!   sessions have their admitted payloads mirrored into a bounded
//!   audit queue; a worker beside the serving path replays each frame
//!   through the production engine, the scalar reference engine
//!   (divergence ⇒ correctness bug, a [`Mismatch`] kept as evidence in
//!   an [`EventRing`]) and the exact [`PdaParser`] (unconfirmed fires ⇒
//!   live §3.5 false positives, counted per token in an
//!   [`AuditBank`]). A full audit queue sheds the session and counts
//!   it — the fast path never blocks on the audit lane.

use crate::frame::{self, FrameKind, FrameRef};
use crate::session::SessionTable;
use cfg_obs::{
    AuditBank, AuditEvent, EventRing, Metrics, MetricsSink, Mismatch, Part, Registry, SloTracker,
    Span, SpanRecorder, Stage, Stat, StatsSink,
};
use cfg_tagger::{EngineKind, Error, PdaParser, TagEvent, TokenTagger};
use std::collections::HashSet;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame tracing + SLO configuration for [`ServerConfig::trace`].
///
/// When set, every data frame gets a [`Span`] stamped at each serving
/// stage, every finished span feeds the [`SloTracker`] (so the
/// `cfgtag_srv_*` latency quantiles are full-fidelity, not sampled),
/// and one span in `sample_every` — plus every span slower than the
/// objective — is retained in the recorder's ring for `/spans.jsonl`.
/// When `None` (the default) no span exists and the serving path pays
/// nothing. The objective's target is [`SLO_TARGET`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Retain every Nth span in the ring (1 = all). The SLO histograms
    /// always see every frame; this only throttles `/spans.jsonl`.
    pub sample_every: u64,
    /// Latency objective in milliseconds; frames over it count as SLO
    /// breaches and are always retained in the ring.
    pub slo_ms: u64,
    /// Ring capacity, in spans, behind `/spans.jsonl`.
    pub ring: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { sample_every: 1, slo_ms: 50, ring: 512 }
    }
}

/// The fraction of frames that must meet the latency objective.
pub const SLO_TARGET: f64 = 0.99;

/// The tracing side-car the server threads through its stages.
#[derive(Clone)]
struct Tracing {
    recorder: Arc<SpanRecorder>,
    slo: Arc<SloTracker>,
}

/// Shadow-audit configuration for [`ServerConfig::audit`].
///
/// When set, 1-in-`sample_every` sessions have their accepted `Data`
/// payloads (up to [`AUDIT_MAX_BYTES`] a session) mirrored into a queue
/// of [`AUDIT_QUEUE_DEPTH`] sessions; one replay worker beside the
/// serving path runs each frame through the production engine, the scalar
/// reference engine and the exact PDA parser, filling an [`AuditBank`]
/// (the `cfgtag_audit_*` families) and a small ring of recent
/// divergences (behind `/mismatches.jsonl`). When `None` (the default)
/// none of this exists and a session takes one `None` branch at open.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Audit 1 in N sessions (1 = every session). Clamped to `>= 1`.
    pub sample_every: u64,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig { sample_every: 1 }
    }
}

/// The audit queue's depth, in sessions. A full queue sheds the
/// session's audit (never the session itself) and counts it.
pub const AUDIT_QUEUE_DEPTH: usize = 64;

/// Per-session mirrored-byte cap; frames beyond it are not mirrored
/// (the prefix is still audited).
pub const AUDIT_MAX_BYTES: usize = 4 << 20;

/// Divergences kept as evidence behind `/mismatches.jsonl`. A
/// divergence is a correctness bug, so they should be rare: a small
/// ring keeps every one a debugging session could want.
const MISMATCH_CAPACITY: usize = 64;

/// One sampled session's mirrored payloads, queued for replay.
struct AuditJob {
    session: u64,
    frames: Vec<Vec<u8>>,
}

/// The audit side-car: counters, divergence evidence, and the bounded
/// queue feeding the replay worker.
struct Auditor {
    bank: Arc<AuditBank>,
    ring: Arc<EventRing<Mismatch>>,
    sample_every: u64,
    /// `SyncSender` is `Send` but not `Sync`; the mutex makes the lane
    /// shareable across session readers. `try_send` under the lock is
    /// two atomic ops — never a block.
    tx: Mutex<SyncSender<AuditJob>>,
}

impl Auditor {
    /// Hand one finished session's mirrored payloads to the replay
    /// lane. `try_send` on the bounded queue: a busy lane sheds the
    /// audit (counted), never the serving path.
    fn finish_session(&self, session: u64, frames: Vec<Vec<u8>>) {
        if frames.is_empty() {
            // Nothing tagged, nothing to check — trivially audited.
            self.bank.session_audited();
            return;
        }
        match self.tx.lock().expect("audit queue lock").try_send(AuditJob { session, frames }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => self.bank.session_shed(),
            Err(TrySendError::Disconnected(_)) => {}
        }
    }
}

/// How the server is shaped; start from `ServerConfig::default()` and
/// override fields.
#[derive(Clone)]
pub struct ServerConfig {
    /// Shard gates; a session tags under gate `id % shards`.
    pub shards: usize,
    /// Frames that may wait for a taken shard gate; one more is shed
    /// with `Busy`.
    pub queue_depth: usize,
    /// Hard cap on concurrent sessions; beyond it, connects get `Busy`.
    pub max_sessions: usize,
    /// A session silent for longer than this is evicted by its reader.
    /// It is also each reply's write deadline: a reply the peer leaves
    /// unread this long evicts the session.
    pub idle_timeout: Duration,
    /// Which engine the sessions tag with.
    pub engine: EngineKind,
    /// Panic injection for the chaos harness: tagging panics when a
    /// payload contains this byte string. `None` in production.
    pub panic_token: Option<Vec<u8>>,
    /// The registry to report into: the shard and server sinks (as
    /// `shard0…`, `server`), the `ready` flag on start and `overloaded`
    /// while shedding, and the trace and audit parts.
    pub registry: Option<Arc<Registry>>,
    /// Frame tracing + SLO pipeline; `None` (default) serves untraced.
    pub trace: Option<TraceConfig>,
    /// Shadow-audit lane (sampled-session replay through the reference
    /// engine + exact parser); `None` (default) serves unaudited.
    pub audit: Option<AuditConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 2,
            queue_depth: 64,
            max_sessions: 64,
            idle_timeout: Duration::from_secs(30),
            engine: EngineKind::Bit,
            panic_token: None,
            registry: None,
            trace: None,
            audit: None,
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("shards", &self.shards)
            .field("queue_depth", &self.queue_depth)
            .field("max_sessions", &self.max_sessions)
            .field("idle_timeout", &self.idle_timeout)
            .field("engine", &self.engine)
            .field("panic_token", &self.panic_token.is_some())
            .field("trace", &self.trace)
            .field("audit", &self.audit)
            .finish_non_exhaustive()
    }
}

/// What the server did over its lifetime, from
/// [`IngestServer::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerReport {
    /// Sessions admitted (cap refusals not counted).
    pub sessions_served: u64,
    /// Sessions evicted: idle past the timeout, or a reply write
    /// failed.
    pub evicted: u64,
    /// Data frames shed with `Busy` because a shard gate's wait was
    /// full.
    pub shed: u64,
    /// Per shard: frames tagged to completion (the shard sink's
    /// [`Stat::ShardCompletions`]), and panics caught.
    pub shard: ShardReport,
}

/// What the shards did, in [`ServerReport::shard`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Frames tagged to completion across all shards.
    pub messages: u64,
    /// Frames tagged to completion on each shard, in shard order.
    pub per_shard: Vec<u64>,
    /// Panics caught while tagging, across all shards.
    pub restarts: u64,
}

/// A shard's admission gate: one frame is tagged under `lock` at a
/// time, and `at_gate` counts the frames holding or waiting for it.
#[derive(Default)]
struct Gate {
    lock: Mutex<()>,
    at_gate: AtomicUsize,
}

impl Gate {
    /// Take the gate, waiting for it when it is held, unless `depth`
    /// frames wait already: `None` sheds the frame. `admitted` runs once
    /// the frame is admitted, before it waits, and what it returns comes
    /// back with the held gate.
    fn enter<T>(
        &self,
        depth: usize,
        admitted: impl FnOnce() -> T,
    ) -> Option<(MutexGuard<'_, ()>, T)> {
        if self.at_gate.fetch_add(1, Ordering::SeqCst) > depth {
            self.at_gate.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        let value = admitted();
        // Panics are caught inside the gate, and it guards no data, so
        // a poisoned lock would be as good as a clean one.
        Some((self.lock.lock().unwrap_or_else(PoisonError::into_inner), value))
    }

    /// Release the gate.
    fn leave(&self, held: MutexGuard<'_, ()>) {
        drop(held);
        self.at_gate.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One shard: a tagger clone whose metrics land in the shard's sink,
/// and the gate its sessions' frames are tagged under, whose load the
/// same sink counts.
struct Shard {
    tagger: TokenTagger,
    sink: Arc<StatsSink>,
    gate: Gate,
}

/// Everything the acceptor and the session threads share.
struct Shared {
    shards: Vec<Shard>,
    queue_depth: usize,
    engine: EngineKind,
    panic_token: Option<Vec<u8>>,
    table: SessionTable,
    stop: AtomicBool,
    server_sink: Arc<StatsSink>,
    registry: Option<Arc<Registry>>,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    sessions_served: AtomicU64,
    idle_timeout: Duration,
    tracing: Option<Tracing>,
    audit: Option<Auditor>,
}

/// A running ingest server; shut it down with
/// [`IngestServer::shutdown`] to say `Bye` to every session and collect
/// the report.
pub struct IngestServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    audit_handle: Option<JoinHandle<()>>,
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
}

/// Stringify a caught panic payload (the two shapes `panic!` produces).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn stamp(span: &mut Option<Span>, stage: Stage) {
    if let Some(span) = span.as_mut() {
        span.stamp(stage);
    }
}

impl IngestServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving sessions
    /// over `tagger`.
    pub fn start<A: ToSocketAddrs>(
        tagger: &TokenTagger,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<IngestServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (shared, audit_handle) = Shared::new(tagger, &config);
        let shared = Arc::new(shared);

        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("cfgserve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn acceptor");

        Ok(IngestServer { addr, shared, accept_handle: Some(accept_handle), audit_handle })
    }

    /// The bound address (with the real port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live session count right now.
    pub fn sessions(&self) -> usize {
        self.shared.table.len()
    }

    /// The SLO tracker, when tracing is configured — the source of the
    /// `cfgtag_slo_*` and `cfgtag_srv_*` families.
    pub fn slo_tracker(&self) -> Option<Arc<SloTracker>> {
        self.shared.tracing.as_ref().map(|t| Arc::clone(&t.slo))
    }

    /// The shadow-audit counters, when auditing is configured — the
    /// source of the `cfgtag_audit_*` families.
    pub fn audit_bank(&self) -> Option<Arc<AuditBank>> {
        self.shared.audit.as_ref().map(|a| Arc::clone(&a.bank))
    }

    /// The divergence evidence ring, when auditing is configured — the
    /// source behind `/mismatches.jsonl`.
    pub fn mismatch_ring(&self) -> Option<Arc<EventRing<Mismatch>>> {
        self.shared.audit.as_ref().map(|a| Arc::clone(&a.ring))
    }

    /// Graceful shutdown: stop accepting, let every session finish the
    /// frame in hand and say `Bye`, and report.
    pub fn shutdown(mut self) -> ServerReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *self.shared.conn_handles.lock().expect("handles lock"));
        for h in handles {
            let _ = h.join();
        }
        let audit_handle = self.audit_handle.take();
        let mut shared = Arc::into_inner(self.shared)
            .expect("all server threads joined, shared state uniquely owned");
        let evicted = shared.server_sink.get(Stat::SessionsEvicted);
        let sessions_served = shared.sessions_served.load(Ordering::SeqCst);
        let sum = |stat| shared.shards.iter().map(|s| s.sink.get(stat)).sum::<u64>();
        let (shed, restarts) = (sum(Stat::LoadShed), sum(Stat::WorkerRestarts));
        let per_shard: Vec<u64> =
            shared.shards.iter().map(|s| s.sink.get(Stat::ShardCompletions)).collect();
        let shard = ShardReport { messages: per_shard.iter().sum(), per_shard, restarts };
        // Dropping the auditor drops the queue's sender; the replay
        // worker drains what was enqueued, sees the disconnect, and exits.
        drop(shared.audit.take());
        if let Some(h) = audit_handle {
            let _ = h.join();
        }
        ServerReport { sessions_served, evicted, shed, shard }
    }
}

impl std::fmt::Debug for IngestServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestServer")
            .field("addr", &self.addr)
            .field("sessions", &self.sessions())
            .finish_non_exhaustive()
    }
}

impl Shared {
    /// The shared state for `config`, with its telemetry side-cars and
    /// registry wiring, plus the audit worker the server owns.
    fn new(tagger: &TokenTagger, config: &ServerConfig) -> (Shared, Option<JoinHandle<()>>) {
        // The tracing side-car: a span recorder + SLO tracker pair.
        let tracing = config.trace.as_ref().map(|t| Tracing {
            recorder: Arc::new(SpanRecorder::new(
                t.ring,
                t.sample_every,
                t.slo_ms.saturating_mul(1_000_000),
            )),
            slo: Arc::new(SloTracker::new(t.slo_ms.saturating_mul(1_000_000), SLO_TARGET)),
        });

        // One tagger clone per shard, whose engines count into the
        // shard's sink, as its gate does. Like every stats sink it keeps
        // no trace events, so engines skip building them.
        let tokens = tagger.grammar().tokens().len();
        let shards: Vec<Shard> = (0..config.shards.max(1))
            .map(|_| {
                let sink = Arc::new(StatsSink::with_tokens(tokens));
                let tagger = tagger.clone().with_metrics(Metrics::new(sink.clone()));
                Shard { tagger, sink, gate: Gate::default() }
            })
            .collect();

        // The shadow-audit side-car: correctness counters, divergence
        // evidence ring, and the bounded queue feeding the replay
        // worker, which exits when the sender side disconnects at
        // shutdown.
        let mut audit_handle = None;
        let audit = config.audit.as_ref().map(|a| {
            let bank = Arc::new(AuditBank::new(tokens));
            let ring = Arc::new(EventRing::new(MISMATCH_CAPACITY));
            let (tx, rx) = mpsc::sync_channel::<AuditJob>(AUDIT_QUEUE_DEPTH);
            let (tagger, kind) = (tagger.clone(), config.engine);
            let (worker_bank, worker_ring) = (Arc::clone(&bank), Arc::clone(&ring));
            audit_handle = Some(
                std::thread::Builder::new()
                    .name("cfgserve-audit".into())
                    .spawn(move || audit_loop(tagger, kind, rx, worker_bank, worker_ring))
                    .expect("spawn audit worker"),
            );
            Auditor { bank, ring, sample_every: a.sample_every.max(1), tx: Mutex::new(tx) }
        });

        let server_sink = Arc::new(StatsSink::new());
        if let Some(registry) = &config.registry {
            for (i, shard) in shards.iter().enumerate() {
                registry.register(format!("shard{i}"), Arc::clone(&shard.sink));
            }
            registry.register("server", Arc::clone(&server_sink));
            // Names for the per-token series. Not the compile report: it
            // would build the lazily built circuit at start.
            let names = tagger.grammar().tokens().iter().map(|t| t.name.clone()).collect();
            registry.attach(Part::Tokens(names));
            if let Some(t) = &tracing {
                registry.attach(Part::Spans(Arc::clone(&t.recorder)));
                registry.attach(Part::Slo(Arc::clone(&t.slo)));
            }
            if let Some(a) = &audit {
                registry.attach(Part::Audit(Arc::clone(&a.bank)));
                registry.attach(Part::Mismatches(Arc::clone(&a.ring)));
            }
            registry.set_ready(true);
        }

        let shared = Shared {
            shards,
            queue_depth: config.queue_depth,
            engine: config.engine,
            panic_token: config.panic_token.clone(),
            table: SessionTable::new(config.max_sessions),
            stop: AtomicBool::new(false),
            server_sink,
            registry: config.registry.clone(),
            conn_handles: Mutex::new(Vec::new()),
            sessions_served: AtomicU64::new(0),
            idle_timeout: config.idle_timeout,
            tracing,
            audit,
        };
        (shared, audit_handle)
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let mut handles = shared.conn_handles.lock().expect("handles lock");
        reap(&mut handles);
        let Some(id) = shared.table.open() else {
            refuse(stream, b"max sessions");
            continue;
        };
        // A spare handle on the socket answers the peer if its reader
        // thread cannot be spawned.
        let Ok(spare) = stream.try_clone() else {
            shared.table.close();
            continue;
        };
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("cfgserve-conn{id}"))
            .spawn(move || serve_conn(conn_shared, stream, id));
        match spawned {
            Ok(handle) => {
                shared.sessions_served.fetch_add(1, Ordering::SeqCst);
                handles.push(handle);
            }
            Err(_) => {
                shared.table.close();
                refuse(spare, b"no reader thread");
            }
        }
    }
}

/// Answer a connection the server will not serve with `Busy`, and hang
/// up. No session state exists for it, so nothing is cleaned.
fn refuse(mut stream: TcpStream, reason: &[u8]) {
    let _ = frame::write_frame(&mut stream, FrameKind::Busy, reason);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Join the reader threads that have finished, so each frees its stack
/// now rather than at shutdown.
fn reap(handles: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// What one poll of the incremental frame reader produced.
enum Poll<'a> {
    /// A complete frame, borrowed from the reader's buffer, and the
    /// nanoseconds spent buffering it.
    Frame(FrameRef<'a>, u64),
    /// No complete frame yet: the read timed out or brought part of one.
    Pending,
    /// The peer hung up between frames.
    Eof,
}

/// An incremental frame parser that survives read timeouts mid-frame —
/// a slow-loris client dribbling one byte per second must cost the
/// server only buffered bytes, never a blocked thread or lost partial
/// frame. Decoding itself is delegated to [`frame::FrameReader`]; this
/// wrapper adds the blocking-read pump and the span-lead clock.
#[derive(Default)]
struct FrameReader {
    inner: frame::FrameReader,
    /// When the first byte of the frame currently being buffered
    /// arrived — the lead a tracing span is back-dated by, so the
    /// `frame_read` stage covers the socket reads that happened before
    /// the span object existed.
    frame_started: Option<Instant>,
}

impl FrameReader {
    /// At most one `read`, then the next complete frame if there is
    /// one: a peer sending bytes never keeps the caller from its
    /// stop-flag and idle checks.
    fn poll<R: Read>(&mut self, r: &mut R) -> Result<Poll<'_>, Error> {
        // Between frames, a large one gives its room back before the
        // reader waits for the next.
        self.inner.shrink_to(RETAIN_BYTES);
        if self.inner.complete()?.is_none() {
            let mut chunk = [0u8; frame::READ_CHUNK];
            match r.read(&mut chunk) {
                Ok(0) if self.inner.buffered() == 0 => return Ok(Poll::Eof),
                Ok(0) => {
                    return Err(Error::Protocol(format!(
                        "connection closed inside a frame ({} bytes buffered)",
                        self.inner.buffered()
                    )))
                }
                Ok(n) => {
                    if self.frame_started.is_none() {
                        self.frame_started = Some(Instant::now());
                    }
                    self.inner.push(&chunk[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(Poll::Pending)
                }
                Err(e) => return Err(Error::Io(e)),
            }
        }
        let Some(wire_len) = self.inner.complete()? else { return Ok(Poll::Pending) };
        // Close this frame's read window; leftover buffered bytes
        // already belong to the next frame, so its clock starts now.
        let lead_ns = self.frame_started.take().map_or(0, |t| nanos(t.elapsed()));
        if self.inner.buffered() > wire_len {
            self.frame_started = Some(Instant::now());
        }
        let frame = self.inner.next_frame()?.expect("a complete frame is buffered");
        Ok(Poll::Frame(frame, lead_ns))
    }
}

/// Bytes the frame reader's buffer, the events buffer and the wire
/// buffer each keep between frames. A frame that grew one past it hands
/// the rest back, so a connection holds about three times this between
/// frames, whatever its largest frame and ack were.
const RETAIN_BYTES: usize = 64 << 10;

/// One session's serving state, owned by its reader thread.
struct Conn {
    id: u64,
    stream: TcpStream,
    /// The events of the frame in hand.
    events: Vec<TagEvent>,
    /// The reply in hand, encoded as one wire frame.
    wire: Vec<u8>,
    /// The next `Data` frame's sequence number.
    seq: u32,
    /// When the session last had a frame answered (or opened).
    last_active: Instant,
    /// Admitted payloads mirrored for the audit lane, with their byte
    /// total (for the cap); `None` when the session is not audited.
    mirrored: Option<(Vec<Vec<u8>>, usize)>,
}

impl Conn {
    fn new(id: u64, stream: TcpStream, audited: bool) -> Conn {
        Conn {
            id,
            stream,
            events: Vec::new(),
            wire: Vec::new(),
            seq: 0,
            last_active: Instant::now(),
            mirrored: audited.then(|| (Vec::new(), 0)),
        }
    }

    /// Write `self.wire` within the idle timeout: one deadline for the
    /// whole frame, so a peer that reads a few bytes at a time cannot
    /// hold the thread past it. A failed write — the peer is gone, or it
    /// did not take the frame in time — evicts the session: `false`.
    fn send(&mut self, shared: &Shared) -> bool {
        let sent = cfg_obs_http::write_within(&mut self.stream, &self.wire, shared.idle_timeout);
        if sent.is_err() {
            shared.server_sink.add(Stat::SessionsEvicted, 1);
        }
        sent.is_ok()
    }

    /// Encode and [`Conn::send`] one reply frame.
    fn reply(&mut self, shared: &Shared, kind: FrameKind, payload: &[u8]) -> bool {
        frame::encode_frame_into(kind, payload, &mut self.wire).is_ok() && self.send(shared)
    }

    /// Tag one `Data` frame under its shard's gate and answer it:
    /// `Ack` with the events, `Err` when tagging failed or panicked, or
    /// `Busy` when the gate's wait is full. `false` when the answer
    /// could not be written, which ends the session.
    fn data(&mut self, shared: &Shared, payload: &[u8], lead_ns: u64) -> bool {
        let seq = self.seq;
        self.seq = seq.wrapping_add(1);
        // Begin the frame's span (when tracing is on), back-dated by the
        // socket-read lead so frame_read covers time spent buffering it.
        let mut span = shared.tracing.as_ref().map(|t| {
            let mut span = t.recorder.begin_with_lead(lead_ns);
            span.set_ids(self.id, u64::from(seq));
            span.stamp(Stage::FrameRead);
            span
        });
        stamp(&mut span, Stage::Parse);
        let i = (self.id % shared.shards.len() as u64) as usize;
        let shard = &shared.shards[i];
        stamp(&mut span, Stage::SessionLookup);
        stamp(&mut span, Stage::Enqueue);
        let sink = &shard.sink;
        let entered = shard.gate.enter(shared.queue_depth, || {
            sink.add(Stat::ShardArrivals, 1);
            Instant::now()
        });
        let Some((held, admitted_at)) = entered else {
            shard.sink.add(Stat::LoadShed, 1);
            if let Some(registry) = &shared.registry {
                registry.set_overloaded(true);
            }
            return self.reply(shared, FrameKind::Busy, &seq.to_le_bytes());
        };
        // The gate's load: three clock reads a frame (admitted, gate
        // taken, tagging done) and five counter adds.
        let taken_at = Instant::now();
        sink.add(Stat::ShardDequeues, 1);
        sink.add(Stat::ShardWaitNs, nanos(taken_at - admitted_at));
        stamp(&mut span, Stage::QueueWait);
        let (id, events) = (self.id, &mut self.events);
        let tagged = catch_unwind(AssertUnwindSafe(|| {
            if let Some(token) = &shared.panic_token {
                if contains(payload, token) {
                    panic!("injected poison frame (session {id} seq {seq})");
                }
            }
            tag_into(&shard.tagger, shared.engine, payload, events)
        }));
        let busy_ns = nanos(taken_at.elapsed());
        shard.gate.leave(held);
        // A caught panic held the gate but completed nothing.
        sink.add(Stat::ShardBusyNs, busy_ns);
        sink.add(Stat::ShardCompletions, u64::from(tagged.is_ok()));
        stamp(&mut span, Stage::Engine);
        if let Some(registry) = &shared.registry {
            registry.set_overloaded(false);
        }
        // Mirror every admitted frame: the audit lane replays what the
        // fast path tagged, not what it shed.
        if let Some((frames, bytes)) = self.mirrored.as_mut() {
            if *bytes + payload.len() <= AUDIT_MAX_BYTES {
                *bytes += payload.len();
                frames.push(payload.to_vec());
            }
        }
        let encoded = match tagged {
            Ok(Ok(())) => frame::encode_ack_into(seq, &self.events, &mut self.wire)
                .map_err(|_| "reply too large".to_owned()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(panic) => {
                // The poison frame was not tagged: no span to record.
                shard.sink.add(Stat::WorkerRestarts, 1);
                span = None;
                Err(format!("worker panic: {}", panic_text(panic.as_ref())))
            }
        };
        let sent = match encoded {
            Ok(()) => self.send(shared),
            Err(reason) => {
                self.reply(shared, FrameKind::Err, format!("seq {seq}: {reason}").as_bytes())
            }
        };
        self.trim();
        // The span ends when the reply hit the socket: fold it into the
        // SLO histograms and (maybe) the /spans.jsonl ring.
        if let (Some(tracing), Some(span)) = (&shared.tracing, span.as_mut()) {
            span.stamp(Stage::AckWrite);
            tracing.slo.observe(span);
            tracing.recorder.record(span);
        }
        sent
    }

    /// Give back what a large frame grew the buffers to, past
    /// [`RETAIN_BYTES`] each.
    fn trim(&mut self) {
        let keep = RETAIN_BYTES / std::mem::size_of::<TagEvent>();
        if self.events.capacity() > keep {
            self.events.clear();
            self.events.shrink_to(keep);
        }
        if self.wire.capacity() > RETAIN_BYTES {
            self.wire.clear();
            self.wire.shrink_to(RETAIN_BYTES);
        }
    }
}

fn serve_conn(shared: Arc<Shared>, stream: TcpStream, id: u64) {
    // The read timeout is the tick the reader checks the stop flag and
    // its idle clock on.
    let tick = (shared.idle_timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
    let _ = stream.set_read_timeout(Some(tick));
    // The write timeout is the first write of each reply's deadline;
    // see `Conn::send`.
    let _ = stream.set_write_timeout(Some(shared.idle_timeout));
    // Each reply leaves in one write, but Nagle holds a small write
    // while an earlier one is unacknowledged, and the client's delayed
    // ACK (~40 ms) then floors every pipelined round-trip. The span
    // waterfall is what exposed it: `ack_write` measured microseconds
    // while the client-observed round-trip sat at ~40 ms.
    let _ = stream.set_nodelay(true);
    // Shadow-audit sampling, decided once per session: with auditing
    // configured, 1-in-N sessions mirror their admitted payloads for
    // replay. Unsampled sessions pay exactly this check.
    let audit = shared
        .audit
        .as_ref()
        .filter(|a| id.is_multiple_of(a.sample_every))
        .inspect(|a| a.bank.session_sampled());
    let mut conn = Conn::new(id, stream, audit.is_some());
    let mut reader = FrameReader::default();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            conn.reply(&shared, FrameKind::Bye, b"");
            break;
        }
        match reader.poll(&mut conn.stream) {
            Ok(Poll::Pending) => {
                if conn.last_active.elapsed() > shared.idle_timeout {
                    // Count, then say why: the peer may read the notice
                    // and look at the counter at once.
                    shared.server_sink.add(Stat::SessionsEvicted, 1);
                    let reason = format!("session {id} idle timeout");
                    if frame::encode_frame_into(FrameKind::Err, reason.as_bytes(), &mut conn.wire)
                        .is_ok()
                    {
                        let _ = cfg_obs_http::write_within(
                            &mut conn.stream,
                            &conn.wire,
                            shared.idle_timeout,
                        );
                    }
                    break;
                }
            }
            Ok(Poll::Eof) => break,
            Ok(Poll::Frame(frame, lead_ns)) => match frame.kind {
                FrameKind::Data => {
                    if !conn.data(&shared, frame.payload, lead_ns) {
                        break;
                    }
                    conn.last_active = Instant::now();
                }
                FrameKind::Close => {
                    // Every earlier frame was answered before this one
                    // was read.
                    conn.reply(&shared, FrameKind::Bye, b"");
                    break;
                }
                other => {
                    shared.server_sink.add(Stat::MalformedRejected, 1);
                    let reason = format!("unexpected client frame {other:?}");
                    conn.reply(&shared, FrameKind::Err, reason.as_bytes());
                    break;
                }
            },
            Err(e) => {
                if matches!(e, Error::Protocol(_)) {
                    shared.server_sink.add(Stat::MalformedRejected, 1);
                    conn.reply(&shared, FrameKind::Err, e.to_string().as_bytes());
                }
                break;
            }
        }
    }
    // Hand the mirrored session to the audit lane.
    if let (Some(a), Some((frames, _))) = (audit, conn.mirrored.take()) {
        a.finish_session(id, frames);
    }
    let _ = conn.stream.shutdown(Shutdown::Both);
    shared.table.close();
}

/// The audit worker: pull mirrored sessions off the bounded queue and
/// replay them until the sender side (the [`Auditor`]) is dropped at
/// shutdown.
fn audit_loop(
    tagger: TokenTagger,
    kind: EngineKind,
    rx: Receiver<AuditJob>,
    bank: Arc<AuditBank>,
    ring: Arc<EventRing<Mismatch>>,
) {
    // The exact parser is the ground truth for §3.5 false positives:
    // build it once, reuse across every frame.
    let pda = PdaParser::new(tagger.grammar());
    while let Ok(job) = rx.recv() {
        for (frame, payload) in job.frames.iter().enumerate() {
            audit_frame(&tagger, kind, &pda, &bank, &ring, job.session, frame as u64, payload);
        }
        bank.session_audited();
    }
}

/// Replay one frame exactly as the serving path tagged it (a fresh
/// engine per frame), cross-check against the scalar reference engine,
/// and confirm every fire against the exact parser.
#[allow(clippy::too_many_arguments)]
fn audit_frame(
    tagger: &TokenTagger,
    kind: EngineKind,
    pda: &PdaParser,
    bank: &AuditBank,
    ring: &EventRing<Mismatch>,
    session: u64,
    frame: u64,
    payload: &[u8],
) {
    bank.frame_audited(payload.len() as u64);
    let Ok(fast) = tag_payload(tagger, kind, payload) else {
        // The production engine kind failed where the fast path (by
        // construction, same kind, same payload) also failed — the
        // client already saw the Err frame; nothing to cross-check.
        return;
    };
    let Ok(reference) = tag_payload(tagger, EngineKind::Scalar, payload) else {
        // The scalar reference returns no errors.
        return;
    };
    if fast != reference {
        bank.divergence();
        ring.push(build_mismatch(session, frame, payload, &fast, &reference));
    }
    // §3.5: the streaming tagger may fire tokens the exact parser does
    // not confirm. Count confirmations against the PDA's derivation.
    let verdict = pda.parse(payload);
    let confirmed: HashSet<(u32, usize, usize)> = if verdict.accepted {
        verdict.events.iter().map(|e| (e.token.0, e.start, e.end)).collect()
    } else {
        HashSet::new()
    };
    let mut confirmed_fires = 0u64;
    for e in &fast {
        if confirmed.contains(&(e.token.0, e.start, e.end)) {
            confirmed_fires += 1;
        } else {
            bank.false_positive(e.token.0);
        }
    }
    bank.fires(fast.len() as u64, confirmed_fires);
}

/// Tag `payload` with a fresh engine of `kind` into `events` (cleared
/// first): what the serving path runs on every frame, and so what the
/// audit replays.
fn tag_into(
    tagger: &TokenTagger,
    kind: EngineKind,
    payload: &[u8],
    events: &mut Vec<TagEvent>,
) -> Result<(), Error> {
    events.clear();
    let mut engine = tagger.engine(kind)?;
    engine.feed_slice(payload, events)?;
    engine.finish_into(events)
}

/// [`tag_into`] a fresh vector.
fn tag_payload(
    tagger: &TokenTagger,
    kind: EngineKind,
    payload: &[u8],
) -> Result<Vec<TagEvent>, Error> {
    let mut events = Vec::new();
    tag_into(tagger, kind, payload, &mut events)?;
    Ok(events)
}

fn to_audit_events(events: &[TagEvent]) -> Vec<AuditEvent> {
    events
        .iter()
        .map(|e| AuditEvent { token: e.token.0, start: e.start as u64, end: e.end as u64 })
        .collect()
}

/// Build the evidence for one divergence: the byte
/// window around the first differing event plus both full event
/// streams.
fn build_mismatch(
    session: u64,
    frame: u64,
    payload: &[u8],
    fast: &[TagEvent],
    reference: &[TagEvent],
) -> Mismatch {
    let first_diff = fast
        .iter()
        .zip(reference.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| fast.len().min(reference.len()));
    let anchor = fast
        .get(first_diff)
        .or_else(|| reference.get(first_diff))
        .map(|e| e.start)
        .unwrap_or(0)
        .min(payload.len());
    let window_start = anchor.saturating_sub(64);
    let window_end = (window_start + 256).min(payload.len());
    Mismatch {
        session,
        frame,
        window_start: window_start as u64,
        window: payload[window_start..window_end].to_vec(),
        fast: to_audit_events(fast),
        reference: to_audit_events(reference),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{decode_reply, Client, Reply};
    use crate::frame::Frame;
    use cfg_grammar::builtin;
    use cfg_tagger::{StartMode, TaggerOptions};

    fn tagger() -> TokenTagger {
        TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap()
    }

    #[test]
    fn a_gate_holds_one_frame_queues_depth_and_sheds_the_rest() {
        let gate = Arc::new(Gate::default());
        let (held, ()) = gate.enter(1, || {}).expect("a free gate is taken at once");
        let (admitted_tx, admitted) = mpsc::channel();
        let waiter = std::thread::spawn({
            let gate = Arc::clone(&gate);
            move || {
                let entered = gate.enter(1, || admitted_tx.send(()).unwrap());
                let taken = entered.is_some();
                if let Some((held, ())) = entered {
                    gate.leave(held);
                }
                taken
            }
        });
        // Admitted, and so waiting behind the holder.
        admitted.recv().unwrap();
        let shed = gate.enter(1, || panic!("a shed frame is not admitted"));
        assert!(shed.is_none(), "the wait is full");
        gate.leave(held);
        assert!(waiter.join().unwrap(), "the waiter took the gate once it was left");
        let (held, value) =
            gate.enter(0, || 7).expect("free again: taken at once, with no room to wait");
        assert_eq!(value, 7, "what `admitted` returns comes back with the gate");
        gate.leave(held);
        assert_eq!(gate.at_gate.load(Ordering::SeqCst), 0, "every frame left the gate");
    }

    /// A reader thread's stack stays mapped until it is joined: after
    /// sequential sessions the server must hold no more handles than it
    /// has live sessions, plus the last one's.
    #[test]
    fn finished_session_threads_are_joined() {
        let server =
            IngestServer::start(&tagger(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        for _ in 0..300 {
            let mut client = Client::connect(server.local_addr()).unwrap();
            assert!(matches!(client.request(b"go").unwrap(), Reply::Acked { .. }));
            client.close().unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while server.sessions() > 0 {
                assert!(Instant::now() < deadline, "a closed session never left the table");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let held = server.shared.conn_handles.lock().unwrap().len();
        let live = server.sessions();
        assert!(held <= live + 1, "{held} reader handles held for {live} live sessions");
        server.shutdown();
    }

    /// A frame whose size, events and ack dwarf the served mix leaves
    /// none of the connection's three buffers at that size, and the
    /// session goes on.
    #[test]
    fn a_huge_ack_gives_its_buffers_back() {
        // Under `Always` each "go" fires: a 1 MiB frame of them makes
        // ~350k events (~8 MB of them in memory) and a ~4 MB ack, over
        // MAX_FRAME.
        let options = TaggerOptions { start_mode: StartMode::Always, ..TaggerOptions::default() };
        let t = TokenTagger::compile(&builtin::if_then_else(), options).unwrap();
        let (shared, _) = Shared::new(&t, &ServerConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::new(0, listener.accept().unwrap().0, false);
        let mut reply = || decode_reply(&frame::read_frame(&mut peer).unwrap().unwrap()).unwrap();
        // Both frames come in through a frame reader, as `serve_conn`
        // reads them.
        let mut reader = FrameReader::default();
        let mut serve = |conn: &mut Conn, payload: &[u8]| {
            let mut wire = Vec::new();
            frame::write_frame(&mut wire, FrameKind::Data, payload).unwrap();
            let mut src = &wire[..];
            loop {
                match reader.poll(&mut src).unwrap() {
                    Poll::Frame(f, lead_ns) => {
                        assert!(conn.data(&shared, f.payload, lead_ns));
                        break;
                    }
                    Poll::Pending => {}
                    Poll::Eof => panic!("the frame ran out"),
                }
            }
            // Then wait for the next frame, as the reader does.
            assert!(matches!(reader.poll(&mut Idle).unwrap(), Poll::Pending));
            reader.inner.capacity()
        };

        let read_buffer = serve(&mut conn, &b"go ".repeat(frame::MAX_FRAME / 3));
        match reply() {
            Reply::Rejected { reason } => assert_eq!(reason, "seq 0: reply too large"),
            other => panic!("expected a too-large rejection, got {other:?}"),
        }
        let events = conn.events.capacity() * std::mem::size_of::<TagEvent>();
        assert!(events <= RETAIN_BYTES, "events buffer kept {events} bytes");
        assert!(conn.wire.capacity() <= RETAIN_BYTES, "wire buffer kept {}", conn.wire.capacity());
        assert!(read_buffer <= RETAIN_BYTES, "frame reader kept {read_buffer} bytes");

        serve(&mut conn, b"go");
        assert_eq!(reply(), Reply::Acked { seq: 1, events: t.tag(b"go") });
    }

    /// A frame larger than the retained size grows the reader's buffer
    /// by doubling while it arrives, and keeps it until it is answered:
    /// O(log n) reallocations, not two per read.
    #[test]
    fn a_large_frame_is_not_shrunk_while_it_arrives() {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, FrameKind::Data, &vec![b'x'; 1 << 20]).unwrap();
        let mut src = Chunked { data: &wire, pos: 0, splits: &[frame::READ_CHUNK], turn: 0 };
        let mut reader = FrameReader::default();
        let (mut reads, mut reallocs, mut capacity) = (0, 0, 0);
        let len = loop {
            reads += 1;
            if let Poll::Frame(f, _) = reader.poll(&mut src).unwrap() {
                break f.payload.len();
            }
            if reader.inner.capacity() != capacity {
                capacity = reader.inner.capacity();
                reallocs += 1;
            }
        };
        assert_eq!(len, 1 << 20);
        assert!(reads >= (1 << 20) / frame::READ_CHUNK, "{reads} reads");
        // log2(1 MiB / READ_CHUNK) doublings, and one past MAX_FRAME.
        assert!(reallocs <= 12, "{reallocs} reallocations over {reads} reads");
    }

    /// A socket with nothing to read yet.
    struct Idle;

    impl Read for Idle {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::WouldBlock.into())
        }
    }

    #[test]
    fn audit_evidence_windows_the_first_divergence() {
        let ev = |token, start, end| TagEvent { token: cfg_grammar::TokenId(token), start, end };
        let payload = vec![b'x'; 1000];
        let fast = [ev(0, 10, 12), ev(1, 500, 504)];
        let reference = [ev(0, 10, 12), ev(2, 500, 506), ev(3, 900, 901)];
        let m = build_mismatch(7, 3, &payload, &fast, &reference);
        // 64 bytes of lead-in before the first differing event, 256 in all.
        assert_eq!((m.session, m.frame, m.window_start, m.window.len()), (7, 3, 436, 256));
        assert_eq!((m.fast.len(), m.reference.len()), (2, 3));
        // A stream that only runs longer anchors on its first extra
        // event, and the window stops at the end of the payload.
        let m = build_mismatch(7, 3, &payload, &reference[..2], &reference);
        assert_eq!((m.window_start, m.window.len()), (836, 164));
    }

    #[test]
    fn contains_finds_needles() {
        assert!(contains(b"xxPOISONxx", b"POISON"));
        assert!(!contains(b"xxPOISONxx", b"venom"));
        assert!(!contains(b"abc", b""), "empty needle never matches");
    }

    #[test]
    fn frame_reader_handles_dribbled_bytes() {
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, FrameKind::Data, b"hello").unwrap();
        let mut reader = FrameReader::default();
        // Feed one byte at a time through a cursor that yields
        // WouldBlock between bytes, as a slow-loris socket would.
        struct Dribble<'a> {
            data: &'a [u8],
            pos: usize,
            ready: bool,
        }
        impl Read for Dribble<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.ready {
                    self.ready = true;
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.ready = false;
                if self.pos >= self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut src = Dribble { data: &wire, pos: 0, ready: false };
        let mut polls = 0;
        let frame = loop {
            polls += 1;
            match reader.poll(&mut src).unwrap() {
                Poll::Frame(f, _) => break f.to_frame(),
                Poll::Pending => continue,
                Poll::Eof => panic!("hit EOF before the frame completed"),
            }
        };
        assert_eq!(frame.payload, b"hello");
        assert!(polls > wire.len(), "every byte cost at least one pending poll");
        assert!(matches!(reader.poll(&mut src), Ok(Poll::Pending)));
    }

    /// A reader that serves `data` in chunks whose sizes cycle through
    /// `splits` — the adversarial transport for the chunking proptests.
    struct Chunked<'a> {
        data: &'a [u8],
        pos: usize,
        splits: &'a [usize],
        turn: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            let want = self.splits[self.turn % self.splits.len()].max(1);
            self.turn += 1;
            let n = want.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn decode_chunked(wire: &[u8], splits: &[usize]) -> Result<Vec<Frame>, Error> {
        let mut src = Chunked { data: wire, pos: 0, splits, turn: 0 };
        let mut reader = FrameReader::default();
        let mut frames = Vec::new();
        loop {
            // A read that brings part of a frame polls `Pending`.
            match reader.poll(&mut src)? {
                Poll::Frame(f, _) => frames.push(f.to_frame()),
                Poll::Pending => {}
                Poll::Eof => return Ok(frames),
            }
        }
    }

    mod chunking_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Decoding is a pure function of the byte stream: any
            /// chunking of a valid frame sequence — including 1-byte
            /// dribbles — yields the same frames as one whole read.
            #[test]
            fn decoding_is_invariant_under_chunk_splits(
                payloads in prop::collection::vec(
                    prop::collection::vec(any::<u8>(), 0..40usize),
                    1..5,
                ),
                splits in prop::collection::vec(1usize..6, 1..32),
            ) {
                let mut wire = Vec::new();
                for p in &payloads {
                    frame::write_frame(&mut wire, FrameKind::Data, p).unwrap();
                }
                let whole = decode_chunked(&wire, &[wire.len().max(1)]).unwrap();
                let arbitrary = decode_chunked(&wire, &splits).unwrap();
                let dribbled = decode_chunked(&wire, &[1]).unwrap();
                prop_assert_eq!(whole.len(), payloads.len());
                for frames in [&arbitrary, &dribbled] {
                    prop_assert_eq!(frames.len(), whole.len());
                    for (got, want) in frames.iter().zip(&whole) {
                        prop_assert_eq!(got.kind, want.kind);
                        prop_assert_eq!(&got.payload, &want.payload);
                    }
                }
            }

            /// An oversized length prefix is rejected as a protocol
            /// error no matter how the bytes arrive — the reader must
            /// never buffer toward a frame it will refuse.
            #[test]
            fn oversized_frames_rejected_at_every_split(
                extra in 1u32..100_000,
                split in 1usize..8,
            ) {
                let mut wire = vec![0x01]; // Data
                wire.extend_from_slice(&(frame::MAX_FRAME as u32 + extra).to_le_bytes());
                wire.extend_from_slice(&[0u8; 32]);
                let err = decode_chunked(&wire, &[split]).unwrap_err();
                prop_assert!(
                    matches!(err, Error::Protocol(_)),
                    "expected a protocol error, got {err:?}"
                );
            }
        }
    }
}
