//! The supervised multi-session ingest server.
//!
//! One acceptor thread takes TCP connections; each connection becomes
//! a session (with affinity to one shard of a [`ShardPool`]) served by
//! its own reader thread speaking the [`crate::frame`] protocol. The
//! moving parts:
//!
//! * **Backpressure**: shard queues are bounded; a full queue answers
//!   `Busy` with the shed frame's sequence number instead of blocking
//!   the reader ([`SubmitOutcome::Shed`] → [`Stat::LoadShed`], and the
//!   attached [`Registry`] flips `overloaded` so `/readyz` tells load
//!   balancers to back off).
//! * **Supervision**: worker panics are caught by the pool, counted
//!   under [`Stat::WorkerRestarts`], answered with an `Err` frame naming
//!   the poison frame's sequence, and the worker resumes after
//!   exponential backoff.
//! * **Sessions**: an idle-timeout janitor sweeps connections that are
//!   silent with no frame in flight, in least-recently-active order
//!   ([`Stat::SessionsEvicted`]); a `max_sessions` cap refuses new
//!   connections with `Busy`.
//! * **Slow readers**: the idle timeout is also every session socket's
//!   write timeout. A peer that stops reading its acks fails the write
//!   that fills its socket; the session is then shut down and counted
//!   as evicted, so it cannot hold its shard worker, or any other
//!   session on that shard, hostage.
//! * **Acks are completions**: `Ack` is written only after the shard
//!   worker fully tagged the message, and carries the events — a client
//!   that received an `Ack` can never lose that work, and `Close` drains
//!   every accepted frame before `Bye`.
//! * **Shadow audit**: with [`ServerConfig::audit`] set, 1-in-N
//!   sessions have their accepted payloads mirrored into a bounded
//!   audit queue; a worker behind the shard pool replays each frame
//!   through the production engine, the scalar reference engine
//!   (divergence ⇒ correctness bug, a [`Mismatch`] kept as evidence in
//!   an [`EventRing`]) and the exact [`PdaParser`] (unconfirmed fires ⇒
//!   live §3.5 false positives, counted per token in an
//!   [`AuditBank`]). A full audit queue sheds the session and counts
//!   it — the fast path never blocks on the audit lane.

use crate::frame::{self, Frame, FrameKind};
use crate::session::SessionTable;
use cfg_obs::{
    AuditBank, AuditEvent, EventRing, MetricsSink, Mismatch, Part, Registry, SamplerHandle,
    ShardLoadBank, SloTracker, Span, SpanRecorder, Stage, Stat, StatsSink, TimeSeries,
};
use cfg_tagger::{
    EngineKind, Error, PdaParser, PoolOptions, ShardMsg, ShardPool, ShardReport, SubmitOutcome,
    TagEvent, TokenTagger,
};
use std::collections::HashSet;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
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

/// Saturation telemetry configuration for [`ServerConfig::saturation`].
///
/// When set, the shard pool counts arrivals/dequeues/busy-time into a
/// [`ShardLoadBank`] and a sampler thread snapshots it into a
/// [`TimeSeries`] ring every `interval_ms` (behind the `cfgtag_shard_*`
/// gauges and `/timeseries.json`). When `None` (the default) neither
/// exists and the serving path takes one `None` branch per frame.
#[derive(Debug, Clone)]
pub struct SaturationConfig {
    /// Utilization snapshot period in milliseconds.
    pub interval_ms: u64,
    /// Snapshot ring capacity — `history * interval_ms` is the window
    /// the derived gauges average over.
    pub history: usize,
}

impl Default for SaturationConfig {
    fn default() -> SaturationConfig {
        SaturationConfig { interval_ms: 50, history: 256 }
    }
}

/// The saturation side-car: load counters and their snapshot ring.
#[derive(Clone)]
struct Saturation {
    bank: Arc<ShardLoadBank>,
    series: Arc<TimeSeries>,
}

/// Shadow-audit configuration for [`ServerConfig::audit`].
///
/// When set, 1-in-`sample_every` sessions have their accepted `Data`
/// payloads (up to [`AUDIT_MAX_BYTES`] a session) mirrored into a queue
/// of [`AUDIT_QUEUE_DEPTH`] sessions; one replay worker behind the shard
/// pool runs each frame through the production engine, the scalar
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
    /// Worker shards in the pool.
    pub shards: usize,
    /// Bounded queue depth per shard; a full queue sheds with `Busy`.
    pub queue_depth: usize,
    /// Hard cap on concurrent sessions; beyond it, connects get `Busy`.
    pub max_sessions: usize,
    /// A session silent for longer than this, with no frame in flight,
    /// is evicted by the janitor. It is also each session socket's
    /// write timeout: a reply the peer leaves unread this long evicts
    /// the session.
    pub idle_timeout: Duration,
    /// Which engine the workers tag with.
    pub engine: EngineKind,
    /// First post-panic worker backoff (milliseconds).
    pub backoff_base_ms: u64,
    /// Worker backoff ceiling (milliseconds).
    pub backoff_max_ms: u64,
    /// Panic injection for the chaos harness: a worker panics when a
    /// payload contains this byte string. `None` in production.
    pub panic_token: Option<Vec<u8>>,
    /// The registry to report into: the shard and server sinks (as
    /// `shard0…`, `server`), the `ready` flag on start and `overloaded`
    /// while shedding, and the trace, saturation and audit parts.
    pub registry: Option<Arc<Registry>>,
    /// How long `Close` waits for accepted frames to drain before
    /// `Bye`. If it fires with frames still pending, the server bumps
    /// [`Stat::DrainTimeouts`] (`cfgtag_drain_timeouts_total`).
    pub drain_deadline: Duration,
    /// Frame tracing + SLO pipeline; `None` (default) serves untraced.
    pub trace: Option<TraceConfig>,
    /// Saturation telemetry (per-shard utilization time series);
    /// `None` (default) serves metrics-dark.
    pub saturation: Option<SaturationConfig>,
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
            backoff_base_ms: 10,
            backoff_max_ms: 500,
            panic_token: None,
            registry: None,
            drain_deadline: Duration::from_secs(10),
            trace: None,
            saturation: None,
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
            .field("drain_deadline", &self.drain_deadline)
            .field("trace", &self.trace)
            .field("saturation", &self.saturation)
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
    /// Data frames shed with `Busy` because a shard queue was full.
    pub shed: u64,
    /// The drained pool's report (messages per shard, worker restarts).
    pub shard: ShardReport,
}

/// Everything the acceptor, janitor, reader and worker threads share.
struct Shared {
    pool: ShardPool,
    table: Arc<SessionTable<TcpStream>>,
    stop: AtomicBool,
    server_sink: Arc<StatsSink>,
    registry: Option<Arc<Registry>>,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    sessions_served: AtomicU64,
    idle_timeout: Duration,
    drain_deadline: Duration,
    tracing: Option<Tracing>,
    audit: Option<Auditor>,
}

/// A running ingest server; shut it down with
/// [`IngestServer::shutdown`] to drain and collect the report.
pub struct IngestServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    janitor_handle: Option<JoinHandle<()>>,
    saturation: Option<Saturation>,
    sampler_handle: Option<SamplerHandle>,
    audit_handle: Option<JoinHandle<()>>,
}

/// Pool-message layout: `[session u64 LE][seq u32 LE][payload…]`.
fn build_msg(session: u64, seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(12 + payload.len());
    msg.extend_from_slice(&session.to_le_bytes());
    msg.extend_from_slice(&seq.to_le_bytes());
    msg.extend_from_slice(payload);
    msg
}

fn split_msg(msg: &[u8]) -> Option<(u64, u32, &[u8])> {
    if msg.len() < 12 {
        return None;
    }
    let session = u64::from_le_bytes(msg[..8].try_into().expect("8 bytes"));
    let seq = u32::from_le_bytes(msg[8..12].try_into().expect("4 bytes"));
    Some((session, seq, &msg[12..]))
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
}

/// Write one reply frame to session `id` within `timeout` (the idle
/// timeout, which is also the socket's write timeout): one deadline for
/// the whole frame, so a peer that reads a few bytes at a time cannot
/// hold the shard worker past it. A write that fails — the peer is
/// gone, or it did not take the frame in time — shuts the socket down,
/// so the session's reader sees EOF and every later write fails at
/// once. Whichever eviction takes `id` out of the table counts it under
/// [`Stat::SessionsEvicted`].
fn reply(
    table: &SessionTable<TcpStream>,
    sink: &StatsSink,
    id: u64,
    writer: &Mutex<TcpStream>,
    kind: FrameKind,
    payload: &[u8],
    timeout: Duration,
) {
    let mut w = writer.lock().expect("session writer lock");
    let wire = frame::encode_frame(kind, payload);
    if !wire.is_ok_and(|wire| cfg_obs_http::write_within(&mut w, &wire, timeout).is_ok()) {
        // Leave the table before the shutdown wakes the reader, whose
        // own close would otherwise win and skip the count.
        if table.close(id) {
            sink.add(Stat::SessionsEvicted, 1);
        }
        let _ = w.shutdown(Shutdown::Both);
    }
}

/// [`reply`] to a session by id; a no-op once it has left the table.
fn reply_to(
    table: &SessionTable<TcpStream>,
    sink: &StatsSink,
    id: u64,
    kind: FrameKind,
    payload: &[u8],
    timeout: Duration,
) {
    if let Some(writer) = table.writer(id) {
        reply(table, sink, id, &writer, kind, payload, timeout);
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
        let table: Arc<SessionTable<TcpStream>> = Arc::new(SessionTable::new(config.max_sessions));
        let server_sink = Arc::new(StatsSink::new());

        // The tracing side-car: a span recorder + SLO tracker pair.
        let tracing = config.trace.as_ref().map(|t| Tracing {
            recorder: Arc::new(SpanRecorder::new(
                t.ring,
                t.sample_every,
                t.slo_ms.saturating_mul(1_000_000),
            )),
            slo: Arc::new(SloTracker::new(t.slo_ms.saturating_mul(1_000_000), SLO_TARGET)),
        });

        // The saturation side-car: per-shard load counters and their
        // snapshot ring.
        let saturation = config.saturation.as_ref().map(|s| {
            let bank = Arc::new(ShardLoadBank::new(config.shards));
            let series = Arc::new(TimeSeries::new(
                Arc::clone(&bank),
                s.history,
                Duration::from_millis(s.interval_ms.max(1)),
            ));
            Saturation { bank, series }
        });

        // The shadow-audit side-car: correctness counters, divergence
        // evidence ring, and the bounded queue feeding the replay
        // worker, which exits when the sender side disconnects at
        // shutdown.
        let mut audit_handle = None;
        let audit = config.audit.as_ref().map(|a| {
            let bank = Arc::new(AuditBank::new(tagger.grammar().tokens().len()));
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

        // The worker handler: tag the payload with a fresh engine, then
        // ack with the events, written straight to the session's
        // socket. The ack is produced *by the worker*, after
        // processing — that ordering is the no-lost-acks guarantee.
        let panic_token = config.panic_token.clone();
        let idle_timeout = config.idle_timeout;
        let engine_kind = config.engine;
        let handler_table = Arc::clone(&table);
        let handler_sink = Arc::clone(&server_sink);
        let handler_tracing = tracing.clone();
        let handler = move |t: &TokenTagger, msg: &[u8], mut span: Option<&mut Span>| {
            let Some((session, seq, payload)) = split_msg(msg) else { return };
            if let Some(token) = &panic_token {
                if contains(payload, token) {
                    panic!("injected poison frame (session {session} seq {seq})");
                }
            }
            let tagged = tag_payload(t, engine_kind, payload);
            if let Some(span) = span.as_deref_mut() {
                span.stamp(Stage::Engine);
            }
            let (kind, body) = match tagged {
                Ok(events) => {
                    let mut ack = seq.to_le_bytes().to_vec();
                    ack.extend_from_slice(&frame::encode_events(&events));
                    (FrameKind::Ack, ack)
                }
                Err(e) => (FrameKind::Err, format!("seq {seq}: {e}").into_bytes()),
            };
            // An ack too large for one frame still owes the client a
            // reply.
            let (kind, body) = if body.len() > frame::MAX_FRAME {
                (FrameKind::Err, format!("seq {seq}: reply too large").into_bytes())
            } else {
                (kind, body)
            };
            reply_to(&handler_table, &handler_sink, session, kind, &body, idle_timeout);
            // The span ends when the reply hit the socket: fold it into
            // the SLO histograms and (maybe) the /spans.jsonl ring.
            if let (Some(tracing), Some(span)) = (&handler_tracing, span.as_deref_mut()) {
                span.stamp(Stage::AckWrite);
                tracing.slo.observe(span);
                tracing.recorder.record(span);
            }
            handler_table.answered(session);
        };
        // After a caught panic the poison frame was *not* processed:
        // tell the client with an `Err` frame and release its drain
        // counter so `Close` does not wait on it forever.
        let hook_table = Arc::clone(&table);
        let hook_sink = Arc::clone(&server_sink);
        let on_panic = move |_shard: usize, text: &str, msg: &[u8]| {
            let Some((session, seq, _)) = split_msg(msg) else { return };
            let reason = format!("seq {seq}: worker panic: {text}");
            let reason = reason.as_bytes();
            reply_to(&hook_table, &hook_sink, session, FrameKind::Err, reason, idle_timeout);
            hook_table.answered(session);
        };

        let pool_opts = PoolOptions {
            queue_depth: config.queue_depth,
            backoff_base_ms: config.backoff_base_ms,
            backoff_max_ms: config.backoff_max_ms,
            on_panic: Some(Arc::new(on_panic)),
            load: saturation.as_ref().map(|s| Arc::clone(&s.bank)),
        };
        let pool = ShardPool::new(tagger, config.shards, pool_opts, handler);

        if let Some(registry) = &config.registry {
            pool.register(registry, "shard");
            registry.register("server", Arc::clone(&server_sink));
            // Names for the per-token series. Not the compile report: it
            // would build the lazily built circuit at start.
            let names = tagger.grammar().tokens().iter().map(|t| t.name.clone()).collect();
            registry.attach(Part::Tokens(names));
            if let Some(t) = &tracing {
                registry.attach(Part::Spans(Arc::clone(&t.recorder)));
                registry.attach(Part::Slo(Arc::clone(&t.slo)));
            }
            if let Some(s) = &saturation {
                registry.attach(Part::TimeSeries(Arc::clone(&s.series)));
            }
            if let Some(a) = &audit {
                registry.attach(Part::Audit(Arc::clone(&a.bank)));
                registry.attach(Part::Mismatches(Arc::clone(&a.ring)));
            }
            registry.set_ready(true);
        }

        let shared = Arc::new(Shared {
            pool,
            table,
            stop: AtomicBool::new(false),
            server_sink,
            registry: config.registry.clone(),
            conn_handles: Mutex::new(Vec::new()),
            sessions_served: AtomicU64::new(0),
            idle_timeout: config.idle_timeout,
            drain_deadline: config.drain_deadline,
            tracing,
            audit,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("cfgserve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn acceptor");
        let janitor_shared = Arc::clone(&shared);
        let janitor_handle = std::thread::Builder::new()
            .name("cfgserve-janitor".into())
            .spawn(move || janitor_loop(janitor_shared))
            .expect("spawn janitor");

        let sampler_handle = saturation.as_ref().map(|s| s.series.start_sampler());

        Ok(IngestServer {
            addr,
            shared,
            accept_handle: Some(accept_handle),
            janitor_handle: Some(janitor_handle),
            saturation,
            sampler_handle,
            audit_handle,
        })
    }

    /// The bound address (with the real port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live session count right now.
    pub fn sessions(&self) -> usize {
        self.shared.table.len()
    }

    /// The span recorder, when tracing is configured — the source
    /// behind `/spans.jsonl`.
    pub fn span_recorder(&self) -> Option<Arc<SpanRecorder>> {
        self.shared.tracing.as_ref().map(|t| Arc::clone(&t.recorder))
    }

    /// The SLO tracker, when tracing is configured — the source of the
    /// `cfgtag_slo_*` and `cfgtag_srv_*` families.
    pub fn slo_tracker(&self) -> Option<Arc<SloTracker>> {
        self.shared.tracing.as_ref().map(|t| Arc::clone(&t.slo))
    }

    /// The saturation snapshot ring, when saturation telemetry is
    /// configured — the source of the `cfgtag_shard_*` gauges and
    /// `/timeseries.json`.
    pub fn timeseries(&self) -> Option<Arc<TimeSeries>> {
        self.saturation.as_ref().map(|s| Arc::clone(&s.series))
    }

    /// The per-shard load counters, when saturation telemetry is
    /// configured.
    pub fn shard_loads(&self) -> Option<Arc<ShardLoadBank>> {
        self.saturation.as_ref().map(|s| Arc::clone(&s.bank))
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

    /// Drain-style graceful shutdown: stop accepting, tell every
    /// session goodbye, drain the shard queues, and report.
    pub fn shutdown(mut self) -> ServerReport {
        // Stop the telemetry sampler first; it only reads atomics, but
        // a deterministic stop keeps the final snapshots stable.
        if let Some(h) = self.sampler_handle.take() {
            h.stop();
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.janitor_handle.take() {
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
        let shed: u64 = shared.pool.sinks().iter().map(|s| s.get(Stat::LoadShed)).sum();
        let shard = shared.pool.join();
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

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let Ok(writer_stream) = stream.try_clone() else { continue };
        match shared.table.open(writer_stream) {
            Some((id, writer)) => {
                shared.sessions_served.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("cfgserve-conn{id}"))
                    .spawn(move || serve_conn(conn_shared, stream, id, writer))
                    .expect("spawn session reader");
                shared.conn_handles.lock().expect("handles lock").push(handle);
            }
            None => {
                // At the cap: answer Busy and hang up. No session state
                // is created, so nothing to clean.
                let _ = frame::write_frame(&mut stream, FrameKind::Busy, b"max sessions");
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

fn janitor_loop(shared: Arc<Shared>) {
    let tick =
        (shared.idle_timeout / 4).min(Duration::from_millis(25)).max(Duration::from_millis(1));
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        for (id, writer) in shared.table.evict_idle(shared.idle_timeout) {
            shared.server_sink.add(Stat::SessionsEvicted, 1);
            // Say why, then shut the transport down; the session's
            // reader thread sees EOF and exits.
            let mut w = writer.lock().expect("session writer lock");
            let reason = format!("session {id} idle timeout");
            let _ = frame::write_frame(&mut *w, FrameKind::Err, reason.as_bytes());
            let _ = w.shutdown(Shutdown::Both);
        }
    }
}

/// What one poll of the incremental frame reader produced.
enum Poll {
    Frame(Frame),
    Pending,
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
    last_lead_ns: u64,
}

impl FrameReader {
    fn poll<R: Read>(&mut self, r: &mut R) -> Result<Poll, Error> {
        let mut chunk = [0u8; 4096];
        loop {
            let decoded = self.inner.next_frame()?.map(|f| f.to_frame());
            if let Some(frame) = decoded {
                // Close this frame's read window; leftover buffered
                // bytes already belong to the next frame, so its clock
                // starts now.
                let started = self.frame_started.take();
                self.last_lead_ns = started
                    .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
                    .unwrap_or(0);
                if self.inner.buffered() > 0 {
                    self.frame_started = Some(Instant::now());
                }
                return Ok(Poll::Frame(frame));
            }
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
    }

    /// Nanoseconds spent buffering the most recently parsed frame.
    fn last_lead_ns(&self) -> u64 {
        self.last_lead_ns
    }
}

fn serve_conn(shared: Arc<Shared>, mut stream: TcpStream, id: u64, writer: Arc<Mutex<TcpStream>>) {
    // Short read timeout: the reader doubles as the stop-flag poller.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    // The write timeout (shared with the writer clone: it is one
    // socket) is the first write of each reply's deadline; see `reply`.
    let _ = stream.set_write_timeout(Some(shared.idle_timeout));
    // Each reply leaves in one write, but Nagle holds a small write
    // while an earlier one is unacknowledged, and the client's delayed
    // ACK (~40 ms) then floors every pipelined round-trip. The span
    // waterfall is what exposed it: `ack_write` measured microseconds
    // while the client-observed round-trip sat at ~40 ms.
    let _ = stream.set_nodelay(true);
    let send = |kind: FrameKind, payload: &[u8]| {
        let timeout = shared.idle_timeout;
        reply(&shared.table, &shared.server_sink, id, &writer, kind, payload, timeout);
    };
    let mut reader = FrameReader::default();
    let mut seq: u32 = 0;
    // Shadow-audit sampling, decided once per session: with auditing
    // configured, 1-in-N sessions mirror their accepted payloads for
    // replay. Unsampled sessions pay exactly this check.
    let audit = shared
        .audit
        .as_ref()
        .filter(|a| id.is_multiple_of(a.sample_every))
        .inspect(|a| a.bank.session_sampled());
    // Mirrored frames plus their running byte total (for the cap).
    let mut mirrored: Option<(Vec<Vec<u8>>, usize)> = audit.map(|_| (Vec::new(), 0));
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            send(FrameKind::Bye, b"");
            break;
        }
        match reader.poll(&mut stream) {
            Ok(Poll::Pending) => continue,
            Ok(Poll::Eof) => break,
            Ok(Poll::Frame(frame)) => match frame.kind {
                FrameKind::Data => {
                    // Begin the frame's span (when tracing is on),
                    // back-dated by the socket-read lead so frame_read
                    // covers time spent buffering the frame.
                    let mut span = shared.tracing.as_ref().map(|t| {
                        let mut span = t.recorder.begin_with_lead(reader.last_lead_ns());
                        span.set_ids(id, u64::from(seq));
                        span.stamp(Stage::FrameRead);
                        span
                    });
                    let msg = build_msg(id, seq, &frame.payload);
                    if let Some(span) = span.as_mut() {
                        span.stamp(Stage::Parse);
                    }
                    shared.table.touch(id);
                    // Count the frame in-flight *before* submitting:
                    // the worker's post-ack decrement must never land
                    // on a counter we have not bumped yet.
                    let pending = shared.table.pending(id);
                    if let Some(pending) = &pending {
                        pending.fetch_add(1, Ordering::AcqRel);
                    }
                    if let Some(span) = span.as_mut() {
                        span.stamp(Stage::SessionLookup);
                    }
                    match shared.pool.submit_to(id, ShardMsg::new(msg).with_span(span)) {
                        SubmitOutcome::Accepted => {
                            if let Some(registry) = &shared.registry {
                                registry.set_overloaded(false);
                            }
                            // Mirror only *accepted* frames: the audit
                            // lane must replay what the fast path
                            // actually tagged, not what it shed.
                            if let Some((frames, bytes)) = mirrored.as_mut() {
                                if *bytes + frame.payload.len() <= AUDIT_MAX_BYTES {
                                    *bytes += frame.payload.len();
                                    frames.push(frame.payload.clone());
                                }
                            }
                        }
                        SubmitOutcome::Shed => {
                            if let Some(pending) = &pending {
                                pending.fetch_sub(1, Ordering::AcqRel);
                            }
                            if let Some(registry) = &shared.registry {
                                registry.set_overloaded(true);
                            }
                            send(FrameKind::Busy, &seq.to_le_bytes());
                        }
                        SubmitOutcome::Closed => {
                            if let Some(pending) = &pending {
                                pending.fetch_sub(1, Ordering::AcqRel);
                            }
                            send(FrameKind::Err, b"server shutting down");
                            break;
                        }
                    }
                    seq = seq.wrapping_add(1);
                }
                FrameKind::Close => {
                    drain_session(&shared, id);
                    send(FrameKind::Bye, b"");
                    break;
                }
                other => {
                    shared.server_sink.add(Stat::MalformedRejected, 1);
                    send(FrameKind::Err, format!("unexpected client frame {other:?}").as_bytes());
                    break;
                }
            },
            Err(e) => {
                if matches!(e, Error::Protocol(_)) {
                    shared.server_sink.add(Stat::MalformedRejected, 1);
                    send(FrameKind::Err, e.to_string().as_bytes());
                }
                break;
            }
        }
    }
    // Hand the mirrored session to the audit lane.
    if let (Some(a), Some((frames, _))) = (audit, mirrored.take()) {
        a.finish_session(id, frames);
    }
    shared.table.close(id);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Wait (bounded by [`ServerConfig::drain_deadline`]) until every
/// accepted frame of `id` has been acked — the Close-before-Bye drain.
/// A deadline that fires with frames still pending is counted under
/// [`Stat::DrainTimeouts`].
fn drain_session(shared: &Shared, id: u64) {
    let deadline = Instant::now() + shared.drain_deadline;
    while let Some(pending) = shared.table.pending(id) {
        if pending.load(Ordering::Acquire) == 0 {
            break;
        }
        if Instant::now() > deadline {
            shared.server_sink.add(Stat::DrainTimeouts, 1);
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
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

/// Replay one frame exactly as the shard handler ran it (a fresh
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

/// Tag `payload` with a fresh engine of `kind`: what the shard handler
/// runs on every frame, and so what the audit replays.
fn tag_payload(
    tagger: &TokenTagger,
    kind: EngineKind,
    payload: &[u8],
) -> Result<Vec<TagEvent>, Error> {
    let mut engine = tagger.engine(kind)?;
    let mut events = Vec::new();
    engine.feed_slice(payload, &mut events)?;
    engine.finish_into(&mut events)?;
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

    #[test]
    fn msg_layout_round_trips() {
        let msg = build_msg(0xDEAD_BEEF_u64, 7, b"payload");
        let (session, seq, payload) = split_msg(&msg).unwrap();
        assert_eq!(session, 0xDEAD_BEEF_u64);
        assert_eq!(seq, 7);
        assert_eq!(payload, b"payload");
        assert!(split_msg(&msg[..11]).is_none());
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
                Poll::Frame(f) => break f,
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
            match reader.poll(&mut src)? {
                Poll::Frame(f) => frames.push(f),
                Poll::Pending => unreachable!("Chunked never yields WouldBlock"),
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
