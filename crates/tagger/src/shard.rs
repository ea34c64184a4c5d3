//! Sharded parallel streaming — a fixed pool of supervised worker
//! threads, each owning a private clone of a compiled [`TokenTagger`]
//! plus its own [`StatsSink`], fed over bounded channels.
//!
//! This is the software analogue of replicating the paper's tagger
//! circuit: every shard's tagger clone shares one compiled core
//! (grammar, netlist, [`crate::BitTables`], …), so a shard costs only
//! an engine's worth of mutable state. Messages are dispatched
//! round-robin, and per-shard statistics register in the [`Registry`]
//! like any other sink — `cfgtag watch top` and the `/metrics` exporter
//! see every shard's counters.
//!
//! Two production behaviours distinguish this pool from a plain channel
//! fan-out:
//!
//! * **Backpressure slows the producer.** [`ShardPool::submit_wait`]
//!   blocks while the chosen shard's queue is full and never drops; it
//!   returns [`SubmitOutcome::Closed`] once the pool is closed. This is
//!   the offline fan-out path (files, benches); the ingest server tags
//!   on its connection threads and does not use the pool.
//! * **Workers are supervised.** A panicking per-message handler is
//!   caught with [`std::panic::catch_unwind`]; the worker bumps
//!   [`Stat::WorkerRestarts`], sleeps an exponential backoff and
//!   resumes — one poison message cannot take a shard down.
//!
//! ```
//! use cfg_grammar::builtin;
//! use cfg_tagger::{PoolOptions, ShardPool, SubmitOutcome, TaggerOptions, TokenTagger};
//!
//! let t = TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap();
//! // Each worker tags with its shard's clone, so its sink counts the events.
//! let pool = ShardPool::new(&t, 2, PoolOptions::default(), |t, msg| {
//!     t.tag(msg);
//! });
//! for _ in 0..10 {
//!     let msg = b"if true then go else stop".to_vec();
//!     assert_eq!(pool.submit_wait(msg), SubmitOutcome::Accepted);
//! }
//! assert_eq!(pool.join().messages, 10);
//! ```

use crate::tagger::TokenTagger;
use cfg_obs::{Metrics, MetricsSink, Registry, Stat, StatsSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// The per-message handler shared by every worker in a pool.
type ShardHandler = Arc<dyn Fn(&TokenTagger, &[u8]) + Send + Sync>;

/// What happened to a message offered to the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued on a shard; it will be processed (or drained at join).
    Accepted,
    /// The pool has been closed; no further work is accepted.
    Closed,
}

/// Tuning knobs for [`ShardPool::new`].
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// In-flight messages a shard's channel buffers before
    /// [`ShardPool::submit_wait`] blocks.
    pub queue_depth: usize,
    /// First post-panic backoff sleep, in milliseconds.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, in milliseconds (doubles per consecutive panic).
    pub backoff_max_ms: u64,
}

impl Default for PoolOptions {
    fn default() -> PoolOptions {
        PoolOptions { queue_depth: 256, backoff_base_ms: 10, backoff_max_ms: 500 }
    }
}

/// What the pool did, returned by [`ShardPool::join`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Total messages processed across all shards.
    pub messages: u64,
    /// Messages processed by each shard, in shard order.
    pub per_shard: Vec<u64>,
    /// Handler panics caught and recovered from, across all shards.
    pub restarts: u64,
}

/// A fixed pool of supervised tagging workers over one compiled grammar.
pub struct ShardPool {
    txs: RwLock<Vec<SyncSender<Vec<u8>>>>,
    handles: Vec<JoinHandle<(u64, u64)>>,
    sinks: Vec<Arc<StatsSink>>,
    shards: usize,
    next: AtomicUsize,
}

impl ShardPool {
    /// Spawn `shards` workers (clamped to at least one), each running
    /// `handler` on its messages. The handler's tagger clone carries a
    /// shard-private [`StatsSink`], so anything it records (including
    /// via engines created from it) lands in that shard's statistics.
    pub fn new<F>(tagger: &TokenTagger, shards: usize, opts: PoolOptions, handler: F) -> ShardPool
    where
        F: Fn(&TokenTagger, &[u8]) + Send + Sync + 'static,
    {
        let shards = shards.max(1);
        let handler: ShardHandler = Arc::new(handler);
        let tokens = tagger.grammar().tokens().len();
        let mut txs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut sinks = Vec::with_capacity(shards);
        for i in 0..shards {
            // Shard sinks keep counters and per-token fires; like every
            // stats sink they keep no trace events, so engines see
            // `wants_trace()` = false and skip building them. Event-level
            // introspection (flight recorder, triggered capture) is idle
            // in shard mode.
            let sink = Arc::new(StatsSink::with_tokens(tokens));
            let shard_tagger = tagger.clone().with_metrics(Metrics::new(sink.clone()));
            let (tx, rx) = sync_channel::<Vec<u8>>(opts.queue_depth.max(1));
            let run = Arc::clone(&handler);
            let worker_sink = Arc::clone(&sink);
            let (base_ms, max_ms) = (opts.backoff_base_ms.max(1), opts.backoff_max_ms.max(1));
            let handle = std::thread::Builder::new()
                .name(format!("cfgtag-shard{i}"))
                .spawn(move || {
                    let mut count = 0u64;
                    let mut restarts = 0u64;
                    let mut backoff_ms = base_ms;
                    while let Ok(msg) = rx.recv() {
                        if catch_unwind(AssertUnwindSafe(|| run(&shard_tagger, &msg))).is_ok() {
                            count += 1;
                            backoff_ms = base_ms;
                        } else {
                            restarts += 1;
                            worker_sink.add(Stat::WorkerRestarts, 1);
                            std::thread::sleep(Duration::from_millis(backoff_ms));
                            backoff_ms = (backoff_ms * 2).min(max_ms);
                        }
                    }
                    (count, restarts)
                })
                .expect("spawn shard worker");
            txs.push(tx);
            handles.push(handle);
            sinks.push(sink);
        }
        ShardPool { txs: RwLock::new(txs), handles, sinks, shards, next: AtomicUsize::new(0) }
    }

    /// Number of shards in the pool.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Dispatch a message round-robin, blocking while the chosen shard's
    /// queue is full — the offline fan-out path (files, benches), where
    /// backpressure should slow the producer rather than shed.
    pub fn submit_wait(&self, msg: Vec<u8>) -> SubmitOutcome {
        let txs = self.txs.read().expect("shard pool lock");
        if txs.is_empty() {
            return SubmitOutcome::Closed;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed) % txs.len();
        match txs[i].send(msg) {
            Ok(()) => SubmitOutcome::Accepted,
            Err(_) => SubmitOutcome::Closed,
        }
    }

    /// Close the intake: every subsequent submit returns
    /// [`SubmitOutcome::Closed`]; workers finish what is already queued
    /// and exit.
    fn close(&self) {
        self.txs.write().expect("shard pool lock").clear();
    }

    /// The per-shard statistics sinks, in shard order.
    pub fn sinks(&self) -> &[Arc<StatsSink>] {
        &self.sinks
    }

    /// Register every shard sink as `<prefix>0`, `<prefix>1`, … so the
    /// registry's snapshot carries every shard's series.
    pub fn register(&self, registry: &Registry, prefix: &str) {
        for (i, sink) in self.sinks.iter().enumerate() {
            registry.register(format!("{prefix}{i}"), Arc::clone(sink));
        }
    }

    /// Close the queues, wait for every worker to drain, and report the
    /// per-shard message counts. Workers cannot die early (panics are
    /// supervised), so this reports rather than unwinding.
    pub fn join(self) -> ShardReport {
        self.close();
        let mut per_shard = Vec::with_capacity(self.handles.len());
        let mut restarts = 0u64;
        for h in self.handles {
            let (count, r) = h.join().unwrap_or((0, 0));
            per_shard.push(count);
            restarts += r;
        }
        ShardReport { messages: per_shard.iter().sum(), per_shard, restarts }
    }
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool").field("shards", &self.shards).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagger::TaggerOptions;
    use cfg_grammar::builtin;
    use cfg_obs::Stat;
    use std::sync::mpsc::{channel, Receiver};
    use std::sync::Mutex;

    fn tagger() -> TokenTagger {
        TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap()
    }

    /// A pool whose workers tag each message and discard the events.
    fn tagging_pool(t: &TokenTagger, shards: usize) -> ShardPool {
        ShardPool::new(t, shards, PoolOptions::default(), |t, msg| {
            t.tag(msg);
        })
    }

    #[test]
    fn round_robin_spreads_and_counts() {
        let pool = tagging_pool(&tagger(), 3);
        assert_eq!(pool.shards(), 3);
        for _ in 0..9 {
            let msg = b"if true then go else stop".to_vec();
            assert_eq!(pool.submit_wait(msg), SubmitOutcome::Accepted);
        }
        let report = pool.join();
        assert_eq!(report.messages, 9);
        assert_eq!(report.per_shard, vec![3, 3, 3]);
        assert_eq!(report.restarts, 0);
    }

    #[test]
    fn per_shard_sinks_register_in_the_registry() {
        let t = tagger();
        let msg = b"if true then go else stop";
        let pool = tagging_pool(&t, 2);
        let registry = Registry::new();
        pool.register(&registry, "shard");
        assert_eq!(registry.names(), vec!["shard0".to_owned(), "shard1".to_owned()]);
        for _ in 0..4 {
            pool.submit_wait(msg.to_vec());
        }
        let sinks: Vec<_> = pool.sinks().to_vec();
        pool.join();
        let snap = registry.snapshot();
        assert_eq!(snap.total("cfgtag_bytes_in_total"), (4 * msg.len()) as f64);
        for sink in &sinks {
            assert_eq!(sink.get(Stat::BytesIn), 2 * msg.len() as u64);
        }
    }

    #[test]
    fn custom_handler_sees_shard_local_tagger() {
        let t = tagger();
        let pool = ShardPool::new(&t, 2, PoolOptions::default(), |t, msg| {
            // Tag through the shard tagger so its sink records fires.
            t.tag(msg);
        });
        pool.submit_wait(b"if true then go else stop".to_vec());
        pool.submit_wait(b"stop".to_vec());
        let total_fires: u64 = {
            let sinks: Vec<_> = pool.sinks().to_vec();
            pool.join();
            sinks.iter().map(|s| s.get(Stat::EventsOut)).sum()
        };
        assert_eq!(total_fires, 7);
    }

    /// A handler that parks on a channel until the test releases it,
    /// making queue-full conditions deterministic.
    fn gated_pool(t: &TokenTagger, depth: usize) -> (ShardPool, std::sync::mpsc::Sender<()>) {
        let (gate_tx, gate_rx) = channel::<()>();
        let gate: Mutex<Receiver<()>> = Mutex::new(gate_rx);
        let opts = PoolOptions { queue_depth: depth, ..PoolOptions::default() };
        let pool = ShardPool::new(t, 1, opts, move |_, _| {
            let _ = gate.lock().unwrap().recv();
        });
        (pool, gate_tx)
    }

    #[test]
    fn closed_pool_refuses_without_panicking() {
        let pool = tagging_pool(&tagger(), 2);
        pool.close();
        assert_eq!(pool.submit_wait(b"go".to_vec()), SubmitOutcome::Closed);
        let report = pool.join();
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn worker_survives_handler_panics_and_reports_restarts() {
        let t = tagger();
        let opts = PoolOptions { backoff_base_ms: 1, backoff_max_ms: 2, ..PoolOptions::default() };
        let pool = ShardPool::new(&t, 1, opts, |_, msg| {
            if msg == b"boom" {
                panic!("poison message");
            }
        });
        assert_eq!(pool.submit_wait(b"boom".to_vec()), SubmitOutcome::Accepted);
        assert_eq!(pool.submit_wait(b"fine".to_vec()), SubmitOutcome::Accepted);
        let sink = Arc::clone(&pool.sinks()[0]);
        let report = pool.join();
        assert_eq!(report.messages, 1, "poison message is not counted as processed");
        assert_eq!(report.restarts, 1);
        assert_eq!(sink.get(Stat::WorkerRestarts), 1);
    }

    #[test]
    fn submit_wait_blocks_instead_of_shedding() {
        let t = tagger();
        let (pool, gate) = gated_pool(&t, 1);
        assert_eq!(pool.submit_wait(b"a".to_vec()), SubmitOutcome::Accepted);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(pool.submit_wait(b"b".to_vec()), SubmitOutcome::Accepted);
        // A third submit_wait would block; release the gate from another
        // thread and confirm the blocked send completes.
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            for _ in 0..3 {
                let _ = gate.send(());
            }
        });
        let sink = Arc::clone(&pool.sinks()[0]);
        assert_eq!(pool.submit_wait(b"c".to_vec()), SubmitOutcome::Accepted);
        release.join().unwrap();
        let report = pool.join();
        assert_eq!(report.messages, 3);
        assert_eq!(sink.get(Stat::LoadShed), 0);
    }
}
