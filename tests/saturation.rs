//! End-to-end shard-gate load invariants on a live ingest server.
//!
//! Every shard gate counts its load on its shard's sink, always:
//! `cfgtag_shard_{arrivals,dequeues,completions,busy_ns,wait_ns}_total`
//! with a `sink="shard<i>"` label. Two `/snapshot.json` scrapes give
//! rates through `cfg_cli::shards::loads`, the function `cfgtag watch
//! shards` draws with. Several closed-loop sessions contending for each
//! gate of a 2-shard server must show non-trivial utilization, frames
//! that waited for their gate, and a Little's-law wait
//! (W_q = Δwait_ns / Δarrivals) that agrees within 2× with the
//! *measured* mean `queue_wait` of the span pipeline. An idle server
//! derives zero rates from two scrapes, with nothing to wait for.

use cfg_cli::shards;
use cfg_grammar::builtin;
use cfg_obs::{Registry, Snapshot};
use cfg_obs_http::{http_get, http_get_status, Exporter};
use cfg_server::{Client, IngestServer, Reply, ServerConfig, TraceConfig};
use cfg_tagger::{TaggerOptions, TokenTagger};
use std::sync::{Arc, Barrier};
use std::time::Instant;

fn tagger() -> TokenTagger {
    TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap()
}

/// One `/snapshot.json` scrape, parsed, and when it was taken.
fn scrape(metrics_addr: &str) -> (Snapshot, Instant) {
    let body = http_get(metrics_addr, "/snapshot.json").unwrap();
    (Snapshot::parse(&body).unwrap(), Instant::now())
}

#[test]
fn pipelined_load_surfaces_utilization_profile_and_littles_law() {
    const SHARDS: usize = 2;
    const SESSIONS: usize = 4;
    const MESSAGES: u32 = 100;
    // One sentence with a 64 KiB run of spaces inside it: the engine
    // steps every byte but fires six tokens, so tagging dominates each
    // session's loop and the ack costs next to nothing.
    let mut payload = b"if true then go else".to_vec();
    payload.resize(payload.len() + (64 << 10), b' ');
    payload.extend_from_slice(b"stop");
    let t = tagger();
    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        shards: SHARDS,
        trace: Some(TraceConfig { sample_every: u64::from(MESSAGES), slo_ms: 60_000, ring: 16 }),
        registry: Some(Arc::clone(&registry)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    // Closed-loop load: SESSIONS sessions on each shard (consecutive ids
    // alternate shards), each sending its next frame once the last was
    // acked. A barrier starts every round's sends together, so each
    // gate's SESSIONS frames arrive at once and all but one wait. The
    // two scrapes bracket it.
    let mut clients: Vec<Client> =
        (0..SHARDS * SESSIONS).map(|_| Client::connect(server.local_addr()).unwrap()).collect();
    let round = Barrier::new(clients.len());
    let (before, t0) = scrape(&metrics_addr);
    std::thread::scope(|s| {
        for client in &mut clients {
            let (payload, round) = (&payload, &round);
            s.spawn(move || {
                // Every round runs before any reply is judged, so one
                // failed frame cannot strand the others at the barrier.
                let replies: Vec<_> = (0..MESSAGES)
                    .map(|_| {
                        round.wait();
                        client.request(payload)
                    })
                    .collect();
                for (seq, reply) in replies.into_iter().enumerate() {
                    match reply.unwrap() {
                        Reply::Acked { .. } => {}
                        other => panic!("frame {seq} not acked: {other:?}"),
                    }
                }
            });
        }
    });
    let (after, t1) = scrape(&metrics_addr);
    let body = after.to_json();

    let loads = shards::loads(Some(&before), &after, (t1 - t0).as_secs_f64());
    let sinks: Vec<&str> = loads.iter().map(|l| l.sink.as_str()).collect();
    assert_eq!(sinks, ["shard0", "shard1"], "{body}");
    for load in &loads {
        let rates = load.rates.expect("two snapshots give rates");
        assert!(
            rates.utilization_pct > 0.0 && rates.utilization_pct <= 100.0,
            "{} utilization must land in (0,100]: {rates:?}",
            load.sink
        );
        assert!(rates.arrivals_per_sec > 0.0, "{}: {rates:?}", load.sink);
        // The gates queued: four sessions press on each.
        assert!(rates.mean_wait_ns > 10_000.0, "{} frames never waited: {rates:?}", load.sink);
        assert_eq!(load.depth, 0, "every frame was answered: {body}");
    }

    // Little's law: W_q = Δwait_ns / Δarrivals over both gates must
    // agree with the measured mean queue_wait within 2×. Both are means
    // over the same frames, one from the gates' counters and one from
    // the spans' stamps.
    let predicted = shards::littles_wait_ns(&loads).expect("frames arrived");
    let measured = after
        .histogram("cfgtag_srv_stage_ns", &[("stage", "queue_wait")])
        .expect("traced server reports queue_wait")
        .mean();
    assert!(measured > 0.0, "{body}");
    let ratio = predicted / measured;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "Little's-law wait off by more than 2x: predicted {predicted}ns, \
         measured mean {measured}ns (ratio {ratio:.3})\nsnapshot: {body}"
    );

    for client in clients {
        client.close().unwrap();
    }
    let report = server.shutdown();
    assert_eq!(report.shard.messages, (SHARDS * SESSIONS) as u64 * u64::from(MESSAGES));
    exporter.stop();
}

#[test]
fn a_default_server_exports_gate_counters_per_shard_sink() {
    let t = tagger();
    let registry = Arc::new(Registry::new());
    let config = ServerConfig { registry: Some(Arc::clone(&registry)), ..ServerConfig::default() };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(matches!(client.request(b"go").unwrap(), Reply::Acked { .. }));

    // Untraced and with nothing switched on, every shard sink carries
    // the five families, and the one frame counts on one gate.
    let (snap, _) = scrape(&metrics_addr);
    let body = snap.to_json();
    for stat in ["arrivals", "dequeues", "completions", "busy_ns", "wait_ns"] {
        let family = format!("cfgtag_shard_{stat}_total");
        for sink in ["shard0", "shard1"] {
            assert!(snap.value(&family, &[("sink", sink)]).is_some(), "{family}: {body}");
        }
    }
    for stat in ["arrivals", "dequeues", "completions"] {
        assert_eq!(snap.total(&format!("cfgtag_shard_{stat}_total")), 1.0, "{stat}: {body}");
    }
    assert!(snap.total("cfgtag_shard_busy_ns_total") > 0.0, "{body}");
    assert!(snap.get("cfgtag_srv_stage_ns").is_none(), "untraced: {body}");

    // No sampler, no ring to dump.
    let (status, body) = http_get_status(&metrics_addr, "/timeseries.json").unwrap();
    assert_eq!((status, body.as_str()), (404, "not found\n"));

    client.close().unwrap();
    server.shutdown();
    exporter.stop();
}

/// Two scrapes of a quiet server derive zero rates at once: there is no
/// sampler to wait for and no window to fill.
#[test]
fn idle_server_reports_zero_rates_not_errors() {
    let t = tagger();
    let registry = Arc::new(Registry::new());
    let config = ServerConfig { registry: Some(Arc::clone(&registry)), ..ServerConfig::default() };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    let (before, t0) = scrape(&metrics_addr);
    let (after, t1) = scrape(&metrics_addr);
    let loads = shards::loads(Some(&before), &after, (t1 - t0).as_secs_f64());
    assert_eq!(loads.len(), 2, "{}", after.to_json());
    for load in &loads {
        assert_eq!((load.arrivals, load.depth), (0, 0), "{load:?}");
        let rates = load.rates.expect("two snapshots give rates");
        assert_eq!(rates.utilization_pct, 0.0, "{load:?}");
        assert_eq!(rates.arrivals_per_sec, 0.0, "{load:?}");
        assert_eq!(rates.mean_wait_ns, 0.0, "{load:?}");
        assert_eq!(rates.mean_depth, 0.0, "{load:?}");
    }
    assert_eq!(shards::littles_wait_ns(&loads), None);

    server.shutdown();
    exporter.stop();
}
