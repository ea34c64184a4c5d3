//! End-to-end saturation-telemetry invariants on a live ingest server.
//!
//! With `--sample-hz`-style telemetry on, several closed-loop sessions
//! contending for each shard gate of a 2-shard server must surface as:
//! non-trivial utilization in the `cfgtag_shard_*` gauges of
//! `/snapshot.json`, and a Little's-law predicted wait for the shard
//! gates that agrees (within 2×) with the *measured* mean `queue_wait`
//! the tracing pipeline reports in the same snapshot.
//! With telemetry off, the endpoints must still answer 200 —
//! sampling-off is a configuration, not an error.

use cfg_grammar::builtin;
use cfg_obs::json::Json;
use cfg_obs::{Registry, Snapshot};
use cfg_obs_http::{http_get, http_get_status, Exporter};
use cfg_server::{Client, IngestServer, Reply, SaturationConfig, ServerConfig, TraceConfig};
use cfg_tagger::{TaggerOptions, TokenTagger};
use std::sync::Arc;
use std::time::Duration;

fn tagger() -> TokenTagger {
    TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap()
}

#[test]
fn pipelined_load_surfaces_utilization_profile_and_littles_law() {
    // Enough frames and payload to keep the gates contended for many
    // sampler ticks: the telemetry derives rates from the snapshot
    // window, so the load must outlive a few intervals.
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
        saturation: Some(SaturationConfig { interval_ms: 1, history: 8192 }),
        registry: Some(Arc::clone(&registry)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    // Closed-loop load: SESSIONS sessions on each shard (consecutive ids
    // alternate shards), each sending its next frame once the last was
    // acked.
    let mut clients: Vec<Client> =
        (0..SHARDS * SESSIONS).map(|_| Client::connect(server.local_addr()).unwrap()).collect();
    std::thread::scope(|s| {
        for client in &mut clients {
            let payload = &payload;
            s.spawn(move || {
                for acked in 0..MESSAGES {
                    match client.request(payload).unwrap() {
                        Reply::Acked { .. } => {}
                        other => panic!("frame {acked} not acked: {other:?}"),
                    }
                }
            });
        }
    });

    // Read the gauges immediately, while the snapshot window is still
    // dominated by the loaded period.
    let shards_body = http_get(&metrics_addr, "/snapshot.json").unwrap();
    let snap = Snapshot::parse(&shards_body).unwrap();
    let rows: Vec<&str> = snap
        .get("cfgtag_shard_utilization_pct")
        .expect("shard gauges exported")
        .series
        .iter()
        .filter_map(|s| s.label("shard"))
        .collect();
    assert_eq!(rows.len(), 2, "{shards_body}");
    let gauge = |name: &str, shard: &str| snap.value(name, &[("shard", shard)]).unwrap();
    let util = |shard: &str| gauge("cfgtag_shard_utilization_pct", shard);
    let busy =
        *rows.iter().max_by(|a, b| util(a).partial_cmp(&util(b)).unwrap()).expect("two shard rows");
    assert!(
        util(busy) > 0.0 && util(busy) <= 100.0,
        "busy shard utilization must land in (0,100]: {shards_body}"
    );
    let arrivals: f64 = rows.iter().map(|r| gauge("cfgtag_shard_arrivals_per_sec", r)).sum();
    assert!(arrivals > 0.0, "{shards_body}");

    // Little's law: the predicted wait for a gate, weighted by each
    // shard's arrivals, must agree with the measured mean queue_wait
    // within 2×. Both are means over the same sustained, saturated
    // window, so W_q = L̄_q / λ holds.
    let weighted: f64 = rows
        .iter()
        .map(|r| {
            gauge("cfgtag_shard_predicted_wait_ns", r) * gauge("cfgtag_shard_arrivals_per_sec", r)
        })
        .sum();
    let predicted = weighted / arrivals;
    assert!(predicted > 0.0, "{shards_body}");
    let measured = snap
        .histogram("cfgtag_srv_stage_ns", &[("stage", "queue_wait")])
        .expect("traced server reports queue_wait")
        .mean();
    assert!(measured > 0.0, "{shards_body}");
    let ratio = predicted / measured;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "Little's-law prediction off by more than 2x: predicted {predicted}ns, \
         measured mean {measured}ns (ratio {ratio:.3})\nsnapshot: {shards_body}"
    );

    // The ring dump holds ordered snapshots with frames waiting for a
    // gate somewhere in the history.
    let series_body = http_get(&metrics_addr, "/timeseries.json").unwrap();
    let series = Json::parse(&series_body).unwrap();
    let samples = series.get("samples").unwrap().as_array().unwrap();
    assert!(samples.len() >= 2, "{series_body}");
    let depths: Vec<u64> = samples
        .iter()
        .map(|s| {
            s.get("shards")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|sh| sh.get("queue_depth").unwrap().as_u64().unwrap())
                .sum()
        })
        .collect();
    assert!(
        depths.iter().any(|&d| d > 1),
        "contended gates never showed a queue in the ring: {depths:?}"
    );

    // The server-side accessors expose the same sources the endpoints
    // serve.
    assert_eq!(server.shard_loads().expect("saturation configured").shards(), 2);
    assert!(!server.timeseries().expect("saturation configured").is_empty());

    for client in clients {
        client.close().unwrap();
    }
    server.shutdown();
    exporter.stop();
}

#[test]
fn sampling_off_keeps_all_three_endpoints_answering() {
    let t = tagger();
    let registry = Arc::new(Registry::new());
    let config = ServerConfig { registry: Some(Arc::clone(&registry)), ..ServerConfig::default() };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(matches!(client.request(b"go").unwrap(), Reply::Acked { .. }));

    let (status, body) = http_get_status(&metrics_addr, "/snapshot.json").unwrap();
    assert_eq!(status, 200, "{body}");
    let snap = Snapshot::parse(&body).unwrap();
    assert!(snap.get("cfgtag_shard_queue_depth").is_none(), "{body}");

    let (status, body) = http_get_status(&metrics_addr, "/timeseries.json").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("samples").unwrap().as_array().unwrap().len(), 0, "{body}");

    assert!(server.shard_loads().is_none());
    assert!(server.timeseries().is_none());

    client.close().unwrap();
    server.shutdown();
    exporter.stop();
}

/// The sampler keeps ticking while the gates are quiet — the window just
/// shows zero rates, not an error or a stale ring.
#[test]
fn idle_server_reports_zero_rates_not_errors() {
    let t = tagger();
    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        saturation: Some(SaturationConfig { interval_ms: 1, history: 64 }),
        registry: Some(Arc::clone(&registry)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    // Wait for the sampler to build a window.
    let series = server.timeseries().expect("saturation configured");
    for _ in 0..500 {
        if series.len() >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(series.len() >= 2, "sampler never ticked");

    let body = http_get(&metrics_addr, "/snapshot.json").unwrap();
    let snap = Snapshot::parse(&body).unwrap();
    let shards = &snap.get("cfgtag_shard_queue_depth").expect("shard gauges exported").series;
    assert_eq!(shards.len(), 2, "{body}");
    for row in shards {
        let shard = [("shard", row.label("shard").unwrap())];
        assert_eq!(row.number(), Some(0.0), "{body}");
        assert_eq!(snap.value("cfgtag_shard_arrivals_per_sec", &shard), Some(0.0), "{body}");
        assert_eq!(snap.value("cfgtag_shard_predicted_wait_ns", &shard), Some(0.0), "{body}");
    }

    server.shutdown();
    exporter.stop();
}
