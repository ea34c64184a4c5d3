//! End-to-end saturation-telemetry invariants on a live ingest server.
//!
//! With `--sample-hz`-style telemetry on, a pipelined load against a
//! 2-shard server must surface as: non-trivial utilization in
//! `/shards.json`, and a Little's-law predicted queue wait that agrees
//! (within 2×) with the *measured* `queue_wait` p50 the tracing
//! pipeline reports in `/slo.json`. With telemetry off, the saturation
//! endpoints must still answer 200 — sampling-off is a configuration,
//! not an error.

use cfg_grammar::builtin;
use cfg_obs::json::Json;
use cfg_obs::SharedRegistry;
use cfg_obs_http::{http_get, http_get_status, Exporter, ServiceState};
use cfg_server::{Client, IngestServer, Reply, SaturationConfig, ServerConfig, TraceConfig};
use cfg_tagger::{TaggerOptions, TokenTagger};
use std::sync::Arc;
use std::time::Duration;

fn tagger() -> TokenTagger {
    TokenTagger::compile(&builtin::if_then_else(), TaggerOptions::default()).unwrap()
}

#[test]
fn pipelined_load_surfaces_utilization_profile_and_littles_law() {
    // Enough frames and payload to hold a deep queue for many sampler
    // ticks: the telemetry derives rates from the snapshot window, so
    // the load must outlive a few intervals.
    const MESSAGES: u32 = 400;
    const WINDOW: u32 = 64;
    let payload = b"if true then go else stop ".repeat(512); // ~13 KB

    // §5.2 error recovery keeps every sentence of the payload live.
    // Without it the stream dies after the first sentence, the
    // dead-run skip tags each frame in microseconds, and the shards
    // have no engine time to account.
    let t = TokenTagger::compile(
        &builtin::if_then_else(),
        TaggerOptions::builder().error_recovery(true).build(),
    )
    .unwrap();
    let registry = Arc::new(SharedRegistry::new());
    let state = Arc::new(ServiceState::new());
    let config = ServerConfig {
        shards: 2,
        queue_depth: 2 * WINDOW as usize,
        trace: Some(TraceConfig {
            sample_every: u64::from(MESSAGES),
            slo_ms: 60_000,
            ring: 16,
            ..TraceConfig::default()
        }),
        saturation: Some(SaturationConfig { interval_ms: 1, history: 8192 }),
        registry: Some(Arc::clone(&registry)),
        state: Some(Arc::clone(&state)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter =
        Exporter::bind("127.0.0.1:0", Arc::clone(&registry), Arc::clone(&state)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    // Pipelined load: keep WINDOW frames in flight so the shard queue
    // stays deep. One session has affinity to one shard — the other
    // shard stays idle.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut sent = 0u32;
    let mut acked = 0u32;
    while acked < MESSAGES {
        while sent < MESSAGES && sent - acked < WINDOW {
            client.send(&payload).unwrap();
            sent += 1;
        }
        match client.recv().unwrap() {
            Reply::Acked { .. } => acked += 1,
            other => panic!("frame {acked} not acked: {other:?}"),
        }
    }

    // Read the gauges immediately, while the snapshot window is still
    // dominated by the loaded period.
    let shards_body = http_get(&metrics_addr, "/shards.json").unwrap();
    let v = Json::parse(&shards_body).unwrap();
    let rows = v.get("shards").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 2, "{shards_body}");
    let util = |row: &Json| row.get("utilization_pct").unwrap().as_f64().unwrap();
    let busy =
        rows.iter().max_by(|a, b| util(a).partial_cmp(&util(b)).unwrap()).expect("two shard rows");
    assert!(
        util(busy) > 0.0 && util(busy) <= 100.0,
        "busy shard utilization must land in (0,100]: {shards_body}"
    );
    let arrivals: f64 =
        rows.iter().map(|r| r.get("arrivals_per_sec").unwrap().as_f64().unwrap()).sum();
    assert!(arrivals > 0.0, "{shards_body}");

    // Little's law: the busy shard's predicted queue wait must agree
    // with the measured queue_wait p50 within 2×. Both describe the
    // same sustained, saturated window, so W_q = L̄_q / λ holds.
    let predicted = busy.get("predicted_wait_ns").unwrap().as_f64().unwrap();
    assert!(predicted > 0.0, "{shards_body}");
    let slo_body = http_get(&metrics_addr, "/slo.json").unwrap();
    let slo = Json::parse(&slo_body).unwrap();
    let measured = slo
        .get("stages")
        .and_then(|s| s.get("queue_wait"))
        .and_then(|q| q.get("p50_ns"))
        .and_then(Json::as_u64)
        .expect("traced server reports queue_wait p50") as f64;
    assert!(measured > 0.0, "{slo_body}");
    let ratio = predicted / measured;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "Little's-law prediction off by more than 2x: predicted {predicted}ns, \
         measured p50 {measured}ns (ratio {ratio:.3})\nshards: {shards_body}\nslo: {slo_body}"
    );

    // The ring dump holds ordered snapshots with a deep queue visible
    // somewhere in the history.
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
        "pipelined load never showed a queue in the ring: {depths:?}"
    );

    // The server-side accessors expose the same sources the endpoints
    // serve.
    assert_eq!(server.shard_loads().expect("saturation configured").shards(), 2);
    assert!(!server.timeseries().expect("saturation configured").is_empty());

    client.close().unwrap();
    server.shutdown();
    exporter.stop();
}

#[test]
fn sampling_off_keeps_all_three_endpoints_answering() {
    let t = tagger();
    let registry = Arc::new(SharedRegistry::new());
    let state = Arc::new(ServiceState::new());
    let config = ServerConfig {
        registry: Some(Arc::clone(&registry)),
        state: Some(Arc::clone(&state)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter =
        Exporter::bind("127.0.0.1:0", Arc::clone(&registry), Arc::clone(&state)).unwrap();
    let metrics_addr = exporter.local_addr().to_string();

    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(matches!(client.request(b"go").unwrap(), Reply::Acked { .. }));

    let (status, body) = http_get_status(&metrics_addr, "/shards.json").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(&body).unwrap();
    assert_eq!(v.get("shards").unwrap().as_array().unwrap().len(), 0, "{body}");

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

/// The sampler keeps ticking while the pool is quiet — the window just
/// shows zero rates, not an error or a stale ring.
#[test]
fn idle_server_reports_zero_rates_not_errors() {
    let t = tagger();
    let registry = Arc::new(SharedRegistry::new());
    let state = Arc::new(ServiceState::new());
    let config = ServerConfig {
        saturation: Some(SaturationConfig { interval_ms: 1, history: 64 }),
        registry: Some(Arc::clone(&registry)),
        state: Some(Arc::clone(&state)),
        ..ServerConfig::default()
    };
    let server = IngestServer::start(&t, "127.0.0.1:0", config).unwrap();
    let exporter =
        Exporter::bind("127.0.0.1:0", Arc::clone(&registry), Arc::clone(&state)).unwrap();
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

    let body = http_get(&metrics_addr, "/shards.json").unwrap();
    let v = Json::parse(&body).unwrap();
    for row in v.get("shards").unwrap().as_array().unwrap() {
        assert_eq!(row.get("queue_depth").unwrap().as_u64(), Some(0), "{body}");
        assert_eq!(row.get("arrivals_per_sec").unwrap().as_f64(), Some(0.0), "{body}");
        assert_eq!(row.get("predicted_wait_ns").unwrap().as_f64(), Some(0.0), "{body}");
    }

    server.shutdown();
    exporter.stop();
}
