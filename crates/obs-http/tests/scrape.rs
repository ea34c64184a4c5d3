//! Integration test: a real exporter on an ephemeral port, scraped
//! over real sockets. Asserts the Prometheus text output is
//! well-formed (names, labels and values all parse) and that counters
//! are monotonic across two scrapes while a writer thread keeps
//! recording.

use cfg_obs::{MetricsSink, Registry, Snapshot, Stat, StatsSink};
use cfg_obs_http::{http_get, Exporter};
use std::collections::HashMap;
use std::sync::Arc;

/// Parse one Prometheus text-format body into `series -> value`,
/// asserting every line is well-formed on the way.
fn parse_prometheus(body: &str) -> HashMap<String, f64> {
    let mut series = HashMap::new();
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (id, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line:?}"));
        // Metric name: [a-zA-Z_:][a-zA-Z0-9_:]*, optionally followed by
        // a {label="value",...} block.
        let name_end = id.find('{').unwrap_or(id.len());
        let name = &id[..name_end];
        assert!(
            !name.is_empty()
                && name.chars().next().unwrap().is_ascii_alphabetic()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
        if name_end < id.len() {
            let labels = &id[name_end..];
            assert!(labels.starts_with('{') && labels.ends_with('}'), "bad labels in {line:?}");
            for pair in labels[1..labels.len() - 1].split(',') {
                let (k, v) = pair.split_once('=').unwrap_or_else(|| panic!("bad label {pair:?}"));
                assert!(k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'), "{line:?}");
                assert!(v.starts_with('"') && v.ends_with('"'), "unquoted label in {line:?}");
            }
        }
        let value: f64 = value.parse().unwrap_or_else(|e| panic!("bad value in {line:?}: {e}"));
        assert!(series.insert(id.to_string(), value).is_none(), "duplicate series {id:?}");
    }
    series
}

#[test]
fn exporter_serves_wellformed_monotonic_metrics() {
    let registry = Arc::new(Registry::new());
    let sink = Arc::new(StatsSink::with_tokens(4));
    registry.register("engine", Arc::clone(&sink));
    registry.set_ready(true);

    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let addr = exporter.local_addr().to_string();

    // A writer hammering the sink while we scrape.
    let writer_sink = Arc::clone(&sink);
    let writer = std::thread::spawn(move || {
        for i in 0..50_000u64 {
            writer_sink.add(Stat::BytesIn, 3);
            writer_sink.token_fire((i % 4) as u32, 1);
            if i % 64 == 0 {
                writer_sink.observe("decision_latency_ns", 100 + i % 1000);
            }
        }
    });

    let first = parse_prometheus(&http_get(&addr, "/metrics").unwrap());
    writer.join().unwrap();
    let second = parse_prometheus(&http_get(&addr, "/metrics").unwrap());

    // Counters (every *_total series and histogram _bucket/_count/_sum)
    // must be monotonic between the two scrapes.
    let mut compared = 0;
    for (id, v1) in &first {
        let counter_like = id.starts_with("cfgtag_")
            && (id.contains("_total")
                || id.contains("_bucket")
                || id.contains("_count")
                || id.contains("_sum"));
        if !counter_like {
            continue;
        }
        if let Some(v2) = second.get(id) {
            assert!(v2 >= v1, "counter {id} went backwards: {v1} -> {v2}");
            compared += 1;
        }
    }
    assert!(compared >= Stat::COUNT, "too few counter series compared: {compared}");

    // The final scrape reflects all the traffic.
    assert_eq!(second.get("cfgtag_bytes_in_total{sink=\"engine\"}"), Some(&150_000.0));
    assert_eq!(second.get("cfgtag_ready"), Some(&1.0));
    assert!(second.contains_key("cfgtag_decision_latency_ns_quantile{quantile=\"0.99\"}"));

    // Health endpoints behave over the wire too.
    assert_eq!(http_get(&addr, "/healthz").unwrap(), "ok\n");
    assert_eq!(http_get(&addr, "/readyz").unwrap(), "ready\n");
    registry.set_dead(true);
    assert!(http_get(&addr, "/readyz").unwrap().contains("dead"));

    // And /snapshot.json stays readable under load.
    let snap = Snapshot::parse(&http_get(&addr, "/snapshot.json").unwrap()).unwrap();
    assert_eq!(snap.value("cfgtag_bytes_in_total", &[("sink", "engine")]), Some(150_000.0));

    exporter.stop();
    // A stopped exporter refuses connections (the port is released).
    assert!(http_get(&addr, "/healthz").is_err());
}

#[test]
fn silent_scraper_cannot_wedge_the_exporter() {
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    // 100 000 live tokens make a /metrics body of about 5.6 MB, larger
    // than loopback's socket buffers hold for a peer that never reads.
    let registry = Arc::new(Registry::new());
    let sink = Arc::new(StatsSink::with_tokens(100_000));
    for token in 0..100_000 {
        sink.token_fire(token, 1);
    }
    registry.register("engine", sink);
    let exporter = Exporter::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
    let addr = exporter.local_addr().to_string();

    // Ask for the body and never read it.
    let mut silent = TcpStream::connect(&addr).unwrap();
    silent.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();

    // The exporter gives up on the silent peer and serves the next
    // scrape within http_get's 5 s read timeout.
    let asked = Instant::now();
    assert_eq!(http_get(&addr, "/healthz").unwrap(), "ok\n");
    assert!(asked.elapsed() < Duration::from_secs(5), "healthz took {:?}", asked.elapsed());

    // And stop() returns while the silent peer is still connected.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        exporter.stop();
        done_tx.send(()).unwrap();
    });
    assert!(done_rx.recv_timeout(Duration::from_secs(10)).is_ok(), "Exporter::stop hung");
    stopper.join().unwrap();
    drop(silent);
}

#[test]
fn trickling_scraper_cannot_wedge_the_exporter() {
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let exporter = Exporter::bind("127.0.0.1:0", Arc::new(Registry::new())).unwrap();
    let addr = exporter.local_addr().to_string();

    // One header byte every 250 ms -- each inside any per-read timeout --
    // and never the blank line that ends the head.
    let stop = Arc::new(AtomicBool::new(false));
    let (connected_tx, connected_rx) = std::sync::mpsc::channel();
    let trickler = {
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut peer = TcpStream::connect(&addr).unwrap();
            connected_tx.send(()).unwrap();
            let head = b"GET /metrics HTTP/1.1\r\nX-Slow: ".iter().chain(std::iter::repeat(&b'x'));
            for &byte in head {
                if stop.load(Ordering::Relaxed) || peer.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(250));
            }
        })
    };
    // The trickler connected first, so the exporter's one thread takes it
    // first; the scrape below waits behind it.
    connected_rx.recv().unwrap();

    let asked = Instant::now();
    let reply = http_get(&addr, "/healthz");
    let took = asked.elapsed();
    // Stop trickling before asserting, so a failure cannot leave the
    // exporter's thread (and its drop) waiting on the trickler.
    stop.store(true, Ordering::Relaxed);
    trickler.join().unwrap();
    assert_eq!(reply.unwrap(), "ok\n");
    assert!(took < Duration::from_secs(5), "healthz took {took:?}");
    exporter.stop();
}
