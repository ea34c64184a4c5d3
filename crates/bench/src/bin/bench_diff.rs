//! Compares the two most recent rows of each `bench_results/*.json`
//! JSONL history and prints per-metric deltas.
//!
//! Histories may interleave several *series* in one file: rows carrying
//! an `engine` string field are grouped by that value and each group
//! diffs its own last two rows, so a per-engine row never diffs against
//! a combined row — and rows without the field keep comparing exactly
//! as before.
//!
//! Direction matters: `*ns_per_byte` / `*_pct` / `*_us` metrics are
//! lower-is-better, `*_per_sec` / `*gb_per_s` / `*_gbps` / `*_mbps` are
//! higher-is-better; everything else is reported without a verdict.
//! `*gb_per_s` is gigabytes per second (software throughput); `*_gbps`
//! stays for the paper's gigabit bandwidth column. A
//! regression worse than 10% on any directional metric makes the
//! process exit non-zero — CI runs it **non-gating** (`|| true`), so
//! the signal lands in the log without letting timing noise on shared
//! machines break the build.
//!
//! Run: `cargo run -p cfg-bench --bin bench_diff --release`

#![forbid(unsafe_code)]

use cfg_obs::json::Json;

/// Regression threshold (fractional): flag anything >10% worse.
const THRESHOLD: f64 = 0.10;

/// Rep-to-rep spread (percent) above which a row's own noise rivals
/// the regression threshold — warned about, never gating.
const SPREAD_WARN_PCT: f64 = 10.0;

/// The current row's `spread_pct` when it exceeds [`SPREAD_WARN_PCT`]:
/// the bench's own rep-to-rep noise is as large as the regression
/// threshold, so any verdict on this file is suspect.
fn noisy_spread(row: &Json) -> Option<f64> {
    row.get("spread_pct").and_then(Json::as_f64).filter(|s| *s > SPREAD_WARN_PCT)
}

/// Which way a metric improves, keyed on naming convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
    Informational,
}

fn direction(key: &str) -> Direction {
    // Correctness metrics ride the same verdicts as timing ones:
    // `_precision_pct` up is good (the bare `_pct` gauges stay
    // informational), `_fp_per_mb` is a false-positive density, so
    // down is good like any latency. The bare `ns_per_byte` spelling
    // comes from per-engine rows (an `engine` field names the series,
    // so the metric needs no prefix).
    if key.ends_with("_ns_per_byte")
        || key == "ns_per_byte"
        || key.ends_with("_overhead_pct")
        || key.ends_with("_us")
        || key.ends_with("_fp_per_mb")
    {
        Direction::LowerIsBetter
    } else if key.ends_with("_per_sec")
        || key.ends_with("gb_per_s")
        || key.ends_with("_gbps")
        || key.ends_with("_mbps")
        || key.ends_with("_precision_pct")
    {
        Direction::HigherIsBetter
    } else {
        Direction::Informational
    }
}

/// One compared metric.
#[derive(Debug)]
struct Delta {
    key: String,
    prev: f64,
    cur: f64,
    /// Fractional change in the *bad* direction (>0 = worse), `None`
    /// for informational metrics or zero baselines.
    regression: Option<f64>,
}

/// Compare the numeric fields of two JSONL rows (keys taken from the
/// current row; missing-in-previous keys are skipped).
fn compare_rows(prev: &Json, cur: &Json) -> Vec<Delta> {
    let mut out = Vec::new();
    let Some(members) = cur.as_object() else { return out };
    for (key, value) in members {
        let (Some(c), Some(p)) = (value.as_f64(), prev.get(key).and_then(Json::as_f64)) else {
            continue;
        };
        // A fractional delta only means anything against a positive
        // baseline (overhead-pct metrics can legitimately sit at ~0 or
        // below; dividing by that yields garbage verdicts).
        let regression = match direction(key) {
            Direction::Informational => None,
            _ if p <= 0.0 => None,
            Direction::LowerIsBetter => Some((c - p) / p),
            Direction::HigherIsBetter => Some((p - c) / p),
        };
        out.push(Delta { key: key.clone(), prev: p, cur: c, regression });
    }
    out
}

/// The last two rows of every series in a JSONL body. Rows are grouped
/// by their `engine` string field (rows without one — every history
/// predating per-engine rows — form the `""` group); each group with
/// two or more rows yields `(series, prev, cur)`. Group order follows
/// first appearance in the file.
fn last_two_rows_per_series(body: &str) -> Vec<(String, Json, Json)> {
    let mut groups: Vec<(String, Vec<Json>)> = Vec::new();
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(row) = Json::parse(line) else { continue };
        let series = row.get("engine").and_then(Json::as_str).unwrap_or("").to_owned();
        match groups.iter_mut().find(|(s, _)| *s == series) {
            Some((_, rows)) => rows.push(row),
            None => groups.push((series, vec![row])),
        }
    }
    groups
        .into_iter()
        .filter_map(|(series, mut rows)| {
            let cur = rows.pop()?;
            let prev = rows.pop()?;
            Some((series, prev, cur))
        })
        .collect()
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "bench_results".into());
    let mut entries: Vec<_> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(e) => {
            println!("bench_diff: no {dir}/ ({e}); nothing to compare");
            return;
        }
    };
    entries.sort();
    let mut regressed = false;
    let mut compared_any = false;
    for path in entries {
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Ok(body) = std::fs::read_to_string(&path) else { continue };
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_owned();
        let series = last_two_rows_per_series(&body);
        if series.is_empty() {
            println!("{name}: no history (need two JSONL rows per series); skipped");
            continue;
        }
        for (group, prev, cur) in series {
            let label = if group.is_empty() { name.clone() } else { format!("{name}[{group}]") };
            let deltas = compare_rows(&prev, &cur);
            if deltas.is_empty() {
                println!("{label}: no shared numeric fields; skipped");
                continue;
            }
            compared_any = true;
            println!("{label}: latest vs previous");
            for d in &deltas {
                let pct = if d.prev != 0.0 { (d.cur - d.prev) / d.prev * 100.0 } else { 0.0 };
                let verdict = match d.regression {
                    Some(r) if r > THRESHOLD => {
                        regressed = true;
                        "  << REGRESSION"
                    }
                    Some(r) if r < -THRESHOLD => "  (improved)",
                    Some(_) => "",
                    None => "  (info)",
                };
                println!(
                    "  {:<28} {:>14.4} -> {:>14.4}  {pct:+8.2}%{verdict}",
                    d.key, d.prev, d.cur
                );
            }
            if let Some(spread) = noisy_spread(&cur) {
                println!(
                    "  WARNING: rep-to-rep spread {spread:.1}% exceeds {SPREAD_WARN_PCT:.0}% — \
                     this row is too noisy for its verdicts to mean much (non-gating)"
                );
            }
        }
    }
    if !compared_any {
        println!("bench_diff: no comparable histories in {dir}/");
        return;
    }
    if regressed {
        println!(
            "bench_diff: regression over {:.0}% detected (non-gating in CI)",
            THRESHOLD * 100.0
        );
        std::process::exit(1);
    }
    println!("bench_diff: no regression over {:.0}%", THRESHOLD * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_follow_naming() {
        assert_eq!(direction("off_ns_per_byte"), Direction::LowerIsBetter);
        assert_eq!(direction("noop_overhead_pct"), Direction::LowerIsBetter);
        assert_eq!(direction("msgs_per_sec"), Direction::HigherIsBetter);
        assert_eq!(direction("bandwidth_gbps"), Direction::HigherIsBetter);
        // Per-engine rows spell the metric bare (the `engine` field
        // names the series); same verdicts as the prefixed forms.
        assert_eq!(direction("ns_per_byte"), Direction::LowerIsBetter);
        assert_eq!(direction("gb_per_s"), Direction::HigherIsBetter);
        assert_eq!(direction("bit_gb_per_s"), Direction::HigherIsBetter);
        assert_eq!(direction("e2e_p50_us"), Direction::LowerIsBetter);
        assert_eq!(direction("queue_wait_p50_us"), Direction::LowerIsBetter);
        assert_eq!(direction("client_rtt_p99_us"), Direction::LowerIsBetter);
        assert_eq!(direction("bytes"), Direction::Informational);
        // Gate load describes how hard the bench pushed, not how well
        // the server did: reported without a verdict.
        assert_eq!(direction("shard_utilization_pct"), Direction::Informational);
        assert_eq!(direction("mean_queue_depth"), Direction::Informational);
        // Correctness metrics from the false-positive experiment:
        // precision up is good, FP density down is good.
        assert_eq!(direction("tagger_precision_pct"), Direction::HigherIsBetter);
        assert_eq!(direction("naive_fp_per_mb"), Direction::LowerIsBetter);
        // Raw FP counts stay informational — the density rows carry
        // the verdict.
        assert_eq!(direction("naive_fp"), Direction::Informational);
        // The session count describes the load shape, not a win or a
        // loss.
        assert_eq!(direction("concurrent_sessions"), Direction::Informational);
        assert_eq!(direction("spread_pct"), Direction::Informational);
    }

    #[test]
    fn noisy_rows_warn_but_never_gate() {
        // spread_pct above the warn line is surfaced, but it is an
        // Informational field: compare_rows must not emit a verdict
        // for it, so a noisy row alone can never exit non-zero.
        let quiet = Json::parse(r#"{"spread_pct":6.1,"bit_ns_per_byte":4.4}"#).unwrap();
        let noisy = Json::parse(r#"{"spread_pct":15.8,"bit_ns_per_byte":4.4}"#).unwrap();
        assert!(noisy_spread(&quiet).is_none());
        assert_eq!(noisy_spread(&noisy), Some(15.8));
        let spread = compare_rows(&quiet, &noisy)
            .into_iter()
            .find(|d| d.key == "spread_pct")
            .expect("spread_pct compared");
        assert!(spread.regression.is_none(), "{spread:?}");
        // Rows predating the field (or non-bench rows) stay silent.
        assert!(noisy_spread(&Json::parse(r#"{"acked":8000}"#).unwrap()).is_none());
    }

    #[test]
    fn precision_regressions_flag_in_the_right_direction() {
        // Precision dropping 100 -> 85 is a >10% regression; FP
        // density climbing 1 -> 2 likewise. Old rows without the new
        // fields simply skip them (compare_rows keys on the current
        // row but requires a previous value).
        let prev = Json::parse(r#"{"tagger_precision_pct":100.0,"tagger_fp_per_mb":1.0}"#).unwrap();
        let cur = Json::parse(r#"{"tagger_precision_pct":85.0,"tagger_fp_per_mb":2.0}"#).unwrap();
        let deltas = compare_rows(&prev, &cur);
        let by_key = |k: &str| deltas.iter().find(|d| d.key == k).unwrap();
        assert!(by_key("tagger_precision_pct").regression.unwrap() > THRESHOLD);
        assert!(by_key("tagger_fp_per_mb").regression.unwrap() > THRESHOLD);
        // A legacy row predating the precision fields diffs to nothing.
        let legacy = Json::parse(r#"{"messages":2000}"#).unwrap();
        assert!(compare_rows(&legacy, &cur).is_empty());
    }

    #[test]
    fn rows_predating_the_latency_fields_still_compare() {
        // A server_loop history from before per-stage quantiles and
        // saturation gauges were recorded: the previous row lacks every
        // `_us` key plus `shard_utilization_pct` / `peak_queue_depth`.
        // The shared fields still diff; the new ones are silently
        // skipped rather than erroring or inventing a zero baseline.
        let prev = Json::parse(r#"{"accepted_msgs_per_sec":700.0,"shed_ratio":0.1,"acked":8000}"#)
            .unwrap();
        let cur = Json::parse(
            r#"{"accepted_msgs_per_sec":720.0,"shed_ratio":0.1,"acked":8000,
                "e2e_p50_us":147.6,"queue_wait_p50_us":120.1,"stage_sum_vs_e2e_pct":93.5,
                "shard_utilization_pct":87.5,"peak_queue_depth":31}"#,
        )
        .unwrap();
        let deltas = compare_rows(&prev, &cur);
        let keys: Vec<&str> = deltas.iter().map(|d| d.key.as_str()).collect();
        assert!(keys.contains(&"accepted_msgs_per_sec"));
        assert!(!keys.iter().any(|k| k.ends_with("_us") || k.ends_with("_pct")), "{keys:?}");
        assert!(!keys.contains(&"peak_queue_depth"), "{keys:?}");
        // Once two saturation-aware rows exist they diff as info-only:
        // a deeper queue is a load-shape change, never a "regression".
        let cur2 = Json::parse(r#"{"shard_utilization_pct":40.0,"peak_queue_depth":62}"#).unwrap();
        let gauged = compare_rows(&cur, &cur2);
        for key in ["shard_utilization_pct", "peak_queue_depth"] {
            let d = gauged.iter().find(|d| d.key == key).unwrap();
            assert!(d.regression.is_none(), "{d:?}");
        }
        // And once two traced rows exist, the quantiles are directional.
        let cur2 = Json::parse(r#"{"e2e_p50_us":170.0,"queue_wait_p50_us":121.0}"#).unwrap();
        let traced = compare_rows(&cur, &cur2);
        let e2e = traced.iter().find(|d| d.key == "e2e_p50_us").unwrap();
        assert!(e2e.regression.unwrap() > THRESHOLD);
    }

    #[test]
    fn server_loop_rows_with_the_dropped_ack_batch_field_still_compare() {
        // Older server_loop rows carry a median ack-batch size that
        // newer rows lack: the shared fields still diff, and nothing is
        // invented for the dropped one.
        let old = Json::parse(
            r#"{"accepted_msgs_per_sec":50000.0,"ack_batch_p50":0.0,"concurrent_sessions":6}"#,
        )
        .unwrap();
        let new =
            Json::parse(r#"{"accepted_msgs_per_sec":52000.0,"concurrent_sessions":6}"#).unwrap();
        let keys: Vec<String> = compare_rows(&old, &new).into_iter().map(|d| d.key).collect();
        assert_eq!(keys, ["accepted_msgs_per_sec", "concurrent_sessions"]);
    }

    #[test]
    fn compare_flags_regressions_both_ways() {
        let prev =
            Json::parse(r#"{"off_ns_per_byte":10.0,"msgs_per_sec":1000.0,"bytes":5}"#).unwrap();
        // ns/byte up 20% (worse) and msgs/s down 20% (worse).
        let cur =
            Json::parse(r#"{"off_ns_per_byte":12.0,"msgs_per_sec":800.0,"bytes":9}"#).unwrap();
        let deltas = compare_rows(&prev, &cur);
        assert_eq!(deltas.len(), 3);
        let by_key = |k: &str| deltas.iter().find(|d| d.key == k).unwrap();
        assert!(by_key("off_ns_per_byte").regression.unwrap() > THRESHOLD);
        assert!(by_key("msgs_per_sec").regression.unwrap() > THRESHOLD);
        assert!(by_key("bytes").regression.is_none());
        // Improvements come out negative.
        let better =
            Json::parse(r#"{"off_ns_per_byte":8.0,"msgs_per_sec":1500.0,"bytes":5}"#).unwrap();
        for d in compare_rows(&prev, &better) {
            assert!(d.regression.map(|r| r < 0.0).unwrap_or(true), "{d:?}");
        }
    }

    #[test]
    fn non_positive_baselines_get_no_verdict() {
        let prev = Json::parse(r#"{"noop_overhead_pct":-1.2,"x_per_sec":0.0}"#).unwrap();
        let cur = Json::parse(r#"{"noop_overhead_pct":-22.9,"x_per_sec":10.0}"#).unwrap();
        for d in compare_rows(&prev, &cur) {
            assert!(d.regression.is_none(), "{d:?}");
        }
    }

    #[test]
    fn last_two_rows_needs_history() {
        assert!(last_two_rows_per_series("{\"a\":1}\n").is_empty());
        assert!(last_two_rows_per_series("").is_empty());
        let series = last_two_rows_per_series("{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n");
        assert_eq!(series.len(), 1);
        let (group, prev, cur) = &series[0];
        assert_eq!(group, "");
        assert_eq!(prev.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(cur.get("a").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn gb_per_s_rows_flag_falling_throughput_and_old_rows_still_compare() {
        // Falling GB/s is a regression, rising is an improvement.
        let prev = Json::parse(r#"{"bit_gb_per_s":100.0}"#).unwrap();
        let cur = Json::parse(r#"{"bit_gb_per_s":80.0}"#).unwrap();
        assert!(compare_rows(&prev, &cur)[0].regression.unwrap() > THRESHOLD);
        assert!(compare_rows(&cur, &prev)[0].regression.unwrap() < 0.0);
        // A row from before the rename carries `bit_gbps`: the new key
        // has no previous value and is skipped, the shared ones diff.
        let old = Json::parse(r#"{"bit_ns_per_byte":4.5,"bit_gbps":0.222}"#).unwrap();
        let new = Json::parse(r#"{"bit_ns_per_byte":4.4,"bit_gb_per_s":0.227}"#).unwrap();
        let keys: Vec<String> = compare_rows(&old, &new).into_iter().map(|d| d.key).collect();
        assert_eq!(keys, ["bit_ns_per_byte"]);
    }

    #[test]
    fn engine_rows_form_their_own_series() {
        // Combined rows interleaved with per-engine rows. Each series
        // diffs its own last two; the per-engine row never diffs
        // against the combined row even though it is the file's final
        // line.
        let body = "{\"bit_ns_per_byte\":4.5}\n\
                    {\"engine\":\"scalar\",\"ns_per_byte\":125.0}\n\
                    {\"bit_ns_per_byte\":4.4}\n\
                    {\"engine\":\"scalar\",\"ns_per_byte\":124.0}\n";
        let series = last_two_rows_per_series(body);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, "");
        assert_eq!(series[0].1.get("bit_ns_per_byte").and_then(Json::as_f64), Some(4.5));
        assert_eq!(series[0].2.get("bit_ns_per_byte").and_then(Json::as_f64), Some(4.4));
        assert_eq!(series[1].0, "scalar");
        assert_eq!(series[1].2.get("ns_per_byte").and_then(Json::as_f64), Some(124.0));
        // A lone per-engine row is tolerated: the combined series still
        // compares, the engine series waits for a second row.
        let sparse = "{\"bit_ns_per_byte\":4.5}\n\
                      {\"bit_ns_per_byte\":4.4}\n\
                      {\"engine\":\"scalar\",\"ns_per_byte\":125.0}\n";
        let series = last_two_rows_per_series(sparse);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].0, "");
    }
}
