//! Head-to-head throughput of the software engines: the scalar
//! reference ([`cfg_tagger::ScalarEngine`]) and the production engine
//! ([`cfg_tagger::BitEngine`], the default `EngineKind`).
//!
//! Both tag the same ~4 MB honest XML-RPC stream (the workload
//! `obs_overhead` uses, so ns/byte rows are comparable across the two
//! histories), dark sinks attached — this measures the kernels, not the
//! observability layer. Each configuration warms up adaptively —
//! unrecorded reps until two consecutive ones agree within 2% (at most
//! five), so cache/frequency transients never land in the timed window
//! — then times `reps` reps plus a slack of extras and keeps the
//! fastest `reps` (a rep descheduled mid-run is scheduler noise, not
//! engine behaviour); the **median** ns/byte of the kept reps is
//! reported along with their max-min spread, and the two engines'
//! event counts are cross-checked so a "fast" kernel that drops
//! matches can never post a number.
//!
//! The stream dies inside its first message (no error recovery), so
//! the bit row mostly measures the dead-run skip, not tagging.
//!
//! Appends one JSONL row to `bench_results/fast_throughput.json`.
//! `bit_gb_per_s` is `1 / bit_ns_per_byte`: gigabytes per second, not
//! the paper's gigabits (`bench_diff` reads `*ns_per_byte` as
//! lower-is-better and `*gb_per_s` as higher-is-better).
//!
//! Run: `cargo run -p cfg-bench --bin fast_throughput --release`

#![forbid(unsafe_code)]

use cfg_tagger::{EngineKind, TaggerOptions, TokenTagger};
use cfg_xmlrpc::workload::{MessageKind, WorkloadGenerator};
use cfg_xmlrpc::xmlrpc_grammar;
use std::time::Instant;

/// Median ns/byte over `reps` timed runs of `run` (adaptive warm-up
/// first), plus the `(max - min) / median` spread in percent.
fn bench(input_len: usize, reps: usize, mut run: impl FnMut() -> usize) -> (f64, f64, usize) {
    // Warm up until steady: a single warm-up rep leaves the first timed
    // rep measurably slower than the rest (cold caches, branch
    // predictors, CPU frequency), which alone pushed the recorded
    // spread past the bench_diff noise line. Two consecutive warm-up
    // reps within 2% of each other mean the transient has passed; five
    // reps bound the cost when the machine never settles.
    let mut events = 0usize;
    let mut prev = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        events = std::hint::black_box(run());
        let dt = t0.elapsed().as_nanos() as f64 / input_len as f64;
        if (dt - prev).abs() / prev.min(dt) < 0.02 {
            break;
        }
        prev = dt;
    }
    // Oversample, then drop the slowest half-again: on a shared core a
    // rep that loses the CPU mid-run posts 20%+ over its neighbours,
    // and one such spike is scheduler noise, not engine behaviour. The
    // median is taken over the kept reps; the spread is their max-min
    // band, so it reports the noise of the reps that actually inform
    // the number.
    let extra = (reps / 2).max(3);
    let mut samples = Vec::with_capacity(reps + extra);
    for _ in 0..reps + extra {
        let t0 = Instant::now();
        events = std::hint::black_box(run());
        samples.push(t0.elapsed().as_nanos() as f64 / input_len as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples.truncate(reps);
    let median = samples[samples.len() / 2];
    let spread = (samples[samples.len() - 1] - samples[0]) / median * 100.0;
    (median, spread, events)
}

fn main() {
    let reps = std::env::args()
        .position(|a| a == "--reps")
        .and_then(|i| std::env::args().nth(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(7usize);

    let tagger = TokenTagger::compile(&xmlrpc_grammar(), TaggerOptions::default())
        .expect("XML-RPC grammar compiles");

    // The obs_overhead workload: ~4 MB of honest traffic.
    let mut gen = WorkloadGenerator::new(42);
    let mut input = Vec::new();
    while input.len() < 4 << 20 {
        input.extend_from_slice(&gen.message(MessageKind::Honest).bytes);
        input.push(b'\n');
    }

    // Events from one fresh engine of `kind` over the whole stream.
    let count = |kind: EngineKind| {
        let mut e = tagger.engine(kind).expect("the software engines build");
        let mut events = Vec::new();
        e.feed_slice(&input, &mut events)
            .and_then(|()| e.finish_into(&mut events))
            .expect("the software engines return no errors");
        events.len()
    };
    let (scalar, scalar_spread, scalar_events) =
        bench(input.len(), reps, || count(EngineKind::Scalar));
    let (bit, bit_spread, bit_events) = bench(input.len(), reps, || count(EngineKind::Bit));
    assert_eq!(scalar_events, bit_events, "engines disagree on event count");

    let speedup = scalar / bit;
    let bit_gb_per_s = 1.0 / bit;
    let spread_pct = scalar_spread.max(bit_spread);
    println!(
        "fast_throughput ({} bytes, {} positions in {} words, median of {reps})",
        input.len(),
        tagger.bit_tables().position_count(),
        tagger.bit_tables().mask_words()
    );
    println!("  scalar : {scalar:>8.3} ns/byte");
    println!("  bitset : {bit:>8.3} ns/byte  ({speedup:.1}x, {bit_gb_per_s:.3} GB/s)");
    println!("  events : {bit_events} (identical across engines)");
    println!("  worst rep-to-rep spread: {spread_pct:.1}%");

    if std::fs::create_dir_all("bench_results").is_ok() {
        use std::io::Write as _;
        let row = format!(
            "{{\"bytes\": {}, \"reps\": {reps}, \"events\": {bit_events}, \
             \"scalar_ns_per_byte\": {scalar:.4}, \"bit_ns_per_byte\": {bit:.4}, \
             \"speedup\": {speedup:.2}, \"bit_gb_per_s\": {bit_gb_per_s:.4}, \
             \"spread_pct\": {spread_pct:.2}}}\n",
            input.len(),
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open("bench_results/fast_throughput.json")
            .and_then(|mut f| f.write_all(row.as_bytes()));
        if appended.is_ok() {
            eprintln!("appended to bench_results/fast_throughput.json");
        }
    }
}
