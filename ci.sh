#!/usr/bin/env bash
# Local/CI gate for the workspace. Gating steps, in order:
#
#   1. cargo fmt --check        -- repo is rustfmt-clean (see rustfmt.toml)
#   2. cargo clippy -D warnings -- all targets, all crates (vendored stubs too)
#   3. rustdoc -D warnings      -- every workspace crate's docs build with
#                                  no warning, so a doc link to a deleted
#                                  name fails here; the vendored stubs
#                                  (proptest, rand, criterion) are
#                                  excluded, as they fail the link lints
#   4. dead-code hygiene        -- no #[allow(dead_code)] in the obs crates
#   5. tier-1 verify            -- release build + root-package tests
#   6. exporter integration     -- cfg-obs-http socket-level scrape tests
#   7. ring & viewer            -- the EventRing under every telemetry
#                                  ring, the JSON parser (nesting depth
#                                  capped), the snapshot model (one
#                                  registry, labelled families, the
#                                  Prometheus and JSON renderings and
#                                  the strict reader every view decodes
#                                  with), and the `cfgtag watch` loop
#                                  (flags, retries, every view's frame)
#   8. probe layer & scope      -- engine probe counters, trigger hub,
#                                  the scope view, and the
#                                  serve->scope->trigger round trip
#   9. production engine        -- the DFA table walk (8-byte cells:
#                                  the next row in the low word, the
#                                  action digest in the high word, the
#                                  action id beside it in a side array,
#                                  checked cell by cell in every mode
#                                  by `cell_layout_invariants_hold`;
#                                  the second fire slot, every kind of
#                                  action sent to the exact path, a
#                                  two-fire byte at a stage with one
#                                  slot free, staging past its
#                                  capacity) and its bit-step
#                                  cold path (dead-run skip, table
#                                  budget and register caps, probe and
#                                  trace detail), stream-mode fan-out,
#                                  the three-engine agreement property,
#                                  the random-grammar generator, and the
#                                  five-run property on generated
#                                  multi-token grammars (table, zero and
#                                  small budgets, scalar, gate; events,
#                                  counters and per-token fires)
#  10. compile pipeline         -- the tagger's compile (lazily built
#                                  circuit, reversed NFAs and scalar
#                                  tables, pinned compile errors, the
#                                  position bound), the regex crate
#                                  (parser, counted-repetition and
#                                  FOLLOW-edge bounds, NFA, templates),
#                                  the generator, context duplication,
#                                  and the seeded
#                                  grammar-text and regex-pattern
#                                  fuzzers' short runs
#  11. ingest server            -- cfg-server unit + integration tests
#                                  (each connection's thread tags its
#                                  own frames under a per-shard
#                                  admission gate; the gate, Busy past
#                                  its wait, reaped reader threads,
#                                  buffers given back after a huge
#                                  ack, the slow- and trickling-reader
#                                  evictions and listen-mode token
#                                  names included), the seeded
#                                  wire-frame fuzzer's short run, the
#                                  Engine trait suite, and the
#                                  fault-injection chaos test
#  12. span tracing & SLO       -- cfg-obs span/SLO suites and the
#                                  log-linear histogram, the slo view,
#                                  and the end-to-end span_trace test
#  13. saturation telemetry     -- the shard gates' five load
#                                  counters as per-sink families, the
#                                  shards view (rates, mean depth and
#                                  Little's-law wait from two
#                                  snapshots), and the end-to-end
#                                  Little's-law test (closed-loop
#                                  sessions contending for each gate)
#  14. shadow audit             -- audit bank and evidence-window
#                                  suites, frame-codec chunking
#                                  properties, audit view, and the
#                                  end-to-end seeded-fault test
#  15. full workspace tests     -- every crate's suites
#  16. perfbench result lines   -- perfbench for one second on live,
#                                  dead and served at --trace 0 and on
#                                  served at --trace 1; each run's last
#                                  stdout line must be a correct result
#                                  with 0 failed frames that carries
#                                  every metric BENCHMARK.json names
#                                  for it (end_to_end at trace 0,
#                                  per_layer at trace 1). perfbench and
#                                  BENCHMARK.json are read, not edited.
#
# Every step that filters tests by name runs through `filtered`, which
# fails the step when the filter matched no test: a filter left behind
# by a rename would otherwise pass silently.
#
# Then six NON-GATING steps: the grammar-text, regex-pattern and
# wire-frame fuzzers' long runs (each prints its slowest case), the
# observability-overhead bench (engine path + traced/audited-server
# path), the ingest-server loop bench (with the stage-attribution
# table), and the false-positive precision experiment. Timing on shared
# machines is too noisy to fail CI on, so their verdicts are printed but
# never change the exit code. Tagging speed comes from perfbench
# (BENCHMARK.json); these benches time only what it does not measure.

set -euo pipefail
cd "$(dirname "$0")"

# `filtered ARGS...`: run `cargo test -q ARGS...` and fail unless the
# summed "N passed" over its test binaries is above zero.
filtered() {
    local out passed
    if ! out=$(cargo test -q "$@" 2>&1); then
        echo "$out"
        return 1
    fi
    echo "$out"
    passed=$(echo "$out" | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' |
        awk '{ n += $1 } END { print n + 0 }')
    if [ "$passed" -eq 0 ]; then
        echo "ci.sh: 'cargo test -q $*' ran no tests -- its filter matches nothing" >&2
        return 1
    fi
}

# `bench_names SECTION`: the metric names BENCHMARK.json lists in its
# SECTION array, one per line.
bench_names() {
    sed -n "/\"$1\": \[/,/\]/p" BENCHMARK.json | sed -n 's/.*"name": "\([^"]*\)".*/\1/p'
}

# `perfbench_line WORKLOAD TRACE SECTION`: run perfbench for one second
# and check its last stdout line: a correct result with 0 failed frames
# that carries every metric BENCHMARK.json lists in SECTION.
perfbench_line() {
    local line names name
    line=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seed 11 --seconds 1 --trace "$2" | tail -n 1)
    echo "$line"
    names=$(bench_names "$3")
    if [ -z "$names" ]; then
        echo "ci.sh: BENCHMARK.json lists no $3 metrics" >&2
        return 1
    fi
    case "$line" in
        '{"correct": true'*'"failed": 0'*) ;;
        *)
            echo "ci.sh: perfbench $1 --trace $2: last line is not a correct run with 0 failed" >&2
            return 1
            ;;
    esac
    for name in $names; do
        case "$line" in
            *"\"$name\": {\"value\""*) ;;
            *)
                echo "ci.sh: perfbench $1 --trace $2: no \"$name\" in its last line" >&2
                return 1
                ;;
        esac
    done
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: cargo doc -D warnings (vendored stubs excluded)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude proptest --exclude rand --exclude criterion

echo "==> no allow(dead_code) in crates/obs or crates/obs-http"
if grep -rn "allow(dead_code)" crates/obs crates/obs-http --include='*.rs'; then
    echo "ci.sh: allow(dead_code) is banned in the obs crates -- delete the code or wire it up" >&2
    exit 1
fi

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> exporter integration: cargo test -q -p cfg-obs-http"
cargo test -q -p cfg-obs-http

echo "==> ring & viewer: EventRing, JSON parser, snapshot model, cfgtag watch loop and poller"
filtered -p cfg-obs ring
filtered -p cfg-obs json
filtered -p cfg-obs snapshot
filtered -p cfg-obs registry
filtered -p cfg-cli watch
filtered -p cfg-cli poll

echo "==> probe layer: cfg-obs probe/trigger, cfg-tagger probes, scope view"
filtered -p cfg-obs probe
filtered -p cfg-obs trigger
filtered -p cfg-tagger probes
filtered -p cfg-cli scope

echo "==> circuit scope round trip: cargo test -q --test circuit_scope"
cargo test -q --test circuit_scope

echo "==> production engine: DFA table and bit step, stream-mode fan-out, engine agreement, random grammars"
filtered -p cfg-tagger bitset
filtered -p cfg-cli serve_sharded
filtered --test properties bitset_equals_scalar_and_gate
filtered -p cfg-grammar random
filtered --test properties random_grammars

echo "==> compile pipeline: tagger compile, regex crate, generator, context duplication, fuzzers"
filtered -p cfg-tagger tagger::
filtered -p cfg-regex
filtered -p cfg-hwgen generate
filtered -p cfg-grammar transform
filtered --test properties grammar_text_mutants
filtered --test properties regex_pattern_mutants

echo "==> ingest server: cfg-server suites, wire-frame fuzzer, Engine trait, chaos test"
cargo test -q -p cfg-server
filtered -p cfg-server --test wire_fuzz wire_mutants
filtered -p cfg-tagger engine
cargo test -q --test chaos_server

echo "==> span tracing & SLO: cfg-obs span/slo/histogram, slo view, end-to-end trace test"
filtered -p cfg-obs span
filtered -p cfg-obs slo
filtered -p cfg-obs histogram
filtered -p cfg-cli slo
cargo test -q --test span_trace

echo "==> saturation telemetry: shard-gate counters, shards view, end-to-end test"
filtered -p cfg-obs shard_gate
filtered -p cfg-cli shards
cargo test -q --test saturation

echo "==> shadow audit: audit bank and evidence window, chunking properties, audit view, end-to-end test"
filtered -p cfg-obs audit
filtered -p cfg-server audit
filtered -p cfg-server chunking
filtered -p cfg-cli audit
cargo test -q --test shadow_audit

echo "==> full workspace tests"
cargo test --workspace -q

echo "==> perfbench result lines: live, dead, served (trace 0) and served (trace 1)"
for workload in live dead served; do
    perfbench_line "$workload" 0 end_to_end
done
perfbench_line served 1 per_layer

echo "==> grammar-text fuzzer, long run (non-gating)"
cargo test -q --release --test properties grammar_text_mutants -- --ignored --nocapture || true

echo "==> regex-pattern fuzzer, long run (non-gating)"
cargo test -q --release --test properties regex_pattern_mutants -- --ignored --nocapture || true

echo "==> wire-frame fuzzer, long run (non-gating)"
cargo test -q --release -p cfg-server --test wire_fuzz -- --ignored --nocapture || true

echo "==> obs overhead bench (non-gating)"
cargo run -q --release -p cfg-bench --bin obs_overhead || true

echo "==> ingest server loop bench (non-gating)"
cargo run -q --release -p cfg-bench --bin server_loop || true

echo "==> false-positive precision experiment (non-gating)"
cargo run -q --release -p cfg-bench --bin false_positives || true

echo "==> ci.sh: all gating steps passed"
