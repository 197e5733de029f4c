#!/usr/bin/env bash
# Local CI: formatting, lints, release build, tests. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (every rustdoc warning fails the build)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q (default-members: the whole workspace)"
cargo test -q

echo "==> dag + sim + core + opt + serve + analysis + gateway + workloads tests in release (graph build, step validation, the exact searcher's parent masks, the serve suites, the E2/E7 plan checks, the wire proptests, the decoder mutation loop, the generator pins and the workload proptests hold without debug assertions)"
cargo test --release -q -p flowtree-dag -p flowtree-sim -p flowtree-core -p flowtree-opt -p flowtree-serve -p flowtree-analysis -p flowtree-gateway -p flowtree-workloads

echo "==> examples (each must run to completion; output discarded)"
# Every file under examples/, so a new example cannot be skipped.
for src in examples/*.rs; do
    ex=$(basename "$src" .rs)
    cargo run --release -q --example "$ex" >/dev/null
done

echo "==> committed results/ reproduce (full report and every CSV, byte for byte)"
# Regenerate with the command in results/README.md and compare: the
# committed artifacts cannot drift from what the code prints.
RES_DIR=$(mktemp -d)
cargo run --release -q -p flowtree-cli -- --full --csv "$RES_DIR/csv" all \
    > "$RES_DIR/experiments_full.md" 2>/dev/null
diff -u results/experiments_full.md "$RES_DIR/experiments_full.md" \
    || { echo "results: experiments_full.md differs; regenerate it"; exit 1; }
diff -r results/csv "$RES_DIR/csv" \
    || { echo "results: csv/ differs; regenerate it"; exit 1; }
rm -rf "$RES_DIR"

echo "==> flowbench tests (the benchmark package builds against the current API)"
cargo test --offline -q --manifest-path flowbench/Cargo.toml

echo "==> flowbench engine-batch smoke (verify, invariants, determinism; no number gated)"
# Exits 1 when any correctness check of the run fails; the metrics it
# prints are not compared against anything here.
cargo run --release --quiet --offline --manifest-path flowbench/Cargo.toml -- \
    --workload engine-batch --seed 1 --seconds 1 --trace 0 >/dev/null

echo "==> flowbench serve-flood smoke (verify, ledger, determinism; no number gated)"
# The serve path's correctness checks on the graphs it decodes and
# retains; only the exit status counts.
cargo run --release --quiet --offline --manifest-path flowbench/Cargo.toml -- \
    --workload serve-flood --seed 1 --seconds 1 --trace 0 >/dev/null

echo "==> flowbench gateway-open traced smoke (checks + every per-layer metric finite; no number gated)"
# Runs the real gateway with tracing on: exits 1 if a correctness check
# fails or a declared per-layer metric is missing or non-finite. This is
# the contract a rewrite of the gateway's event loop has to keep.
cargo run --release --quiet --offline --manifest-path flowbench/Cargo.toml -- \
    --workload gateway-open --seed 1 --seconds 1 --trace 1 >/dev/null

echo "==> bench regression gates (--quick --check vs each committed baseline)"
# The serve gate also holds every +telemetry cell to its plain twin. A gate
# reads the committed baselines and must leave them byte for byte as it
# found them.
BENCH_SUMS=$(sha256sum BENCH_*.json)
for m in engine serve gateway; do
    flag=$([ "$m" = engine ] || echo "--$m")
    cargo run --release -p flowtree-cli -- bench $flag --quick --check "BENCH_$m.json" \
        -o "/tmp/flowtree_${m}_bench_smoke.json" >/dev/null
    rm -f "/tmp/flowtree_${m}_bench_smoke.json"
done
[ "$(sha256sum BENCH_*.json)" = "$BENCH_SUMS" ] \
    || { echo "bench gates: a committed BENCH_*.json changed"; exit 1; }

echo "==> full serve matrix (verified schedules and work conservation on every cell, no gate)"
# Every ingest path (per-event, drop, redirect, steal) runs here; each
# cell's untimed run verifies every shard's schedule and, unless the cell
# may shed jobs, requires dispatched == total work.
cargo run --release -p flowtree-cli -- bench --serve -o /tmp/flowtree_serve_full.json >/dev/null
rm -f /tmp/flowtree_serve_full.json

echo "==> serve smoke (2 shards, fixed seed, bounded horizon, clean drain)"
SMOKE_STORE=$(mktemp -d)
cargo run --release -q -p flowtree-cli -- serve service --shards 2 --rate 1.0 \
    --scheduler fifo -m 4 --jobs 24 --seed 7 --horizon 100000 \
    --store "$SMOKE_STORE" >/dev/null
# The drained store records must parse back into a trend table.
cargo run --release -q -p flowtree-cli -- report --trend "$SMOKE_STORE" >/dev/null
rm -rf "$SMOKE_STORE"

echo "==> serve control-plane smoke (hot-swap + stealing, balanced ledger)"
SWAP_STORE=$(mktemp -d)
SWAP_OUT=$(cargo run --release -q -p flowtree-cli -- serve service --shards 2 \
    --rate 2.0 --scheduler fifo -m 4 --jobs 48 --seed 11 --horizon 100000 \
    --queue-cap 2 --swap-at 5:lpf --steal --steal-watermarks 0:2 \
    --store "$SWAP_STORE")
# The drain table must show the applied swap on every shard, and the ingest
# ledger must account for every offered job.
echo "$SWAP_OUT" | grep -q 'fifo→lpf@' \
    || { echo "serve smoke: missing swap event in drain table"; exit 1; }
echo "$SWAP_OUT" | grep -q 'ingest: .*(balanced)' \
    || { echo "serve smoke: ingest ledger did not balance"; exit 1; }
# Swap-bearing records must parse back through the trend tables.
cargo run --release -q -p flowtree-cli -- report --trend "$SWAP_STORE" \
    | grep -q '(m = 4, 2 record(s))' \
    || { echo "serve smoke: trend table missing"; exit 1; }
rm -rf "$SWAP_STORE"

echo "==> telemetry smoke (mid-run scrape --check + flight recorder round-trip)"
TEL_STORE=$(mktemp -d)
TEL_ADDR=127.0.0.1:19187
cargo run --release -q -p flowtree-cli -- serve service --shards 2 --rate 2.0 \
    --scheduler fifo -m 4 --jobs 100000 --seed 7 --horizon 1000000000 \
    --swap-at 5:lpf --metrics-addr "$TEL_ADDR" --store "$TEL_STORE" \
    >/dev/null 2>&1 &
TEL_PID=$!
# Poll the live endpoint until one *consistent* scrape lands mid-run:
# `metrics --check` asserts the ingest ledger balances
# (delivered + dropped + staged == offered, stolen_in == stolen_out) and
# that latency summaries are populated. Early refused connections and
# not-yet-populated summaries simply retry.
SCRAPED=0
for _ in $(seq 1 100); do
    if cargo run --release -q -p flowtree-cli -- metrics "$TEL_ADDR" --check \
        >/dev/null 2>&1; then
        SCRAPED=1
        break
    fi
    kill -0 "$TEL_PID" 2>/dev/null || break
    sleep 0.05
done
wait "$TEL_PID" || { echo "telemetry smoke: serve run failed"; exit 1; }
[ "$SCRAPED" = 1 ] \
    || { echo "telemetry smoke: no consistent mid-run scrape"; exit 1; }
# The drain dumped the flight recorder beside the store; it must render
# back through the report pipeline with a by-kind tally.
cargo run --release -q -p flowtree-cli -- report --flight "$TEL_STORE" \
    | grep -q 'by kind' \
    || { echo "telemetry smoke: flight recorder did not round-trip"; exit 1; }
rm -rf "$TEL_STORE"

echo "==> gateway smoke (remote replay == in-process serve, byte for byte)"
GW_STORE=$(mktemp -d)
GW_ADDR=127.0.0.1:19201
GW_TRACE=$(mktemp /tmp/flowtree_gw_trace.XXXXXX.json)
# One fixed-seed instance replayed twice: once through in-process serve,
# once over the wire through gateway+submit. The drained store records
# must be byte-for-byte identical — the network edge is transparent.
cargo run --release -q -p flowtree-cli -- gen service --jobs 24 --seed 7 \
    -o "$GW_TRACE" >/dev/null
cargo run --release -q -p flowtree-cli -- serve service --shards 2 --rate 1.0 \
    --scheduler fifo -m 4 --replay "$GW_TRACE" --horizon 100000 \
    --store "$GW_STORE/twin" --run-id smoke >/dev/null
cargo run --release -q -p flowtree-cli -- gateway service --addr "$GW_ADDR" \
    --shards 2 --scheduler fifo -m 4 --store "$GW_STORE/wire" --run-id smoke \
    >/dev/null 2>&1 &
GW_PID=$!
SUBMITTED=0
for _ in $(seq 1 100); do
    if cargo run --release -q -p flowtree-cli -- submit service \
        --addr "$GW_ADDR" --replay "$GW_TRACE" --batch 5 --drain \
        >/dev/null 2>&1; then
        SUBMITTED=1
        break
    fi
    kill -0 "$GW_PID" 2>/dev/null || break
    sleep 0.05
done
wait "$GW_PID" || { echo "gateway smoke: gateway run failed"; exit 1; }
[ "$SUBMITTED" = 1 ] || { echo "gateway smoke: submit never connected"; exit 1; }
cmp -s "$GW_STORE/twin/smoke.jsonl" "$GW_STORE/wire/smoke.jsonl" \
    || { echo "gateway smoke: store records differ from in-process serve"; exit 1; }
# The gateway's flight dump must show the network edge.
cargo run --release -q -p flowtree-cli -- report --flight "$GW_STORE/wire" \
    | grep -q 'conn-open' \
    || { echo "gateway smoke: no conn-open flight event"; exit 1; }
rm -rf "$GW_STORE" "$GW_TRACE"

echo "==> mixed-codec gateway smoke (json + binary clients split one replay, byte for byte)"
MX_STORE=$(mktemp -d)
MX_ADDR=127.0.0.1:19203
MX_TRACE=$(mktemp /tmp/flowtree_mx_trace.XXXXXX.json)
# One fixed-seed trace split across two clients on different codecs: a
# JSON client submits the first half, then a binary pipelined client the
# second. Arrival order matches the in-process twin, so the drained store
# must again be byte-for-byte identical.
cargo run --release -q -p flowtree-cli -- gen service --jobs 24 --seed 9 \
    -o "$MX_TRACE" >/dev/null
cargo run --release -q -p flowtree-cli -- serve service --shards 2 --rate 1.0 \
    --scheduler fifo -m 4 --replay "$MX_TRACE" --horizon 100000 \
    --store "$MX_STORE/twin" --run-id smoke >/dev/null
cargo run --release -q -p flowtree-cli -- gateway service --addr "$MX_ADDR" \
    --shards 2 --scheduler fifo -m 4 --store "$MX_STORE/wire" --run-id smoke \
    >/dev/null 2>&1 &
MX_PID=$!
MX_FIRST=0
for _ in $(seq 1 100); do
    if cargo run --release -q -p flowtree-cli -- submit service \
        --addr "$MX_ADDR" --replay "$MX_TRACE" --batch 5 --codec json \
        --take 12 >/dev/null 2>&1; then
        MX_FIRST=1
        break
    fi
    kill -0 "$MX_PID" 2>/dev/null || break
    sleep 0.05
done
[ "$MX_FIRST" = 1 ] || { echo "mixed-codec smoke: json client never connected"; exit 1; }
cargo run --release -q -p flowtree-cli -- submit service --addr "$MX_ADDR" \
    --replay "$MX_TRACE" --batch 5 --codec bin --window 8 --skip 12 --drain \
    >/dev/null \
    || { echo "mixed-codec smoke: binary client failed"; exit 1; }
wait "$MX_PID" || { echo "mixed-codec smoke: gateway run failed"; exit 1; }
cmp -s "$MX_STORE/twin/smoke.jsonl" "$MX_STORE/wire/smoke.jsonl" \
    || { echo "mixed-codec smoke: store records differ from in-process serve"; exit 1; }
rm -rf "$MX_STORE" "$MX_TRACE"

echo "==> instance workbench (gen -> report --instance --dump -> verify; one name resolver; trace)"
# The independent Section 3 checker must accept the dumped schedule and
# agree on the max flow report printed; and report's own resolution of a
# gen family must equal running on the instance gen wrote, byte for byte.
WB_DIR=$(mktemp -d)
cargo run --release -q -p flowtree-cli -- gen adversary -m 8 --jobs 16 \
    -o "$WB_DIR/inst.json" 2>/dev/null
WB_FLOW=$(cargo run --release -q -p flowtree-cli -- report adversary \
    --instance "$WB_DIR/inst.json" --scheduler guess-double -m 8 \
    --dump "$WB_DIR/sched.json" 2>/dev/null | sed -n 's/^| max flow | \([0-9]*\) |$/\1/p')
[ -n "$WB_FLOW" ] || { echo "workbench: report printed no max flow"; exit 1; }
WB_VERDICT=$(cargo run --release -q -p flowtree-cli -- verify "$WB_DIR/inst.json" \
    "$WB_DIR/sched.json")
case "$WB_VERDICT" in
    "feasible: "*", max flow $WB_FLOW, "*) ;;
    *) echo "workbench: verify says '$WB_VERDICT', report said max flow $WB_FLOW"; exit 1 ;;
esac
cmp -s <(cargo run --release -q -p flowtree-cli -- report adversary -m 8 --jobs 16 \
        --format json) \
    <(cargo run --release -q -p flowtree-cli -- report adversary \
        --instance "$WB_DIR/inst.json" -m 8 --format json) \
    || { echo "workbench: report adversary differs from report --instance of gen's file"; exit 1; }
# The trace verb: a fixed seed prints the same bytes twice, ending in a
# finish record whose horizon is report's `steps (horizon)` cell.
TRACE_RUN=(service --scheduler lpf -m 4 --jobs 8 --seed 7)
for out in a b; do
    cargo run --release -q -p flowtree-cli -- trace "${TRACE_RUN[@]}" > "$WB_DIR/$out.jsonl"
done
cmp -s "$WB_DIR/a.jsonl" "$WB_DIR/b.jsonl" \
    || { echo "trace smoke: two runs with one seed differ"; exit 1; }
WB_HORIZON=$(cargo run --release -q -p flowtree-cli -- report "${TRACE_RUN[@]}" \
    | grep -o '^| steps (horizon) | [0-9]* |$' | grep -o '[0-9][0-9]*') \
    || { echo "trace smoke: report printed no horizon"; exit 1; }
for out in a b; do
    [ "$(tail -n 1 "$WB_DIR/$out.jsonl")" = "{\"ev\":\"finish\",\"horizon\":$WB_HORIZON}" ] \
        || { echo "trace smoke: $out.jsonl does not finish at report's horizon $WB_HORIZON"; exit 1; }
done
rm -rf "$WB_DIR"

echo "==> out-of-range options exit 1 with a message, never a panic"
# Exit codes are read unpiped: status exactly 1 (an error), not 101 (a
# panic), with a non-empty stderr that names no panic.
BAD_ERR=$(mktemp)
while read -r -a BAD; do
    status=0
    cargo run --release -q -p flowtree-cli -- "${BAD[@]}" </dev/null >/dev/null 2>"$BAD_ERR" \
        || status=$?
    [ "$status" = 1 ] || { echo "bad input '${BAD[*]}': exit $status, want 1"; exit 1; }
    [ -s "$BAD_ERR" ] || { echo "bad input '${BAD[*]}': no error message"; exit 1; }
    if grep -q panicked "$BAD_ERR"; then
        echo "bad input '${BAD[*]}' panicked:"; cat "$BAD_ERR"; exit 1
    fi
done <<'BAD_INPUTS'
report service -m 0
trace service -m 0
gen service --jobs 0
report service --jobs 0
serve service --rate 0
serve service --rate nan
submit service --addr 127.0.0.1:9 --rate -1
report service --scheduler algo-a -m 7
trace service --scheduler guess-double -m 6
serve service --scheduler algo-a -m 6
serve service -m 6 --swap-at 5:algo-a
BAD_INPUTS
rm -f "$BAD_ERR"

echo "==> committed adversary corpus reproduces (results/store, git describe and empty swaps masked)"
# Regenerate the corpus into a temp directory: the same six files, each
# line equal to its committed twin once the producing revision and the
# `swaps` key (absent from the older committed lines) are masked out.
CORPUS_DIR=$(mktemp -d)
./scripts/adversary_corpus.sh "$CORPUS_DIR" >/dev/null
[ "$(cd "$CORPUS_DIR" && ls)" = "$(cd results/store && ls)" ] \
    || { echo "adversary corpus: file names differ from results/store"; exit 1; }
corpus_mask() { sed -E 's/"git":"[^"]*",//; s/,"swaps":\[\]//' "$1"; }
for f in results/store/*.jsonl; do
    diff -u <(corpus_mask "$f") <(corpus_mask "$CORPUS_DIR/$(basename "$f")") \
        || { echo "adversary corpus: $f does not reproduce"; exit 1; }
done
rm -rf "$CORPUS_DIR"

echo "==> report --trend over the committed store corpus"
cargo run --release -q -p flowtree-cli -- report --trend results/store >/dev/null

echo "==> ab.sh self-test (one revision against itself: no verdict of change)"
# Exports, builds and runs HEAD twice per pair through the whole A/B
# pipeline; two pairs are below the rule's minimum, so any verdict of
# change here is a fault in the script or the summary.
AB_OUT=$(./scripts/ab.sh HEAD HEAD engine-batch 2 1)
echo "$AB_OUT" | grep -q '^peak_rss_mb ' || { echo "ab.sh: no peak_rss_mb row"; exit 1; }
if echo "$AB_OUT" | grep -qE ' (better|worse)$'; then
    echo "ab.sh HEAD HEAD gave a verdict of change:"; echo "$AB_OUT"; exit 1
fi

echo "CI OK"
