#!/usr/bin/env bash
# Benchmark trajectory: builds the release CLI and writes the committed
# baselines at the repo root (diff them across PRs):
#   BENCH_engine.json  engine matrix (workload x scheduler single-run cells)
#   BENCH_serve.json   serve matrix  (fixed-seed replay through real ShardPools)
#   BENCH_gateway.json gateway matrix (loopback replay: clients x batch x codec x window)
# Extra flags are passed through to `flowtree-repro bench` (e.g. --reps N).
# --quick is refused: a quick run may not overwrite a committed baseline;
# run `flowtree-repro bench --quick -o FILE` for a smoke instead.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -p flowtree-cli"
cargo build --release -p flowtree-cli

for m in engine serve gateway; do
    flag=$([ "$m" = engine ] || echo "--$m")
    echo "==> flowtree-repro bench $flag $* -o BENCH_$m.json"
    target/release/flowtree-repro bench $flag "$@" -o "BENCH_$m.json"
done
