#!/usr/bin/env bash
# A/B comparison of two revisions on one flowbench workload.
#
#   scripts/ab.sh BASE HEAD WORKLOAD PAIRS [SECONDS]
#
# BASE and HEAD are git revisions; `git stash create` names the working
# tree's tracked changes as one. Each revision is exported with
# `git archive` into target/ab/<commit>/src, leaving the working tree and
# .git as they are, and its flowbench is built there --offline with its own
# CARGO_TARGET_DIR (target/ab/<commit>/build), once per commit. Pair i runs
# both revisions with seed i for SECONDS each (default 10, BENCHMARK.json's
# run_seconds), the base first in odd pairs and the head first in even
# ones. TRACE=1 runs them with `--trace 1` (the per-layer metrics) instead
# of `--trace 0`.
#
# Each run's final JSON line is kept in target/ab/runs-<time>/{base,head}.jsonl,
# and `ab_summary` (crates/bench) prints, per metric, both medians, the
# base IQR, the pairs the head won and a verdict: a change needs at least
# 10 pairs, the head ahead in 9 of every 10, and the medians apart by more
# than the base IQR.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: scripts/ab.sh BASE HEAD WORKLOAD PAIRS [SECONDS]" >&2
    exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")
head=$(git rev-parse --verify "$2^{commit}")
workload=$3
pairs=$4
seconds=${5:-10}
trace=${TRACE:-0}
case $pairs in
    '' | *[!0-9]* | 0) echo "ab.sh: PAIRS must be a positive integer" >&2; exit 2 ;;
esac

root=$PWD/target/ab

# Export and build one commit unless an earlier call did; prints the
# directory of its export.
build() {
    local dir=$root/$1
    if [ ! -x "$dir/build/release/flowbench" ]; then
        rm -rf "$dir/src"
        mkdir -p "$dir/src"
        git archive "$1" | tar -x -C "$dir/src"
        CARGO_TARGET_DIR=$dir/build cargo build --release --offline --quiet \
            --manifest-path "$dir/src/flowbench/Cargo.toml" >&2
    fi
    echo "$dir"
}
base_dir=$(build "$base")
head_dir=$(build "$head")

# Build the summariser first, so no build runs between the pairs.
cargo build --release --offline --quiet -p flowtree-bench --bin ab_summary
summary=$PWD/target/release/ab_summary

out=$root/runs-$(date +%Y%m%d-%H%M%S)-$$
mkdir -p "$out"

# One run of the export in $2 with seed $3; appends its result line to
# $out/$1.jsonl. flowbench exits 1 when a check fails and still prints the
# line (with "correct":false); any other failure stops the comparison.
run() {
    local line status=0
    line=$(cd "$2/src" && CARGO_TARGET_DIR=$2/build "$2/build/release/flowbench" \
        --workload "$workload" --seed "$3" --seconds "$seconds" --trace "$trace" | tail -n 1) \
        || status=$?
    case $line in
        '{'*) echo "$line" >>"$out/$1.jsonl" ;;
        *) echo "ab.sh: $1 run with seed $3 printed no result line (exit $status)" >&2; exit 1 ;;
    esac
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then
        run base "$base_dir" "$i"
        run head "$head_dir" "$i"
    else
        run head "$head_dir" "$i"
        run base "$base_dir" "$i"
    fi
done

echo "ab: base ${base:0:12}, head ${head:0:12}, $workload, $pairs pairs of ${seconds} s, --trace $trace; runs in $out"
"$summary" BENCHMARK.json "$out/base.jsonl" "$out/head.jsonl"
