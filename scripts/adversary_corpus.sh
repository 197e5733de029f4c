#!/usr/bin/env bash
# Regenerate the committed adversarial-instance report corpus under
# results/store/, or under the directory given as the first argument. The
# Section-4 adversary drives FIFO's competitive ratio toward
# Θ(log m / log log m); persisting its certified summaries in the results
# store makes ratio regressions on hard instances visible in review via
# `flowtree-repro report --trend results/store`. CI runs it into a temp
# directory and compares against the committed files.
#
#   scripts/adversary_corpus.sh [OUT_DIR]   # a relative OUT_DIR is from the repo root
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-results/store}

run() { cargo run --release -q -p flowtree-cli -- "$@"; }

mkdir -p "$out"
rm -f "$out"/adversary-*.jsonl
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for m in 8 16; do
    inst="$tmp/adversary-m$m.json"
    run gen adversary -m "$m" --jobs 32 --seed 42 -o "$inst"
    for sched in fifo lpf guess-double; do
        run report adversary --instance "$inst" --scheduler "$sched" -m "$m" \
            --seed 42 --store "$out" >/dev/null
    done
done

run report --trend "$out"
