#!/usr/bin/env bash
# Builds the benchmark, runs every workload twice with one seed (untraced,
# then traced), and holds the two result files against the bounds: the
# end-to-end metrics must agree within them, the exact counts exactly.
# Result and trace files land in benchmark/out/.
#
#   benchmark/run.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-18}"
out=benchmark/out
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

for side in a b; do
    "${bench[@]}" run --seed "$seed" --seconds "$seconds" --trace "$out/$side" --out "$out/$side.json"
done
"${bench[@]}" check "$out/a.json" "$out/b.json"
