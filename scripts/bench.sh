#!/usr/bin/env bash
# Machine-readable benchmark pass, fully offline: one `bench_json` run
# writes the six BENCH_<SUITE>.json documents and BENCH_INDEX.json at the
# repo root (see README "Benchmarks"), then the perf-regression gate fits
# scaling laws over the index and writes BENCH_PERFMODEL.json.
# The gate runs --warn-only here: shared CI runners jitter too much to
# fail the build on. On dedicated hardware, drop the flag:
#   cargo run --release --offline -p perfmodel --bin perfmodel_check -- \
#     --index BENCH_INDEX.json --out BENCH_PERFMODEL.json
# End-to-end wall-clock regression is a different job: see BENCHMARK.json.
#
# Usage: scripts/bench.sh [quick|full]
#   quick (default) — shrunken shapes, finishes in a couple of minutes
#   full            — paper-scale shapes (P1B1 512x960x1024, NT3 conv)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-quick}"
QUICK_FLAG=""
if [ "$MODE" = "quick" ]; then
    QUICK_FLAG="--quick"
fi

echo "==> bench_json (${MODE}) -> BENCH_*.json"
cargo run --release --offline -p candle-bench --bin bench_json -- ${QUICK_FLAG:+$QUICK_FLAG}

echo "==> perf-regression gate (warn-only) -> BENCH_PERFMODEL.json"
cargo run --release --offline -p perfmodel --bin perfmodel_check -- \
    --index BENCH_INDEX.json --out BENCH_PERFMODEL.json --warn-only

echo "==> bench OK"
