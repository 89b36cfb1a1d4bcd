#!/usr/bin/env bash
# Runs the suite's timed passes twice (or `--repeat N` sets of `--runs M`
# seeds) and prints, per metric x workload, the set medians, their spread,
# the relative difference and the bound; exits non-zero if any bound is
# exceeded. Extra arguments go to the benchmark, e.g. `--runs 10 --seed 1`.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --repeat 2 "$@"
