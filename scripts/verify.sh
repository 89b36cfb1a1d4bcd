#!/usr/bin/env bash
# Tier-1 verification, fully offline: release build, workspace tests, and
# warning-free clippy. Run from the repository root (or let the script cd).
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch directories come from parx::scratch (unique per call, removed on
# drop); a hand-rolled temp_dir() path is how two tests end up sharing one.
echo "==> no temp_dir() outside parx::scratch"
if grep -rn --include='*.rs' 'temp_dir()' crates src tests examples |
    grep -v '^crates/parx/src/scratch.rs:'; then
    echo "error: use parx::scratch(tag) instead of std::env::temp_dir()" >&2
    exit 1
fi

# Task queues and reply channels are std's (parx::WorkerPool, std::sync::mpsc);
# vendor/crossbeam is left only for benchmark/'s patch table.
echo "==> no crossbeam in crates src tests examples"
if grep -rn --include='*.rs' --include='Cargo.toml' 'crossbeam' crates src tests examples; then
    echo "error: the workspace does not depend on crossbeam; use std::sync::mpsc or parx" >&2
    exit 1
fi

# Locks and condvars are std's, with one stated poison policy (DESIGN §7);
# vendor/parking_lot is left only for benchmark/'s patch table.
echo "==> no parking_lot in crates src tests examples or the root manifest"
if grep -rn --include='*.rs' --include='Cargo.toml' 'parking_lot' crates src tests examples ||
    grep -n 'parking_lot' Cargo.toml; then
    echo "error: the workspace does not depend on parking_lot; use std::sync" >&2
    exit 1
fi

# benchmark/ (BENCHMARK.json) is the one benchmark harness: no suite-level
# results emitter, results index or second regression gate beside it.
echo "==> no second benchmark harness in crates src tests examples scripts .github or the root manifest"
if grep -rnE --include='*.rs' --include='Cargo.toml' --include='*.sh' --include='*.yml' \
    'candle-bench|bench_json|BENCH_INDEX|perfmodel_check|bench::emit' \
    crates src tests examples scripts .github | grep -v '^scripts/verify\.sh:' ||
    grep -nE 'candle-bench|bench_json|BENCH_INDEX|perfmodel_check|bench::emit' Cargo.toml; then
    echo "error: benchmark/ (BENCHMARK.json) is the one harness; add a workload or a per-layer metric there" >&2
    exit 1
fi

# unsafe lives only where safe code has no operation for it. Disjoint writes
# from several threads go through slice splits (chunks_mut, split_at_mut)
# and parx::parallel_each, never a hand-rolled Sync pointer.
#   crates/tensor/src/gemm.rs       AVX2 intrinsics and unchecked loads in the
#                                   GEMM micro-kernels, a measured gain
#   crates/parx/src/alloc_count.rs  GlobalAlloc is an unsafe trait
echo "==> no unsafe outside the allow-list"
if grep -rnE --include='*.rs' 'unsafe *(\{|impl|fn)' crates src tests examples |
    grep -vE '^crates/(tensor/src/gemm|parx/src/alloc_count)\.rs:'; then
    echo "error: unsafe outside the allow-list in scripts/verify.sh" >&2
    exit 1
fi

# parx::parallel_each is the one fork–join; there is no event engine (the
# cluster model is analytic and power traces are sorted breakpoints).
echo "==> no second fork–join or event engine in crates src tests examples"
if grep -rnE --include='*.rs' 'parallel_for|parallel_map|parallel_reduce|FifoResource|EventQueue|RawRows' \
    crates src tests examples; then
    echo "error: fork with parx::parallel_each (over chunks_mut or chunk_ranges); the cluster model needs no event engine" >&2
    exit 1
fi

# Measurement types live in obs; simulated time is plain f64 seconds inside
# cluster::power.
echo "==> no simcore or SimTime in crates src tests examples scripts .github or the root manifest"
if grep -rnE --include='*.rs' --include='*.toml' --include='*.sh' --include='*.yml' \
    'simcore|SimTime' crates src tests examples scripts .github | grep -v '^scripts/verify\.sh:' ||
    grep -nE 'simcore|SimTime' Cargo.toml; then
    echo "error: histograms, Timeline and PhaseProfiler are in obs; power traces take f64 seconds" >&2
    exit 1
fi

# The names a manifest's [<section>] declares (one per line).
declared() {
    sed -n "/^\[$2\]/,/^\[/{/^\[/d;s/^\([A-Za-z0-9_-]*\) *[.=].*/\1/p}" "$1"
    sed -n "s/^\[$2\.\([A-Za-z0-9_-]*\)\]/\1/p" "$1"
}

# obs is the leaf every layer records through: it links nothing.
echo "==> crates/obs declares no [dependencies]"
if declared crates/obs/Cargo.toml dependencies | grep .; then
    echo "error: obs is std-only; record through it instead of giving it dependencies" >&2
    exit 1
fi

# A dependency edge nothing uses links a crate's whole tree for nothing. Doc
# comments do not count as a use. `unused_entries <manifest> <section> <dir>..`
# reports each entry of the section that no .rs under the dirs names.
unused=0
unused_entries() {
    local manifest=$1 section=$2
    shift 2
    for dep in $(declared "$manifest" "$section"); do
        name=${dep//-/_}
        uses=$(grep -rhE --include='*.rs' "(^|[^A-Za-z0-9_])$name::|use $name\b" "$@" |
            grep -vE '^[[:space:]]*//' || true)
        if [ -z "$uses" ]; then
            echo "$manifest: [$section] '$dep' is never named in $*" >&2
            unused=1
        fi
    done
}
echo "==> every crates/*/Cargo.toml [dependencies] entry is named in src/, every [dev-dependencies] entry in src tests benches examples"
for manifest in crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    unused_entries "$manifest" dependencies "$dir/src"
    dev_dirs=()
    for sub in src tests benches examples; do
        if [ -d "$dir/$sub" ]; then dev_dirs+=("$dir/$sub"); fi
    done
    unused_entries "$manifest" dev-dependencies "${dev_dirs[@]}"
done
if [ "$unused" -ne 0 ]; then
    echo "error: drop the unused entries above (or move a [dependencies] one to [dev-dependencies])" >&2
    exit 1
fi

# Activations belong to the model's chain (DESIGN §5f): a layer that grows a
# cache field again is copying its input or output every step.
echo "==> no _cache: Option<Tensor> field under crates/dlframe/src/layers"
if grep -rnE '_cache: *Option<Tensor>' crates/dlframe/src/layers; then
    echo "error: layers keep no activations; Layer::backward is handed input and output" >&2
    exit 1
fi

# Training takes epochs, batch size, shuffle and the accuracy flag; SGD has
# no momentum, no optimizer decays weights, and the disk cache has no budget
# (DESIGN §5h). One comes back only with a product path that sets it.
echo "==> no deleted training, optimizer or disk-budget option in crates src tests examples"
if grep -rnE --include='*.rs' \
    'LrSchedule|fit_scheduled|validation_split|early_stop_patience|sgd_momentum|with_weight_decay|with_budget|disk_budget_bytes|disk_evictions' \
    crates src tests examples; then
    echo "error: an option needs a product path, paper table or benchmark workload that sets it" >&2
    exit 1
fi

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release --offline"
cargo build --release --offline

# --no-fail-fast: one red test binary must not hide the ones after it.
echo "==> cargo test -q --offline --workspace --no-fail-fast"
cargo test -q --offline --workspace --no-fail-fast

# --all-targets: test code is linted too.
echo "==> cargo clippy --workspace --all-targets --no-deps --offline -- -D warnings"
cargo clippy --workspace --all-targets --no-deps --offline -- -D warnings

echo "==> verify OK"
