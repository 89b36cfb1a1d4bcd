#!/usr/bin/env bash
# Tier-1 verification, fully offline: release build, workspace tests, and
# warning-free clippy. Run from the repository root (or let the script cd).
set -euo pipefail
cd "$(dirname "$0")/.."

# A scan never fails open. `found <grep args>..` prints grep's matching
# lines and succeeds whether or not there were any; a grep error (status 2:
# a scanned path that does not exist, an unreadable file, a bad pattern)
# fails it instead of reading as "no match". Use it only as `out=$(found
# ..) || exit 1`, never inside `if` or a pipeline, where a failure is lost.
found() {
    local status=0
    grep "$@" || status=$?
    if [ "$status" -gt 1 ]; then
        echo "error: grep $* exited with status $status" >&2
        return 1
    fi
}

# `forbid <message> <allowed ERE> <grep args>..` fails the script on any
# match of the scan that the allowed ERE (empty for none) does not cover.
forbid() {
    local message=$1 allowed=$2 hits
    shift 2
    hits=$(found "$@") || exit 1
    if [ -n "$allowed" ]; then
        hits=$(found -vE "$allowed" <<<"$hits") || exit 1
    fi
    if [ -n "$hits" ]; then
        printf '%s\n' "$hits"
        echo "error: $message" >&2
        exit 1
    fi
}

# Scratch directories come from parx::scratch (unique per call, removed on
# drop); a hand-rolled temp_dir() path is how two tests end up sharing one.
echo "==> no temp_dir() outside parx::scratch"
forbid "use parx::scratch(tag) instead of std::env::temp_dir()" '^crates/parx/src/scratch\.rs:' \
    -rn --include='*.rs' 'temp_dir()' crates src tests examples

# Task queues and reply channels are std's (parx::WorkerPool, std::sync::mpsc);
# vendor/crossbeam is left only for benchmark/'s patch table.
echo "==> no crossbeam in crates src tests examples"
forbid "the workspace does not depend on crossbeam; use std::sync::mpsc or parx" '' \
    -rn --include='*.rs' --include='Cargo.toml' 'crossbeam' crates src tests examples

# Locks and condvars are std's, with one stated poison policy (DESIGN §7);
# vendor/parking_lot is left only for benchmark/'s patch table.
echo "==> no parking_lot in crates src tests examples or the root manifest"
message="the workspace does not depend on parking_lot; use std::sync"
forbid "$message" '' -rn --include='*.rs' --include='Cargo.toml' 'parking_lot' crates src tests examples
forbid "$message" '' -n 'parking_lot' Cargo.toml

# benchmark/ (BENCHMARK.json) is the one benchmark harness: no suite-level
# results emitter, results index or second regression gate beside it.
echo "==> no second benchmark harness in crates src tests examples scripts .github or the root manifest"
pattern='candle-bench|bench_json|BENCH_INDEX|perfmodel_check|bench::emit'
message="benchmark/ (BENCHMARK.json) is the one harness; add a workload or a per-layer metric there"
forbid "$message" '^scripts/verify\.sh:' \
    -rnE --include='*.rs' --include='Cargo.toml' --include='*.sh' --include='*.yml' \
    "$pattern" crates src tests examples scripts .github
forbid "$message" '' -nE "$pattern" Cargo.toml

# unsafe lives only where safe code has no operation for it. Disjoint writes
# from several threads go through slice splits (chunks_mut, split_at_mut)
# and parx::parallel_each, never a hand-rolled Sync pointer.
#   crates/tensor/src/gemm.rs       AVX2 intrinsics and unchecked loads in the
#                                   GEMM micro-kernels, a measured gain
#   crates/parx/src/alloc_count.rs  GlobalAlloc is an unsafe trait
echo "==> no unsafe outside the allow-list"
forbid "unsafe outside the allow-list in scripts/verify.sh" \
    '^crates/(tensor/src/gemm|parx/src/alloc_count)\.rs:' \
    -rnE --include='*.rs' 'unsafe *(\{|impl|fn)' crates src tests examples

# parx::parallel_each is the one fork–join; there is no event engine (the
# cluster model is analytic and power traces are sorted breakpoints).
echo "==> no second fork–join or event engine in crates src tests examples"
forbid "fork with parx::parallel_each (over chunks_mut or chunk_ranges); the cluster model needs no event engine" '' \
    -rnE --include='*.rs' 'parallel_for|parallel_map|parallel_reduce|FifoResource|EventQueue|RawRows' \
    crates src tests examples

# Measurement types live in obs; simulated time is plain f64 seconds inside
# cluster::power.
echo "==> no simcore or SimTime in crates src tests examples scripts .github or the root manifest"
message="histograms, Timeline and PhaseProfiler are in obs; power traces take f64 seconds"
forbid "$message" '^scripts/verify\.sh:' \
    -rnE --include='*.rs' --include='*.toml' --include='*.sh' --include='*.yml' \
    'simcore|SimTime' crates src tests examples scripts .github
forbid "$message" '' -nE 'simcore|SimTime' Cargo.toml

# The names a manifest's [<section>] declares (one per line). A missing
# manifest is an error, not an empty section.
declared() {
    if [ ! -f "$1" ]; then
        echo "error: no manifest $1" >&2
        return 1
    fi
    sed -n "/^\[$2\]/,/^\[/{/^\[/d;s/^\([A-Za-z0-9_-]*\) *[.=].*/\1/p}" "$1"
    sed -n "s/^\[$2\.\([A-Za-z0-9_-]*\)\]/\1/p" "$1"
}

# obs is the leaf every layer records through: it links nothing.
echo "==> crates/obs declares no [dependencies]"
obs_deps=$(declared crates/obs/Cargo.toml dependencies) || exit 1
if [ -n "$obs_deps" ]; then
    printf '%s\n' "$obs_deps"
    echo "error: obs is std-only; record through it instead of giving it dependencies" >&2
    exit 1
fi

# A dependency edge nothing uses links a crate's whole tree for nothing. Doc
# comments do not count as a use. `unused_entries <manifest> <section> <dir>..`
# reports each entry of the section that no .rs under the dirs names.
unused=0
unused_entries() {
    local manifest=$1 section=$2 deps uses
    shift 2
    deps=$(declared "$manifest" "$section") || exit 1
    for dep in $deps; do
        name=${dep//-/_}
        uses=$(found -rhE --include='*.rs' "(^|[^A-Za-z0-9_])$name::|use $name\b" "$@") || exit 1
        uses=$(found -vE '^[[:space:]]*//' <<<"$uses") || exit 1
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
forbid "layers keep no activations; Layer::backward is handed input and output" '' \
    -rnE '_cache: *Option<Tensor>' crates/dlframe/src/layers

# Training takes epochs, batch size, shuffle and the accuracy flag; SGD has
# no momentum, no optimizer decays weights, and the disk cache has no budget
# (DESIGN §5h). One comes back only with a product path that sets it.
echo "==> no deleted training, optimizer or disk-budget option in crates src tests examples"
forbid "an option needs a product path, paper table or benchmark workload that sets it" '' \
    -rnE --include='*.rs' \
    'LrSchedule|fit_scheduled|validation_split|early_stop_patience|sgd_momentum|with_weight_decay|with_budget|disk_budget_bytes|disk_evictions' \
    crates src tests examples

# Serving is one engine, driven closed-loop by the paper tables and
# open-loop by benchmark/; the fleet is simulated only (DESIGN §5j). The
# live fleet, serve's open-loop driver and request deadlines had no caller
# outside their own tests and come back only with one.
echo "==> no deleted live-fleet, open-loop or deadline API in crates src tests examples"
forbid "a serving entry point needs a product path, paper table or benchmark workload that runs it" '' \
    -rnE --include='*.rs' \
    'run_serve_fleet|RealFleetConfig|RealFleetReport|FleetError|run_open_loop|OpenLoopConfig|submit_with_deadline|DeadlineExceeded|deadline_expired' \
    crates src tests examples

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
