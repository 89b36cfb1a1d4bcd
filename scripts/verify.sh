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

# Activations belong to the model's chain (DESIGN §5f): a layer that grows a
# cache field again is copying its input or output every step.
echo "==> no _cache: Option<Tensor> field under crates/dlframe/src/layers"
if grep -rnE '_cache: *Option<Tensor>' crates/dlframe/src/layers; then
    echo "error: layers keep no activations; Layer::backward is handed input and output" >&2
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline

# --no-fail-fast: one red test binary must not hide the ones after it.
echo "==> cargo test -q --offline --workspace --no-fail-fast"
cargo test -q --offline --workspace --no-fail-fast

# --all-targets: test code is linted too.
echo "==> cargo clippy --workspace --all-targets --no-deps --offline -- -D warnings"
cargo clippy --workspace --all-targets --no-deps --offline -- -D warnings

echo "==> verify OK"
