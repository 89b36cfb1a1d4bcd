#!/usr/bin/env bash
# Tier-1 verification, fully offline: release build, workspace tests, and
# warning-free clippy. Run from the repository root (or let the script cd).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

# --no-fail-fast: one red test binary must not hide the ones after it.
echo "==> cargo test -q --offline --workspace --no-fail-fast"
cargo test -q --offline --workspace --no-fail-fast

echo "==> cargo clippy --workspace --no-deps --offline -- -D warnings"
cargo clippy --workspace --no-deps --offline -- -D warnings

echo "==> verify OK"
