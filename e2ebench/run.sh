#!/usr/bin/env bash
# Builds the benchmark and the cwc-workerd daemon it launches, then runs it.
#
#   bash e2ebench/run.sh --workload neurospora_ssa --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Both builds share CARGO_TARGET_DIR
# (default .bench_build), so the daemon lands next to the benchmark binary.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin cwc-workerd >&2
cargo build --release --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" "$@"
