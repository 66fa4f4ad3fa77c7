#!/usr/bin/env bash
# Builds the `pops` daemon and the benchmark program from source, then runs
# one benchmark invocation. Run from the repository root:
#
#   bash popsbench/run.sh --daemon "FLAGS" --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).

set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR"
target="$(cd "$CARGO_TARGET_DIR" && pwd)"
export CARGO_TARGET_DIR="$target"

cargo build --release --quiet --offline --manifest-path Cargo.toml -p pops-cli
cargo build --release --quiet --offline --manifest-path popsbench/Cargo.toml

POPSBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export POPSBENCH_COMMIT
exec "$target/release/popsbench" --pops "$target/release/pops" "$@"
