#!/usr/bin/env bash
# Builds the release `slade-cli` server and the benchmark binary, then runs
# the benchmark with this script's arguments, e.g.
#
#   bash perfbench/run.sh --workload steady-mix --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build); the run's scratch files go beside it.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: run from a checkout of the SLADE repository" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet -p slade-cli >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/slade-cli" \
    --scratch "$CARGO_TARGET_DIR/perfbench-scratch-$$" \
    "$@"
