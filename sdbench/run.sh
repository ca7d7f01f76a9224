#!/usr/bin/env bash
# Builds `sdserved` and the `sdbench` load generator from source, then
# runs one benchmark pass. Run from the repository root:
#
#   bash sdbench/run.sh --workload warm-hits --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p sd-server --bin sdserved >&2
cargo build --release --offline --quiet --manifest-path sdbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/sdbench" --server "$CARGO_TARGET_DIR/release/sdserved" "$@"
