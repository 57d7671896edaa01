#!/usr/bin/env bash
# Build the shipped `fews` binary and the benchmark from source, then run one
# benchmark pass. Run from the repository root:
#
#   bash stackbench/run.sh --workload dblog-id-fresh --seed 1 --seconds 30 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build/ in the root).
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --offline --bin fews >&2
cargo build --release --quiet --offline --manifest-path stackbench/Cargo.toml >&2
exec "$target/release/stackbench" --fews "$target/release/fews" "$@"
