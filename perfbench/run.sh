#!/usr/bin/env bash
# Builds the program and the benchmark from source, then runs one
# measurement. Run from the repository root; every argument is passed
# to perfbench, e.g.
#   bash perfbench/run.sh --workload grid_cold --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --quiet -p aivril-serve --bin aivril-serve >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/aivril-serve" "$@"
