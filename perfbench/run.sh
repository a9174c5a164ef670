#!/usr/bin/env bash
# Builds the server and worker binaries and the benchmark binary from
# source, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build). The last line of standard output is the JSON
# result; everything else is a human-readable report.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/serve" ]]; then
    echo "perfbench: $root does not hold the RaVeN sources" >&2
    exit 2
fi
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$CARGO_TARGET_DIR"
target=$(cd "$CARGO_TARGET_DIR" && pwd)

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p raven-serve --bin raven_serve --bin raven_worker >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

exec "$target/release/perfbench" --bin-dir "$target/release" \
    --work-dir "$bench_dir/.work" "$@"
