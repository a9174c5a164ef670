#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md): everything a PR must keep green.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace: the root package's deps don't cover member binaries
# (raven_cli, raven_serve), and check_metrics.sh below needs the latter.
cargo build --release --workspace
cargo test -q
# The core verifier, the LP solver and the certificate checker carry their
# own unit and integration suites, gated in both profiles (chaos-dependent
# LP tests compile out of release builds without the chaos feature).
cargo test -q -p raven -p raven-lp -p raven-check
cargo test -q --release -p raven -p raven-lp -p raven-check
# The explicit chaos feature must keep the fault-injection suite green
# even where debug_assertions are off (release-profile test runs).
cargo test -p raven-serve --features chaos -q
cargo fmt --check
cargo clippy --workspace -- -D warnings
scripts/check_metrics.sh
# Solver-work regression gate: rerun the fixed obs workload and fail on a
# >20% total-pivot regression vs the committed baseline. The committed
# BENCH_obs.json is only refreshed deliberately (run obs with --out).
cargo run -p raven-bench --release --bin obs -- --out /tmp/raven_bench_obs.json \
  --check BENCH_obs.json
echo "tier-1: all gates passed"
