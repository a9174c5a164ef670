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
# The analysis domains, the network library and the std-only support
# crates carry their own suites too, gated in both profiles.
support="-p raven-deeppoly -p raven-diffpoly -p raven-nn -p raven-interval -p raven-zonotope
  -p raven-tensor -p raven-json -p raven-obs"
# shellcheck disable=SC2086
cargo test -q $support
# shellcheck disable=SC2086
cargo test -q --release $support
# The bench harness's suite trains networks and solves their LPs, gated in
# both profiles.
cargo test -q -p raven-bench
cargo test -q --release -p raven-bench
# The explicit chaos features must keep the server's fault-injection suite
# green even where debug_assertions are off (release-profile test runs);
# the watchdog case needs the solver-level injection armed as well.
cargo test -p raven-serve --features chaos -q
cargo test -q --release -p raven-serve --features chaos,raven-lp/chaos
cargo fmt --check
cargo clippy --workspace -- -D warnings
scripts/check_metrics.sh
# Solver-work regression gate: rerun the fixed obs workload and fail on a
# >20% total-pivot regression vs the committed baseline. The committed
# BENCH_obs.json is only refreshed deliberately (run obs with --out).
cargo run -p raven-bench --release --bin obs -- --out /tmp/raven_bench_obs.json \
  --check BENCH_obs.json
echo "tier-1: all gates passed"
