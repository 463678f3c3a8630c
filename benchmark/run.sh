#!/usr/bin/env bash
# Build the benchmark harness and run it from the repository root.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--check]
#       every workload (or one): a timed and a traced run each, in child
#       processes of their own; results in benchmark/out/
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run in one process, ending with a one-line JSON result
#   benchmark/run.sh gen-inputs | compare A.json B.json
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/benchmark"

export BENCHMARK_RUSTC="$(rustc -V)"
if [ -e .git ]; then
    export BENCHMARK_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi

case " $* " in
    *" --trace "*) exec "$bin" run "$@" ;;
esac
case "${1:-}" in
    gen-inputs | compare) exec "$bin" "$@" ;;
esac

# The CLI users run, built from the repository's own workspace: each spec
# workload's in-process output is compared with its bytes.
cargo build --release --offline --quiet --manifest-path crates/remy-sim/Cargo.toml --bin remy-cli
exec "$bin" all --cli "$CARGO_TARGET_DIR/release/remy-cli" "$@"
