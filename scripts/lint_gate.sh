#!/usr/bin/env bash
# Determinism & safety gate (CONTRIBUTING.md "Determinism rules").
#
# The static half is tier-1 tests, run here by name: `remy-lint`'s own
# suite (every rule fires on its seeded fixture at the exact lines — the
# negative control) and `tests/lint_gate.rs` (the workspace scans clean,
# every lint:allow is justified, names a live rule and suppresses a
# finding, every sim-crate source file is in scope). This script adds the
# allow-inventory artifact and the strict-invariants dynamic lane
# (shadow-heap scheduler checker + arena generation audit): the pinned
# toolchain is stable, so -Zsanitizer / Miri are unavailable and the
# cfg-gated lane substitutes.
#
# usage: scripts/lint_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test -q -p remy-lint
cargo test -q -p remy-sim --test lint_gate

# The reviewable inventory of every lint:allow in the tree (each
# signed-off panic site, wall-clock read and piece of shared state).
mkdir -p target
cargo run --release -q -p remy-lint -- --allow-report --json > target/lint_allows.json
echo "lint_gate: allow inventory written to target/lint_allows.json"

cargo test -q -p netsim --features strict-invariants
cargo test -q -p remy-sim --features netsim/strict-invariants

echo "lint_gate: OK"
