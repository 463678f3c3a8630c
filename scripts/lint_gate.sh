#!/usr/bin/env bash
# Determinism & safety gate: the whole workspace must scan clean under
# remy-lint (rules D1-D6, CONTRIBUTING.md "Determinism rules"), the gate
# itself must still *reject* bad code (the seeded fixtures), and the
# strict-invariants dynamic lane (shadow-heap scheduler checker + arena
# generation audit) must pass. The pinned toolchain is stable, so
# -Zsanitizer / Miri are unavailable; the cfg-gated strict lane is the
# substitute and runs here.
#
# usage: scripts/lint_gate.sh
#   REMY_LINT  override the remy-lint invocation (default: the release
#              binary, built here via cargo)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ -z "${REMY_LINT:-}" ]; then
    cargo build --release -q -p remy-lint
    REMY_LINT=target/release/remy-lint
fi

echo "lint_gate: scanning workspace..."
if ! $REMY_LINT --json > /tmp/lint_gate_out.$$ 2>&1; then
    echo "lint_gate: FAIL - remy-lint reported diagnostics:"
    cat /tmp/lint_gate_out.$$
    rm -f /tmp/lint_gate_out.$$
    exit 1
fi
rm -f /tmp/lint_gate_out.$$
echo "lint_gate: workspace is clean"

# Allow-report artifact: the inventory of every lint:allow in the tree
# (each signed-off panic site, seed derivation and piece of shared
# state). Nonzero exit means a bare justification or a directive naming
# a rule that no longer exists.
echo "lint_gate: allow-report (every directive justified, no stale ids)..."
mkdir -p target
if ! $REMY_LINT --allow-report --json > target/lint_allows.json; then
    echo "lint_gate: FAIL - unjustified or stale lint:allow directives:"
    $REMY_LINT --allow-report || true
    exit 1
fi
echo "lint_gate: allow inventory written to target/lint_allows.json"

# Negative control: every seeded-violation fixture, scanned under a
# virtual in-scope path, must FAIL individually. A gate that stops
# rejecting bad code is worse than no gate — and checking per fixture
# means one loud fixture cannot mask a rule that went silent.
echo "lint_gate: negative control (each seeded fixture must fail)..."
for fixture in crates/lint/tests/fixtures/bad_*.rs; do
    if $REMY_LINT --scope-as crates/netsim/src "$fixture" > /dev/null 2>&1; then
        echo "lint_gate: FAIL - $fixture scanned clean;"
        echo "           the analyzer is no longer rejecting bad code"
        exit 1
    fi
done
echo "lint_gate: all fixtures still rejected"

# Dynamic lane: every EventQueue pop checked against a shadow reference
# heap, every arena alloc/free audited for generation parity. Stable
# toolchain => no AddressSanitizer/ThreadSanitizer/Miri; this cfg-gated
# checker is the strict lane instead.
echo "lint_gate: strict-invariants lane (sanitizers unavailable on stable)..."
cargo test -q -p netsim --features strict-invariants
cargo test -q -p remy-sim --features netsim/strict-invariants

echo "lint_gate: OK"
