#!/usr/bin/env bash
# Bench-regression gate: run every criterion-shim bench with --save-json,
# then fail if any tracked mean regressed more than the tolerance vs the
# committed baseline.
#
# usage: scripts/bench_gate.sh [baseline.json] [current.json]
#
#   BENCH_GATE_TOLERANCE  allowed regression, percent (default 30)
#   BENCH_GATE_SKIP_RUN   set to 1 to compare an existing current.json
#                         instead of re-running `cargo bench`
#
# The JSON files are the flat `{"group/bench": mean_ns_per_iter, ...}`
# documents the criterion shim writes. Benchmarks present only in the
# current run (new benches) are reported but never fail the gate; update
# the baseline to start tracking them. Benchmarks missing from the current
# run fail the gate (a tracked bench disappeared).
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=${1:-BENCH_baseline.json}
CURRENT=${2:-target/bench.json}
TOL=${BENCH_GATE_TOLERANCE:-30}

if [ ! -f "$BASELINE" ]; then
    echo "bench_gate: baseline '$BASELINE' not found" >&2
    exit 2
fi

if [ "${BENCH_GATE_SKIP_RUN:-0}" != "1" ]; then
    rm -f "$CURRENT"
    # Absolute path: cargo runs bench executables with CWD set to the
    # package directory, so a relative --save-json would land under
    # crates/bench/.
    cargo bench -p bench -- --save-json "$(pwd)/$CURRENT"
fi

if [ ! -f "$CURRENT" ]; then
    echo "bench_gate: current results '$CURRENT' not found" >&2
    exit 2
fi

# Normalize `  "name": 123.4,` lines into `name|123.4`.
normalize() {
    sed -n 's/^[[:space:]]*"\([^"]*\)":[[:space:]]*\([0-9.eE+-]*\),\{0,1\}$/\1|\2/p' "$1"
}

normalize "$BASELINE" > /tmp/bench_gate_base.$$
normalize "$CURRENT" > /tmp/bench_gate_cur.$$
trap 'rm -f /tmp/bench_gate_base.$$ /tmp/bench_gate_cur.$$' EXIT

# Plain POSIX awk (no gawk extensions): load the current results, then
# walk the baseline in its (sorted) file order.
awk -F'|' -v tol="$TOL" '
    BEGIN {
        printf "%-44s %14s %14s %9s\n", "benchmark", "baseline", "current", "delta"
        fail = 0
    }
    NR == FNR { cur[$1] = $2; next }
    {
        name = $1; baseval = $2; seen[name] = 1
        if (!(name in cur)) {
            printf "%-44s %12.1fns %14s %9s  TRACKED BENCH MISSING\n", name, baseval, "-", "-"
            fail = 1
            next
        }
        delta = (cur[name] - baseval) / baseval * 100.0
        flag = ""
        if (delta > tol) { flag = "  REGRESSION (>" tol "%)"; fail = 1 }
        printf "%-44s %12.1fns %12.1fns %+8.1f%%%s\n", name, baseval, cur[name], delta, flag
    }
    END {
        for (name in cur) {
            if (!(name in seen))
                printf "%-44s %14s %12.1fns %9s  (new, untracked)\n", name, "-", cur[name], "-"
        }
        if (fail) {
            print ""
            print "bench_gate: FAIL - a tracked mean regressed more than " tol "% (or disappeared)"
            exit 1
        }
        print ""
        print "bench_gate: OK - no tracked mean regressed more than " tol "%"
    }
' /tmp/bench_gate_cur.$$ /tmp/bench_gate_base.$$
