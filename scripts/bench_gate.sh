#!/usr/bin/env sh
# Performance regression gate: run the movrsim bench suite fresh and
# compare it against the committed baseline, failing on regressions.
# The comparison prints a per-entry delta table — every benchmark's
# baseline ns/op, current ns/op, and relative change, improvements
# included — before notes, violations, and the verdict, so a gate run
# doubles as the revision's perf summary.
#
#   scripts/bench_gate.sh [baseline.json]
#
# Environment:
#   BENCH_BASELINE   baseline report (default BENCH_baseline.json)
#   BENCH_TOL_PCT    allowed ns/op regression in percent (default 50)
#   BENCH_ALLOC_TOL  allowed allocs/op regression (default 0)
#   BENCH_OUT_DIR    where the fresh BENCH_<sha>.json lands (default .)
#   BENCH_FAST       non-empty trims repetitions (CI smoke)
#
# The suite is defined by internal/bench.Suite and covers one fleet run
# per scenario kind — the coex airtime-policy family (fleet/coex,
# fleet/coexpf, fleet/coexedf) included — so a policy that regresses the
# scheduler hot path or starts allocating per window fails here. The
# comparison also rejects a shrunken suite: a baseline entry missing
# from the fresh report is an error, so new suite entries must land
# together with a regenerated baseline (make bench-baseline).
#
# The fresh report is kept for upload as a CI artifact — the repo's perf
# trajectory, one BENCH_<sha>.json per revision (BENCH_<sha>-dirty.json
# from a tree with uncommitted changes). To re-baseline after an
# intentional perf change: copy the fresh report over BENCH_baseline.json
# and commit it alongside the change that justified it.
#
# Wall-time bounds are enforced only when the fresh run's host shape
# (cpus/goarch, recorded in every report) matches the baseline's;
# otherwise ns/op excesses are reported as advisory notes. The
# allocs/op gate is machine-independent and enforced everywhere. To arm
# the time gate in CI, commit a baseline generated on gate-class
# hardware.
set -eu

baseline="${1:-${BENCH_BASELINE:-BENCH_baseline.json}}"
tol_pct="${BENCH_TOL_PCT:-50}"
alloc_tol="${BENCH_ALLOC_TOL:-0}"
out_dir="${BENCH_OUT_DIR:-.}"

[ -f "$baseline" ] || {
    echo "bench-gate: baseline $baseline not found" >&2
    echo "bench-gate: generate one with: go run ./cmd/movrsim -bench-out $baseline bench" >&2
    exit 1
}

# A tree with uncommitted changes (what the Go toolchain stamps as
# vcs.modified) is not HEAD: its report is named and stamped <sha>-dirty.
sha="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if [ "$sha" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    sha="$sha-dirty"
fi
out="$out_dir/BENCH_$sha.json"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT INT TERM

echo "bench-gate: building movrsim"
go build -o "$workdir/movrsim" ./cmd/movrsim

fast=""
[ -n "${BENCH_FAST:-}" ] && fast="-fast"

echo "bench-gate: running suite (tolerance ${tol_pct}% time, ${alloc_tol} allocs)"
MOVR_GIT_SHA="$sha" "$workdir/movrsim" $fast \
    -bench-out "$out" \
    -bench-compare "$baseline" \
    -bench-tol-pct "$tol_pct" \
    -bench-alloc-tol "$alloc_tol" \
    bench

echo "bench-gate: fresh report at $out"
