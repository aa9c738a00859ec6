#!/usr/bin/env sh
# Production-coverage census and gate: build every command and example
# with coverage instrumentation over every package of the module, run
# the deterministic workloads under one GOCOVERDIR, and take the union.
# `make prod-cover` and the CI prod-cover step both run it.
#
# First it fails, naming the package, on any package of the module that
# no command or example links (`go list ./...` lists it, `go list -deps
# ./cmd/... ./examples/...` does not): coverage counters exist only for
# linked packages, so such a package would never appear below.
#
# Runs: movrsim -fast -seed 1 all; movrsim -h; movrsim -fast fleet for
# every scenario kind, plus a streamed mixed run and a venue on fixed
# channel assignment; movrsim -trace, each followed by movrtrace
# -analyze on its trace, on a coex fleet, on a venue whose 8-player
# bays overflow under -admission reject, and on a single session;
# movrsim -fast bench gated against BENCH_baseline.json with profiles,
# stamped with a fixed revision so a checkout without .git runs the
# same code (its exit status 1 is the compare verdict, which the
# bench-gate job owns); movrtrace -out, then -in on its output; every
# examples/ program; and
# scripts/movrd_smoke.sh and scripts/movrd_load_smoke.sh against
# instrumented movrd and movrload builds. Each smoke stops its last
# daemon with SIGTERM, so the daemon writes its counters.
#
# Each function that never ran is then checked against testonly_test.go:
#   - one in internal/server, internal/metrics, internal/movrclient,
#     cmd/movrd or cmd/movrload is listed as advice only, because the
#     daemon's 429s and cancels depend on timing;
#   - any other one fails the script unless testOnlyAllowed or
#     prodCoverAllowed names it;
#   - a prodCoverAllowed entry whose function ran fails the script too.
set -eu

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT INT TERM
mkdir -p "$workdir/bin" "$workdir/cov" "$workdir/prof"

repo="$(pwd)"
module="$(go list -m)"
go list ./... | LC_ALL=C sort >"$workdir/pkgs"
go list -deps ./cmd/... ./examples/... | LC_ALL=C sort >"$workdir/linked"
unlinked="$(LC_ALL=C comm -23 "$workdir/pkgs" "$workdir/linked")"
if [ -n "$unlinked" ]; then
    echo "prod-cover: no command or example links these packages; delete them, or use them from one:" >&2
    echo "$unlinked" | sed 's/^/  /' >&2
    exit 1
fi
go build -cover -coverpkg=./... -o "$workdir/bin/" ./cmd/... ./examples/...

export GOCOVERDIR="$workdir/cov"
bin="$workdir/bin"
"$bin/movrsim" -fast -seed 1 all >/dev/null 2>&1
"$bin/movrsim" -h >/dev/null 2>&1
for kind in mixed arcade home dense coex coexpf coexedf venue; do
    "$bin/movrsim" -fast -scenario "$kind" fleet >/dev/null 2>&1
done
"$bin/movrsim" -fast -scenario mixed -agg stream fleet >/dev/null 2>&1
"$bin/movrsim" -fast -scenario venue -assign fixed fleet >/dev/null 2>&1
"$bin/movrsim" -fast -scenario coex -sessions 4 -seed 7 -trace "$workdir/trace.json" fleet >/dev/null 2>&1
"$bin/movrtrace" -analyze "$workdir/trace.json" >/dev/null
"$bin/movrsim" -fast -scenario venue -players 8 -uplink 20ms -admission reject \
    -trace "$workdir/venue.json" fleet >/dev/null 2>&1
"$bin/movrtrace" -analyze "$workdir/venue.json" >/dev/null
"$bin/movrsim" -fast -trace "$workdir/session.json" session >/dev/null 2>&1
"$bin/movrtrace" -analyze "$workdir/session.json" >/dev/null
status=0
(cd "$workdir" && MOVR_GIT_SHA=prodcover "$bin/movrsim" -fast -bench-compare "$repo/BENCH_baseline.json" \
    -bench-cpuprofile prof -bench-memprofile prof bench) >/dev/null 2>&1 || status=$?
[ "$status" -le 1 ] || { echo "prod-cover: movrsim bench exited $status" >&2; exit 1; }
"$bin/movrtrace" -seed 3 -duration 2s -out "$workdir/motion.json" >/dev/null 2>&1
"$bin/movrtrace" -in "$workdir/motion.json" >/dev/null
for ex in "$repo"/examples/*/; do
    "$bin/$(basename "$ex")" >/dev/null
done
GOFLAGS='-cover -coverpkg=./...' sh scripts/movrd_smoke.sh >"$workdir/smoke.log" ||
    { cat "$workdir/smoke.log" >&2; exit 1; }
GOFLAGS='-cover -coverpkg=./...' sh scripts/movrd_load_smoke.sh >"$workdir/load.log" ||
    { cat "$workdir/load.log" >&2; exit 1; }
unset GOCOVERDIR

# The allowlist keys: package directory, then Type.Method or Func.
keys() {
    sed -n "/^var $1 = map/,/^}/p" testonly_test.go |
        sed -n 's/^[[:space:]]*"\([^"]*\)":.*/\1/p' | sort -u
}
keys 'testOnly\(Fields\)\{0,1\}Allowed' >"$workdir/testonly"
keys prodCoverAllowed >"$workdir/prodcover"

# covdata prints "<import path>/<file>:<line>: <name> <percent>" with
# tabs; a method's name is Type.Method or *Type.Method.
go tool covdata func -i="$workdir/cov" |
    awk -v mod="$module" '$1 != "total" {
        file = $1; sub(/:[0-9]+:$/, "", file)
        dir = file; sub(/\/[^\/]*$/, "", dir)
        if (dir == mod) dir = "movr"; else sub("^" mod "/", "", dir)
        name = $2; sub(/^\*/, "", name)
        pos = $1; sub(/:$/, "", pos); sub("^" mod "/", "", pos)
        print dir "." name "\t" pos "\t" ($NF == "0.0%" ? "unrun" : "ran")
    }' | sort >"$workdir/funcs"

awk -F '\t' -v testonly="$workdir/testonly" -v prodcover="$workdir/prodcover" '
    BEGIN {
        while ((getline k <testonly) > 0) skip[k] = 1
        while ((getline k <prodcover) > 0) allowed[k] = 1
    }
    $3 == "ran" && ($1 in allowed) { stale[++ns] = $1 " (" $2 ")"; next }
    $3 != "unrun" || ($1 in skip) || ($1 in allowed) { next }
    $1 ~ /^(internal\/(server|metrics|movrclient)|cmd\/(movrd|movrload))\./ {
        advice[++na] = $1 " (" $2 ")"; next
    }
    { gated[++ng] = $1 " (" $2 ")" }
    END {
        printf "prod-cover: %d daemon-side functions never ran (advisory; timing-dependent):\n", na
        for (i = 1; i <= na; i++) print "  " advice[i]
        printf "prod-cover: %d functions never ran and no allowlist names them:\n", ng
        for (i = 1; i <= ng; i++) print "  " gated[i]
        printf "prod-cover: %d prodCoverAllowed entries name a function that ran; drop them:\n", ns
        for (i = 1; i <= ns; i++) print "  " stale[i]
        exit (ng + ns > 0)
    }' "$workdir/funcs"
