#!/usr/bin/env sh
# Production-coverage census and gate: build every command and example
# with coverage instrumentation over every package of the module, run
# the workloads below, and take the union of their coverage.
# `make prod-cover` and the CI prod-cover step both run it.
#
# First it fails, naming the package, on any package of the module that
# no command or example links (`go list ./...` lists it, `go list -deps
# ./cmd/... ./examples/...` does not): coverage counters exist only for
# linked packages, so such a package would never appear below.
#
# Deterministic legs, at GOMAXPROCS=2: movrsim -fast -seed 1 all;
# movrsim -h; movrsim -fast fleet for every scenario kind, plus a
# streamed mixed run and a venue on fixed channel assignment; movrsim
# -trace, each followed by movrtrace -analyze on its trace, on a coex
# fleet, on a venue whose 8-player bays overflow under -admission
# reject, and on a single session; movrtrace's seeded motion summary;
# and every examples/ program.
#
# Timing-dependent legs: movrsim -fast bench gated against
# BENCH_baseline.json with profiles, stamped with a fixed revision so a
# checkout without .git runs the same code (its exit status 1 is the
# compare verdict, which the bench-gate job owns); and
# scripts/movrd_smoke.sh and scripts/movrd_load_smoke.sh against
# instrumented movrd and movrload builds. Each smoke stops its last
# daemon with SIGTERM, so the daemon writes its counters.
#
# Each function that never ran in any leg is then checked against
# testonly_test.go:
#   - one in internal/server, internal/metrics, internal/movrclient,
#     cmd/movrd or cmd/movrload is listed as advice only, because the
#     daemon's 429s and cancels depend on timing;
#   - any other one fails the script unless testOnlyAllowed or
#     prodCoverAllowed names it;
#   - a prodCoverAllowed entry whose function ran fails the script too.
#
# Last comes the statement ratchet. The statements the deterministic
# legs never ran are summed per package from `go tool covdata textfmt`,
# leaving out the daemon-side packages and internal/bench, and compared
# with the committed scripts/prodcover_unrun.txt. A package whose count
# rises fails the script, naming it: a new route nothing runs, such as
# an unused else branch inside a function that does run. A package
# whose count falls fails it too, printing the line to commit, so the
# file always holds the current counts.
set -eu

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT INT TERM
mkdir -p "$workdir/bin" "$workdir/cov" "$workdir/covt" "$workdir/prof"

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

# The worker pools size themselves by GOMAXPROCS; pin it so the
# statement counts these legs give do not depend on the host's cores.
export GOCOVERDIR="$workdir/cov" GOMAXPROCS=2
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
"$bin/movrtrace" -seed 3 -duration 2s >/dev/null
for ex in "$repo"/examples/*/; do
    "$bin/$(basename "$ex")" >/dev/null
done

# The bench verdict and the daemon's 429s, cancels and restarts depend
# on wall time and on the host's cores: these legs feed the function
# gate, not the statement ratchet.
unset GOMAXPROCS
export GOCOVERDIR="$workdir/covt"
status=0
(cd "$workdir" && MOVR_GIT_SHA=prodcover "$bin/movrsim" -fast -bench-compare "$repo/BENCH_baseline.json" \
    -bench-cpuprofile prof -bench-memprofile prof bench) >/dev/null 2>&1 || status=$?
[ "$status" -le 1 ] || { echo "prod-cover: movrsim bench exited $status" >&2; exit 1; }
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
go tool covdata func -i="$workdir/cov,$workdir/covt" |
    awk -v mod="$module" '$1 != "total" {
        file = $1; sub(/:[0-9]+:$/, "", file)
        dir = file; sub(/\/[^\/]*$/, "", dir)
        if (dir == mod) dir = "movr"; else sub("^" mod "/", "", dir)
        name = $2; sub(/^\*/, "", name)
        pos = $1; sub(/:$/, "", pos); sub("^" mod "/", "", pos)
        print dir "." name "\t" pos "\t" ($NF == "0.0%" ? "unrun" : "ran")
    }' | sort >"$workdir/funcs"

fail=0
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
    }' "$workdir/funcs" || fail=1

# textfmt prints "<import path>/<file>:<start>,<end> <statements> <count>"
# per block.
go tool covdata textfmt -i="$workdir/cov" -o "$workdir/blocks"
awk -v mod="$module" 'NR > 1 {
        block = $1; stmts[block] = $2
        if ($3 > 0) ran[block] = 1
    }
    END {
        for (b in stmts) {
            if (b in ran) continue
            dir = b; sub(/:[^:]*$/, "", dir); sub(/\/[^\/]*$/, "", dir)
            if (dir == mod) dir = "movr"; else sub("^" mod "/", "", dir)
            if (dir ~ /^(internal\/(server|metrics|movrclient|bench)|cmd\/(movrd|movrload))$/) continue
            unrun[dir] += stmts[b]
        }
        for (d in unrun) print d, unrun[d]
    }' "$workdir/blocks" | LC_ALL=C sort >"$workdir/unrun"

ratchet="scripts/prodcover_unrun.txt"
awk -v ratchet="$ratchet" '
    BEGIN {
        while ((getline l <ratchet) > 0)
            if (l !~ /^#/ && split(l, f, " ") == 2) was[f[1]] = f[2] + 0
    }
    { now[$1] = $2 + 0 }
    END {
        for (d in now) if (now[d] > was[d] + 0) {
            printf "prod-cover: %s: %d statements never ran, up from %d in %s; run the new route or delete it\n", d, now[d], was[d], ratchet
            moved = 1
        }
        for (d in was) if (now[d] + 0 < was[d] + 0) {
            fix = now[d] + 0 > 0 ? "lower its line to \"" d " " now[d] "\"" : "delete its line"
            printf "prod-cover: %s: %d statements never ran, down from %d; %s in %s\n", d, now[d], was[d], fix, ratchet
            moved = 1
        }
        if (!moved) print "prod-cover: never-run statements per package match " ratchet
        exit moved
    }' "$workdir/unrun" >"$workdir/ratchet" || fail=1
LC_ALL=C sort "$workdir/ratchet"
exit "$fail"
