#!/usr/bin/env sh
# Production-coverage census: build the commands with coverage
# instrumentation over every package of the module, run the
# deterministic movrsim and movrtrace workloads under GOCOVERDIR, and
# print each function that never ran and that neither allowlist in
# testonly_test.go names. The list is advisory: the script exits 0
# whatever it prints. `make prod-cover` and the CI prod-cover step both
# run it.
#
# Runs: movrsim -fast -seed 1 all; movrsim -fast fleet for every
# scenario kind; movrsim -trace on a coex fleet and movrtrace -analyze
# on that trace. movrd and movrload are built but not run: the job
# server's functions that movrsim links for its bench suite are listed
# as never run, and code only movrd or movrload links is not listed.
set -eu

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT INT TERM
mkdir -p "$workdir/bin" "$workdir/cov"

module="$(go list -m)"
go build -cover -coverpkg=./... -o "$workdir/bin/" ./cmd/...

export GOCOVERDIR="$workdir/cov"
"$workdir/bin/movrsim" -fast -seed 1 all >/dev/null 2>&1
for kind in mixed arcade home dense coex coexpf coexedf venue; do
    "$workdir/bin/movrsim" -fast -scenario "$kind" fleet >/dev/null 2>&1
done
"$workdir/bin/movrsim" -fast -scenario coex -sessions 4 -seed 7 -trace "$workdir/trace.json" fleet >/dev/null 2>&1
"$workdir/bin/movrtrace" -analyze "$workdir/trace.json" >/dev/null
unset GOCOVERDIR

# The allowlist keys: package directory, then Type.Method or Func.
sed -n '/^var testOnly\(Fields\)\{0,1\}Allowed = map/,/^}/p' testonly_test.go |
    sed -n 's/^[[:space:]]*"\([^"]*\)":.*/\1/p' | sort -u >"$workdir/allowed"

# covdata prints "<import path>/<file>:<line>: <name> <percent>" with
# tabs; a method's name is Type.Method or *Type.Method.
go tool covdata func -i="$workdir/cov" |
    awk -v mod="$module" '$NF == "0.0%" {
        file = $1; sub(/:[0-9]+:$/, "", file)
        dir = file; sub(/\/[^\/]*$/, "", dir)
        if (dir == mod) dir = "movr"; else sub("^" mod "/", "", dir)
        name = $2; sub(/^\*/, "", name)
        pos = $1; sub(/:$/, "", pos); sub("^" mod "/", "", pos)
        print dir "." name "\t" pos
    }' | sort >"$workdir/unrun"

awk -F '\t' 'NR == FNR { allowed[$1] = 1; next } !($1 in allowed)' \
    "$workdir/allowed" "$workdir/unrun" >"$workdir/report"
echo "prod-cover: $(wc -l <"$workdir/report" | tr -d ' ') functions never ran and no allowlist names them:"
awk -F '\t' '{ printf "  %s (%s)\n", $1, $2 }' "$workdir/report"
