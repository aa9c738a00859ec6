#!/usr/bin/env bash
# Builds movrbench and the movrd daemon from this checkout and runs the
# benchmark. Run it from the repository root; every flag is passed on to
# movrbench:
#
#   bash cmd/movrbench/run.sh                      # all four workloads, seed 1
#   bash cmd/movrbench/run.sh --workload movrd-fresh --seed 3 --seconds 20 --trace 0
#
# Builds, caches and scratch files stay under .bench_build/ in the
# checkout. Build time is not part of any metric.
set -euo pipefail

work="$(pwd)/.bench_build"
mkdir -p "$work/bin" "$work/tmp"
# Keep every file the toolchain writes (build cache, module cache,
# telemetry counters) inside the checkout, and ignore user settings.
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export XDG_CONFIG_HOME="$work/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The load shape is fixed at two cores: movrbench, its children and the
# daemon all inherit it.
export GOMAXPROCS=2

(
	cd cmd/movrbench
	go build -o "$work/bin/movrbench" .
	go build -o "$work/bin/movrd" github.com/movr-sim/movr/cmd/movrd
) >&2

exec "$work/bin/movrbench" -movrd "$work/bin/movrd" -workdir "$work" "$@"
