# Mirrors .github/workflows/ci.yml so contributors run the exact CI
# commands locally: `make ci` is what the gate runs.

GO ?= go

.PHONY: build build-cmds vet fmt-check test race bench-module-test bench fast-all-check fast-all-golden trace-check bench-suite bench-gate bench-baseline bench-profile serve load-smoke prod-cover ci

build:
	$(GO) build ./...

build-cmds:
	$(GO) build ./cmd/...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# movrbench is its own module, outside the root ./... pattern: its tests
# hold the workload golden digests and wire bytes.
bench-module-test:
	cd cmd/movrbench && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Diff a fresh `movrsim -fast all` at seed 1 — every figure, session,
# map and ablation table the CLI prints — against the pinned stdout.
fast-all-check:
	$(GO) run ./cmd/movrsim -fast -seed 1 all 2>/dev/null | diff -u cmd/movrsim/testdata/fast_all_seed1.txt -

# Re-pin that stdout after an intended change to a printed result, and
# commit it with the change that justified it.
fast-all-golden:
	$(GO) run ./cmd/movrsim -fast -seed 1 all > cmd/movrsim/testdata/fast_all_seed1.txt

# Record the seed-7 coex fleet trace and the four-variant session trace
# (one recorder per variant) and check their bytes against the digests
# pinned in cmd/movrsim/testdata/trace_digests.txt, so a trace that
# changes across commits fails here. Re-pin a digest only with the
# change that justified it.
trace-check:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/movrsim" ./cmd/movrsim && \
	"$$dir/movrsim" -scenario coex -sessions 4 -seed 7 -fast -trace "$$dir/coex_fleet_seed7.json" fleet >/dev/null && \
	"$$dir/movrsim" -fast -trace "$$dir/session_seed1.json" session >/dev/null && \
	cd "$$dir" && sha256sum -c "$(CURDIR)/cmd/movrsim/testdata/trace_digests.txt"

# Run the named perf suite — one fleet entry per scenario kind, the
# coex airtime-policy family (fleet/coex{,pf,edf}) included — and write
# BENCH_<git-sha>.json (see the README's "Performance workflow"
# section). `go run` embeds no VCS revision, so the sha is passed
# explicitly.
bench-suite:
	MOVR_GIT_SHA=$$(git rev-parse --short=12 HEAD) $(GO) run ./cmd/movrsim bench

# Run the suite fresh and gate it against the committed baseline — the
# CI bench-gate job. Tune with BENCH_TOL_PCT / BENCH_ALLOC_TOL.
bench-gate:
	sh scripts/bench_gate.sh

# Re-baseline after an intentional perf change: regenerate
# BENCH_baseline.json and commit it with the change that justified it.
bench-baseline:
	MOVR_GIT_SHA=$$(git rev-parse --short=12 HEAD) $(GO) run ./cmd/movrsim -bench-out BENCH_baseline.json bench

# Profile the suite: a fast pass that writes one CPU and one heap
# profile per benchmark into profiles/ (plus the report), ready for
# `go tool pprof profiles/fleet_venue16x4.cpu.pprof`. Profiled wall
# times are perturbed — don't gate against them.
bench-profile:
	MOVR_GIT_SHA=$$(git rev-parse --short=12 HEAD) $(GO) run ./cmd/movrsim \
		-fast -bench-cpuprofile profiles -bench-memprofile profiles \
		-bench-out profiles/BENCH_profile.json bench

# Start movrd, poll /healthz, submit a tiny fleet job, and assert the
# resubmission is a byte-identical cache hit — the CI movrd-smoke step.
# Also checks the v1 error envelope, listing pagination, and the fig9
# and map job kinds.
serve:
	sh scripts/movrd_smoke.sh

# Replay a movrload burst against a live movrd (p95 gate + 429
# backpressure), then SIGKILL it and assert the restart serves the
# persisted result from the durable store, stores a fresh one and stops
# cleanly on SIGTERM — the CI load-smoke job.
load-smoke:
	sh scripts/movrd_load_smoke.sh

# Production-coverage gate: run every command and example, and the movrd
# and load smokes, under coverage; fail on a function none of them reaches that no
# allowlist in testonly_test.go names (daemon-side packages are listed
# as advice only), and on a per-package count of never-run statements
# that differs from scripts/prodcover_unrun.txt.
prod-cover:
	sh scripts/prodcover.sh

ci: build build-cmds vet fmt-check test race bench-module-test bench fast-all-check trace-check serve load-smoke bench-gate prod-cover
