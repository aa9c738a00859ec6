#!/usr/bin/env sh
# Load-and-durability smoke for movrd: replay a short movrload burst
# against a live daemon (asserting p95 submit-to-done latency), overrun
# its queue to draw real 429 backpressure, then kill the daemon
# uncleanly and assert the restarted process serves the persisted
# result from its durable store without re-executing. The restarted
# daemon then runs and stores one fresh spec and is stopped with
# SIGTERM, so a coverage-instrumented build (GOFLAGS='-cover ...', as
# scripts/prodcover.sh runs it) writes its counters. The CI load-smoke
# job and `make load-smoke` both run this.
set -eu

workdir="$(mktemp -d)"
log="$workdir/movrd.log"
cachedir="$workdir/cache"
cleanup() {
    if [ -n "${pid:-}" ]; then
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "movrd-load-smoke: building"
go build -o "$workdir/movrd" ./cmd/movrd
go build -o "$workdir/movrload" ./cmd/movrload

start_daemon() {
    : >"$log"
    "$workdir/movrd" -addr 127.0.0.1:0 -workers 2 -max-jobs 2 -queue 4 \
        -cache-dir "$cachedir" >"$log" 2>&1 &
    pid=$!
    addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr="$(sed -n 's/.*movrd: listening on \([0-9.:]*\)$/\1/p' "$log" | head -n 1)"
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "movrd-load-smoke: daemon died:"; cat "$log"; exit 1; }
        i=$((i + 1))
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "movrd-load-smoke: never saw the listen line:"; cat "$log"; exit 1; }
    i=0
    while [ $i -lt 50 ]; do
        code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/healthz" || true)"
        [ "$code" = 200 ] && return 0
        i=$((i + 1))
        sleep 0.1
    done
    echo "movrd-load-smoke: /healthz never answered"
    cat "$log"
    exit 1
}

fail() {
    echo "movrd-load-smoke: FAIL: $1"
    echo "--- daemon log ---"
    cat "$log"
    exit 1
}

start_daemon
echo "movrd-load-smoke: daemon at $addr (cache dir $cachedir)"

# Burst 1: a short mixed-profile replay must land every job and keep
# p95 submit-to-done under a generous CI-safe ceiling.
"$workdir/movrload" -addr "http://$addr" -jobs 12 -concurrency 4 \
    -duration-ms 100 -p95-max 60s || fail "latency burst failed"
echo "movrd-load-smoke: latency burst ok"

# Burst 2: overrun the 2-executing/4-queued daemon and require that it
# sheds load with real 429s (the harness retries them away and still
# finishes every job).
"$workdir/movrload" -addr "http://$addr" -jobs 24 -concurrency 12 \
    -seed 500 -duration-ms 300 -assert-backpressure || fail "backpressure burst failed"
echo "movrd-load-smoke: backpressure burst drew 429s and recovered"

# Durability: submit a marker spec, kill the daemon without any
# shutdown grace, restart on the same cache dir, and resubmit — the
# answer must be a cache hit served from the on-disk store, with the
# same result hash, and the store-hit counter must show it.
spec='{"kind":"fleet","fleet":{"scenario":"coex","sessions":2,"seed":4242,"duration_ms":300}}'
code="$(curl -s -o "$workdir/r1" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' -d "$spec" \
    "http://$addr/v1/jobs?wait=1")"
[ "$code" = 200 ] || fail "marker submit returned $code"
sha1="$(sed -n 's/.*"result_sha256": "\([0-9a-f]*\)".*/\1/p' "$workdir/r1" | head -n 1)"
[ -n "$sha1" ] || fail "no result_sha256 in marker response"

kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "movrd-load-smoke: daemon killed (SIGKILL)"

start_daemon
echo "movrd-load-smoke: daemon restarted at $addr"

code="$(curl -s -D "$workdir/h2" -o "$workdir/r2" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' -d "$spec" \
    "http://$addr/v1/jobs?wait=1")"
[ "$code" = 200 ] || fail "post-restart resubmit returned $code"
grep -qi '^x-movr-cache: hit' "$workdir/h2" || fail "post-restart resubmit was not a cache hit"
sha2="$(sed -n 's/.*"result_sha256": "\([0-9a-f]*\)".*/\1/p' "$workdir/r2" | head -n 1)"
[ "$sha1" = "$sha2" ] || fail "result hash changed across restart: $sha1 vs $sha2"
curl -s "http://$addr/metrics" >"$workdir/metrics"
grep -q '^movrd_store_hits_total 1$' "$workdir/metrics" || fail "/metrics does not report the durable-store hit"
grep -q '^movrd_jobs_done_total 1$' "$workdir/metrics" || fail "restarted daemon re-executed instead of serving the store"
echo "movrd-load-smoke: restart served the persisted result (sha $sha1)"

# The restarted daemon executes and durably stores a spec of its own,
# then shuts down cleanly on SIGTERM.
fresh='{"kind":"fleet","fleet":{"scenario":"home","sessions":2,"seed":4243,"duration_ms":300}}'
code="$(curl -s -D "$workdir/h3" -o "$workdir/r3" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' -d "$fresh" \
    "http://$addr/v1/jobs?wait=1")"
[ "$code" = 200 ] || fail "fresh submit after restart returned $code"
grep -qi '^x-movr-cache: miss' "$workdir/h3" || fail "fresh submit after restart was not executed"
kill "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" = 0 ] || fail "restarted daemon exited $status on SIGTERM"
echo "movrd-load-smoke: restarted daemon stored a fresh result and stopped cleanly"

echo "movrd-load-smoke: PASS"
