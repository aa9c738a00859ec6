#!/usr/bin/env sh
# Smoke-test the movrd daemon end to end: build it, start it on an
# ephemeral port, poll /healthz, submit a tiny fleet job, resubmit the
# same spec, and assert the second answer is a cache hit with the same
# result hash; then drive the trace, event-stream, error, listing,
# cancel, admission and debug endpoints, and the fig9 and map job kinds.
# `make serve` and the CI movrd-smoke step both run this.
set -eu

workdir="$(mktemp -d)"
log="$workdir/movrd.log"
# The trap fires on any exit path — including a failed assertion under
# `set -e` — so the daemon can never leak into the CI runner. The wait
# reaps the process before the workdir (and its binary) is removed.
cleanup() {
    if [ -n "${pid:-}" ]; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "movrd-smoke: building"
go build -o "$workdir/movrd" ./cmd/movrd

"$workdir/movrd" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -workers 2 >"$log" 2>&1 &
pid=$!

# The daemon logs "listening on <addr>" with the resolved port (and the
# debug listener logs its own "debug listening on <addr>" line).
addr=""
i=0
while [ $i -lt 100 ]; do
    addr="$(sed -n 's/.*movrd: listening on \([0-9.:]*\)$/\1/p' "$log" | head -n 1)"
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "movrd-smoke: daemon died:"; cat "$log"; exit 1; }
    i=$((i + 1))
    sleep 0.1
done
[ -n "$addr" ] || { echo "movrd-smoke: never saw the listen line:"; cat "$log"; exit 1; }
echo "movrd-smoke: daemon at $addr"

fail() {
    echo "movrd-smoke: FAIL: $1"
    echo "--- daemon log ---"
    cat "$log"
    exit 1
}

# Poll /healthz with a bounded retry loop — the listen line appears
# before the HTTP server necessarily accepts, and a fixed sleep is either
# wasteful or racy depending on the machine.
healthy=""
i=0
while [ $i -lt 50 ]; do
    code="$(curl -s -o "$workdir/health" -w '%{http_code}' "http://$addr/healthz" || true)"
    [ "$code" = 200 ] && { healthy=1; break; }
    kill -0 "$pid" 2>/dev/null || { echo "movrd-smoke: daemon died:"; cat "$log"; exit 1; }
    i=$((i + 1))
    sleep 0.1
done
[ -n "$healthy" ] || fail "/healthz never returned 200 (last code: ${code:-none})"
echo "movrd-smoke: /healthz ok"

spec='{"kind":"fleet","fleet":{"scenario":"home","sessions":2,"seed":42,"duration_ms":300}}'

code="$(curl -s -D "$workdir/h1" -o "$workdir/r1" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' -d "$spec" \
    "http://$addr/v1/jobs?wait=1")"
[ "$code" = 200 ] || fail "first submit returned $code: $(cat "$workdir/r1")"
grep -qi '^x-movr-cache: miss' "$workdir/h1" || fail "first submit was not a cache miss"
echo "movrd-smoke: first submit ok (miss)"

code="$(curl -s -D "$workdir/h2" -o "$workdir/r2" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' -d "$spec" \
    "http://$addr/v1/jobs?wait=1")"
[ "$code" = 200 ] || fail "resubmit returned $code"
grep -qi '^x-movr-cache: hit' "$workdir/h2" || fail "resubmit was not a cache hit"

sha1="$(sed -n 's/.*"result_sha256": "\([0-9a-f]*\)".*/\1/p' "$workdir/r1" | head -n 1)"
sha2="$(sed -n 's/.*"result_sha256": "\([0-9a-f]*\)".*/\1/p' "$workdir/r2" | head -n 1)"
[ -n "$sha1" ] || fail "no result_sha256 in first response"
[ "$sha1" = "$sha2" ] || fail "result hashes differ: $sha1 vs $sha2"
echo "movrd-smoke: resubmit ok (hit, result sha $sha1)"

curl -s "http://$addr/metrics" >"$workdir/metrics"
grep -q '^movrd_cache_hits_total 1$' "$workdir/metrics" || fail "/metrics does not report the cache hit"
grep -q '^movrd_jobs_done_total 2$' "$workdir/metrics" || fail "/metrics does not report both jobs done"
grep -q '^movrd_job_queue_wait_seconds_count 1$' "$workdir/metrics" || fail "/metrics does not report the queue-wait sample"
grep -q 'movrd_jobs_by_scenario_total{scenario="home"} 2' "$workdir/metrics" || fail "/metrics does not report the per-scenario counter"
echo "movrd-smoke: /metrics reports the cache hit"

# Traced job: bypasses the cache and serves a Perfetto-loadable trace.
tspec='{"kind":"fleet","fleet":{"scenario":"coex","sessions":2,"seed":7,"duration_ms":300,"trace":true}}'
code="$(curl -s -o "$workdir/r3" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' -d "$tspec" \
    "http://$addr/v1/jobs?wait=1")"
[ "$code" = 200 ] || fail "traced submit returned $code: $(cat "$workdir/r3")"
jobid="$(sed -n 's/.*"id": "\(job-[0-9]*\)".*/\1/p' "$workdir/r3" | head -n 1)"
[ -n "$jobid" ] || fail "no job id in traced response"
code="$(curl -s -o "$workdir/trace.json" -w '%{http_code}' "http://$addr/v1/jobs/$jobid/trace")"
[ "$code" = 200 ] || fail "trace endpoint returned $code"
grep -q '"traceEvents"' "$workdir/trace.json" || fail "trace body is not Chrome trace-event JSON"
echo "movrd-smoke: trace endpoint serves Chrome trace JSON"

# Progress stream: the done traced job replays its events over SSE, and
# the stream ends by itself at the terminal event (bounded, so a stream
# that never ends fails the step instead of hanging it).
code="$(curl -s --max-time 10 -o "$workdir/events" -w '%{http_code}' "http://$addr/v1/jobs/$jobid/events" || echo " (stream did not end within 10 s)")"
[ "$code" = 200 ] || fail "events endpoint returned $code"
grep -q '^data: ' "$workdir/events" || fail "event stream has no data lines: $(cat "$workdir/events")"
last="$(grep '^data: ' "$workdir/events" | tail -n 1)"
case "$last" in
*'"type":"done"'*) ;;
*) fail "event stream does not end with a done event: $last" ;;
esac
echo "movrd-smoke: event stream replays the job and ends at its done event"

# Error envelope: every non-2xx answer is {"error":{code,message,detail}}
# with a stable machine-readable code.
code="$(curl -s -o "$workdir/e400" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' -d '{"kind":"nonsense"}' \
    "http://$addr/v1/jobs")"
[ "$code" = 400 ] || fail "bad spec returned $code, want 400"
grep -q '"code": "invalid_spec"' "$workdir/e400" || fail "400 body lacks the invalid_spec envelope: $(cat "$workdir/e400")"
code="$(curl -s -o "$workdir/e404" -w '%{http_code}' "http://$addr/v1/jobs/job-99999")"
[ "$code" = 404 ] || fail "unknown job returned $code, want 404"
grep -q '"code": "not_found"' "$workdir/e404" || fail "404 body lacks the not_found envelope: $(cat "$workdir/e404")"
code="$(curl -s -o "$workdir/e400c" -w '%{http_code}' "http://$addr/v1/jobs?cursor=garbage")"
[ "$code" = 400 ] || fail "garbage cursor returned $code, want 400"
grep -q '"code": "invalid_argument"' "$workdir/e400c" || fail "cursor 400 lacks the invalid_argument envelope"
echo "movrd-smoke: error envelope carries stable codes on 400/404"

# Listing: filters and pagination. Three jobs exist (2 home, 1 coex).
curl -s "http://$addr/v1/jobs?scenario=home" >"$workdir/list_home"
n="$(grep -c '"id": "job-' "$workdir/list_home" || true)"
[ "$n" = 2 ] || fail "scenario=home listed $n jobs, want 2"
curl -s "http://$addr/v1/jobs?state=done&limit=2" >"$workdir/list_p1"
grep -q '"next_cursor"' "$workdir/list_p1" || fail "first page of 3 done jobs lacks next_cursor"
cursor="$(sed -n 's/.*"next_cursor": "\([A-Za-z0-9_-]*\)".*/\1/p' "$workdir/list_p1" | head -n 1)"
curl -s "http://$addr/v1/jobs?state=done&limit=2&cursor=$cursor" >"$workdir/list_p2"
n="$(grep -c '"id": "job-' "$workdir/list_p2" || true)"
[ "$n" = 1 ] || fail "second page listed $n jobs, want 1"
grep -q '"next_cursor"' "$workdir/list_p2" && fail "final page still carries next_cursor"
echo "movrd-smoke: listing filters and cursor pagination ok"

# Every job so far is done, so the live filters list nothing, and a
# cancel of a done job leaves it done and answers with its view.
for state in queued running; do
    curl -s "http://$addr/v1/jobs?state=$state" >"$workdir/list_$state"
    grep -q '"jobs": \[\]' "$workdir/list_$state" || fail "state=$state lists jobs after every job is done: $(cat "$workdir/list_$state")"
done
code="$(curl -s -o "$workdir/cancel" -w '%{http_code}' -X DELETE "http://$addr/v1/jobs/$jobid")"
[ "$code" = 200 ] || fail "cancel of done job $jobid returned $code"
grep -q "\"id\": \"$jobid\"" "$workdir/cancel" || fail "cancel answer is not the view of $jobid: $(cat "$workdir/cancel")"
grep -q '"state": "done"' "$workdir/cancel" || fail "cancel changed done job $jobid: $(cat "$workdir/cancel")"
echo "movrd-smoke: live filters empty once jobs are done; cancel leaves a done job done"

# Admission control: an over-capacity venue submit (EDF schedules 4 of
# 6 players per bay) in reject mode is refused before execution with
# the typed admission_denied envelope; the queue default admits the
# same venue. Both paths count players in /metrics: 2 overflow × 2
# bays = 4 rejected, then 4 queued.
aspec='{"kind":"fleet","fleet":{"scenario":"venue","bays":2,"headsets_per_room":6,"coex_policy":"edf","duration_ms":300,"admission":"reject"}}'
code="$(curl -s -o "$workdir/e409" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' -d "$aspec" \
    "http://$addr/v1/jobs")"
[ "$code" = 409 ] || fail "over-capacity venue submit returned $code, want 409: $(cat "$workdir/e409")"
grep -q '"code": "admission_denied"' "$workdir/e409" || fail "409 body lacks the admission_denied envelope: $(cat "$workdir/e409")"
qspec='{"kind":"fleet","fleet":{"scenario":"venue","bays":2,"headsets_per_room":6,"coex_policy":"edf","duration_ms":300}}'
code="$(curl -s -o "$workdir/r4" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' -d "$qspec" \
    "http://$addr/v1/jobs?wait=1")"
[ "$code" = 200 ] || fail "queued venue submit returned $code: $(cat "$workdir/r4")"
curl -s "http://$addr/metrics" >"$workdir/metrics2"
grep -q '^movrd_admission_rejected_total 4$' "$workdir/metrics2" || fail "/metrics does not count the rejected players"
grep -q '^movrd_admission_queued_total 4$' "$workdir/metrics2" || fail "/metrics does not count the queued players"
echo "movrd-smoke: venue admission rejects over capacity and queues by default"

# The other job kinds: a fig9 sweep and a coverage map each run to done,
# and each resubmission is a cache hit whose result bytes, from the
# "result" key to the end of the document, equal the first answer's.
for kind in fig9 map; do
    case "$kind" in
    fig9) kspec='{"kind":"fig9","fig9":{"runs":2,"nlos_step_deg":6,"seed":1}}' ;;
    map) kspec='{"kind":"map","map":{"grid_step":1,"with_reflector":true}}' ;;
    esac
    for i in 1 2; do
        code="$(curl -s -D "$workdir/${kind}_h$i" -o "$workdir/${kind}_r$i" -w '%{http_code}' \
            -X POST -H 'Content-Type: application/json' -d "$kspec" \
            "http://$addr/v1/jobs?wait=1")"
        [ "$code" = 200 ] || fail "$kind submit $i returned $code: $(cat "$workdir/${kind}_r$i")"
        grep -q '"state": "done"' "$workdir/${kind}_r$i" || fail "$kind submit $i did not finish: $(cat "$workdir/${kind}_r$i")"
        sed -n '/^  "result": /,$p' "$workdir/${kind}_r$i" >"$workdir/${kind}_result$i"
    done
    grep -qi '^x-movr-cache: hit' "$workdir/${kind}_h2" || fail "$kind resubmit was not a cache hit"
    [ -s "$workdir/${kind}_result1" ] || fail "$kind answer carries no result"
    cmp -s "$workdir/${kind}_result1" "$workdir/${kind}_result2" || fail "$kind cached result differs from the first answer"
done
echo "movrd-smoke: fig9 and map jobs run and resubmit as byte-identical cache hits"

# Debug listener: pprof and expvar live on their own socket, never the
# job API address.
daddr="$(sed -n 's/.*movrd: debug listening on \([0-9.:]*\)$/\1/p' "$log" | head -n 1)"
[ -n "$daddr" ] || fail "never saw the debug listen line"
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$daddr/debug/pprof/cmdline")"
[ "$code" = 200 ] || fail "/debug/pprof/cmdline returned $code"
code="$(curl -s -o "$workdir/vars" -w '%{http_code}' "http://$daddr/debug/vars")"
[ "$code" = 200 ] || fail "/debug/vars returned $code"
grep -q '"cmdline"' "$workdir/vars" || fail "/debug/vars is not expvar JSON"
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/debug/pprof/cmdline")"
[ "$code" = 200 ] && fail "pprof reachable on the job API address"
echo "movrd-smoke: debug listener serves pprof and expvar"

echo "movrd-smoke: PASS"
