package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string, wait bool) (*http.Response, jobView) {
	t.Helper()
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode job view: %v", err)
		}
	}
	return resp, v
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestResubmitServedFromCacheByteIdentical is the PR's acceptance
// criterion: submitting the same job spec twice returns byte-identical
// result JSON, the second served from the cache, and /metrics reports
// the hit.
func TestResubmitServedFromCacheByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	body := `{"kind":"fleet","fleet":{"scenario":"home","sessions":2,"seed":3,"duration_ms":150}}`

	resp1, v1 := postJob(t, ts, body, true)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: status %d", resp1.StatusCode)
	}
	if got := resp1.Header.Get("X-Movr-Cache"); got != "miss" {
		t.Errorf("first submit X-Movr-Cache = %q, want miss", got)
	}
	if v1.State != StateDone || v1.Cached || len(v1.Result) == 0 {
		t.Fatalf("first submit: state=%s cached=%v result=%d bytes, error=%q",
			v1.State, v1.Cached, len(v1.Result), v1.Error)
	}

	// A logically identical spec spelled differently (explicit defaults)
	// must still hit.
	body2 := `{"kind":"fleet","fleet":{"scenario":"home","sessions":2,"seed":3,"duration_ms":150,"reeval_ms":50,"variants":["tracking"]}}`
	resp2, v2 := postJob(t, ts, body2, true)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submit: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Movr-Cache"); got != "hit" {
		t.Errorf("second submit X-Movr-Cache = %q, want hit", got)
	}
	if !v2.Cached || v2.State != StateDone {
		t.Errorf("second submit: cached=%v state=%s", v2.Cached, v2.State)
	}
	if !bytes.Equal(v1.Result, v2.Result) {
		t.Error("resubmitted result JSON is not byte-identical")
	}
	if v1.ResultSHA == "" || v1.ResultSHA != v2.ResultSHA {
		t.Errorf("result hashes differ: %q vs %q", v1.ResultSHA, v2.ResultSHA)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mb bytes.Buffer
	mb.ReadFrom(mresp.Body)
	mtext := mb.String()
	for _, want := range []string{
		"movrd_cache_hits_total 1",
		"movrd_cache_misses_total 1",
		"movrd_cache_hit_ratio 0.5",
		"movrd_jobs_done_total 2",
		"movrd_jobs_submitted_total 2",
	} {
		if !strings.Contains(mtext, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(mtext, "movrd_job_latency_seconds_count 1") {
		t.Error("/metrics should report exactly one executed-job latency sample (the hit must not add one)")
	}
}

func TestSubmitAsyncThenPoll(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, v := postJob(t, ts, `{"kind":"fleet","fleet":{"scenario":"arcade","sessions":2,"seed":1,"duration_ms":100}}`, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		gresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var gv jobView
		json.NewDecoder(gresp.Body).Decode(&gv)
		gresp.Body.Close()
		if gv.State.Terminal() {
			if gv.State != StateDone || len(gv.Result) == 0 {
				t.Fatalf("job ended %s: %s", gv.State, gv.Error)
			}
			var payload struct {
				Kind   string `json:"kind"`
				Render string `json:"render"`
			}
			if err := json.Unmarshal(gv.Result, &payload); err != nil {
				t.Fatalf("result is not JSON: %v", err)
			}
			if payload.Kind != "fleet" || !strings.Contains(payload.Render, "sessions") {
				t.Errorf("unexpected payload kind=%q render=%q...", payload.Kind, payload.Render[:min(60, len(payload.Render))])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The list endpoint knows the job.
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Errorf("job list = %+v", list.Jobs)
	}
	if len(list.Jobs[0].Result) != 0 {
		t.Error("list summaries should not embed result bytes")
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for name, body := range map[string]string{
		"bad json":      `{"kind":`,
		"unknown field": `{"kind":"fleet","fleet":{"sessons":3}}`,
		"unknown kind":  `{"kind":"warp"}`,
		"bad scenario":  `{"kind":"fleet","fleet":{"scenario":"stadium"}}`,
		// Fleet jobs always run whole; a spec asking for one shard
		// must not silently run the whole job instead.
		"retired shard field": `{"kind":"fleet","fleet":{"sessions":4,"seed":2,"shard":{"index":0,"count":2}}}`,
	} {
		resp, _ := postJob(t, ts, body, false)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestSubmitBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1, QueueDepth: 1})
	fn, release := blockingExec()
	defer release()
	s.Scheduler().execFn = fn

	_, v1 := postJob(t, ts, `{"kind":"fleet","fleet":{"seed":1}}`, false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := s.Scheduler().Get(v1.ID)
		if ok && j.State() == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := postJob(t, ts, `{"kind":"fleet","fleet":{"seed":2}}`, false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d, want 202 (queued)", resp.StatusCode)
	}
	resp3, _ := postJob(t, ts, `{"kind":"fleet","fleet":{"seed":3}}`, false)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestCancelEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1})
	fn, release := blockingExec()
	defer release()
	s.Scheduler().execFn = fn

	_, v := postJob(t, ts, `{"kind":"fleet","fleet":{"seed":1}}`, false)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	j, _ := s.Scheduler().Get(v.ID)
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not terminate the job")
	}
	if st := j.State(); st != StateCanceled {
		t.Errorf("state after cancel = %s", st)
	}
}

func TestWantWait(t *testing.T) {
	for v, want := range map[string]bool{
		"": false, "0": false, "false": false,
		"1": true, "true": true, "yes": true,
	} {
		if got := wantWait(v); got != want {
			t.Errorf("wantWait(%q) = %v, want %v", v, got, want)
		}
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-404")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func TestEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	_, v := postJob(t, ts, `{"kind":"fleet","fleet":{"scenario":"home","sessions":2,"seed":9,"duration_ms":100}}`, false)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// The stream ends at the terminal event, so reading to EOF is
	// bounded.
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 4 { // queued, running, 2 sessions, done
		t.Fatalf("got %d events: %+v", len(events), events)
	}
	if events[0].Type != "queued" {
		t.Errorf("first event %q", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != "done" {
		t.Errorf("last event %q, want done", last.Type)
	}
	sessions := 0
	for _, ev := range events {
		if ev.Type == "session" {
			sessions++
		}
	}
	if sessions != 2 {
		t.Errorf("%d session events, want 2", sessions)
	}
}

func TestMetricsExposesPoolGauges(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 3})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	text := b.String()
	for _, want := range []string{
		"movrd_pool_capacity 3",
		"movrd_pool_in_use 0",
		"movrd_jobs_running 0",
		"# TYPE movrd_job_latency_seconds histogram",
		"movrd_http_requests_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSubmitCoexJob drives the new coex scenario through the whole
// daemon path: spec normalization (headsets_per_room), scheduling,
// fleet execution with the shared-medium sessions, and result
// rendering.
func TestSubmitCoexJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	resp, v := postJob(t, ts,
		`{"kind":"fleet","fleet":{"scenario":"coex","sessions":2,"seed":3,"duration_ms":300,"headsets_per_room":2}}`,
		true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if v.State != "done" {
		t.Fatalf("job state = %q, want done", v.State)
	}
	if !strings.Contains(string(v.Result), "shared medium") {
		t.Error("result render is missing the coex banner")
	}
	// The field is rejected outside the coex scenario.
	resp, _ = postJob(t, ts,
		`{"kind":"fleet","fleet":{"scenario":"home","sessions":2,"headsets_per_room":2}}`, true)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-coex headsets_per_room accepted with status %d", resp.StatusCode)
	}
}

// TestTraceEndpoint covers the flight-data path end to end: a fleet job
// submitted with trace:true serves a Perfetto-loadable Chrome trace at
// /v1/jobs/{id}/trace, reports event counts in its job view, and never
// touches the result cache; jobs without the flag answer 404.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	body := `{"kind":"fleet","fleet":{"scenario":"coex","sessions":2,"seed":7,"duration_ms":200,"trace":true}}`

	resp1, v1 := postJob(t, ts, body, true)
	if resp1.StatusCode != http.StatusOK || v1.State != StateDone {
		t.Fatalf("traced submit: status %d state %s error %q", resp1.StatusCode, v1.State, v1.Error)
	}
	if v1.TraceSessions == 0 || v1.TraceEvents == 0 {
		t.Errorf("job view trace counts = %d sessions / %d events, want nonzero",
			v1.TraceSessions, v1.TraceEvents)
	}

	tresp, err := http.Get(ts.URL + "/v1/jobs/" + v1.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status %d", tresp.StatusCode)
	}
	if ct := tresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace body is not Chrome trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace document has no traceEvents")
	}

	// Traced jobs bypass the cache in both directions: resubmitting the
	// same traced spec re-runs (miss), and the run is never Put — so a
	// later identical submission also misses.
	resp2, v2 := postJob(t, ts, body, true)
	if got := resp2.Header.Get("X-Movr-Cache"); got != "miss" {
		t.Errorf("traced resubmit X-Movr-Cache = %q, want miss", got)
	}
	if v2.Cached {
		t.Error("traced resubmit must not be served from cache")
	}
	if !bytes.Equal(v1.Result, v2.Result) {
		t.Error("traced re-run result JSON is not byte-identical (determinism)")
	}

	// A job without the flag has no trace.
	_, v3 := postJob(t, ts, `{"kind":"fleet","fleet":{"scenario":"home","sessions":1,"seed":3,"duration_ms":100}}`, true)
	nresp, err := http.Get(ts.URL + "/v1/jobs/" + v3.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("untraced job trace endpoint status %d, want 404", nresp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mb bytes.Buffer
	mb.ReadFrom(mresp.Body)
	mtext := mb.String()
	for _, want := range []string{
		"movrd_traced_jobs_total 2",
		`movrd_jobs_by_scenario_total{scenario="coex"} 2`,
		`movrd_jobs_by_scenario_total{scenario="home"} 1`,
		"movrd_job_queue_wait_seconds_count 3",
	} {
		if !strings.Contains(mtext, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
