package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/fleet/pool"
)

// hotSetSpecs are one spec of each result class movrd serves hot: the
// coex, home and venue fleet scenarios (the venue job streams its
// aggregates, so its result carries the per-bin stream sketches), fig9,
// and the coverage map with and without the reflector.
var hotSetSpecs = []struct{ name, body string }{
	{"coex", `{"kind":"fleet","fleet":{"scenario":"coex","sessions":4,"seed":5,"duration_ms":500}}`},
	{"home", `{"kind":"fleet","fleet":{"scenario":"home","sessions":4,"seed":5}}`},
	{"venue", `{"kind":"fleet","fleet":{"scenario":"venue","bays":2,"seed":5}}`},
	{"fig9", `{"kind":"fig9","fig9":{"runs":2,"nlos_step_deg":6,"seed":5}}`},
	{"map_reflector", `{"kind":"map","map":{"with_reflector":true}}`},
	{"map_bare", `{"kind":"map","map":{"with_reflector":false}}`},
}

type hotResult struct {
	name   string
	body   string  // the spec as submitted
	spec   JobSpec // normalized
	hash   string
	result []byte
}

var (
	hotOnce    sync.Once
	hotResults []hotResult
	hotErr     error
)

// hotSet executes every hot-set spec once per test binary and returns
// the specs with their executor results.
func hotSet(t testing.TB) []hotResult {
	t.Helper()
	hotOnce.Do(func() {
		runner := pool.NewRunner(2)
		for _, hs := range hotSetSpecs {
			var spec JobSpec
			if hotErr = json.Unmarshal([]byte(hs.body), &spec); hotErr != nil {
				return
			}
			norm, err := spec.Normalize()
			if err != nil {
				hotErr = err
				return
			}
			hash, err := hashNormalized(norm)
			if err != nil {
				hotErr = err
				return
			}
			res, _, err := execute(context.Background(), norm, runner, nil)
			if err != nil {
				hotErr = err
				return
			}
			hotResults = append(hotResults, hotResult{hs.name, hs.body, norm, hash, res})
		}
	})
	if hotErr != nil {
		t.Fatal(hotErr)
	}
	return hotResults
}

func hotResultNamed(t testing.TB, name string) hotResult {
	t.Helper()
	for _, hr := range hotSet(t) {
		if hr.name == name {
			return hr
		}
	}
	t.Fatalf("no hot-set result %q", name)
	return hotResult{}
}

// recordView renders v through write and returns the recorded response.
func recordView(write func(http.ResponseWriter, int, jobView), status int, v jobView) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	write(rec, status, v)
	return rec
}

func writeJSONView(w http.ResponseWriter, status int, v jobView) { writeJSON(w, status, v) }

// assertViewsEqual holds writeView to writeJSON on one view: status,
// content type and body byte for byte.
func assertViewsEqual(t *testing.T, name string, status int, v jobView) {
	t.Helper()
	want := recordView(writeJSONView, status, v)
	got := recordView(writeView, status, v)
	if got.Code != want.Code {
		t.Errorf("%s: status %d, writeJSON gives %d", name, got.Code, want.Code)
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Errorf("%s: Content-Type %q, writeJSON gives %q", name, g, w)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		g, w := got.Body.Bytes(), want.Body.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Errorf("%s: writeView differs from writeJSON at byte %d of %d/%d:\n got …%q\nwant …%q",
			name, i, len(g), len(w), g[i:min(i+80, len(g))], w[i:min(i+80, len(w))])
	}
}

// compactJSON is raw with the whitespace outside strings removed.
func compactJSON(t *testing.T, raw []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Error(err)
	}
	return buf.Bytes()
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestWriteViewMatchesEncoder holds writeView byte for byte to
// writeJSON over every view shape the job endpoints write: real
// executor results of each hot-set class as fresh runs, cache hits,
// coalesced followers and traced jobs; queued and running jobs; failed
// and canceled jobs; and results the encoder would rewrite, which take
// the fallback.
func TestWriteViewMatchesEncoder(t *testing.T) {
	created := time.Date(2026, 3, 1, 12, 0, 0, 123456789, time.UTC)
	started := created.Add(3 * time.Millisecond)
	finished := started.Add(1500 * time.Millisecond)
	base := func(hr hotResult) jobView {
		return jobView{ID: "job-7", State: StateDone, SpecSHA256: hr.hash, Spec: hr.spec, CreatedAt: created}
	}

	for _, hr := range hotSet(t) {
		if htmlEscapable(hr.result) {
			t.Errorf("%s: executor result holds bytes the encoder rewrites; it would skip the splice", hr.name)
		}
		done := base(hr)
		done.StartedAt, done.FinishedAt = &started, &finished
		done.ElapsedMS = finished.Sub(started).Milliseconds()
		done.Result, done.ResultSHA = hr.result, sha256Hex(hr.result)
		assertViewsEqual(t, hr.name+"/fresh", http.StatusOK, done)
		assertViewsEqual(t, hr.name+"/fresh_async", http.StatusAccepted, done)

		hit := done
		hit.Cached, hit.StartedAt, hit.FinishedAt, hit.ElapsedMS = true, &created, &created, 0
		assertViewsEqual(t, hr.name+"/cache_hit", http.StatusOK, hit)

		follower := done
		follower.Cached, follower.CoalescedWith = true, "job-6"
		assertViewsEqual(t, hr.name+"/follower", http.StatusOK, follower)

		traced := done
		traced.TraceSessions, traced.TraceEvents, traced.TraceDropped = 4, 12345, 7
		assertViewsEqual(t, hr.name+"/traced", http.StatusOK, traced)

		summary := done
		summary.Result = nil
		assertViewsEqual(t, hr.name+"/no_result", http.StatusOK, summary)
	}

	hr := hotResultNamed(t, "coex")
	queued := base(hr)
	queued.State = StateQueued
	assertViewsEqual(t, "queued", http.StatusAccepted, queued)

	coalescedQueued := queued
	coalescedQueued.CoalescedWith = "job-3"
	assertViewsEqual(t, "coalesced_queued", http.StatusAccepted, coalescedQueued)

	running := base(hr)
	running.State, running.StartedAt = StateRunning, &started
	assertViewsEqual(t, "running", http.StatusOK, running)

	failed := base(hr)
	failed.State, failed.StartedAt, failed.FinishedAt = StateFailed, &started, &finished
	failed.ElapsedMS = finished.Sub(started).Milliseconds()
	failed.Error = `fleet: bay 2 "quoted" <failed> & stopped` + "\n\u2028"
	assertViewsEqual(t, "failed", http.StatusOK, failed)

	canceled := base(hr)
	canceled.State, canceled.FinishedAt, canceled.Error = StateCanceled, &finished, "canceled while queued"
	assertViewsEqual(t, "canceled", http.StatusOK, canceled)

	// Results the encoder's HTML-escaping compaction rewrites, and
	// results with whitespace it drops.
	for name, res := range map[string]string{
		"html_fallback":       `{"render": "a <b> & c"}`,
		"u2028_fallback":      "{\"render\": \"line\u2028sep\"}",
		"u2029_fallback":      "[\"para\u2029sep\"]",
		"em_dash_splice":      `{"render":"Fleet — venue"}`,
		"whitespace_splice":   " \n\t{ \"a\" : [ 1 , 2 ] ,\r\n \"b\" : { } }  \n\t",
		"empty_array_splice":  `[]`,
		"bare_scalar_splice":  `"scalar"`,
		"nested_empty_splice": `{"a":{},"b":[],"c":[{},[]]}`,
	} {
		v := base(hr)
		v.StartedAt, v.FinishedAt = &started, &finished
		v.Result, v.ResultSHA = json.RawMessage(res), sha256Hex([]byte(res))
		assertViewsEqual(t, name, http.StatusOK, v)
		if wantFallback := strings.HasSuffix(name, "_fallback"); htmlEscapable(bytes.TrimSpace(v.Result)) != wantFallback {
			t.Errorf("%s: htmlEscapable = %v, want %v", name, !wantFallback, wantFallback)
		}
	}
}

// discardResponse is a ResponseWriter that keeps nothing, so an
// allocation count sees the view writer alone.
type discardResponse struct{ h http.Header }

func (d discardResponse) Header() http.Header       { return d.h }
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponse) WriteHeader(int)             {}

// writeViewAllocCeiling bounds the allocations of one cached view
// write. Splicing the stored result makes the count independent of the
// result's size; re-encoding the venue view through writeJSON costs
// over 30.
const writeViewAllocCeiling = 20

// TestWriteViewAllocs gates the allocations of a cached venue view
// write at a fixed count, and holds it level when the same envelope
// carries the smallest hot-set result instead: the venue result is
// 35 KB compact and about 250 KB indented, the bare map result under
// 1 KB.
func TestWriteViewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	w := discardResponse{h: http.Header{}}
	venue := hotResultNamed(t, "venue")
	created := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	allocs := map[string]float64{}
	for _, name := range []string{"venue", "map_bare"} {
		res := hotResultNamed(t, name).result
		v := jobView{
			ID: "job-1", State: StateDone, Cached: true, SpecSHA256: venue.hash, Spec: venue.spec,
			CreatedAt: created, StartedAt: &created, FinishedAt: &created,
			Result: res, ResultSHA: sha256Hex(res),
		}
		writeView(w, http.StatusOK, v) // size the pooled buffer
		allocs[name] = testing.AllocsPerRun(50, func() { writeView(w, http.StatusOK, v) })
	}
	t.Logf("allocations per view: venue result %.1f, bare map result %.1f", allocs["venue"], allocs["map_bare"])
	if allocs["venue"] > writeViewAllocCeiling {
		t.Errorf("writeView made %.1f allocations per venue view, ceiling %d", allocs["venue"], writeViewAllocCeiling)
	}
	if allocs["venue"] != allocs["map_bare"] {
		t.Errorf("writeView made %.1f allocations with the venue result and %.1f with the bare map result: the count depends on the result",
			allocs["venue"], allocs["map_bare"])
	}
}

// BenchmarkWriteView prices a cached venue view (35 KB compact, 249 KB
// indented): the whole writeView, and its indenting step alone beside
// json.Indent, which it replaced, on the same result.
func BenchmarkWriteView(b *testing.B) {
	venue := hotResultNamed(b, "venue")
	created := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	v := jobView{
		ID: "job-1", State: StateDone, Cached: true, SpecSHA256: venue.hash, Spec: venue.spec,
		CreatedAt: created, StartedAt: &created, FinishedAt: &created,
		Result: venue.result, ResultSHA: sha256Hex(venue.result),
	}
	b.Run("view", func(b *testing.B) {
		w := discardResponse{h: http.Header{}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeView(w, http.StatusOK, v)
		}
	})
	b.Run("appendIndented", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = appendIndented(buf[:0], venue.result)
		}
	})
	b.Run("json.Indent", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			_ = json.Indent(&buf, venue.result, "  ", "  ")
		}
	})
}

// TestWriteViewConcurrentGets has concurrent clients fetch and resubmit
// one done venue job over a real socket: every fetch carries the bytes
// writeJSON gives and every resubmission the same result, however the
// pooled buffers interleave.
func TestWriteViewConcurrentGets(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	hr := hotResultNamed(t, "venue")
	s.sched.cachePut(hr.hash, hr.result, resultDigest(hr.result))
	body := hr.body

	resp, v := postJob(t, ts, body, true)
	if resp.StatusCode != http.StatusOK || !v.Cached || !bytes.Equal(compactJSON(t, v.Result), hr.result) || v.ResultSHA != sha256Hex(hr.result) {
		t.Fatalf("venue submit: status %d cached %v, %d result bytes, sha %s", resp.StatusCode, v.Cached, len(v.Result), v.ResultSHA)
	}
	j, ok := s.sched.Get(v.ID)
	if !ok {
		t.Fatalf("job %s not retained", v.ID)
	}
	want := recordView(writeJSONView, http.StatusOK, view(j, true)).Body.Bytes()
	wantResult := want[bytes.Index(want, resultKey):] // the result and all after it

	const clients, rounds = 8, 2
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resubmit := (c+r)%2 == 1 // a fresh job, born done from the cache
				var resp *http.Response
				var err error
				if resubmit {
					resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				} else {
					resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID)
				}
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if !resubmit && !bytes.Equal(got, want) {
					t.Errorf("client %d round %d: GET body differs from writeJSON's (%d vs %d bytes)", c, r, len(got), len(want))
				}
				if at := bytes.Index(got, resultKey); at < 0 || !bytes.Equal(got[at:], wantResult) {
					t.Errorf("client %d round %d: result differs from writeJSON's (resubmit %v)", c, r, resubmit)
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestResultDigestOnEveryPath: a done job's result_sha256 is the digest
// of its result bytes however it ended — a fresh run, a memory cache
// hit, a coalesced follower, and a durable-store hit after a restart
// together with the memory hit that follows it.
func TestResultDigestOnEveryPath(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{Scenario: "home", Sessions: 2, Seed: 13, DurationMS: 100}}
	check := func(s *Scheduler, path string, spec JobSpec) {
		t.Helper()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		res, _ := j.Result()
		if v := view(j, true); j.State() != StateDone || v.ResultSHA != sha256Hex(res) {
			t.Errorf("%s: state %s, result_sha256 %q, want %q", path, j.State(), v.ResultSHA, sha256Hex(res))
		}
	}

	s1 := mustScheduler(t, Options{Workers: 2, CacheDir: dir})
	check(s1, "fresh", spec)
	check(s1, "memory hit", spec)
	s1.Close()

	s2 := mustScheduler(t, Options{Workers: 2, CacheDir: dir})
	check(s2, "store hit", spec)
	check(s2, "memory hit after promotion", spec)
	s2.Close()

	s3 := mustScheduler(t, Options{Workers: 1})
	defer s3.Close()
	exec, release := blockingExec()
	s3.execFn = exec
	primary, err := s3.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := s3.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	if follower.Coalesced() != primary.ID {
		t.Fatalf("second submission did not coalesce onto %s", primary.ID)
	}
	release()
	for _, j := range []*Job{primary, follower} {
		waitTerminal(t, j)
		res, _ := j.Result()
		if v := view(j, true); v.ResultSHA == "" || v.ResultSHA != sha256Hex(res) {
			t.Errorf("%s: result_sha256 %q, want %q", j.ID, v.ResultSHA, sha256Hex(res))
		}
	}
}
