package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/fleet/pool"
)

// postForError submits a body expecting rejection and returns the
// response (body still readable) for envelope assertions.
func postForError(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// fetchEnvelope decodes the v1 error envelope from a non-2xx response.
func fetchEnvelope(t *testing.T, resp *http.Response) APIError {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	var env apiErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not an envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code/message: %+v", env.Error)
	}
	return env.Error
}

// TestErrorEnvelope pins the v1 contract: every non-2xx response is
// {"error":{"code","message","detail"}} with a stable machine-readable
// code.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	t.Run("malformed body 400 invalid_spec", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if got := fetchEnvelope(t, resp).Code; got != ErrCodeInvalidSpec {
			t.Errorf("code %q, want %q", got, ErrCodeInvalidSpec)
		}
	})

	t.Run("out-of-bounds spec 400 invalid_spec", func(t *testing.T) {
		resp := postForError(t, ts, `{"kind":"fleet","fleet":{"scenario":"home","sessions":-1}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if got := fetchEnvelope(t, resp).Code; got != ErrCodeInvalidSpec {
			t.Errorf("code %q, want %q", got, ErrCodeInvalidSpec)
		}
	})

	t.Run("unknown spec version 400 invalid_spec", func(t *testing.T) {
		resp := postForError(t, ts, `{"v":2,"kind":"fleet","fleet":{"scenario":"home","sessions":2}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		e := fetchEnvelope(t, resp)
		if e.Code != ErrCodeInvalidSpec {
			t.Errorf("code %q, want %q", e.Code, ErrCodeInvalidSpec)
		}
		if !strings.Contains(e.Message+e.Detail, "version") {
			t.Errorf("envelope does not mention the version: %+v", e)
		}
	})

	t.Run("unknown job 404 not_found", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/jobs/job-99999")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
		if got := fetchEnvelope(t, resp).Code; got != ErrCodeNotFound {
			t.Errorf("code %q, want %q", got, ErrCodeNotFound)
		}
	})

	t.Run("bad list limit 400 invalid_argument", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/jobs?limit=zero")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if got := fetchEnvelope(t, resp).Code; got != ErrCodeInvalidArgument {
			t.Errorf("code %q, want %q", got, ErrCodeInvalidArgument)
		}
	})
}

// TestQueueFullEnvelope pins backpressure: a full queue answers 429
// with code queue_full and a Retry-After hint.
func TestQueueFullEnvelope(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1, QueueDepth: 1})
	fn, release := blockingExec()
	defer release()
	s.Scheduler().execFn = fn

	// Distinct seeds so nothing coalesces: one runs, one queues, the
	// third must bounce.
	var last *http.Response
	for seed := 1; seed <= 3; seed++ {
		body := fmt.Sprintf(`{"kind":"fleet","fleet":{"scenario":"home","sessions":2,"seed":%d,"duration_ms":100}}`, seed)
		last = postForError(t, ts, body)
		if seed < 3 {
			last.Body.Close()
		}
	}
	if last.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", last.StatusCode)
	}
	if last.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
	if got := fetchEnvelope(t, last).Code; got != ErrCodeQueueFull {
		t.Errorf("code %q, want %q", got, ErrCodeQueueFull)
	}
}

type listPage struct {
	Jobs       []jobView `json:"jobs"`
	NextCursor string    `json:"next_cursor"`
}

func getList(t *testing.T, ts *httptest.Server, query string) listPage {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("list %q: status %d: %s", query, resp.StatusCode, body)
	}
	var page listPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

// TestListFiltersAndPagination pins GET /v1/jobs: deterministic
// ascending-ID order, state and scenario filters, and opaque-cursor
// pagination that tiles the filtered set exactly.
func TestListFiltersAndPagination(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	scenarios := []string{"home", "coex", "home", "home", "coex"}
	for i, sc := range scenarios {
		body := fmt.Sprintf(`{"kind":"fleet","fleet":{"scenario":%q,"sessions":2,"seed":%d,"duration_ms":100}}`, sc, i+1)
		resp, v := postJob(t, ts, body, true)
		if resp.StatusCode != http.StatusOK || v.State != StateDone {
			t.Fatalf("job %d (%s): status %d state %s", i, sc, resp.StatusCode, v.State)
		}
	}

	all := getList(t, ts, "")
	if len(all.Jobs) != len(scenarios) {
		t.Fatalf("unfiltered list has %d jobs, want %d", len(all.Jobs), len(scenarios))
	}
	for i := 1; i < len(all.Jobs); i++ {
		if jobNumericID(all.Jobs[i-1].ID) >= jobNumericID(all.Jobs[i].ID) {
			t.Fatalf("list not in ascending ID order: %s before %s", all.Jobs[i-1].ID, all.Jobs[i].ID)
		}
	}
	if all.NextCursor != "" {
		t.Error("complete page carries a next_cursor")
	}

	if got := getList(t, ts, "?state=done"); len(got.Jobs) != len(scenarios) {
		t.Errorf("state=done returned %d jobs, want %d", len(got.Jobs), len(scenarios))
	}
	if got := getList(t, ts, "?state=failed"); len(got.Jobs) != 0 {
		t.Errorf("state=failed returned %d jobs, want 0", len(got.Jobs))
	}
	home := getList(t, ts, "?scenario=home")
	if len(home.Jobs) != 3 {
		t.Fatalf("scenario=home returned %d jobs, want 3", len(home.Jobs))
	}
	for _, v := range home.Jobs {
		if v.Spec.Fleet == nil || v.Spec.Fleet.Scenario != "home" {
			t.Errorf("scenario filter leaked job %s", v.ID)
		}
	}

	// Cursor walk with limit=2 over the home subset: pages tile the
	// filtered list exactly, in order, with no duplicates, and the last
	// page drops next_cursor.
	var walked []string
	query := "?scenario=home&limit=2"
	for hops := 0; ; hops++ {
		if hops > 10 {
			t.Fatal("cursor walk did not terminate")
		}
		page := getList(t, ts, query)
		for _, v := range page.Jobs {
			walked = append(walked, v.ID)
		}
		if page.NextCursor == "" {
			if len(page.Jobs) == 2 && hops == 0 {
				t.Error("full first page without next_cursor while more jobs remain")
			}
			break
		}
		if len(page.Jobs) != 2 {
			t.Fatalf("short page %d carries next_cursor", hops)
		}
		query = "?scenario=home&limit=2&cursor=" + page.NextCursor
	}
	if len(walked) != len(home.Jobs) {
		t.Fatalf("cursor walk visited %d jobs, want %d", len(walked), len(home.Jobs))
	}
	for i, id := range walked {
		if id != home.Jobs[i].ID {
			t.Fatalf("cursor walk order diverges at %d: %s vs %s", i, id, home.Jobs[i].ID)
		}
	}

	// Cursors are opaque: garbage is rejected, not misparsed.
	resp, err := http.Get(ts.URL + "/v1/jobs?cursor=garbage!!")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage cursor status %d, want 400", resp.StatusCode)
	}
	if got := fetchEnvelope(t, resp).Code; got != ErrCodeInvalidArgument {
		t.Errorf("code %q, want %q", got, ErrCodeInvalidArgument)
	}

	// Unknown state filter is invalid_argument too.
	resp2, err := http.Get(ts.URL + "/v1/jobs?state=sleeping")
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad state filter status %d, want 400", resp2.StatusCode)
	}
	if got := fetchEnvelope(t, resp2).Code; got != ErrCodeInvalidArgument {
		t.Errorf("code %q, want %q", got, ErrCodeInvalidArgument)
	}
}

// TestListLiveIndex holds the queued and running pages, which walk the
// scheduler's live jobs, byte for byte to the same filter over every
// retained job: in ID order, across a cursor page boundary, beside a
// cache hit, with a coalesced follower and a job canceled while queued,
// as jobs start and end, and after Close. Once every job is terminal
// the live index is empty.
func TestListLiveIndex(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 1, QueueDepth: 8})
	s := srv.sched
	release := map[int64]chan struct{}{}
	for seed := int64(1); seed <= 6; seed++ {
		release[seed] = make(chan struct{})
	}
	s.execFn = func(ctx context.Context, spec JobSpec, runner *pool.Runner, onSession func(int, int, fleet.SessionOutcome)) ([]byte, *TraceArtifact, error) {
		select {
		case <-release[spec.Fleet.Seed]:
			return []byte(`{"ok":true}`), nil, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	submit := func(seed int64) *Job {
		t.Helper()
		j, err := s.Submit(specN(seed))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	// check walks each live filter two jobs a page and holds every page
	// to listJobs over the retained walk, then the walked IDs to want.
	check := func(stage string, want map[State][]string) {
		t.Helper()
		for _, state := range []State{StateQueued, StateRunning} {
			var ids []string
			cursor, after := "", 0
			for hop := 0; hop < 10; hop++ {
				resp, err := http.Get(ts.URL + "/v1/jobs?limit=2&state=" + string(state) + cursor)
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				writeJSON(rec, http.StatusOK, listJobs(s.Jobs(), state, "", after, 2))
				if !bytes.Equal(got, rec.Body.Bytes()) {
					t.Fatalf("%s: state=%s page %d differs from the retained walk:\n got %s\nwant %s", stage, state, hop, got, rec.Body.Bytes())
				}
				var page listPage
				if err := json.Unmarshal(got, &page); err != nil {
					t.Fatal(err)
				}
				for _, v := range page.Jobs {
					ids = append(ids, v.ID)
				}
				if page.NextCursor == "" {
					break
				}
				if after, err = decodeListCursor(page.NextCursor); err != nil {
					t.Fatal(err)
				}
				cursor = "&cursor=" + page.NextCursor
			}
			if fmt.Sprint(ids) != fmt.Sprint(want[state]) {
				t.Fatalf("%s: state=%s lists %v, want %v", stage, state, ids, want[state])
			}
		}
	}

	j1 := submit(1)
	waitState(t, j1, StateRunning)
	j2, j3, j4 := submit(2), submit(3), submit(4)
	hit := specN(9)
	norm, err := hit.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := hashNormalized(norm)
	if err != nil {
		t.Fatal(err)
	}
	s.cachePut(hash, []byte(`{"hit":true}`), resultDigest([]byte(`{"hit":true}`)))
	if j5 := submit(9); j5.State() != StateDone {
		t.Fatalf("cache hit %s is %s", j5.ID, j5.State())
	}
	j6 := submit(3)
	if j6.Coalesced() != j3.ID {
		t.Fatalf("%s did not coalesce onto %s", j6.ID, j3.ID)
	}
	check("submitted", map[State][]string{StateQueued: {j2.ID, j3.ID, j4.ID, j6.ID}, StateRunning: {j1.ID}})

	s.Cancel(j2.ID)
	check("canceled while queued", map[State][]string{StateQueued: {j3.ID, j4.ID, j6.ID}, StateRunning: {j1.ID}})

	close(release[1])
	waitState(t, j3, StateRunning)
	check("first done", map[State][]string{StateQueued: {j4.ID, j6.ID}, StateRunning: {j3.ID}})

	close(release[3])
	waitState(t, j4, StateRunning)
	waitTerminal(t, j6)
	check("primary and follower done", map[State][]string{StateRunning: {j4.ID}})

	close(release[4])
	waitTerminal(t, j4)
	check("all done", nil)
	if live := s.liveJobs(); len(live) != 0 {
		t.Fatalf("every job is terminal, but the live index holds %d", len(live))
	}

	j7 := submit(5)
	waitState(t, j7, StateRunning)
	j8 := submit(6)
	check("before Close", map[State][]string{StateQueued: {j8.ID}, StateRunning: {j7.ID}})
	s.Close()
	for _, j := range []*Job{j7, j8} {
		if j.State() != StateCanceled {
			t.Fatalf("%s is %s after Close", j.ID, j.State())
		}
	}
	check("after Close", nil)
	if live := s.liveJobs(); len(live) != 0 {
		t.Fatalf("Close left %d jobs in the live index", len(live))
	}
}
