package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/fleet/pool"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok, _ := st.Get("missing"); ok {
		t.Fatal("empty store claims an entry")
	}
	want := map[string][]byte{
		"aaaa": []byte(`{"x":1}`),
		"bbbb": []byte(`{"y":[2,3]}`),
		"cccc": {},
	}
	for k, v := range want {
		if err := st.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	// Re-putting an existing key must not grow the log: results are
	// deterministic functions of the hash.
	size := st.size
	if err := st.Put("aaaa", want["aaaa"]); err != nil {
		t.Fatal(err)
	}
	if st.size != size {
		t.Fatal("re-put of an existing key grew the log")
	}
	for k, v := range want {
		got, ok, _ := st.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) = %q, %v; want %q", k, got, ok, v)
		}
	}
	if st.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(want))
	}

	// Reopen (compacts): every entry survives byte for byte.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for k, v := range want {
		got, ok, _ := st2.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("after reopen: Get(%q) = %q, %v; want %q", k, got, ok, v)
		}
	}
}

// TestStoreTornTailTruncated pins crash tolerance: a record half-written
// at crash time (torn tail) is dropped on open, and every record before
// it survives.
func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("key1", []byte("value-one")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("key2", []byte("value-two")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	path := filepath.Join(dir, storeLogName)
	for name, taint := range map[string]func([]byte) []byte{
		// A crash mid-append leaves a prefix of the record.
		"short-record": func(raw []byte) []byte {
			return append(raw, encodeStoreRecord("key3", []byte("value-three"))[:7]...)
		},
		// Bit rot in the tail record fails its CRC.
		"corrupt-crc": func(raw []byte) []byte {
			rec := encodeStoreRecord("key3", []byte("value-three"))
			rec[len(rec)-1] ^= 0xFF
			return append(raw, rec...)
		},
		// Garbage lengths must not drive a huge allocation.
		"garbage-header": func(raw []byte) []byte {
			return append(raw, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3)
		},
	} {
		intact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, taint(intact), 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := openStore(dir)
		if err != nil {
			t.Fatalf("%s: open after taint: %v", name, err)
		}
		for k, v := range map[string]string{"key1": "value-one", "key2": "value-two"} {
			got, ok, _ := st2.Get(k)
			if !ok || string(got) != v {
				t.Fatalf("%s: lost intact entry %q (got %q, %v)", name, k, got, ok)
			}
		}
		if _, ok, _ := st2.Get("key3"); ok {
			t.Fatalf("%s: torn record served", name)
		}
		if st2.Len() != 2 {
			t.Fatalf("%s: Len = %d, want 2", name, st2.Len())
		}
		st2.Close()
		// Restore the intact log for the next taint.
		if err := os.WriteFile(path, intact, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreCompaction pins that restart compaction drops dead records:
// many overwrites of one key collapse to a single live record on open.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, storeLogName)
	// Build a log with heavy duplication by writing records directly
	// (the store itself refuses duplicate appends).
	var raw []byte
	for i := 0; i < 50; i++ {
		raw = append(raw, encodeStoreRecord("dup", []byte(fmt.Sprintf("v%d", i)))...)
	}
	raw = append(raw, encodeStoreRecord("other", []byte("keep"))...)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, ok, _ := st.Get("dup"); !ok || string(got) != "v49" {
		t.Fatalf("last write should win: got %q, %v", got, ok)
	}
	if got, ok, _ := st.Get("other"); !ok || string(got) != "keep" {
		t.Fatalf("lost entry: got %q, %v", got, ok)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(encodeStoreRecord("dup", []byte("v49"))) + len(encodeStoreRecord("other", []byte("keep"))))
	if info.Size() != want {
		t.Fatalf("compacted log is %d bytes, want %d (dead records kept?)", info.Size(), want)
	}
}

// TestCrashRestartServesPersistedResult is the PR's durability
// acceptance test: a daemon that dies after completing a job serves the
// persisted result on reboot — byte-identical, marked cached, without
// re-executing the spec.
func TestCrashRestartServesPersistedResult(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{Scenario: "home", Sessions: 2, Seed: 11, DurationMS: 100}}

	s1 := mustScheduler(t, Options{Workers: 2, CacheDir: dir})
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	if j1.State() != StateDone {
		t.Fatalf("job state %s: %s", j1.State(), j1.Err())
	}
	want, _ := j1.Result()
	// Crash: the scheduler is abandoned, never Closed. Put fsyncs per
	// append, so the result must already be durable.

	s2 := mustScheduler(t, Options{Workers: 2, CacheDir: dir})
	defer s2.Close()
	// Any execution attempt on the restarted daemon is a test failure:
	// the result must come from the durable store.
	s2.execFn = func(ctx context.Context, spec JobSpec, runner *pool.Runner, onSession func(int, int, fleet.SessionOutcome)) ([]byte, *TraceArtifact, error) {
		return nil, nil, fmt.Errorf("re-executed a persisted spec")
	}
	j2, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j2)
	res, cached := j2.Result()
	if j2.State() != StateDone || !cached {
		t.Fatalf("restarted daemon did not serve from the durable store (state %s, cached %v, err %q)",
			j2.State(), cached, j2.Err())
	}
	if !bytes.Equal(res, want) {
		t.Fatal("persisted result differs from the original run")
	}
	if s2.met.storeHits.Value() != 1 {
		t.Fatalf("store hits = %d, want 1", s2.met.storeHits.Value())
	}

	s1.Close()
}

// TestStoreWriteFailureKeepsServing closes the store's log file under a
// live scheduler, so every append fails as on a yanked volume: the job
// still ends done, the failure is counted, an identical resubmit is a
// memory-cache hit with the same bytes, and a scheduler reopened on the
// directory re-executes the spec instead of serving anything from the
// log that never took the record.
func TestStoreWriteFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{Scenario: "home", Sessions: 2, Seed: 12, DurationMS: 100}}

	s1 := mustScheduler(t, Options{Workers: 2, CacheDir: dir})
	if err := s1.store.f.Close(); err != nil {
		t.Fatal(err)
	}
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	if j1.State() != StateDone {
		t.Fatalf("job state %s: %s", j1.State(), j1.Err())
	}
	var prom bytes.Buffer
	s1.met.reg.WritePrometheus(&prom)
	if !strings.Contains(prom.String(), "\nmovrd_store_errors_total 1\n") {
		t.Fatalf("/metrics does not count one store error:\n%s", prom.String())
	}
	want, _ := j1.Result()
	j2, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, cached := j2.Result()
	if j2.State() != StateDone || !cached || !bytes.Equal(res, want) {
		t.Fatalf("resubmit: state %s, cached %v, same bytes %v; want a done cache hit with the first result",
			j2.State(), cached, bytes.Equal(res, want))
	}
	if s1.met.storeHits.Value() != 0 {
		t.Fatalf("store hits = %d, want the memory tier to serve", s1.met.storeHits.Value())
	}
	s1.Close()

	s2 := mustScheduler(t, Options{Workers: 2, CacheDir: dir})
	defer s2.Close()
	var runs atomic.Int64
	s2.execFn = func(ctx context.Context, spec JobSpec, runner *pool.Runner, onSession func(int, int, fleet.SessionOutcome)) ([]byte, *TraceArtifact, error) {
		runs.Add(1)
		return execute(ctx, spec, runner, onSession)
	}
	j3, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j3)
	res, cached = j3.Result()
	if j3.State() != StateDone || cached || runs.Load() != 1 {
		t.Fatalf("reopened scheduler: state %s, cached %v, runs %d; want one fresh execution",
			j3.State(), cached, runs.Load())
	}
	if !bytes.Equal(res, want) {
		t.Fatal("re-executed result differs from the first run")
	}
}

// TestStoreHitChecked changes one byte of a stored result on disk under
// a live daemon, after the open-time scan has passed it: the
// resubmission fails the record's CRC, counts a store error, re-executes
// and serves the correct bytes, and the next resubmission is a memory
// hit. The changed byte is a digit, so the bytes stay valid JSON and
// only the CRC can tell. A record whose CRC holds but whose value is not
// JSON is refused the same way.
func TestStoreHitChecked(t *testing.T) {
	spec := JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{Scenario: "home", Sessions: 2, Seed: 14, DurationMS: 100}}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := hashNormalized(norm)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := execute(context.Background(), norm, pool.NewRunner(2), nil)
	if err != nil {
		t.Fatal(err)
	}

	// resubmit posts the spec to a daemon on dir after corrupt has
	// changed its stored record, and expects one fresh execution.
	resubmit := func(t *testing.T, dir string, corrupt func(*store)) {
		srv, ts := newTestServer(t, Options{Workers: 2, CacheDir: dir})
		var runs atomic.Int64
		srv.sched.execFn = func(ctx context.Context, spec JobSpec, runner *pool.Runner, onSession func(int, int, fleet.SessionOutcome)) ([]byte, *TraceArtifact, error) {
			runs.Add(1)
			return execute(ctx, spec, runner, onSession)
		}
		corrupt(srv.sched.store)
		for i, wantCache := range []string{"miss", "hit"} {
			resp, v := postJob(t, ts, string(body), true)
			if got := resp.Header.Get("X-Movr-Cache"); resp.StatusCode != http.StatusOK || got != wantCache || v.State != StateDone {
				t.Fatalf("submit %d: status %d, X-Movr-Cache %q, state %s; want 200, %q, done", i, resp.StatusCode, got, v.State, wantCache)
			}
			if !bytes.Equal(compactJSON(t, v.Result), want) || v.ResultSHA != sha256Hex(want) {
				t.Fatalf("submit %d served %d result bytes that differ from the executor's %d", i, len(compactJSON(t, v.Result)), len(want))
			}
		}
		if runs.Load() != 1 || srv.sched.met.storeErrors.Value() != 1 || srv.sched.met.storeHits.Value() != 0 {
			t.Fatalf("runs %d, store errors %d, store hits %d; want 1, 1, 0",
				runs.Load(), srv.sched.met.storeErrors.Value(), srv.sched.met.storeHits.Value())
		}
	}

	t.Run("crc", func(t *testing.T) {
		dir := t.TempDir()
		st, err := openStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(hash, want); err != nil {
			t.Fatal(err)
		}
		st.Close()
		resubmit(t, dir, func(st *store) {
			pos := st.index[hash]
			val := make([]byte, pos.len)
			if _, err := st.f.ReadAt(val, pos.off); err != nil || !bytes.Equal(val, want) {
				t.Fatalf("stored value differs from the result (read error %v)", err)
			}
			i := bytes.Index(val, []byte(".")) + 1 // a fraction digit
			val[i] ^= 1
			if !json.Valid(val) {
				t.Fatal("the changed value is not JSON; the CRC check would not be the one to catch it")
			}
			if _, err := st.f.WriteAt(val[i:i+1], pos.off+int64(i)); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("not_json", func(t *testing.T) {
		dir := t.TempDir()
		st, err := openStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(hash, want[:len(want)/2]); err != nil {
			t.Fatal(err)
		}
		st.Close()
		resubmit(t, dir, func(*store) {})
	})
}
