package movrclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/server"
)

func newDaemon(t *testing.T, opts server.Options) *Client {
	t.Helper()
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return New(ts.URL)
}

func fleetSpec(seed int) map[string]any {
	return map[string]any{
		"kind": "fleet",
		"fleet": map[string]any{
			"scenario": "home", "sessions": 2, "seed": seed, "duration_ms": 100,
		},
	}
}

// TestClientRoundTrip drives the whole client surface against a real
// in-process movrd: submit-and-wait, cache-hit resubmit, event stream
// and metrics.
func TestClientRoundTrip(t *testing.T) {
	c := newDaemon(t, server.Options{Workers: 2})
	ctx := context.Background()

	j, err := c.SubmitWait(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != "done" || len(j.Result) == 0 {
		t.Fatalf("job state %s, %d result bytes, error %q", j.State, len(j.Result), j.Error)
	}
	if j.CacheDisposition != "miss" {
		t.Errorf("first submit disposition %q, want miss", j.CacheDisposition)
	}

	again, err := c.SubmitWait(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheDisposition != "hit" || !again.Cached {
		t.Errorf("resubmit disposition %q cached %v, want hit/true", again.CacheDisposition, again.Cached)
	}
	if !bytes.Equal(j.Result, again.Result) {
		t.Error("cached result not byte-identical")
	}

	var types []string
	err = c.StreamEvents(ctx, j.ID, func(ev Event) error {
		types = append(types, ev.Type)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(types) < 3 || types[0] != "queued" || types[len(types)-1] != "done" {
		t.Errorf("event stream %v, want queued...done", types)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "movrd_cache_hits_total 1\n") {
		t.Errorf("metrics do not count the cache hit:\n%s", metrics)
	}
}

// TestClientAPIError pins the typed error surface: a rejected spec and
// the event stream of an unknown job come back as *APIError with the
// stable code.
func TestClientAPIError(t *testing.T) {
	c := newDaemon(t, server.Options{Workers: 1})
	ctx := context.Background()

	var apiErr *APIError
	_, err := c.SubmitWait(ctx, map[string]any{"kind": "nonsense"})
	if !errors.As(err, &apiErr) || apiErr.Code != server.ErrCodeInvalidSpec {
		t.Fatalf("bad spec error = %v, want code %s", err, server.ErrCodeInvalidSpec)
	}
	err = c.StreamEvents(ctx, "job-99999", func(Event) error { return nil })
	if !errors.As(err, &apiErr) || apiErr.Code != server.ErrCodeNotFound {
		t.Fatalf("unknown job error = %v, want code %s", err, server.ErrCodeNotFound)
	}
	if apiErr.StatusCode != http.StatusNotFound || apiErr.Message == "" {
		t.Errorf("envelope fields not carried: %+v", apiErr)
	}
}

// TestClientRetriesQueueFull pins backpressure handling: the client
// retries 429 queue_full with the server's Retry-After hint and
// eventually lands the job; with retries disabled the 429 surfaces.
func TestClientRetriesQueueFull(t *testing.T) {
	// A stub daemon that bounces the first two submissions.
	var submits int
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		submits++
		if submits <= 2 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"queue_full","message":"job queue full","detail":"retry"}}`)
			return
		}
		w.Header().Set("X-Movr-Cache", "miss")
		json.NewEncoder(w).Encode(map[string]any{"id": "job-1", "state": "done"})
	}))
	defer stub.Close()

	c := New(stub.URL)
	c.MaxRetries = 4
	c.RetryBackoff = time.Millisecond
	// Shrink the honored Retry-After for test speed by bounding the ctx;
	// the hint is 1s, so a generous deadline still proves retries happen.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	j, err := c.SubmitWait(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != "done" || submits != 3 {
		t.Fatalf("state %s after %d submits, want done after 3", j.State, submits)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		t.Errorf("retries took %v — Retry-After: 1 hint not honored", elapsed)
	}

	submits = 0
	c2 := New(stub.URL)
	c2.MaxRetries = 0
	_, err = c2.SubmitWait(ctx, fleetSpec(1))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "queue_full" {
		t.Fatalf("no-retry client error = %v, want queue_full", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want 1s", apiErr.RetryAfter)
	}
}
