package server

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/fleet/pool"
)

// TestCoalesceIdenticalInflight pins single-flight semantics: a spec
// submitted while an identical spec is executing never runs twice — the
// second job follows the first and finishes with the same bytes.
func TestCoalesceIdenticalInflight(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 1, MaxJobs: 1, QueueDepth: 4})
	defer s.Close()
	fn, release := blockingExec()
	s.execFn = fn

	spec := JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{Scenario: "home", Sessions: 2, Seed: 3, DurationMS: 100}}
	primary, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, primary, StateRunning)

	follower, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if follower.ID == primary.ID {
		t.Fatal("coalesced submission reused the primary's job ID")
	}
	if follower.Coalesced() != primary.ID {
		t.Fatalf("follower coalesced with %q, want %q", follower.Coalesced(), primary.ID)
	}
	// A third identical submit piles onto the same primary.
	third, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if third.Coalesced() != primary.ID {
		t.Fatalf("third submission coalesced with %q, want %q", third.Coalesced(), primary.ID)
	}
	// Followers hold no queue slot: the depth-4 queue still takes four
	// distinct jobs with the primary running and two followers attached.
	for seed := int64(100); seed < 104; seed++ {
		other := spec
		f := *spec.Fleet
		f.Seed = seed
		other.Fleet = &f
		if _, err := s.Submit(other); err != nil {
			t.Fatalf("seed %d rejected — followers consumed queue slots: %v", seed, err)
		}
	}

	release()
	for _, j := range []*Job{primary, follower, third} {
		waitTerminal(t, j)
		if j.State() != StateDone {
			t.Fatalf("job %s state %s: %s", j.ID, j.State(), j.Err())
		}
	}
	pr, pc := primary.Result()
	fr, fc := follower.Result()
	if pc {
		t.Fatal("primary marked cached")
	}
	if !fc {
		t.Fatal("follower not marked cached")
	}
	if !bytes.Equal(pr, fr) {
		t.Fatal("follower result differs from primary")
	}
	if got := s.met.jobsCoalesced.Value(); got != 2 {
		t.Fatalf("jobsCoalesced = %d, want 2", got)
	}
	// The follower's event log records the merge and the terminal state.
	evs, _, _ := follower.EventsSince(0)
	var sawCoalesced, sawDone bool
	for _, e := range evs {
		switch e.Type {
		case "coalesced":
			sawCoalesced = e.Primary == primary.ID
		case "done":
			sawDone = true
		}
	}
	if !sawCoalesced || !sawDone {
		t.Fatalf("follower events missing coalesced/done: %+v", evs)
	}
}

// TestCoalesceFollowerCancel pins independence: canceling a follower
// neither cancels nor disturbs the primary.
func TestCoalesceFollowerCancel(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 1, MaxJobs: 1})
	defer s.Close()
	fn, release := blockingExec()
	s.execFn = fn

	spec := JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{Scenario: "home", Sessions: 2, Seed: 4, DurationMS: 100}}
	primary, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, primary, StateRunning)
	follower, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if follower.Coalesced() != primary.ID {
		t.Fatal("second submit did not coalesce")
	}
	if !s.Cancel(follower.ID) {
		t.Fatal("follower cancel refused")
	}
	waitTerminal(t, follower)
	if follower.State() != StateCanceled {
		t.Fatalf("follower state %s, want canceled", follower.State())
	}
	if primary.State() != StateRunning {
		t.Fatalf("primary state %s after follower cancel, want running", primary.State())
	}
	release()
	waitTerminal(t, primary)
	if primary.State() != StateDone {
		t.Fatalf("primary state %s: %s", primary.State(), primary.Err())
	}
}

// TestCoalescePrimaryCancelPropagates pins the other direction: when
// the primary is canceled its followers cannot produce a result, so
// they terminate canceled too.
func TestCoalescePrimaryCancelPropagates(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 1, MaxJobs: 1})
	defer s.Close()
	fn, release := blockingExec()
	defer release()
	s.execFn = fn

	spec := JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{Scenario: "home", Sessions: 2, Seed: 5, DurationMS: 100}}
	primary, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, primary, StateRunning)
	follower, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if follower.Coalesced() != primary.ID {
		t.Fatal("second submit did not coalesce")
	}
	if !s.Cancel(primary.ID) {
		t.Fatal("primary cancel refused")
	}
	waitTerminal(t, primary)
	waitTerminal(t, follower)
	if follower.State() != StateCanceled {
		t.Fatalf("follower state %s, want canceled", follower.State())
	}
}

// TestCoalesceClearedAfterCompletion pins the no-stale-merge property:
// once the primary finishes, an identical submit is a cache hit (born
// done), not a follower of a dead job — and never a re-execution.
func TestCoalesceClearedAfterCompletion(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 1, MaxJobs: 1})
	defer s.Close()
	fn, release := blockingExec()
	s.execFn = fn

	spec := JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{Scenario: "home", Sessions: 2, Seed: 6, DurationMS: 100}}
	primary, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, primary, StateRunning)
	release()
	waitTerminal(t, primary)

	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Coalesced() != "" {
		t.Fatalf("post-completion submit coalesced with %q, want cache hit", again.Coalesced())
	}
	waitTerminal(t, again)
	res, cached := again.Result()
	if again.State() != StateDone || !cached {
		t.Fatalf("resubmit state %s cached %v, want done from cache", again.State(), cached)
	}
	want, _ := primary.Result()
	if !bytes.Equal(res, want) {
		t.Fatal("cached result differs from primary")
	}
}

// TestTracedJobsNeverCoalesce: trace artifacts are per-job (ring-buffer
// recorders attach to one execution), so traced submissions bypass
// single-flight entirely.
func TestTracedJobsNeverCoalesce(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 1, MaxJobs: 1, QueueDepth: 4})
	defer s.Close()
	fn, release := blockingExec()
	s.execFn = fn

	spec := JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{Scenario: "home", Sessions: 2, Seed: 7, DurationMS: 100, Trace: true}}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, StateRunning)
	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Coalesced() != "" {
		t.Fatalf("traced job coalesced with %q", second.Coalesced())
	}
	release()
	waitTerminal(t, first)
	waitTerminal(t, second)
	if got := s.met.jobsCoalesced.Value(); got != 0 {
		t.Fatalf("jobsCoalesced = %d for traced jobs, want 0", got)
	}
}

// waitState polls until the job reaches the given state (tests only).
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (now %s)", j.ID, want, j.State())
}

// TestCoalesceBurstLifecycle submits one spec from many goroutines while
// the primary is released mid-burst, so submissions land before, during
// and after the primary's finish. Each must be a follower, a cache hit
// or the one execution — never a second run — and end done with the
// primary's bytes. A second primary then holds followers through Close,
// which must leave no job short of a terminal state.
func TestCoalesceBurstLifecycle(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 1, MaxJobs: 1, QueueDepth: 4})
	release := make(chan struct{})
	var runs atomic.Int64
	s.execFn = func(ctx context.Context, spec JobSpec, runner *pool.Runner, onSession func(int, int, fleet.SessionOutcome)) ([]byte, *TraceArtifact, error) {
		runs.Add(1)
		if spec.Fleet.Seed == 2 { // the held primary: only Close ends it
			<-ctx.Done()
			return nil, nil, ctx.Err()
		}
		select {
		case <-release:
			return []byte(`{"ok":true}`), nil, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}

	const submitters, each = 8, 25
	jobs := make(chan *Job, submitters*each)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if g == 0 && i == each/2 {
					close(release)
				}
				j, err := s.Submit(specN(1))
				if err != nil {
					t.Error(err)
					return
				}
				jobs <- j
			}
		}(g)
	}
	wg.Wait()
	close(jobs)

	var primary *Job
	var all []*Job
	for j := range jobs {
		waitTerminal(t, j)
		if j.State() != StateDone {
			t.Fatalf("job %s ended %s: %s", j.ID, j.State(), j.Err())
		}
		if _, cached := j.Result(); !cached {
			primary = j
		}
		all = append(all, j)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("execFn ran %d times for one spec, want 1", got)
	}
	want, _ := primary.Result()
	for _, j := range all {
		if res, _ := j.Result(); !bytes.Equal(res, want) {
			t.Fatalf("job %s result %q, want the primary's %q", j.ID, res, want)
		}
	}
	n := int64(submitters * each)
	if h, c, m := s.met.cacheHits.Value(), s.met.jobsCoalesced.Value(), s.met.cacheMisses.Value(); h+c+m != n || m != 1 {
		t.Fatalf("hits %d + coalesced %d + misses %d, want %d with one miss", h, c, m, n)
	}
	if got := s.met.jobsDone.Value(); got != n {
		t.Fatalf("jobsDone = %d, want %d", got, n)
	}

	held, err := s.Submit(specN(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, held, StateRunning)
	for i := 0; i < 5; i++ {
		f, err := s.Submit(specN(2))
		if err != nil {
			t.Fatal(err)
		}
		if f.Coalesced() != held.ID {
			t.Fatalf("submission %d coalesced with %q, want %q", i, f.Coalesced(), held.ID)
		}
	}
	s.Close()
	for _, j := range s.Jobs() {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s left %s by Close", j.ID, j.State())
		}
		if j.Spec.Fleet.Seed == 2 && j.State() != StateCanceled {
			t.Fatalf("held job %s ended %s, want canceled", j.ID, j.State())
		}
	}
}
