package server

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/fleet/pool"
)

// mustScheduler builds a scheduler or fails the test (the only error
// source is an unusable cache directory).
func mustScheduler(t *testing.T, opts Options) *Scheduler {
	t.Helper()
	s, err := NewScheduler(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// blockingExec returns an execFn that blocks until release is closed
// (or the job is cancelled), plus the release function.
func blockingExec() (func(ctx context.Context, spec JobSpec, runner *pool.Runner, onSession func(int, int, fleet.SessionOutcome)) ([]byte, *TraceArtifact, error), func()) {
	release := make(chan struct{})
	fn := func(ctx context.Context, spec JobSpec, runner *pool.Runner, onSession func(int, int, fleet.SessionOutcome)) ([]byte, *TraceArtifact, error) {
		select {
		case <-release:
			return []byte(`{"ok":true}`), nil, nil
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return fn, func() { close(release) }
}

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never reached a terminal state (state %s)", j.ID, j.State())
	}
}

func specN(seed int64) JobSpec {
	return JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{
		Scenario: "home", Sessions: 1, Seed: seed, DurationMS: 100,
	}}
}

func TestSchedulerQueueBackpressure(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 1, MaxJobs: 1, QueueDepth: 1})
	defer s.Close()
	fn, release := blockingExec()
	s.execFn = fn

	// First job occupies the single executor; second fills the queue.
	j1, err := s.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until j1 is actually dequeued so j2 deterministically lands
	// in the queue slot.
	deadline := time.Now().Add(10 * time.Second)
	for j1.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job 1 never started")
		}
		time.Sleep(time.Millisecond)
	}
	j2, err := s.Submit(specN(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(specN(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	if got := s.met.jobsQueued.Value(); got != 1 {
		t.Errorf("jobs_queued = %d, want 1", got)
	}

	release()
	waitTerminal(t, j1)
	waitTerminal(t, j2)
	if j1.State() != StateDone || j2.State() != StateDone {
		t.Errorf("states = %s, %s", j1.State(), j2.State())
	}
	// The queue drained: submissions flow again.
	j4, err := s.Submit(specN(4))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j4)
}

func TestSchedulerCancelQueuedAndRunning(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 1, MaxJobs: 1, QueueDepth: 2})
	defer s.Close()
	fn, release := blockingExec()
	defer release()
	s.execFn = fn

	running, err := s.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for running.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(specN(2))
	if err != nil {
		t.Fatal(err)
	}

	if !s.Cancel(queued.ID) {
		t.Fatal("Cancel(queued) = false")
	}
	waitTerminal(t, queued)
	if queued.State() != StateCanceled {
		t.Errorf("queued job state = %s, want canceled", queued.State())
	}

	if !s.Cancel(running.ID) {
		t.Fatal("Cancel(running) = false")
	}
	waitTerminal(t, running)
	if running.State() != StateCanceled {
		t.Errorf("running job state = %s, want canceled", running.State())
	}
	if s.Cancel("job-999") {
		t.Error("Cancel on unknown ID reported success")
	}
	if got := s.met.jobsCanceled.Value(); got != 2 {
		t.Errorf("jobs_canceled = %d, want 2", got)
	}
}

func TestSchedulerCacheHitSkipsExecution(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 2})
	defer s.Close()

	j1, err := s.Submit(specN(7))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	if j1.State() != StateDone {
		t.Fatalf("job 1: state %s, err %q", j1.State(), j1.Err())
	}
	r1, cached := j1.Result()
	if cached {
		t.Error("first run reported cached")
	}

	j2, err := s.Submit(specN(7))
	if err != nil {
		t.Fatal(err)
	}
	// A cache hit is terminal at submit time — no waiting.
	if j2.State() != StateDone {
		t.Fatalf("cache-hit job state = %s", j2.State())
	}
	r2, cached := j2.Result()
	if !cached {
		t.Error("second run not served from cache")
	}
	if !bytes.Equal(r1, r2) {
		t.Error("cached result differs from the original bytes")
	}
	if h, m := s.met.cacheHits.Value(), s.met.cacheMisses.Value(); h != 1 || m != 1 {
		t.Errorf("cache hits=%d misses=%d, want 1/1", h, m)
	}
}

func TestSchedulerEventStream(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 2})
	defer s.Close()
	j, err := s.Submit(JobSpec{Kind: "fleet", Fleet: &FleetJobSpec{
		Scenario: "home", Sessions: 3, Seed: 5, DurationMS: 100,
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if j.State() != StateDone {
		t.Fatalf("state %s err %q", j.State(), j.Err())
	}
	evs, terminal, _ := j.EventsSince(0)
	if !terminal {
		t.Error("EventsSince not terminal after done")
	}
	var types []string
	sessions := 0
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type == "session" {
			sessions++
			if ev.Total != 3 || ev.Session == "" {
				t.Errorf("bad session event: %+v", ev)
			}
			continue
		}
		types = append(types, ev.Type)
	}
	if sessions != 3 {
		t.Errorf("%d session events, want 3", sessions)
	}
	want := []string{"queued", "running", "done"}
	if len(types) != len(want) {
		t.Fatalf("lifecycle events %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("lifecycle events %v, want %v", types, want)
		}
	}
}

func TestSchedulerRejectsInvalidSpec(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(JobSpec{Kind: "warp"}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestSchedulerCloseTerminatesQueuedJobs(t *testing.T) {
	// A waiter blocked on a queued job must be released by Close, or
	// ?wait=1 handlers would wedge graceful shutdown.
	s := mustScheduler(t, Options{Workers: 1, MaxJobs: 1, QueueDepth: 2})
	fn, release := blockingExec()
	defer release()
	s.execFn = fn

	running, err := s.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for running.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(specN(2))
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitTerminal(t, queued)
	if st := queued.State(); st != StateCanceled {
		t.Errorf("queued job state after Close = %s", st)
	}
	waitTerminal(t, running)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	if got := s.met.jobsQueued.Value(); got != 0 {
		t.Errorf("jobs_queued after Close = %d", got)
	}
}

func TestSchedulerRejectionLeavesNoTrace(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 1, MaxJobs: 1, QueueDepth: 1})
	defer s.Close()
	fn, release := blockingExec()
	defer release()
	s.execFn = fn

	j1, err := s.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j1.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(specN(2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Submit(specN(int64(10 + i))); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("submit %d: err = %v, want ErrQueueFull", i, err)
		}
	}
	// Rejected submissions must not linger in the registry or the
	// creation-order slice (they'd leak under sustained backpressure),
	// and must not skew the admission metrics.
	s.mu.Lock()
	orderLen, jobsLen := len(s.order), len(s.jobs)
	s.mu.Unlock()
	if orderLen != 2 || jobsLen != 2 {
		t.Errorf("after rejections: order=%d jobs=%d, want 2/2", orderLen, jobsLen)
	}
	if got := s.met.jobsRejected.Value(); got != 5 {
		t.Errorf("jobs_rejected = %d, want 5", got)
	}
	if got := s.met.jobsSubmitted.Value(); got != 2 {
		t.Errorf("jobs_submitted = %d, want 2 (rejections must not count)", got)
	}
	if got := s.met.cacheMisses.Value(); got != 2 {
		t.Errorf("cache_misses = %d, want 2 (rejections must not count)", got)
	}
}

func TestSchedulerCancelWinsOverCompletedResult(t *testing.T) {
	// An executor that ignores ctx and returns a result anyway: if the
	// job was cancelled first, the terminal state must still be
	// canceled, not done.
	s := mustScheduler(t, Options{Workers: 1, MaxJobs: 1})
	defer s.Close()
	release := make(chan struct{})
	s.execFn = func(ctx context.Context, spec JobSpec, runner *pool.Runner, onSession func(int, int, fleet.SessionOutcome)) ([]byte, *TraceArtifact, error) {
		<-release
		return []byte(`{"ok":true}`), nil, nil // deliberately ignores ctx
	}

	j, err := s.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	s.Cancel(j.ID)
	close(release)
	waitTerminal(t, j)
	if st := j.State(); st != StateCanceled {
		t.Errorf("state = %s, want canceled", st)
	}
	if res, _ := j.Result(); res != nil {
		t.Error("canceled job exposed a result")
	}
}

func TestSchedulerShutdownRejectsSubmissions(t *testing.T) {
	s := mustScheduler(t, Options{Workers: 1})
	s.Close()
	if _, err := s.Submit(specN(1)); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("err = %v, want ErrShuttingDown", err)
	}
}

// TestExecuteDeterministic is the cache's correctness foundation: the
// same normalized spec executes to byte-identical result documents for
// every job kind, whatever the shared pool's capacity.
func TestExecuteDeterministic(t *testing.T) {
	for name, raw := range map[string]JobSpec{
		"fleet": {Kind: "fleet", Fleet: &FleetJobSpec{
			Scenario: "dense", Sessions: 3, Seed: 11, DurationMS: 200,
			Variants: []string{"tracking", "direct"},
		}},
		"fig9": {Kind: "fig9", Fig9: &Fig9JobSpec{Runs: 4, NLOSStepDeg: 10, Seed: 2}},
		"map":  {Kind: "map", Map: &MapJobSpec{GridStep: 1.0, WithReflector: true}},
	} {
		t.Run(name, func(t *testing.T) {
			spec, err := raw.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			a, _, err := execute(context.Background(), spec, pool.NewRunner(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := execute(context.Background(), spec, pool.NewRunner(4), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Error("execute is not deterministic across runner capacities")
			}
		})
	}
}

// TestExecuteHonorsContextForEveryKind: cancellation must reach every
// job kind's work loop, not just fleet sessions.
func TestExecuteHonorsContextForEveryKind(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, raw := range []JobSpec{
		{Kind: "fleet", Fleet: &FleetJobSpec{Scenario: "home", Sessions: 1, DurationMS: 100}},
		{Kind: "fig9"},
		{Kind: "map"},
	} {
		spec, err := raw.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := execute(ctx, spec, pool.NewRunner(1), nil); !errors.Is(err, context.Canceled) {
			t.Errorf("kind %s: err = %v, want context.Canceled", raw.Kind, err)
		}
	}
}

// Err returns the failure message ("" unless failed/canceled).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}
