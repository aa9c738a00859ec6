package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/fleet/pool"
)

// State is a job's lifecycle position.
type State string

// The job states. Queued and Running are transient; the rest are
// terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one entry in a job's progress stream — what the SSE endpoint
// sends, one JSON object per event.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // queued|coalesced|running|session|done|failed|canceled

	// Session events: which session finished and how far along the job
	// is.
	Session       string  `json:"session,omitempty"`
	Done          int     `json:"done,omitempty"`
	Total         int     `json:"total,omitempty"`
	DeliveredFrac float64 `json:"delivered_frac,omitempty"`

	// Coalesced events: the in-flight primary job this submission was
	// folded into.
	Primary string `json:"primary,omitempty"`

	// Terminal events.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Job is one submitted simulation. All mutable state is behind mu;
// accessors return snapshots.
type Job struct {
	// ID is the scheduler-assigned handle ("job-1", "job-2", ...).
	ID string

	// Spec is the normalized spec; Hash its canonical hash.
	Spec JobSpec
	Hash string

	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{} // closed on terminal transition

	mu        sync.Mutex
	state     State
	errMsg    string
	result    []byte
	resultSHA string // hex SHA-256 of result, computed once when set
	trace     *TraceArtifact
	cached    bool
	coalesced string // ID of the in-flight primary this job was folded into
	created   time.Time
	started   time.Time
	finished  time.Time
	events    []Event
	updated   chan struct{} // closed and replaced on every event
}

// resultDigest hashes result bytes once, at the moment they are set;
// status views reuse it instead of rehashing per request.
func resultDigest(res []byte) string {
	sum := sha256.Sum256(res)
	return hex.EncodeToString(sum[:])
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the result bytes (nil unless done) and whether they
// came from the cache.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.cached
}

// Coalesced returns the ID of the in-flight primary job this
// submission was folded into ("" for jobs that executed themselves or
// were served from the cache).
func (j *Job) Coalesced() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.coalesced
}

// Trace returns the job's recorded trace artifact (nil unless the job
// was submitted with the fleet trace flag and completed).
func (j *Job) Trace() *TraceArtifact {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// Err returns the failure message ("" unless failed/canceled).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// appendEventLocked records ev (stamping its sequence number) and wakes
// every EventsSince waiter. Callers hold j.mu.
func (j *Job) appendEventLocked(ev Event) {
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	close(j.updated)
	j.updated = make(chan struct{})
}

// EventsSince returns the events after sequence number `after`, whether
// the job is terminal, and a channel closed on the next change — enough
// to stream without missed wakeups: read events, and if none and not
// terminal, wait on the channel.
func (j *Job) EventsSince(after int) (evs []Event, terminal bool, updated <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if after < len(j.events) {
		evs = append([]Event(nil), j.events[after:]...)
	}
	return evs, j.state.Terminal(), j.updated
}

// Submission errors the API layer maps to HTTP statuses.
var (
	// ErrQueueFull is backpressure: the job queue is at capacity (429).
	ErrQueueFull = errors.New("server: job queue full")

	// ErrShuttingDown rejects submissions during shutdown (503).
	ErrShuttingDown = errors.New("server: shutting down")

	// ErrAdmissionDenied refuses a venue job whose per-bay player count
	// exceeds the TDMA admission capacity under admission=reject (409).
	ErrAdmissionDenied = errors.New("server: admission denied")
)

// Options tunes the scheduler.
type Options struct {
	// Workers is the shared session-pool capacity every concurrent job
	// multiplexes onto (<= 0 means GOMAXPROCS).
	Workers int

	// QueueDepth bounds the jobs waiting to execute; a full queue
	// rejects submissions with ErrQueueFull (default 16).
	QueueDepth int

	// MaxJobs bounds the jobs executing concurrently (default 4; their
	// sessions still share the one pool).
	MaxJobs int

	// CacheEntries bounds the result cache (default 256).
	CacheEntries int

	// RetainJobs bounds the finished-job records kept for GET
	// (default 1024; oldest terminal records are dropped first).
	RetainJobs int

	// CacheDir, when non-empty, backs the result cache with an
	// append-only on-disk store (<CacheDir>/results.log): every
	// completed result is fsync'd to it, and a restarted daemon serves
	// persisted entries without re-executing. Empty keeps the cache
	// memory-only.
	CacheDir string
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.RetainJobs <= 0 {
		o.RetainJobs = 1024
	}
	return o
}

// Scheduler multiplexes API jobs onto one shared bounded session pool:
// a bounded queue feeds MaxJobs executor goroutines, each job's
// sessions run on the Runner, and results land in the deterministic
// cache.
type Scheduler struct {
	opts   Options
	runner *pool.Runner
	cache  *cache
	store  *store // durable cache tier; nil without Options.CacheDir
	met    *serverMetrics

	queue    chan *Job
	baseCtx  context.Context
	shutdown context.CancelFunc
	wg       sync.WaitGroup
	followWG sync.WaitGroup // coalesced-follower watchers

	// execFn runs a job spec; the default is execute. Tests substitute
	// blocking or failing executors to probe scheduling behaviour
	// without timing games. Written only before the first Submit.
	execFn func(ctx context.Context, spec JobSpec, runner *pool.Runner, onSession func(done, total int, o fleet.SessionOutcome)) ([]byte, *TraceArtifact, error)

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	order    []string // creation order, for retention pruning
	inflight map[string]*Job
	nextID   int
}

// NewScheduler builds the scheduler and starts its executors. With
// Options.CacheDir it also opens (compacting) the durable result store;
// an unusable cache directory is the only error.
func NewScheduler(opts Options) (*Scheduler, error) {
	opts = opts.withDefaults()
	var st *store
	if opts.CacheDir != "" {
		var err error
		if st, err = openStore(opts.CacheDir); err != nil {
			return nil, err
		}
	}
	runner := pool.NewRunner(opts.Workers)
	c := newCache(opts.CacheEntries)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		opts:     opts,
		runner:   runner,
		cache:    c,
		store:    st,
		met:      newServerMetrics(runner, c, st),
		queue:    make(chan *Job, opts.QueueDepth),
		baseCtx:  ctx,
		shutdown: cancel,
		execFn:   execute,
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	for i := 0; i < opts.MaxJobs; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

// cacheGet checks the memory tier, then the durable store (promoting a
// disk hit into memory so repeats stay off the disk).
func (s *Scheduler) cacheGet(hash string) ([]byte, bool) {
	if res, ok := s.cache.Get(hash); ok {
		return res, true
	}
	if s.store != nil {
		if res, ok := s.store.Get(hash); ok {
			s.cache.Put(hash, res)
			s.met.storeHits.Inc()
			return res, true
		}
	}
	return nil, false
}

// cachePut stores a completed result in both tiers. A store append
// failure (disk full, yanked volume) degrades durability, not service:
// it is counted and the in-memory entry still serves.
func (s *Scheduler) cachePut(hash string, res []byte) {
	s.cache.Put(hash, res)
	if s.store != nil {
		if err := s.store.Put(hash, res); err != nil {
			s.met.storeErrors.Inc()
		}
	}
}

// Close stops accepting jobs, cancels everything in flight, and waits
// for the executors to drain.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()

	s.shutdown()
	for _, j := range jobs {
		j.cancel()
	}
	s.wg.Wait()

	// The executors are gone; jobs still sitting in the queue would
	// otherwise never reach a terminal state, wedging every ?wait=1
	// handler blocked on them. Nothing can enqueue any more (Submit
	// checks closed under s.mu before the enqueue), so draining here is
	// complete.
drain:
	for {
		select {
		case j := <-s.queue:
			s.met.jobsQueued.Add(-1)
			s.finishCanceled(j, "scheduler shut down")
		default:
			break drain
		}
	}
	// Every primary is now terminal, so the follower watchers all wake
	// and finish; no new ones can start once closed is set.
	s.followWG.Wait()
	if s.store != nil {
		_ = s.store.Close()
	}
}

// finishCanceled moves a job that will never run from queued straight
// to canceled, atomically — the transition happens only if the job is
// still queued, so it cannot collide with an executor that already
// claimed it. Reports whether it transitioned.
func (s *Scheduler) finishCanceled(j *Job, msg string) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateCanceled
	j.errMsg = msg
	j.finished = time.Now()
	j.appendEventLocked(Event{Type: "canceled"})
	j.mu.Unlock()
	j.cancel()
	close(j.done)
	s.clearInflight(j)
	s.met.jobsCanceled.Inc()
	return true
}

// clearInflight drops the job's coalescing registration, if it is the
// current primary for its hash. New identical submissions will then
// hit the cache (the primary's result lands there before this runs) or
// execute afresh.
func (s *Scheduler) clearInflight(j *Job) {
	s.mu.Lock()
	if s.inflight[j.Hash] == j {
		delete(s.inflight, j.Hash)
	}
	s.mu.Unlock()
}

// newJob allocates a job record and registers it. The closed check
// shares the registration critical section, so no job can be born after
// Close has started tearing the registry down.
func (s *Scheduler) newJob(spec JobSpec, hash string) (*Job, error) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, ErrShuttingDown
	}
	j := s.newJobLocked(spec, hash, ctx, cancel)
	s.mu.Unlock()
	return j, nil
}

// newJobLocked is newJob's registration core; the caller holds s.mu and
// has already rejected a closed scheduler.
func (s *Scheduler) newJobLocked(spec JobSpec, hash string, ctx context.Context, cancel context.CancelFunc) *Job {
	s.nextID++
	j := &Job{
		ID:      fmt.Sprintf("job-%d", s.nextID),
		Spec:    spec,
		Hash:    hash,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
		updated: make(chan struct{}),
	}
	j.appendEventLocked(Event{Type: "queued"})
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.pruneLocked()
	return j
}

// pruneLocked drops the oldest terminal job records beyond the
// retention bound. Live jobs are never dropped, so the map can exceed
// the bound only by the number of jobs in flight.
func (s *Scheduler) pruneLocked() {
	for len(s.jobs) > s.opts.RetainJobs {
		pruned := false
		for i, id := range s.order {
			j := s.jobs[id]
			if j == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				pruned = true
				break
			}
			if j.State().Terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return
		}
	}
}

// removeLocked unregisters a job that was never admitted (queue full,
// shutdown race). Callers hold s.mu. The ID is the newest, so the scan
// runs from the back.
func (s *Scheduler) removeLocked(id string) {
	delete(s.jobs, id)
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.order[i] == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// Submit validates and normalizes spec, then serves it the cheapest
// correct way: from the result cache (the job is born done, with the
// exact bytes a fresh run would produce), by coalescing onto an
// identical in-flight job (the follower subscribes to the primary's
// outcome and never enqueues), or by enqueueing it. A full queue
// returns ErrQueueFull — the API layer's 429. Only admitted submissions
// count toward the submission and cache metrics; rejections count
// separately.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	hash, err := hashNormalized(norm)
	if err != nil {
		return nil, err
	}
	if err := s.admitVenue(norm); err != nil {
		return nil, err
	}

	// Traced jobs bypass the cache and coalescing entirely: both return
	// result bytes only, silently losing the trace the caller asked for.
	traced := norm.Fleet != nil && norm.Fleet.Trace
	if !traced {
		if res, ok := s.cacheGet(hash); ok {
			j, err := s.newJob(norm, hash)
			if err != nil {
				return nil, err
			}
			j.mu.Lock()
			j.state = StateDone
			j.cached = true
			j.result = res
			j.resultSHA = resultDigest(res)
			j.started = j.created
			j.finished = j.created
			j.appendEventLocked(Event{Type: "done", Cached: true})
			j.mu.Unlock()
			j.cancel() // nothing will ever use the context
			close(j.done)
			s.met.jobsSubmitted.Inc()
			s.met.jobsByScenario.Inc(scenarioLabel(norm))
			s.met.cacheHits.Inc()
			s.met.jobsDone.Inc()
			return j, nil
		}
	}

	// Admission: one critical section covers the closed check, the
	// coalescing lookup, the registration, and the enqueue — so a
	// concurrent identical submission cannot slip between lookup and
	// registration (becoming a second primary), and nothing can enqueue
	// behind Close's drain.
	ctx, cancel := context.WithCancel(s.baseCtx)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, ErrShuttingDown
	}
	if !traced {
		if primary, ok := s.inflight[hash]; ok {
			j := s.newJobLocked(norm, hash, ctx, cancel)
			j.mu.Lock()
			j.coalesced = primary.ID
			j.appendEventLocked(Event{Type: "coalesced", Primary: primary.ID})
			j.mu.Unlock()
			s.followWG.Add(1) // inside s.mu: Close cannot Wait between the closed check and this Add
			s.mu.Unlock()
			s.met.jobsSubmitted.Inc()
			s.met.jobsByScenario.Inc(scenarioLabel(norm))
			s.met.jobsCoalesced.Inc()
			go s.followPrimary(j, primary)
			return j, nil
		}
	}
	j := s.newJobLocked(norm, hash, ctx, cancel)
	select {
	case s.queue <- j:
		if !traced {
			s.inflight[hash] = j
		}
		s.mu.Unlock()
		s.met.jobsSubmitted.Inc()
		s.met.jobsByScenario.Inc(scenarioLabel(norm))
		s.met.cacheMisses.Inc()
		s.met.jobsQueued.Add(1)
		return j, nil
	default:
		s.removeLocked(j.ID)
		s.mu.Unlock()
		j.cancel()
		s.met.jobsRejected.Inc()
		return nil, ErrQueueFull
	}
}

// admitVenue runs policy-driven admission control on a normalized venue
// spec before any queueing: each bay's TDMA window only fits
// fleet.VenueCapacity players under the configured policy, and players
// beyond it are queued (the job runs with the admitted set, the
// generator records the overflow) or — under admission=reject — refuse
// the whole submission with ErrAdmissionDenied, the API's 409. The
// admission counters account players across the venue either way.
// Non-venue specs pass through untouched.
func (s *Scheduler) admitVenue(norm JobSpec) error {
	if norm.Kind != "fleet" || norm.Fleet == nil || norm.Fleet.Scenario != string(fleet.KindVenue) {
		return nil
	}
	f := norm.Fleet
	capacity := fleet.VenueCapacity(f.HeadsetsPerRoom, fleet.ScenarioConfig{
		ReEvalPeriod: f.reEvalPeriod(),
		CoexPolicy:   coex.PolicyName(f.CoexPolicy),
	})
	overflow := f.HeadsetsPerRoom - capacity
	if overflow > 0 && f.Admission == fleet.AdmissionReject {
		s.met.admissionRejected.Add(int64(overflow * f.Bays))
		policy := f.CoexPolicy
		if policy == "" {
			policy = string(coex.PolicyRR)
		}
		return fmt.Errorf("%w: %d players per bay exceeds the %s policy's admission capacity of %d",
			ErrAdmissionDenied, f.HeadsetsPerRoom, policy, capacity)
	}
	s.met.admissionAdmitted.Add(int64(capacity * f.Bays))
	if overflow > 0 {
		s.met.admissionQueued.Add(int64(overflow * f.Bays))
	}
	return nil
}

// followPrimary mirrors the primary's terminal state onto a coalesced
// follower once the primary finishes — all waiters on an identical
// in-flight spec share one execution. A follower canceled before the
// primary finishes detaches without affecting it.
func (s *Scheduler) followPrimary(j, primary *Job) {
	defer s.followWG.Done()
	select {
	case <-j.done: // follower canceled directly (finishCanceled closed it)
		return
	case <-primary.Done():
	}
	primary.mu.Lock()
	state, errMsg := primary.state, primary.errMsg
	result, resultSHA := primary.result, primary.resultSHA
	primary.mu.Unlock()

	j.mu.Lock()
	if j.state != StateQueued { // lost the race to a direct cancel
		j.mu.Unlock()
		return
	}
	j.finished = time.Now()
	switch state {
	case StateDone:
		j.state = StateDone
		j.result = result
		j.resultSHA = resultSHA
		j.cached = true // computed by the primary, not this job
		j.appendEventLocked(Event{Type: "done"})
	case StateFailed:
		j.state = StateFailed
		j.errMsg = errMsg
		j.appendEventLocked(Event{Type: "failed", Error: errMsg})
	default:
		j.state = StateCanceled
		j.errMsg = "coalesced primary canceled"
		j.appendEventLocked(Event{Type: "canceled"})
	}
	j.mu.Unlock()
	j.cancel()
	close(j.done)
	switch j.State() {
	case StateDone:
		s.met.jobsDone.Inc()
	case StateFailed:
		s.met.jobsFailed.Inc()
	default:
		s.met.jobsCanceled.Inc()
	}
}

// scenarioLabel is the per-scenario job-counter label of a normalized
// spec: the fleet scenario kind for fleet jobs, the job kind otherwise.
func scenarioLabel(norm JobSpec) string {
	if norm.Kind == "fleet" && norm.Fleet != nil {
		return norm.Fleet.Scenario
	}
	return norm.Kind
}

// Get looks a job up by ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every retained job in creation order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel cancels a job: a queued job terminates immediately (its queue
// slot is reclaimed when an executor dequeues the husk), a running
// job's context is cancelled — the shared pool stops claiming its work
// units and the executor marks it canceled. Returns false for unknown
// IDs.
func (s *Scheduler) Cancel(id string) bool {
	j, ok := s.Get(id)
	if !ok {
		return false
	}
	if !s.finishCanceled(j, "canceled while queued") {
		j.cancel()
	}
	return true
}

// executor drains the queue, running one job at a time on the shared
// pool.
func (s *Scheduler) executor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			s.met.jobsQueued.Add(-1)
			s.run(j)
		}
	}
}

// run executes one dequeued job through its full lifecycle.
func (s *Scheduler) run(j *Job) {
	j.mu.Lock()
	if j.state.Terminal() { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	queueWait := j.started.Sub(j.created)
	j.appendEventLocked(Event{Type: "running"})
	j.mu.Unlock()
	s.met.queueWait.Observe(queueWait.Seconds())
	s.met.jobsRunning.Add(1)
	defer s.met.jobsRunning.Add(-1)

	onSession := func(done, total int, o fleet.SessionOutcome) {
		s.met.sessionsDone.Inc()
		j.mu.Lock()
		j.appendEventLocked(Event{
			Type:          "session",
			Session:       o.ID,
			Done:          done,
			Total:         total,
			DeliveredFrac: o.DeliveredFrac,
		})
		j.mu.Unlock()
	}
	result, trace, err := s.execFn(j.ctx, j.Spec, s.runner, onSession)

	j.mu.Lock()
	j.finished = time.Now()
	elapsed := j.finished.Sub(j.started)
	switch {
	// Cancellation wins even over a completed result: a DELETE that
	// raced the job's last work unit still reports canceled.
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.errMsg = "canceled"
		j.appendEventLocked(Event{Type: "canceled"})
	case err == nil:
		j.state = StateDone
		j.result = result
		j.resultSHA = resultDigest(result)
		j.trace = trace
		j.appendEventLocked(Event{Type: "done"})
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		j.appendEventLocked(Event{Type: "failed", Error: j.errMsg})
	}
	state := j.state
	j.mu.Unlock()
	// Traced jobs stay out of the result cache: a later identical
	// submission must re-run to produce its own trace (Submit bypasses
	// Get for them symmetrically). Everything else is cached — and
	// appended to the durable store — before done is signaled, so a
	// waiter that sees the job finish can rely on its result surviving
	// a crash.
	if state == StateDone && trace == nil {
		s.cachePut(j.Hash, result)
	}
	j.cancel()
	close(j.done)

	switch state {
	case StateDone:
		if trace != nil {
			s.met.tracedJobs.Inc()
			s.met.traceEvents.Add(int64(trace.Events))
			s.met.traceDropped.Add(int64(trace.Dropped))
		}
		s.met.jobsDone.Inc()
		s.met.jobLatency.Observe(elapsed.Seconds())
	case StateCanceled:
		s.met.jobsCanceled.Inc()
	default:
		s.met.jobsFailed.Inc()
	}
	// Deregister from coalescing only after the result is cached: an
	// identical submission always either coalesces (before this) or
	// cache-hits (after) — never re-executes a completed spec.
	s.clearInflight(j)
}
