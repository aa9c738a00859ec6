package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Server is the HTTP front-end over a Scheduler: the movrd daemon's
// handler. Routes:
//
//	POST   /v1/jobs             submit a JobSpec; ?wait=1 blocks until done
//	GET    /v1/jobs             list retained jobs (summaries)
//	GET    /v1/jobs/{id}        job status + result
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/events per-session progress as SSE
//	GET    /v1/jobs/{id}/trace  recorded event trace (fleet jobs with trace:true)
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text exposition
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// New builds a server (and its scheduler) from options. The only
// error source is an unusable Options.CacheDir.
func New(opts Options) (*Server, error) {
	sched, err := NewScheduler(opts)
	if err != nil {
		return nil, err
	}
	s := &Server{sched: sched, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	return s, nil
}

// Close shuts the scheduler down.
func (s *Server) Close() { s.sched.Close() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.sched.met.httpRequests.Inc()
	s.mux.ServeHTTP(w, r)
}

// jobView is the job-status JSON document. Result is raw bytes from the
// executor/cache, embedded verbatim — the field is byte-identical
// across a fresh run and a cache hit of the same spec.
type jobView struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Cached bool   `json:"cached"`

	// CoalescedWith names the in-flight primary job this submission was
	// folded into (identical spec hash); empty for jobs that executed
	// themselves.
	CoalescedWith string `json:"coalesced_with,omitempty"`

	SpecSHA256 string    `json:"spec_sha256"`
	Spec       JobSpec   `json:"spec"`
	Error      string    `json:"error,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
	// Zero StartedAt/FinishedAt are omitted via pointer + omitempty
	// rather than the Go 1.24-only `omitzero` option, so the wire format
	// is identical across every toolchain in the CI matrix.
	StartedAt  *time.Time      `json:"started_at,omitempty"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
	ElapsedMS  int64           `json:"elapsed_ms,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	ResultSHA  string          `json:"result_sha256,omitempty"`

	// Trace flight-data (fleet jobs submitted with trace:true). The
	// trace itself is served by GET /v1/jobs/{id}/trace.
	TraceSessions int    `json:"trace_sessions,omitempty"`
	TraceEvents   int    `json:"trace_events,omitempty"`
	TraceDropped  uint64 `json:"trace_dropped,omitempty"`
}

// view snapshots a job. withResult=false gives the list summary.
func view(j *Job, withResult bool) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:            j.ID,
		State:         j.state,
		Cached:        j.cached,
		CoalescedWith: j.coalesced,
		SpecSHA256:    j.Hash,
		Spec:          j.Spec,
		Error:         j.errMsg,
		CreatedAt:     j.created,
	}
	if !j.started.IsZero() {
		started := j.started
		v.StartedAt = &started
	}
	if !j.finished.IsZero() {
		finished := j.finished
		v.FinishedAt = &finished
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		v.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
	}
	if j.result != nil {
		v.ResultSHA = j.resultSHA
		if withResult {
			v.Result = j.result
		}
	}
	if j.trace != nil {
		v.TraceSessions = j.trace.Sessions
		v.TraceEvents = j.trace.Events
		v.TraceDropped = j.trace.Dropped
	}
	return v
}

// wantWait interprets the wait query parameter: absent, "0" and
// "false" mean fire-and-forget; anything else blocks.
func wantWait(v string) bool {
	return v != "" && v != "0" && v != "false"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// viewBuf is writeView's scratch: the envelope as the encoder writes
// it, and the body spliced from it and the result.
type viewBuf struct {
	env  bytes.Buffer
	body []byte
}

// viewBufs recycles writeView's scratch; a body over maxPooledView is
// left to the garbage collector rather than pinned.
var viewBufs = sync.Pool{New: func() any { return new(viewBuf) }}

const maxPooledView = 1 << 20

// resultKey is the top-level result key as writeJSON's indenter spells
// it. Nested keys sit deeper and a JSON string cannot hold a raw
// newline, so it occurs exactly once in an indented view.
var resultKey = []byte("\n  \"result\": ")

// resultPlaceholder stands in for the result while the envelope is
// encoded: one byte, cut out again by writeView.
var resultPlaceholder = json.RawMessage("0")

// writeView writes a job view exactly as writeJSON would, without
// re-encoding the result: the result bytes never change once a job is
// done, so the envelope is encoded around a one-byte placeholder and
// the stored result is indented straight into the placeholder's place
// by appendIndented, whose precondition, valid JSON, every cached
// result meets. writeJSON compacts the result with HTML escaping
// before indenting it; the splice is byte-identical whenever that
// compaction only drops whitespace, and any result it would rewrite
// goes through writeJSON.
func writeView(w http.ResponseWriter, status int, v jobView) {
	// Indenting drops leading whitespace but keeps trailing whitespace,
	// which compaction drops.
	res := bytes.TrimRight(v.Result, " \t\r\n")
	if len(res) == 0 || htmlEscapable(res) {
		writeJSON(w, status, v)
		return
	}
	vb := viewBufs.Get().(*viewBuf)
	defer func() {
		if cap(vb.body) <= maxPooledView {
			viewBufs.Put(vb)
		}
	}()
	vb.env.Reset()
	env := v
	env.Result = resultPlaceholder
	enc := json.NewEncoder(&vb.env)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		writeJSON(w, status, v)
		return
	}
	e := vb.env.Bytes()
	at := bytes.Index(e, resultKey) + len(resultKey)
	body, ok := appendIndented(append(vb.body[:0], e[:at]...), res)
	if ok {
		body = append(body, e[at+len(resultPlaceholder):]...)
	}
	vb.body = body
	if !ok {
		writeJSON(w, status, v) // answers an invalid result as writeJSON does
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// htmlEscapable reports whether res holds what the encoder's
// HTML-escaping compaction rewrites: '<', '>', '&', U+2028 or U+2029.
// Other runes whose UTF-8 starts with 0xE2, such as the em dash in
// every result's render title, pass through.
func htmlEscapable(res []byte) bool {
	for _, c := range []byte("<>&") {
		if bytes.IndexByte(res, c) >= 0 {
			return true
		}
	}
	return bytes.Contains(res, []byte("\u2028")) || bytes.Contains(res, []byte("\u2029"))
}

// Stable machine-readable error codes of the v1 envelope. Every
// non-2xx response carries exactly one of them; clients branch on the
// code, never on the human-readable message.
const (
	// ErrCodeInvalidSpec rejects a malformed or out-of-bounds job spec
	// (400).
	ErrCodeInvalidSpec = "invalid_spec"

	// ErrCodeInvalidArgument rejects a malformed query parameter —
	// bad cursor, unknown state filter, out-of-range limit (400).
	ErrCodeInvalidArgument = "invalid_argument"

	// ErrCodeNotFound is an unknown job ID or missing sub-resource
	// (404).
	ErrCodeNotFound = "not_found"

	// ErrCodeJobCanceled marks a sub-resource unavailable because the
	// job was canceled before producing it (404).
	ErrCodeJobCanceled = "job_canceled"

	// ErrCodeAdmissionDenied refuses a venue job whose per-bay player
	// count exceeds the TDMA admission capacity under admission=reject
	// (409) — resubmit with fewer players per bay, a roomier airtime
	// policy, or admission=queue.
	ErrCodeAdmissionDenied = "admission_denied"

	// ErrCodeQueueFull is backpressure: the job queue is at capacity;
	// retry after the Retry-After delay (429).
	ErrCodeQueueFull = "queue_full"

	// ErrCodeShuttingDown rejects work during daemon shutdown (503).
	ErrCodeShuttingDown = "shutting_down"
)

// APIError is the one JSON shape of every non-2xx response:
//
//	{"error": {"code": "...", "message": "...", "detail": "..."}}
//
// Code is stable and machine-readable; Message is a short human
// phrase; Detail carries request-specific context and may be empty.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
}

type apiErrorEnvelope struct {
	Error APIError `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, message, detail string) {
	writeJSON(w, status, apiErrorEnvelope{Error: APIError{Code: code, Message: message, Detail: detail}})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.sched.met.reg.WritePrometheus(w)
}

// decodeJobSpec reads one job spec the way movrd accepts it: the first
// JSON value of r, with any field JobSpec does not declare rejected.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// handleSubmit accepts a JobSpec. The response carries an X-Movr-Cache
// header ("hit", "coalesced" or "miss"). Without ?wait the answer is
// 202 Accepted with the queued job (or 200 with the finished job on a
// cache hit); with ?wait=1 the handler blocks until the job is terminal
// and always answers 200 — unless the client goes away first.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidSpec, "malformed job spec", err.Error())
		return
	}
	job, err := s.sched.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, ErrCodeQueueFull, "job queue full", "retry after the Retry-After delay")
		return
	case errors.Is(err, ErrAdmissionDenied):
		writeError(w, http.StatusConflict, ErrCodeAdmissionDenied, "admission denied", err.Error())
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, ErrCodeShuttingDown, "server shutting down", "")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, ErrCodeInvalidSpec, "invalid job spec", err.Error())
		return
	}

	_, cached := job.Result()
	cacheHeader := "miss"
	switch {
	case cached:
		cacheHeader = "hit"
	case job.Coalesced() != "":
		cacheHeader = "coalesced"
	}
	w.Header().Set("X-Movr-Cache", cacheHeader)

	if wantWait(r.URL.Query().Get("wait")) {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			// Client gone; the job keeps running (its result is still
			// cacheable for the next submission).
			return
		}
		writeView(w, http.StatusOK, view(job, true))
		return
	}
	// Only a cache hit answers 200. A miss whose job already finished
	// is still 202, so the status never depends on how fast the pool
	// ran it.
	status := http.StatusAccepted
	if cached {
		status = http.StatusOK
	}
	writeView(w, status, view(job, true))
}

// List defaults and bounds.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
	listCursorPrefix = "jobs.v1."
)

// encodeListCursor builds the opaque pagination cursor: resume strictly
// after the job with this numeric ID. Opaque (base64) so clients cannot
// grow a dependency on its contents.
func encodeListCursor(lastID int) string {
	return base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf("%s%d", listCursorPrefix, lastID)))
}

func decodeListCursor(cursor string) (int, error) {
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil {
		return 0, fmt.Errorf("not a cursor from this API")
	}
	rest, ok := strings.CutPrefix(string(raw), listCursorPrefix)
	if !ok {
		return 0, fmt.Errorf("not a cursor from this API")
	}
	id, err := strconv.Atoi(rest)
	if err != nil || id < 0 {
		return 0, fmt.Errorf("not a cursor from this API")
	}
	return id, nil
}

// jobNumericID extracts N from "job-N" (0 if malformed — sorts first).
func jobNumericID(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}

// handleList serves GET /v1/jobs?state=&scenario=&limit=&cursor=: the
// retained jobs in deterministic creation order (ascending job ID),
// optionally filtered by lifecycle state and scenario label, paginated
// by an opaque cursor. The page carries next_cursor while more filtered
// jobs remain. A queued or running filter walks only the scheduler's
// live jobs, so a poll for them costs the same with 1 or 1,024
// terminal records retained.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()

	limit := defaultListLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxListLimit {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument,
				"invalid limit", fmt.Sprintf("limit must be an integer in [1,%d], got %q", maxListLimit, v))
			return
		}
		limit = n
	}
	stateFilter := q.Get("state")
	switch State(stateFilter) {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
	default:
		writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument,
			"invalid state filter", fmt.Sprintf("unknown state %q (queued|running|done|failed|canceled)", stateFilter))
		return
	}
	scenarioFilter := q.Get("scenario")
	after := 0
	if v := q.Get("cursor"); v != "" {
		id, err := decodeListCursor(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidArgument, "invalid cursor", err.Error())
			return
		}
		after = id
	}

	var jobs []*Job
	if st := State(stateFilter); st == StateQueued || st == StateRunning {
		jobs = s.sched.liveJobs()
	} else {
		jobs = s.sched.Jobs()
	}
	writeJSON(w, http.StatusOK, listJobs(jobs, State(stateFilter), scenarioFilter, after, limit))
}

// listJobs is the list response over jobs (in creation order): the
// first limit jobs after the cursor ID that pass the filters, and
// next_cursor while more pass. Filters are checked before a job's
// summary is built.
func listJobs(jobs []*Job, state State, scenario string, after, limit int) map[string]any {
	views := make([]jobView, 0, min(limit, len(jobs)))
	nextCursor := ""
	for _, j := range jobs {
		if jobNumericID(j.ID) <= after {
			continue
		}
		if scenario != "" && scenarioLabel(j.Spec) != scenario {
			continue
		}
		if state != "" && j.State() != state {
			continue
		}
		v := view(j, false)
		if state != "" && v.State != state { // a live job moved on meanwhile
			continue
		}
		if len(views) == limit {
			// One filtered job beyond the page ⇒ there is a next page.
			nextCursor = encodeListCursor(jobNumericID(views[len(views)-1].ID))
			break
		}
		views = append(views, v)
	}
	resp := map[string]any{"jobs": views}
	if nextCursor != "" {
		resp["next_cursor"] = nextCursor
	}
	return resp
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.sched.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "unknown job", fmt.Sprintf("no job %q among the retained records", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeView(w, http.StatusOK, view(j, true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.sched.Cancel(j.ID)
	writeJSON(w, http.StatusOK, view(j, false))
}

// handleTrace serves a completed job's recorded event trace as Chrome
// trace-event JSON (Perfetto-loadable). Jobs not submitted with the
// fleet trace flag — or not yet done — have no trace and answer 404
// with a hint.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	tr := j.Trace()
	if tr == nil {
		code := ErrCodeNotFound
		if j.State() == StateCanceled {
			code = ErrCodeJobCanceled
		}
		writeError(w, http.StatusNotFound, code, "no trace for this job",
			fmt.Sprintf("job %s has no trace (submit a fleet spec with trace:true and wait for it to finish)", j.ID))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(tr.Chrome)
}

// handleEvents streams the job's progress as server-sent events: one
// `data:` line per Event, ending after the terminal event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	seq := 0
	for {
		evs, terminal, updated := j.EventsSince(seq)
		for _, ev := range evs {
			raw, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", raw)
			seq = ev.Seq
		}
		if canFlush {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}
