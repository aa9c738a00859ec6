package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/movr-sim/movr/internal/server"
	"github.com/movr-sim/movr/internal/stats"
)

// The daemon workloads' load shape: open loop at a fixed rate with
// uniform spacing, one connection submitting and one finding
// completions, never polling faster than pollEvery.
const (
	freshRate    = 20  // jobs/s, movrd-fresh
	repeatRate   = 100 // jobs/s, movrd-repeat
	repeatBlock  = 20  // movrd-repeat: one fresh job in every block of 20
	pollEvery    = 20 * time.Millisecond
	sloLimit     = 250 * time.Millisecond
	reexecEvery  = 25
	drainTimeout = 30 * time.Second
)

// movrdSpec is one job submission: its JSON body, the fleet session
// count its result must report (0 for fig9 and map jobs), and the
// simulated session time it covers.
type movrdSpec struct {
	class    string
	body     []byte
	sessions int
	simS     float64
}

// classSpec builds one job of a class of the daemon mix.
func classSpec(class string, seed int64) movrdSpec {
	switch class {
	case "coex":
		return movrdSpec{class, fmt.Appendf(nil, `{"kind":"fleet","fleet":{"scenario":"coex","sessions":4,"seed":%d,"duration_ms":500}}`, seed), 4, 4 * 0.5}
	case "home":
		return movrdSpec{class, fmt.Appendf(nil, `{"kind":"fleet","fleet":{"scenario":"home","sessions":4,"seed":%d}}`, seed), 4, 4 * 2}
	case "venue":
		return movrdSpec{class, fmt.Appendf(nil, `{"kind":"fleet","fleet":{"scenario":"venue","bays":2,"seed":%d}}`, seed), 8, 8 * 2}
	case "fig9":
		return movrdSpec{class, fmt.Appendf(nil, `{"kind":"fig9","fig9":{"runs":2,"nlos_step_deg":6,"seed":%d}}`, seed), 0, 0}
	}
	panic("movrbench: unknown job class " + class)
}

// freshMix is one block of the fresh mix: 40% coex, 20% home, 20% venue,
// 20% fig9, shuffled per block so the proportions are exact in every
// window.
var freshMix = []string{"coex", "coex", "home", "venue", "fig9"}

// specStream generates a daemon workload's job sequence from its seed.
// Job 0, the set-up job, is always a venue job, so set-up time does not
// depend on which class the mix happens to start with. After it, every
// fresh job is distinct, and movrd-repeat draws 19 of every 20 jobs from
// a hot set of 16 specs, cycling through it in shuffled order. Mix
// proportions are exact per block, so they do not vary with the seed.
type specStream struct {
	seed  int64
	rng   *rand.Rand
	specs []movrdSpec
	block []string // fresh classes left in the current mix block
	hot   []movrdSpec
	order []int  // hot-set draws left in the current cycle
	slots []bool // movrd-repeat: which jobs of the current block are fresh
}

func newSpecStream(workload string, seed int64) *specStream {
	s := &specStream{seed: seed, rng: rand.New(rand.NewSource(seed))}
	if workload == "movrd-repeat" {
		classes := []string{"coex", "home", "venue", "fig9"}
		for i := 0; i < 14; i++ {
			s.hot = append(s.hot, classSpec(classes[i%len(classes)], jobSeed(seed, -1-i)))
		}
		// The two default coverage maps take no seed.
		for _, refl := range []bool{false, true} {
			s.hot = append(s.hot, movrdSpec{"map", fmt.Appendf(nil, `{"kind":"map","map":{"with_reflector":%t}}`, refl), 0, 0})
		}
	}
	return s
}

// at returns job k's spec.
func (s *specStream) at(k int) movrdSpec {
	for len(s.specs) <= k {
		s.specs = append(s.specs, s.next())
	}
	return s.specs[k]
}

func (s *specStream) next() movrdSpec {
	if len(s.specs) == 0 {
		return classSpec("venue", jobSeed(s.seed, 0))
	}
	if s.hot != nil {
		if len(s.slots) == 0 {
			s.slots = make([]bool, repeatBlock)
			s.slots[s.rng.Intn(repeatBlock)] = true
		}
		fresh := s.slots[0]
		s.slots = s.slots[1:]
		if !fresh {
			if len(s.order) == 0 {
				s.order = s.rng.Perm(len(s.hot))
			}
			i := s.order[0]
			s.order = s.order[1:]
			return s.hot[i]
		}
	}
	if len(s.block) == 0 {
		for _, i := range s.rng.Perm(len(freshMix)) {
			s.block = append(s.block, freshMix[i])
		}
	}
	c := s.block[0]
	s.block = s.block[1:]
	return classSpec(c, jobSeed(s.seed, len(s.specs)))
}

// daemon is one running movrd process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	debug   string
	dir     string
	logDone chan struct{}
}

// startDaemon launches movrd on loopback ports with two workers and a
// durable store in dir, and waits until it listens.
func startDaemon(o options, dir string, debug bool) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-workers", "2", "-cache-dir", dir}
	if debug {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(o.movrd, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, dir: dir, logDone: make(chan struct{})}
	ready := make(chan [2]string, 1)
	go func() {
		defer close(d.logDone)
		var addr, dbg string
		sent := false
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "movrd: debug listening on "); ok {
				dbg = a
			} else if _, a, ok := strings.Cut(line, "movrd: listening on "); ok {
				addr = a
			} else if !strings.Contains(line, "shutting down") {
				fmt.Fprintln(os.Stderr, line)
			}
			if addr != "" && (dbg != "" || !debug) && !sent {
				ready <- [2]string{addr, dbg}
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, logs)
	}()
	select {
	case a := <-ready:
		d.addr, d.debug = a[0], a[1]
		return d, nil
	case <-d.logDone:
	case <-time.After(30 * time.Second):
	}
	_ = cmd.Process.Kill()
	<-d.logDone
	_ = cmd.Wait()
	return nil, fmt.Errorf("movrd did not start listening")
}

// stop shuts the daemon down gracefully and waits for it to exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.logDone:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.logDone
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("movrd exit: %w", err)
	}
	return nil
}

// cpu is the daemon's user plus system CPU time so far.
func (d *daemon) cpu() time.Duration {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name: utime and stime are
	// the 12th and 13th, in clock ticks of 1/100 s.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB; pid is a
// number or "self".
func peakRSSMB(pid string) float64 {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// client is one HTTP connection to the daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: "http://" + addr}
}

// reply is one round trip: status, cache header, body, and the time from
// sending the request to its first response byte.
type reply struct {
	status int
	cache  string
	body   []byte
	rtt    time.Duration
}

func (c *client) do(method, path string, body []byte) (reply, error) {
	var first time.Time
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { first = time.Now() },
	})
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Movr-Cache"), body: b, rtt: first.Sub(t0)}, err
}

// djob is one submitted daemon job.
type djob struct {
	k         int
	spec      movrdSpec
	phase     int // 0 warm-up, 1 measured window, 2 traced window
	due, sent time.Time
	submitRTT time.Duration
	id        string

	done                       time.Time // finished_at, or the POST return of a cache hit
	created, started, finished time.Time
	executed                   bool // ran on the daemon: neither a cache hit nor coalesced
	fetched                    bool
	fetchRTT                   time.Duration
	viewKB                     float64
	frames                     int
	failed                     bool
}

// loadGen drives one daemon: connection 1 submits on schedule, connection
// 2 finds completions and fetches their views.
type loadGen struct {
	res    *runResult
	stream *specStream
	c1, c2 *client
	golden []string

	// hits carries cache-hit replies from the submitter to their checker,
	// so checking a large result never delays the next submission. The
	// buffer holds a few seconds of hits at the highest rate.
	hits chan hitReply

	mu         sync.Mutex
	jobs       []*djob
	pending    map[string]*djob
	submitting bool
	first      map[string]firstResult // spec body → its first result
}

type hitReply struct {
	j    *djob
	body []byte
}

// firstResult is the digest and frame count of a spec's first result;
// every later result of the spec must have the same digest.
type firstResult struct {
	digest string
	frames int
}

func (g *loadGen) fail(j *djob, format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j.failed = true
	g.res.problem("job %d: "+format, append([]any{j.k}, args...)...)
}

// finish records a job's terminal view and checks its result. A spec's
// first result is checked in full; a later one only has to be the same
// bytes.
func (g *loadGen) finish(j *djob, body []byte, hit bool) {
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		g.fail(j, "view: %v", err)
		return
	}
	digest, err := viewDigest(v)
	if err != nil {
		g.fail(j, "%v", err)
		return
	}
	key := string(j.spec.body)
	g.mu.Lock()
	prev, seen := g.first[key]
	g.mu.Unlock()
	frames := prev.frames
	if !seen {
		if frames, err = resultFrames(v, j.spec.sessions); err != nil {
			g.fail(j, "%v", err)
			return
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	j.viewKB = float64(len(body)) / 1024
	j.frames = frames
	if !hit {
		// A coalesced follower never starts: it finishes when its
		// primary does.
		j.created, j.started, j.finished = v.CreatedAt, v.CreatedAt, *v.FinishedAt
		if v.StartedAt != nil {
			j.started = *v.StartedAt
		}
		j.done = j.finished
		j.executed = !v.Cached && v.Coalesced == ""
	}
	if prev, ok := g.first[key]; ok && prev.digest != digest {
		j.failed = true
		g.res.problem("job %d: result %s differs from the spec's first result %s", j.k, digest, prev.digest)
	} else if !ok {
		g.first[key] = firstResult{digest, frames}
	}
	if j.k < len(g.golden) && g.golden[j.k] != digest {
		j.failed = true
		g.res.problem("job %d: digest %s, golden %s", j.k, digest, g.golden[j.k])
	}
}

// submit is connection 1: job k (k ≥ 1) is due at start+(k-1)·spacing,
// is sent when due, and a cache hit completes on the reply.
func (g *loadGen) submit(start, end time.Time, spacing time.Duration, phase func(time.Time) int) {
	defer func() {
		close(g.hits)
		g.mu.Lock()
		g.submitting = false
		g.mu.Unlock()
	}()
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k-1) * spacing)
		if !due.Before(end) {
			return
		}
		time.Sleep(time.Until(due))
		j := &djob{k: k, spec: g.stream.at(k), due: due, phase: phase(due), sent: time.Now()}
		rep, err := g.c1.do(http.MethodPost, "/v1/jobs", j.spec.body)
		ret := time.Now()
		j.submitRTT = rep.rtt
		g.mu.Lock()
		g.jobs = append(g.jobs, j)
		g.mu.Unlock()
		switch {
		case err != nil:
			g.fail(j, "submit: %v", err)
		case rep.status == http.StatusOK && rep.cache == "hit":
			j.done = ret
			g.hits <- hitReply{j, rep.body}
		case rep.status == http.StatusAccepted:
			var v jobView
			if err := json.Unmarshal(rep.body, &v); err != nil || v.ID == "" {
				g.fail(j, "submit: no job id")
				continue
			}
			g.mu.Lock()
			j.id = v.ID
			g.pending[v.ID] = j
			g.mu.Unlock()
		default:
			g.fail(j, "submit: HTTP %d: %s", rep.status, rep.body)
		}
	}
}

// poll is connection 2: every pollEvery it lists the queued and running
// jobs, and fetches the view of every pending job in neither list — a
// job that was not queued at the first listing nor running at the second
// has finished, since states only advance.
func (g *loadGen) poll() {
	var deadline time.Time
	for {
		time.Sleep(pollEvery)
		g.mu.Lock()
		ids := make([]string, 0, len(g.pending))
		for id := range g.pending {
			ids = append(ids, id)
		}
		submitting := g.submitting
		g.mu.Unlock()
		if !submitting {
			if len(ids) == 0 {
				return
			}
			if deadline.IsZero() {
				deadline = time.Now().Add(drainTimeout)
			} else if time.Now().After(deadline) {
				for _, id := range ids {
					g.mu.Lock()
					j := g.pending[id]
					g.mu.Unlock()
					g.fail(j, "not finished %v after the load stopped", drainTimeout)
				}
				return
			}
		}
		if len(ids) == 0 {
			continue
		}
		active := map[string]bool{}
		for _, state := range []string{"queued", "running"} {
			rep, err := g.c2.do(http.MethodGet, "/v1/jobs?limit=1000&state="+state, nil)
			if err != nil || rep.status != http.StatusOK {
				continue
			}
			var page struct {
				Jobs []struct {
					ID string `json:"id"`
				} `json:"jobs"`
			}
			if json.Unmarshal(rep.body, &page) == nil {
				for _, j := range page.Jobs {
					active[j.ID] = true
				}
			}
		}
		for _, id := range ids {
			if active[id] {
				continue
			}
			rep, err := g.c2.do(http.MethodGet, "/v1/jobs/"+id, nil)
			if err != nil || rep.status != http.StatusOK {
				continue
			}
			var v jobView
			if json.Unmarshal(rep.body, &v) != nil || !server.State(v.State).Terminal() {
				continue
			}
			g.mu.Lock()
			j := g.pending[id]
			delete(g.pending, id)
			j.fetched, j.fetchRTT = true, rep.rtt
			g.mu.Unlock()
			g.finish(j, rep.body, false)
		}
	}
}

// windowMark is the daemon's state at a window boundary.
type windowMark struct {
	at      time.Time
	cpu     time.Duration
	metrics map[string]float64
	store   int64
	alloc   uint64
	gcs     uint64
}

// runMovrd is a daemon workload child: set-up launches, then an open
// loop of warm-up and measured window (and, traced, a second window
// under the daemon's CPU profiler), then the output checks.
func runMovrd(o options, w workload) (runResult, error) {
	res := newRunResult(o, w)
	root, err := filepath.Abs(filepath.Join(o.workdir, "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(root)
	g := &loadGen{
		res:     &res,
		stream:  newSpecStream(w.name, o.seed),
		golden:  goldenFor(w.name, o.seed),
		hits:    make(chan hitReply, 256),
		pending: map[string]*djob{},
		first:   map[string]firstResult{},
	}

	// Set-up: cold daemon launch to the first result, a fresh store each
	// time; the last daemon stays up for the load.
	launches := setupLaunches
	if o.traced() {
		launches = 1
	}
	first := g.stream.at(0)
	var setups []float64
	var d *daemon
	for i := 0; i < launches; i++ {
		t0 := time.Now()
		dd, err := startDaemon(o, filepath.Join(root, fmt.Sprintf("store%d", i)), o.traced())
		if err != nil {
			return res, err
		}
		c := newClient(dd.addr)
		rep, err := c.do(http.MethodPost, "/v1/jobs?wait=1", first.body)
		setup := time.Since(t0)
		c.hc.CloseIdleConnections()
		if err == nil && rep.status != http.StatusOK {
			err = fmt.Errorf("first job: HTTP %d: %s", rep.status, rep.body)
		}
		if err != nil {
			_ = dd.stop()
			return res, err
		}
		g.finish(&djob{k: 0, spec: first}, rep.body, true)
		setups = append(setups, setup.Seconds())
		if i < launches-1 {
			if err := dd.stop(); err != nil {
				return res, err
			}
		} else {
			d = dd
		}
	}

	rate := freshRate
	if w.name == "movrd-repeat" {
		rate = repeatRate
	}
	window := time.Duration(o.seconds) * time.Second
	start := time.Now().Add(50 * time.Millisecond)
	bounds := []time.Time{start.Add(o.warmup), start.Add(o.warmup + window)}
	if o.traced() {
		bounds = append(bounds, bounds[1].Add(window))
	}
	phase := func(t time.Time) int {
		p := 0
		for _, b := range bounds[:len(bounds)-1] {
			if !t.Before(b) {
				p++
			}
		}
		return p
	}

	g.c1, g.c2 = newClient(d.addr), newClient(d.addr)
	g.submitting = true
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		g.submit(start, bounds[len(bounds)-1], time.Second/time.Duration(rate), phase)
	}()
	go func() { defer wg.Done(); g.poll() }()
	go func() {
		defer wg.Done()
		for h := range g.hits {
			g.finish(h.j, h.body, true)
		}
	}()

	// Window boundaries: CPU always; for the traced window also the
	// /metrics text, the store size, allocation counters, and a CPU
	// profile fetched from the daemon's debug listener.
	marks := make([]windowMark, len(bounds))
	var prof []byte
	var profErr error
	var profWG sync.WaitGroup
	for i, b := range bounds {
		time.Sleep(time.Until(b))
		marks[i] = windowMark{at: time.Now(), cpu: d.cpu()}
		if o.traced() && i >= 1 {
			marks[i].metrics = g.scrapeMetrics()
			marks[i].store = fileSize(filepath.Join(d.dir, "results.log"))
			marks[i].alloc, marks[i].gcs = debugMemStats(d.debug)
			if i == 1 {
				profWG.Add(1)
				go func() {
					defer profWG.Done()
					prof, profErr = fetchProfile(d.debug, o.seconds)
				}()
			}
		}
	}
	wg.Wait()
	profWG.Wait()
	rss := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	g.c1.hc.CloseIdleConnections()
	g.c2.hc.CloseIdleConnections()
	if err := d.stop(); err != nil {
		return res, err
	}
	g.reexecute()

	inWindow := func(p int) []*djob {
		var js []*djob
		for _, j := range g.jobs {
			if j.phase == p {
				js = append(js, j)
			}
		}
		return js
	}
	a := windowStats(g.jobs, inWindow(1), marks[0], marks[1])
	res.Attempted, res.Failed = a.attempted, a.failed
	if !o.traced() {
		res.set("setup_s", stats.Median(setups), "s", len(setups))
		res.set("sim_s_per_s", a.simS/a.wall.Seconds(), "s/s", a.completed)
		res.set("sim_s_per_cpu_s", a.simS/a.cpu.Seconds(), "s/s", a.completed)
		res.set("cpu_ms_per_job", ms(a.cpu)/float64(a.attempted), "ms", a.attempted)
		res.set("peak_rss_mb", rss, "MB", 1)
		return res, nil
	}

	if profErr != nil {
		return res, fmt.Errorf("daemon profile: %w", profErr)
	}
	b := windowStats(g.jobs, inWindow(2), marks[1], marks[2])
	res.Attempted += b.attempted
	res.Failed += b.failed
	if err := g.traceLayers(o, w, b, a, marks[1], marks[2], prof); err != nil {
		return res, err
	}
	return res, nil
}

// windowResult summarizes one window of daemon jobs.
type windowResult struct {
	jobs              []*djob
	attempted, failed int
	completed         int
	simS              float64
	wall, cpu         time.Duration
	lat               []float64 // due → done, ms, successful jobs
	slo               int       // jobs done within sloLimit
}

func windowStats(all, jobs []*djob, from, to windowMark) windowResult {
	w := windowResult{jobs: jobs, attempted: len(jobs), wall: to.at.Sub(from.at), cpu: to.cpu - from.cpu}
	for _, j := range jobs {
		if j.failed {
			w.failed++
			continue
		}
		l := j.done.Sub(j.due)
		w.lat = append(w.lat, ms(l))
		if l <= sloLimit {
			w.slo++
		}
	}
	// Throughput counts the simulated time of every job that completed
	// inside the window, whenever it was due.
	for _, j := range all {
		if !j.failed && !j.done.Before(from.at) && j.done.Before(to.at) {
			w.completed++
			w.simS += j.spec.simS
		}
	}
	return w
}

// traceLayers reports the daemon workloads' per-layer metrics from the
// traced window b (a is the untraced window before it) and writes the
// trace artifacts.
func (g *loadGen) traceLayers(o options, w workload, b, a windowResult, from, to windowMark, prof []byte) error {
	dir := o.traceDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r := g.res
	n := b.attempted
	tr := newTracer()
	var submit, fetch, queue, exec, lag, kb []float64
	frames := 0
	for _, j := range b.jobs {
		submit = append(submit, ms(j.submitRTT))
		lag = append(lag, ms(j.sent.Sub(j.due)))
		tr.span("lag", j.k, 1, j.due, j.sent)
		tr.span("submit", j.k, 1, j.sent, j.sent.Add(j.submitRTT))
		if j.failed {
			continue
		}
		kb = append(kb, j.viewKB)
		frames += j.frames
		tr.span("job", j.k, 0, j.due, j.done)
		if j.fetched {
			fetch = append(fetch, ms(j.fetchRTT))
		}
		if j.executed {
			queue = append(queue, ms(j.started.Sub(j.created)))
			exec = append(exec, ms(j.finished.Sub(j.started)))
			tr.span("queue", j.k, 2, j.created, j.started)
			tr.span("exec", j.k, 3, j.started, j.finished)
		}
	}
	setTail(r, "wire.submit", submit)
	r.set("wire.fetch_p50_ms", median0(fetch), "ms", len(fetch))
	r.set("wire.result_kb", stats.Mean(kb), "KB", len(kb))
	setTail(r, "server.queue_wait", queue)
	setTail(r, "server.exec", exec)
	r.set("load.lag_p99_ms", tail0(lag), "ms", len(lag))
	setTail(r, "server.lat", b.lat)
	r.set("server.slo_frac", float64(b.slo)/float64(n), "frac", n)
	r.set("stream.frames_per_job", float64(frames)/float64(n), "count", n)
	r.set("trace.overhead_frac", (ms(b.cpu)/float64(n))/(ms(a.cpu)/float64(a.attempted))-1, "frac", n)

	delta := func(name string) float64 { return to.metrics[name] - from.metrics[name] }
	if sub := delta("movrd_jobs_submitted_total"); sub > 0 {
		r.set("server.cache_hit_ratio", delta("movrd_cache_hits_total")/sub, "frac", int(sub))
	} else {
		r.set("server.cache_hit_ratio", 0, "frac", 0)
	}
	r.set("server.coalesced", delta("movrd_jobs_coalesced_total"), "count", n)
	r.set("server.rejected", delta("movrd_jobs_rejected_total"), "count", n)
	r.set("server.store_kb_per_job", float64(to.store-from.store)/1024/float64(n), "KB", n)
	var simS float64
	for _, j := range b.jobs {
		simS += j.spec.simS
	}
	r.set("runtime.alloc_mb_per_sim_s", float64(to.alloc-from.alloc)/1e6/simS, "MB/sim_s", n)
	r.set("runtime.gc_per_job", float64(to.gcs-from.gcs)/float64(n), "count", n)
	norm, hash := specCosts(b.jobs)
	r.set("server.normalize_us", norm, "us", n)
	r.set("server.hash_us", hash, "us", n)

	sh, err := setCPUShares(r, prof)
	if err != nil {
		return err
	}
	setZeros(r, offlineOnly)

	if err := os.WriteFile(filepath.Join(dir, w.name+".cpu.pprof"), prof, 0o644); err != nil {
		return err
	}
	if err := writeMetricsDiff(filepath.Join(dir, w.name+".metrics_diff.txt"), from.metrics, to.metrics); err != nil {
		return err
	}
	if err := writeLayers(filepath.Join(dir, w.name+".layers.json"), w.name, sh); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, w.name+".trace.json"))
}

// reexecute runs every reexecEvery-th submitted spec again on a fresh
// in-process server and checks its result bytes equal the daemon's.
func (g *loadGen) reexecute() {
	seen := map[string]bool{}
	for k := 0; k < len(g.stream.specs); k += reexecEvery {
		spec := g.stream.specs[k]
		key := string(spec.body)
		want, ok := g.first[key]
		if !ok || seen[key] {
			continue
		}
		seen[key] = true
		v, err := inProcess(spec.body)
		if err != nil {
			g.res.problem("re-execution of job %d: %v", k, err)
			continue
		}
		if got, err := viewDigest(v); err != nil || got != want.digest {
			g.res.problem("re-execution of job %d: digest %s, the daemon's %s (%v)", k, got, want.digest, err)
			for _, j := range g.jobs {
				if string(j.spec.body) == key {
					j.failed = true
				}
			}
		}
	}
}

// specCosts times server.JobSpec Normalize and Hash on the window's specs,
// in microseconds per call.
func specCosts(jobs []*djob) (normUS, hashUS float64) {
	const reps = 20
	var norm, hash time.Duration
	calls := 0
	for _, j := range jobs {
		var spec server.JobSpec
		if json.Unmarshal(j.spec.body, &spec) != nil {
			continue
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			_, _ = spec.Normalize()
		}
		t1 := time.Now()
		for i := 0; i < reps; i++ {
			_, _ = spec.Hash()
		}
		norm += t1.Sub(t0)
		hash += time.Since(t1)
		calls += reps
	}
	if calls == 0 {
		return 0, 0
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(calls) }
	return us(norm), us(hash)
}

// scrapeMetrics reads the daemon's /metrics over connection 2 as a map
// from series (name plus labels) to value.
func (g *loadGen) scrapeMetrics() map[string]float64 {
	out := map[string]float64{}
	rep, err := g.c2.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(rep.body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// writeMetricsDiff records every /metrics series over the traced window.
func writeMetricsDiff(path string, from, to map[string]float64) error {
	names := make([]string, 0, len(to))
	for n := range to {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintln(&b, "# series before after delta")
	for _, n := range names {
		fmt.Fprintf(&b, "%s %g %g %g\n", n, from[n], to[n], to[n]-from[n])
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// debugMemStats reads the daemon's cumulative allocation bytes and GC
// count from its expvar endpoint.
func debugMemStats(addr string) (alloc, gcs uint64) {
	rep, err := newClient(addr).do(http.MethodGet, "/debug/vars", nil)
	if err != nil {
		return 0, 0
	}
	var v struct {
		MemStats struct {
			TotalAlloc uint64
			NumGC      uint64
		} `json:"memstats"`
	}
	_ = json.Unmarshal(rep.body, &v)
	return v.MemStats.TotalAlloc, uint64(v.MemStats.NumGC)
}

// fetchProfile records the daemon's CPU profile for the given seconds.
func fetchProfile(addr string, seconds int) ([]byte, error) {
	rep, err := newClient(addr).do(http.MethodGet, fmt.Sprintf("/debug/pprof/profile?seconds=%d", seconds), nil)
	if err != nil {
		return nil, err
	}
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", rep.status, rep.body)
	}
	return rep.body, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
