package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/movr-sim/movr"
)

const benchPath = "../../BENCHMARK.json"

// TestMain lets the test binary stand in for movrbench: the benchmark
// re-executes its own binary for each workload child.
func TestMain(m *testing.M) {
	if os.Getenv("MOVRBENCH_CHILD") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func TestBenchmarkDefinition(t *testing.T) {
	def, err := loadBenchDef(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	if len(def.Workloads) < 2 || len(def.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(def.Workloads))
	}
	if len(def.EndToEnd) < 1 || len(def.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(def.EndToEnd))
	}
	if len(def.PerLayer) < 1 || len(def.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(def.PerLayer))
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", def.RunSeconds)
	}
	if len(def.Paths) != 1 || def.Paths[0] != "cmd/movrbench" {
		t.Errorf("paths %v", def.Paths)
	}
	for _, p := range append(def.Paths, def.Command...) {
		if strings.HasPrefix(p, "/") || strings.Contains(p, "..") || len(p) > 200 {
			t.Errorf("command or path %q leaves the repository", p)
		}
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	for i, w := range def.Workloads {
		name(w.Name)
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, the program runs %v", i, w.Name, workloadNames())
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(def.Workloads), len(workloads))
	}
	var setupBound, maxBound float64
	for _, m := range def.EndToEnd {
		name(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		maxBound = math.Max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %g must be the largest (%g)", setupBound, maxBound)
	}
	for _, m := range append(def.EndToEnd, def.PerLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range def.PerLayer {
		name(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, p := range def.Paths {
		if !pathRE.MatchString(p) {
			t.Errorf("path %q", p)
		}
	}
	// Every layer's CPU share is reported.
	for _, l := range layers {
		if !seen[l+".cpu_share"] {
			t.Errorf("layer %s has no cpu_share metric", l)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {10, 0}, {20, 50}, {100, 90}, {500, 98}, {1000, 99}, {5000, 99}} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The reported tail always leaves at least ten samples beyond it.
	for n := 11; n < 3000; n += 7 {
		if beyond := float64(n) * (1 - tailPercentile(n)/100); beyond < 10-1e-9 {
			t.Fatalf("n=%d: %g samples beyond the tail", n, beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0];
	// statistics.quantiles([4, 8], n=4) == [3.0, 6.0, 9.0].
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 8}, [3]float64{3, 6, 9}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) ([]float64, [][2]float64) {
		var b []float64
		var pairs [][2]float64
		for _, x := range parent {
			b = append(b, x+d)
			pairs = append(pairs, [2]float64{x, x + d})
		}
		return b, pairs
	}
	for _, c := range []struct {
		name   string
		d      float64
		better string
		want   string
	}{
		{"faster", -20, "lower", improved},
		{"slower", 20, "lower", regressed},
		{"within bound", 3, "lower", unchanged},
		{"higher is better", 20, "higher", improved},
	} {
		b, pairs := shift(c.d)
		if got := judge(parent, b, pairs, c.better, 0.1).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}
	if got := judge(noisy, noisy, nil, "lower", 0.1).verdict; got != unresolved {
		t.Errorf("spread wider than the bound: %s, want %s", got, unresolved)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/movr-sim/movr/internal/reflector.(*Reflector).solveFeedback":   "gainctl",
		"github.com/movr-sim/movr/internal/fleet/pool.ForEach.func1":               "fleet",
		"github.com/movr-sim/movr/internal/fleet/pool.Map[...]":                    "fleet",
		"github.com/movr-sim/movr/internal/geom.Vec.Dist":                          "",
		"github.com/movr-sim/movr/internal/sim.(*Engine).Run":                      "stream",
		"net/http.(*conn).serve":                                                   "wire",
		"encoding/json.(*encodeState).marshal":                                     "wire",
		"runtime.gcBgMarkWorker":                                                   "gc",
		"runtime.mallocgc":                                                         "",
		"math.Log10":                                                               "",
		"github.com/movr-sim/movr/internal/server.(*Scheduler).Submit":             "server",
		"github.com/movr-sim/movr/internal/experiments.RunBayLockstep":             "experiments",
		"github.com/movr-sim/movr/internal/channel.(*PathCache).Trace":             "channel",
		"github.com/movr-sim/movr/internal/experiments.(*playerState).controlTick": "experiments",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileAttribution profiles a small fleet run in-process and checks
// the decoded profile attributes nearly all CPU to layers, most of it to
// the physics.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	specs := movr.MixedFleet(6, movr.FleetScenarioConfig{Duration: 2 * time.Second, Seed: 3})
	for t0 := time.Now(); time.Since(t0) < 400*time.Millisecond; {
		if _, err := movr.RunFleet(context.Background(), specs, movr.FleetConfig{Workers: 2}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	sh, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sh.Samples < 10 {
		t.Skipf("only %d samples", sh.Samples)
	}
	sum := 0.0
	for _, l := range layers {
		sum += sh.Shares[l]
	}
	if math.Abs(sum+sh.Unattributed-1) > 1e-9 || (sum < 0.9 && !raceEnabled) {
		t.Errorf("layers cover %.3f of CPU, unattributed %.3f", sum, sh.Unattributed)
	}
	if sh.Shares["gainctl"]+sh.Shares["channel"] < 0.5 {
		t.Errorf("physics share %.3f, want most of the CPU: %v", sh.Shares["gainctl"]+sh.Shares["channel"], sh.Shares)
	}
}

// stalledDaemon answers every submission as a cache hit, holding the
// first one for stall.
func stalledDaemon(t *testing.T, stall time.Duration) *httptest.Server {
	result := []byte(`{"kind":"map","render":"x"}`)
	view, err := json.Marshal(map[string]any{
		"id": "job-1", "state": "done", "cached": true, "created_at": time.Now(),
		"result": json.RawMessage(result), "result_sha256": sha256Hex(result),
	})
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("X-Movr-Cache", "hit")
		w.Write(view)
	}))
}

// TestOpenLoopTimesFromDue stalls the daemon's first answer: the jobs
// due during the stall must count the stall in their latency — timed
// from when they were due, not from when they were sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall, spacing = 300 * time.Millisecond, 10 * time.Millisecond
	srv := stalledDaemon(t, stall)
	defer srv.Close()
	var res runResult
	res.Correct = true
	s := &specStream{}
	for k := 0; k < 64; k++ {
		s.specs = append(s.specs, newSpecStream("movrd-repeat", 1).hot[15])
	}
	g := &loadGen{res: &res, stream: s, hits: make(chan hitReply, 64), pending: map[string]*djob{}, first: map[string]firstResult{}}
	g.c1 = newClient(strings.TrimPrefix(srv.URL, "http://"))
	start := time.Now()
	g.submit(start, start.Add(20*spacing), spacing, func(time.Time) int { return 1 })
	for h := range g.hits {
		g.finish(h.j, h.body, true)
	}
	if !res.Correct || len(g.jobs) != 20 {
		t.Fatalf("%d jobs, problems %v", len(g.jobs), res.Problems)
	}
	for _, j := range g.jobs[1:] {
		lat, lag := j.done.Sub(j.due), j.sent.Sub(j.due)
		if j.due.Before(start.Add(stall - 2*spacing)) {
			if lat < stall-j.due.Sub(start)-5*time.Millisecond {
				t.Errorf("job %d due %v into the stall: latency %v does not include the stall", j.k, j.due.Sub(start), lat)
			}
			if lag <= 0 || lat < lag {
				t.Errorf("job %d: lag %v, latency %v", j.k, lag, lat)
			}
		}
	}
}

// TestSmoke runs every workload untraced with one-second windows, and one
// offline and one daemon workload traced, and checks every BENCHMARK.json
// metric is reported in its unit with no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	def, err := loadBenchDef(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	movrd := filepath.Join(dir, "movrd")
	if out, err := exec.Command("go", "build", "-o", movrd, "github.com/movr-sim/movr/cmd/movrd").CombinedOutput(); err != nil {
		t.Fatalf("build movrd: %v\n%s", err, out)
	}
	runs := filepath.Join(dir, "runs.json")
	for _, c := range []struct {
		workload, trace string
		want            []metricDef
	}{
		{"", "0", def.EndToEnd},
		{"venue-offline", filepath.Join(dir, "trace"), def.PerLayer},
		{"movrd-fresh", filepath.Join(dir, "trace"), def.PerLayer},
	} {
		var out bytes.Buffer
		args := []string{"-workload", c.workload, "-seconds", "1", "-warmup", "0", "-trace", c.trace,
			"-movrd", movrd, "-workdir", dir, "-bench", benchPath, "-out", runs}
		if code := run(args, &out); code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var sum summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatal(err)
		}
		if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
			t.Errorf("%v: correct %v, %d of %d failed", args, sum.Correct, sum.Failed, sum.Attempted)
		}
		for _, w := range workloads {
			if c.workload != "" && c.workload != w.name {
				continue
			}
			for _, m := range c.want {
				key := m.Name
				if c.workload == "" {
					key = w.name + "/" + m.Name
				}
				if got, ok := sum.Metrics[key]; !ok || got.Unit != m.Unit {
					t.Errorf("%s %s: got %+v, want unit %s", w.name, m.Name, got, m.Unit)
				}
			}
		}
	}
	for _, w := range []string{"venue-offline", "movrd-fresh"} {
		for _, a := range []string{".trace.json", ".cpu.pprof", ".layers.json"} {
			if _, err := os.Stat(filepath.Join(dir, "trace", w+a)); err != nil {
				t.Errorf("trace artifact: %v", err)
			}
		}
	}
	var cmp bytes.Buffer
	if err := compareFiles(def, runs, runs, &cmp); err != nil {
		t.Errorf("comparing a result file with itself: %v\n%s", err, cmp.String())
	}
	if rows := strings.Count(cmp.String(), "\n"); rows != 1+len(workloads)*len(def.EndToEnd) {
		t.Errorf("comparison rows:\n%s", cmp.String())
	}
}
