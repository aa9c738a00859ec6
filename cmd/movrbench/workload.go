package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"github.com/movr-sim/movr/internal/stats"
)

// workload is one named input set. The names are the benchmark's public
// vocabulary: BENCHMARK.json and later change descriptions cite them.
type workload struct {
	name    string
	offline bool
}

var workloads = []workload{
	{name: "venue-offline", offline: true},
	{name: "solo-offline", offline: true},
	{name: "movrd-fresh"},
	{name: "movrd-repeat"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupLaunches is how many cold launches setup_s takes the median of.
const setupLaunches = 3

// jobSeed derives job k's input seed from the workload seed (splitmix64),
// so every job of every run is distinct yet reproducible. Job 0 is the
// set-up job and is the same for every seed: set-up time then measures
// the cold start, not which job the seed happened to draw.
func jobSeed(seed int64, k int) int64 {
	if k == 0 {
		seed = 1
	}
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// runResult is one workload run: the contract fields, the metrics, and
// the output problems found (each one makes the run incorrect).
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]sample `json:"metrics"`
	Problems  []string          `json:"problems,omitempty"`
}

// sample is one metric value with its unit and the sample count behind
// it (jobs, calls or profile samples).
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func newRunResult(o options, w workload) runResult {
	return runResult{
		Workload: w.name,
		Seed:     o.seed,
		Seconds:  o.seconds,
		Traced:   o.traced(),
		Correct:  true,
		Metrics:  map[string]sample{},
	}
}

func (r *runResult) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = sample{Value: v, Unit: unit, N: n}
}

// problem records a wrong output; the run is then incorrect.
func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 50 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// childLine is one line of a child's stdout: the digest of its first
// result, as soon as it exists, then the finished run.
type childLine struct {
	First  string     `json:"first,omitempty"`
	Result *runResult `json:"result,omitempty"`
}

// runWorkload runs w in child processes. For the offline workloads the
// parent times setup_s itself — the median of cold child launches to
// their first result — and the last launch goes on to measure; the
// daemon workloads time their own daemon launches.
func runWorkload(o options, w workload) (runResult, error) {
	if !w.offline {
		r, _, err := runChild(o, w, false)
		return r, err
	}
	launches := setupLaunches
	if o.traced() {
		launches = 1
	}
	var setups []float64
	var first string
	var r runResult
	for i := 0; i < launches; i++ {
		var err error
		var line childLine
		r, line, err = runChild(o, w, i < launches-1)
		if err != nil {
			return runResult{}, err
		}
		setups = append(setups, r.Metrics["setup_s"].Value)
		if i == 0 {
			first = line.First
		} else if line.First != first {
			r.problem("first result differs between cold launches: %s vs %s", line.First, first)
		}
	}
	if o.traced() {
		delete(r.Metrics, "setup_s")
	} else {
		r.set("setup_s", stats.Median(setups), "s", len(setups))
	}
	return r, nil
}

// runChild launches one workload child and returns its result. The
// child's time from launch to its first result line is returned as the
// result's setup_s metric.
func runChild(o options, w workload, setupOnly bool) (runResult, childLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, childLine{}, err
	}
	trace := o.trace
	if o.traced() {
		trace = o.traceDir()
	}
	args := []string{"-child", "-workload", w.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-warmup", o.warmup.String(),
		"-trace", trace,
		"-workdir", o.workdir,
		"-movrd", o.movrd,
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv, "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return runResult{}, childLine{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return runResult{}, childLine{}, err
	}
	var first childLine
	var firstAt time.Duration
	var res *runResult
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var line childLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			cancel()
			_ = cmd.Wait()
			return runResult{}, childLine{}, fmt.Errorf("child output: %w", err)
		}
		if line.First != "" && firstAt == 0 {
			first, firstAt = line, time.Since(start)
		}
		if line.Result != nil {
			res = line.Result
		}
	}
	if err := cmd.Wait(); err != nil {
		return runResult{}, childLine{}, fmt.Errorf("child: %w", err)
	}
	if res == nil {
		return runResult{}, childLine{}, fmt.Errorf("child printed no result")
	}
	if w.offline {
		res.set("setup_s", firstAt.Seconds(), "s", 1)
	}
	return *res, first, nil
}

// childEnv marks a re-executed child, so a test binary standing in for
// movrbench runs the benchmark instead of its tests.
const childEnv = "MOVRBENCH_CHILD=1"

// benchDef is the part of BENCHMARK.json the program reads: every metric
// with its unit and direction, and the end-to-end bounds.
type benchDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchDef(path string) (benchDef, error) {
	var d benchDef
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// check enforces that a run reports exactly the metric set BENCHMARK.json
// lists for its mode, each in its listed unit and as a finite number.
func (d benchDef) check(r runResult) error {
	want := d.EndToEnd
	if r.Traced {
		want = d.PerLayer
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s not reported", m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		case got.Value != got.Value || got.Value > 1e300 || got.Value < -1e300:
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
	}
	return nil
}
