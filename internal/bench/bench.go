// Package bench is the repo's performance-regression subsystem: a named
// benchmark suite over the simulator's hot paths (tracer micro, link
// tracking step, a Fig 9 trial, one fleet scenario per Kind, and a full
// movrd submit→result round trip), a harness that runs each benchmark
// with warmup and repetitions while sampling wall time and allocator
// counters, and a schema-versioned JSON report (BENCH_<git-sha>.json)
// that the CI gate (scripts/bench_gate.sh) compares against the
// committed BENCH_baseline.json.
//
// The harness is deliberately self-contained (no testing.B): per-rep
// wall-clock samples give honest p50/p95 figures, and runtime.MemStats
// deltas give allocs/op and bytes/op — the machine-independent numbers
// the gate enforces strictly.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump it when fields
// change meaning; the gate refuses to compare across versions. v2 added
// the Workers and GOMAXPROCS parallelism stamps — per-op wall times from
// runs under different parallelism are not comparable, so the gate
// refuses those too.
const SchemaVersion = 2

// Spec is one benchmark in the suite.
type Spec struct {
	// Name is the stable identifier the gate keys on (e.g.
	// "tracer/office1b").
	Name string

	// Warmup and Reps are the unmeasured and measured repetition counts.
	Warmup, Reps int

	// OpsPerRep batches fast operations inside one timed repetition so
	// per-rep samples stay above timer resolution; reported figures are
	// per operation.
	OpsPerRep int

	// Setup, when non-nil, builds per-benchmark state before any
	// repetition and returns a cleanup (either may be nil).
	Setup func() (cleanup func(), err error)

	// Op runs one repetition (OpsPerRep operations).
	Op func() error

	// AllocBound, when positive, is an absolute allocs/op ceiling
	// enforced at run time — the run itself fails if the measured count
	// exceeds it, independent of any baseline comparison. Use it to pin
	// a hard-won allocation budget (e.g. fleet/venue16x4 after the
	// bay-batched scratch reuse) so the bound travels with the suite
	// instead of living only in a committed baseline file.
	AllocBound float64
}

// Result is one benchmark's measured outcome.
type Result struct {
	Name        string  `json:"name"`
	Reps        int     `json:"reps"`
	OpsPerRep   int     `json:"ops_per_rep"`
	NsPerOp     float64 `json:"ns_per_op"`
	P50Ns       float64 `json:"p50_ns"`
	P95Ns       float64 `json:"p95_ns"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the full suite outcome — the BENCH_*.json document.
type Report struct {
	SchemaVersion int      `json:"schema_version"`
	GitSHA        string   `json:"git_sha"`
	GoVersion     string   `json:"go_version"`
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	CPUs          int      `json:"cpus"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	Workers       int      `json:"workers"`
	CreatedUTC    string   `json:"created_utc"`
	Benchmarks    []Result `json:"benchmarks"`
}

// Options tunes a suite run.
type Options struct {
	// Fast trims warmup and repetition counts (CI smoke, -fast). The
	// operation under each benchmark is identical either way, so fast
	// and full reports remain comparable per op.
	Fast bool

	// CPUProfileDir and MemProfileDir, when non-empty, write one pprof
	// profile per benchmark into the directory (created if absent):
	// <name>.cpu.pprof covering exactly the measured repetitions, and
	// <name>.mem.pprof capturing the heap after them ('/' in benchmark
	// names becomes '_'). Profiling perturbs wall times slightly, so
	// gate comparisons should use unprofiled runs.
	CPUProfileDir string
	MemProfileDir string

	// Log, when non-nil, receives one progress line per benchmark.
	Log func(format string, args ...any)
}

// gitSHA resolves the revision stamped into reports (see revision).
func gitSHA() string {
	info, _ := debug.ReadBuildInfo()
	return revision(os.Getenv("MOVR_GIT_SHA"), info)
}

// revision is env when set, else the VCS revision the Go toolchain
// embedded in info, with "-dirty" appended when the working tree had
// uncommitted changes (vcs.modified) so a report from a modified tree
// is never filed as the clean commit, else "unknown".
func revision(env string, info *debug.BuildInfo) string {
	if env != "" {
		return shortSHA(env)
	}
	rev, dirty := "", false
	if info != nil {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return shortSHA(rev)
}

// shortSHA cuts a revision to 12 hex digits, keeping a "-dirty" suffix.
func shortSHA(sha string) string {
	rev, dirty := strings.CutSuffix(sha, "-dirty")
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Run executes every spec in order and assembles the report.
func Run(specs []Spec, opts Options) (Report, error) {
	rep := Report{
		SchemaVersion: SchemaVersion,
		GitSHA:        gitSHA(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workers:       suiteWorkers,
		CreatedUTC:    time.Now().UTC().Format(time.RFC3339),
	}
	for _, sp := range specs {
		res, err := runOne(sp, opts)
		if err != nil {
			return Report{}, fmt.Errorf("bench %s: %w", sp.Name, err)
		}
		opts.logf("%-24s %12.0f ns/op  %8.1f allocs/op  (p95 %.0f ns)",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.P95Ns)
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	return rep, nil
}

// runOne measures a single spec: warmup reps, then timed reps with
// MemStats deltas bracketing the measured phase.
func runOne(sp Spec, opts Options) (Result, error) {
	warmup, reps := sp.Warmup, sp.Reps
	if opts.Fast {
		warmup = max(1, warmup/4)
		reps = max(3, reps/4)
	}
	ops := max(1, sp.OpsPerRep)

	if sp.Setup != nil {
		cleanup, err := sp.Setup()
		if err != nil {
			return Result{}, err
		}
		if cleanup != nil {
			defer cleanup()
		}
	}
	for i := 0; i < warmup; i++ {
		if err := sp.Op(); err != nil {
			return Result{}, fmt.Errorf("warmup rep %d: %w", i, err)
		}
	}

	samples := make([]float64, reps) // per-op ns, one sample per rep
	runtime.GC()
	stopCPU, err := startCPUProfile(opts.CPUProfileDir, sp.Name)
	if err != nil {
		return Result{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := sp.Op(); err != nil {
			stopCPU()
			return Result{}, fmt.Errorf("rep %d: %w", i, err)
		}
		samples[i] = float64(time.Since(start).Nanoseconds()) / float64(ops)
	}
	runtime.ReadMemStats(&after)
	stopCPU()
	if err := writeMemProfile(opts.MemProfileDir, sp.Name); err != nil {
		return Result{}, err
	}

	totalOps := float64(reps) * float64(ops)
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(reps)
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	res := Result{
		Name:        sp.Name,
		Reps:        reps,
		OpsPerRep:   ops,
		NsPerOp:     mean,
		P50Ns:       percentile(sorted, 50),
		P95Ns:       percentile(sorted, 95),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / totalOps,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / totalOps,
	}
	if sp.AllocBound > 0 && res.AllocsPerOp > sp.AllocBound {
		return Result{}, fmt.Errorf("%.2f allocs/op exceeds the spec's hard bound of %.0f", res.AllocsPerOp, sp.AllocBound)
	}
	return res, nil
}

// profilePath builds <dir>/<name><suffix>, flattening the '/' that
// benchmark names use as a namespace separator.
func profilePath(dir, name, suffix string) string {
	return filepath.Join(dir, strings.ReplaceAll(name, "/", "_")+suffix)
}

// startCPUProfile begins a per-benchmark CPU profile when dir is set and
// returns the stop function (a no-op otherwise).
func startCPUProfile(dir, name string) (stop func(), err error) {
	if dir == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(profilePath(dir, name, ".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile %s: %w", name, err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile snapshots the heap after a benchmark's measured reps
// when dir is set. The GC run makes the profile reflect live retention
// rather than whatever garbage the last rep left behind.
func writeMemProfile(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(profilePath(dir, name, ".mem.pprof"))
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// percentile reads the p-th percentile (nearest-rank) from an ascending
// sample set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// FileName returns the report's canonical file name, BENCH_<sha>.json.
func (r Report) FileName() string { return "BENCH_" + r.GitSHA + ".json" }

// WriteFile writes the report as indented JSON.
func (r Report) WriteFile(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadFile loads a report written by WriteFile.
func ReadFile(path string) (Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Render formats the report as a text table for terminals.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "movr benchmark suite — schema v%d, rev %s, %s %s/%s, %d CPUs (GOMAXPROCS %d, %d workers)\n\n",
		r.SchemaVersion, r.GitSHA, r.GoVersion, r.GOOS, r.GOARCH, r.CPUs, r.GOMAXPROCS, r.Workers)
	fmt.Fprintf(&b, "%-24s %14s %14s %14s %12s %12s\n",
		"benchmark", "ns/op", "p50 ns", "p95 ns", "B/op", "allocs/op")
	for _, res := range r.Benchmarks {
		fmt.Fprintf(&b, "%-24s %14.0f %14.0f %14.0f %12.1f %12.2f\n",
			res.Name, res.NsPerOp, res.P50Ns, res.P95Ns, res.BytesPerOp, res.AllocsPerOp)
	}
	return b.String()
}
