package bench

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// tinySpec is a fast deterministic benchmark for harness tests.
func tinySpec(name string) Spec {
	sink := 0.0
	return Spec{
		Name:      name,
		Warmup:    1,
		Reps:      5,
		OpsPerRep: 10,
		Op: func() error {
			for i := 0; i < 10; i++ {
				sink += math.Sqrt(float64(i))
			}
			return nil
		},
	}
}

func TestRunAndRoundTrip(t *testing.T) {
	t.Setenv("MOVR_GIT_SHA", "deadbeefcafe0123")
	rep, err := Run([]Spec{tinySpec("micro/sqrt")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != SchemaVersion {
		t.Errorf("schema = %d, want %d", rep.SchemaVersion, SchemaVersion)
	}
	if rep.GitSHA != "deadbeefcafe" {
		t.Errorf("git sha = %q, want 12-char truncation", rep.GitSHA)
	}
	if rep.FileName() != "BENCH_deadbeefcafe.json" {
		t.Errorf("file name = %q", rep.FileName())
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("benchmarks = %d, want 1", len(rep.Benchmarks))
	}
	res := rep.Benchmarks[0]
	if res.Reps != 5 || res.OpsPerRep != 10 {
		t.Errorf("reps/ops = %d/%d, want 5/10", res.Reps, res.OpsPerRep)
	}
	if res.NsPerOp <= 0 || res.P95Ns < res.P50Ns {
		t.Errorf("suspicious timings: %+v", res)
	}

	path := filepath.Join(t.TempDir(), rep.FileName())
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.GitSHA != rep.GitSHA || len(back.Benchmarks) != 1 || back.Benchmarks[0] != res {
		t.Errorf("round trip mismatch: %+v vs %+v", back, rep)
	}
	if !strings.Contains(rep.Render(), "micro/sqrt") {
		t.Error("Render omits the benchmark name")
	}
}

func TestGitSHAFromEnv(t *testing.T) {
	t.Setenv("MOVR_GIT_SHA", "0123456789abcdef")
	if got := gitSHA(); got != "0123456789ab" {
		t.Errorf("env sha = %q", got)
	}
	t.Setenv("MOVR_GIT_SHA", "0123456789abcdef-dirty")
	if got := gitSHA(); got != "0123456789ab-dirty" {
		t.Errorf("dirty env sha = %q", got)
	}
}

func TestRevisionMarksModifiedTree(t *testing.T) {
	rev := debug.BuildSetting{Key: "vcs.revision", Value: "0123456789abcdef0123"}
	dirty := debug.BuildSetting{Key: "vcs.modified", Value: "true"}
	for _, tc := range []struct {
		env      string
		settings []debug.BuildSetting
		want     string
	}{
		{"", nil, "unknown"},
		{"", []debug.BuildSetting{dirty}, "unknown"},
		{"", []debug.BuildSetting{rev}, "0123456789ab"},
		{"", []debug.BuildSetting{rev, {Key: "vcs.modified", Value: "false"}}, "0123456789ab"},
		{"", []debug.BuildSetting{dirty, rev}, "0123456789ab-dirty"},
		{"", []debug.BuildSetting{{Key: "GOOS", Value: "linux"}, rev, dirty}, "0123456789ab-dirty"},
		{"fedcba9876543210", []debug.BuildSetting{rev, dirty}, "fedcba987654"},
	} {
		if got := revision(tc.env, &debug.BuildInfo{Settings: tc.settings}); got != tc.want {
			t.Errorf("revision(%q, %v) = %q, want %q", tc.env, tc.settings, got, tc.want)
		}
	}
	if got := revision("", nil); got != "unknown" {
		t.Errorf("revision without build info = %q, want unknown", got)
	}
}

func report(results ...Result) Report {
	return Report{SchemaVersion: SchemaVersion, Benchmarks: results}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := report(Result{Name: "a", NsPerOp: 1000, AllocsPerOp: 2})
	fresh := report(Result{Name: "a", NsPerOp: 1400, AllocsPerOp: 2})
	c := Compare(base, fresh, DefaultTolerance())
	if !c.OK() {
		t.Fatalf("within-tolerance run failed: %v", c.Regressions)
	}
}

func TestCompareTimeRegressionFails(t *testing.T) {
	base := report(Result{Name: "a", NsPerOp: 1000})
	fresh := report(Result{Name: "a", NsPerOp: 1600})
	c := Compare(base, fresh, DefaultTolerance())
	if c.OK() {
		t.Fatal("60% slowdown passed a 50% gate")
	}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	base := report(Result{Name: "a", NsPerOp: 1000, AllocsPerOp: 0})
	fresh := report(Result{Name: "a", NsPerOp: 1000, AllocsPerOp: 1})
	c := Compare(base, fresh, DefaultTolerance())
	if c.OK() {
		t.Fatal("new allocation passed a zero-alloc gate")
	}
	// An explicit allowance admits it.
	if c := Compare(base, fresh, Tolerance{TimePct: 50, Allocs: 1}); !c.OK() {
		t.Fatalf("allowance of 1 alloc still failed: %v", c.Regressions)
	}
}

func TestCompareAllocSlackIsCapped(t *testing.T) {
	// Scheduling jitter on a macro benchmark passes...
	base := report(Result{Name: "fleet", NsPerOp: 1, AllocsPerOp: 1028})
	fresh := report(Result{Name: "fleet", NsPerOp: 1, AllocsPerOp: 1028.4})
	if c := Compare(base, fresh, DefaultTolerance()); !c.OK() {
		t.Fatalf("jitter failed the gate: %v", c.Regressions)
	}
	// ...but a real regression of a few allocs/op does not hide in the
	// 1% relative margin: the slack is capped at ~2 allocs/op.
	fresh.Benchmarks[0].AllocsPerOp = 1033
	if c := Compare(base, fresh, DefaultTolerance()); c.OK() {
		t.Fatal("+5 allocs/op passed a zero-tolerance gate")
	}
	// On ten-thousand-alloc entries the cap scales to 0.1% of baseline:
	// pool-scheduling jitter of a few allocs passes, but a regression of
	// one alloc per session (the venue entries run 64 per op) does not.
	base = report(Result{Name: "venue", NsPerOp: 1, AllocsPerOp: 10480})
	fresh = report(Result{Name: "venue", NsPerOp: 1, AllocsPerOp: 10488})
	if c := Compare(base, fresh, DefaultTolerance()); !c.OK() {
		t.Fatalf("+8 allocs/op on a 10k base failed the gate: %v", c.Regressions)
	}
	fresh.Benchmarks[0].AllocsPerOp = 10480 + 64
	if c := Compare(base, fresh, DefaultTolerance()); c.OK() {
		t.Fatal("+64 allocs/op (one per session) passed a zero-tolerance gate")
	}
}

func TestCompareTimeNotEnforcedAcrossHostShapes(t *testing.T) {
	base := report(Result{Name: "a", NsPerOp: 1000})
	base.CPUs = 1
	fresh := report(Result{Name: "a", NsPerOp: 5000})
	fresh.CPUs = 4
	c := Compare(base, fresh, DefaultTolerance())
	if !c.OK() {
		t.Fatalf("time bound enforced across differing host shapes: %v", c.Regressions)
	}
	if len(c.Notes) == 0 {
		t.Error("cross-host time excess not noted")
	}
	// Allocs stay strict regardless of host shape.
	fresh.Benchmarks[0].AllocsPerOp = 3
	if c := Compare(base, fresh, DefaultTolerance()); c.OK() {
		t.Fatal("alloc regression passed under host-shape mismatch")
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := report(Result{Name: "a"}, Result{Name: "b"})
	fresh := report(Result{Name: "a"})
	if c := Compare(base, fresh, DefaultTolerance()); c.OK() {
		t.Fatal("shrunken suite passed the gate")
	}
}

func TestCompareNewBenchmarkIsNoted(t *testing.T) {
	base := report(Result{Name: "a"})
	fresh := report(Result{Name: "a"}, Result{Name: "b"})
	c := Compare(base, fresh, DefaultTolerance())
	if !c.OK() {
		t.Fatalf("new benchmark failed the gate: %v", c.Regressions)
	}
	if len(c.Notes) == 0 {
		t.Error("new benchmark not noted")
	}
}

func TestCompareParallelismMismatchRefused(t *testing.T) {
	base := report(Result{Name: "a", NsPerOp: 1000})
	fresh := report(Result{Name: "a", NsPerOp: 1000})
	base.Workers, fresh.Workers = 2, 4
	if c := Compare(base, fresh, DefaultTolerance()); c.OK() {
		t.Fatal("worker-width mismatch passed the gate")
	}
	// Same hardware class but a different GOMAXPROCS is refused too.
	fresh.Workers = 2
	base.CPUs, fresh.CPUs = 8, 8
	base.GOMAXPROCS, fresh.GOMAXPROCS = 8, 4
	if c := Compare(base, fresh, DefaultTolerance()); c.OK() {
		t.Fatal("GOMAXPROCS mismatch on matching CPUs passed the gate")
	}
	// Across host shapes GOMAXPROCS naturally differs; the host-shape
	// demotion already covers that case, so it is not a refusal.
	base.CPUs = 4
	base.GOMAXPROCS = 4
	if c := Compare(base, fresh, DefaultTolerance()); !c.OK() {
		t.Fatalf("cross-host GOMAXPROCS difference refused: %v", c.Regressions)
	}
}

func TestAllocBoundEnforcedAtRunTime(t *testing.T) {
	sink := make([][]byte, 0, 16)
	sp := Spec{
		Name:       "micro/alloc",
		Warmup:     1,
		Reps:       3,
		AllocBound: 0.5,
		Op: func() error {
			sink = append(sink[:0], make([]byte, 1))
			return nil
		},
	}
	if _, err := Run([]Spec{sp}, Options{}); err == nil {
		t.Fatal("allocating op passed a 0.5 allocs/op hard bound")
	}
	sp.AllocBound = 1000
	if _, err := Run([]Spec{sp}, Options{}); err != nil {
		t.Fatalf("op within its alloc bound failed: %v", err)
	}
}

func TestProfileDirsWritten(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run([]Spec{tinySpec("micro/prof")},
		Options{CPUProfileDir: dir, MemProfileDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("benchmarks = %d, want 1", len(rep.Benchmarks))
	}
	for _, name := range []string{"micro_prof.cpu.pprof", "micro_prof.mem.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("profile %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", name)
		}
	}
}

func TestReportStampsParallelism(t *testing.T) {
	rep, err := Run([]Spec{tinySpec("micro/stamp")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != suiteWorkers {
		t.Errorf("workers = %d, want suite default %d", rep.Workers, suiteWorkers)
	}
	if rep.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs = %d, want %d", rep.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
}

func TestCompareSchemaMismatchFails(t *testing.T) {
	base := report()
	base.SchemaVersion = SchemaVersion + 1
	if c := Compare(base, report(), DefaultTolerance()); c.OK() {
		t.Fatal("schema mismatch passed the gate")
	}
}

// TestSuiteShape pins the named suite: the stable benchmark names the
// committed baseline keys on.
func TestSuiteShape(t *testing.T) {
	want := []string{
		"tracer/office1b", "linkmgr/step", "gainctl/optimize", "coex/snapshot", "fig9/trial",
		"obs/record", "obs/off",
		"fleet/mixed", "fleet/arcade", "fleet/home", "fleet/dense",
		"fleet/coex", "fleet/coexpf", "fleet/coexedf", "fleet/venue",
		"fleet/venue16x4", "fleet/venue16x4w4",
		"server/aggregate_stream",
		"movrd/submit",
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite size = %d, want %d", len(suite), len(want))
	}
	for i, sp := range suite {
		if sp.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, sp.Name, want[i])
		}
		if sp.Reps <= 0 || sp.Op == nil {
			t.Errorf("suite[%d] %q has no work", i, sp.Name)
		}
	}
}

// TestSuiteTracerRuns executes the cheapest real suite entries end to
// end (fast mode) so a broken benchmark cannot reach CI unnoticed.
func TestSuiteTracerRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full ops per rep; skip in -short")
	}
	var specs []Spec
	for _, sp := range Suite() {
		if sp.Name == "tracer/office1b" || sp.Name == "linkmgr/step" {
			specs = append(specs, sp)
		}
	}
	rep, err := Run(specs, Options{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Benchmarks {
		if res.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %v", res.Name, res.NsPerOp)
		}
		// The tentpole promise: the tracer and tracking step hot paths
		// are allocation-free in steady state (small slack for runtime
		// background allocations landing in the measured window).
		if res.AllocsPerOp > 0.05 {
			t.Errorf("%s: allocs/op = %.3f, want ~0", res.Name, res.AllocsPerOp)
		}
	}
}
