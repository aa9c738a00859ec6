// Command movrbench is the repository's benchmark: it measures the
// simulator from the outside, end to end and layer by layer, on four
// named workloads.
//
//   - venue-offline: 16-bay venues run back to back in-process through
//     RunFleetCollect with the stream collector;
//   - solo-offline: mixed arcade/home/dense fleets through the exact
//     collector, the per-session path that bypasses bays and coex;
//   - movrd-fresh: a live movrd daemon under an open-loop 40 jobs/s mix of
//     distinct specs;
//   - movrd-repeat: the same daemon under 100 jobs/s drawn 95% from a hot
//     set of 16 specs, so the result cache serves most jobs.
//
// Usage (from the repository root; run.sh builds movrbench and movrd):
//
//	bash cmd/movrbench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|DIR] [-out FILE]
//	bash cmd/movrbench/run.sh -compare A.json B.json
//
// Each workload runs in its own child process (movrbench re-executes
// itself), so CPU time, peak memory and profiles are per workload. A run
// prints one `workload metric value unit (samples)` line per metric and
// ends with one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics of
// BENCHMARK.json; -trace runs report its per-layer metrics and write a
// Chrome trace, profiles and layers.json. The exit code is 1 when any
// output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options is one invocation's configuration; the parent passes it on to
// each workload child unchanged.
type options struct {
	workload  string
	seed      int64
	seconds   int
	warmup    time.Duration
	trace     string
	out       string
	bench     string
	movrd     string
	workdir   string
	child     bool
	setupOnly bool
}

// traced reports whether the run records the per-layer metrics.
func (o options) traced() bool { return o.trace != "" && o.trace != "0" }

// traceDir is where a traced run writes its artifacts: -trace 1 uses the
// work directory, any other value names the directory itself.
func (o options) traceDir() string {
	if o.trace == "1" {
		return filepath.Join(o.workdir, "trace")
	}
	return o.trace
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is main with its arguments and output made explicit, so the tests
// and the re-executed children share it.
func run(args []string, stdout io.Writer) int {
	var o options
	fs := flag.NewFlagSet("movrbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all of them)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "length of each measured window in seconds")
	fs.DurationVar(&o.warmup, "warmup", 5*time.Second, "warm-up before the measured window")
	fs.StringVar(&o.trace, "trace", "0", "0 = end-to-end metrics; 1 or a directory = per-layer metrics plus trace artifacts")
	fs.StringVar(&o.out, "out", "", "append the runs to this JSON file (input to -compare)")
	fs.StringVar(&o.bench, "bench", "BENCHMARK.json", "benchmark definition: metric names, units and bounds")
	fs.StringVar(&o.movrd, "movrd", "", "movrd binary the daemon workloads launch")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for daemon stores and trace artifacts")
	compare := fs.Bool("compare", false, "compare two -out files: -compare A.json B.json")
	golden := fs.String("write-golden", "", "recompute the seed-1 golden digests into this file and exit")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: stop after the first result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "movrbench: -compare needs two result files")
			return 2
		}
		return compareMain(o.bench, fs.Arg(0), fs.Arg(1), stdout)
	case fs.NArg() != 0:
		fmt.Fprintf(os.Stderr, "movrbench: unexpected arguments %v\n", fs.Args())
		return 2
	case *golden != "":
		if err := writeGolden(*golden); err != nil {
			fmt.Fprintln(os.Stderr, "movrbench:", err)
			return 1
		}
		return 0
	case o.child:
		return childMain(o, stdout)
	}
	return parentMain(o, stdout)
}

// parentMain runs the selected workloads, checks the metric set against
// BENCHMARK.json, prints the report and the closing JSON line.
func parentMain(o options, stdout io.Writer) int {
	def, err := loadBenchDef(o.bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "movrbench:", err)
		return 1
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "movrbench: -seconds must be at least 1")
		return 2
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "movrbench: unknown workload %q (%s)\n", o.workload, workloadNames())
			return 2
		}
		selected = []workload{w}
	}
	if o.movrd == "" {
		for _, w := range selected {
			if !w.offline {
				fmt.Fprintln(os.Stderr, "movrbench: the movrd workloads need -movrd (run.sh passes it)")
				return 2
			}
		}
	}

	var runs []runResult
	for _, w := range selected {
		r, err := runWorkload(o, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "movrbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := def.check(r); err != nil {
			fmt.Fprintf(os.Stderr, "movrbench: %s: %v\n", w.name, err)
			return 1
		}
		for _, p := range r.Problems {
			fmt.Fprintf(os.Stderr, "movrbench: %s: wrong output: %s\n", w.name, p)
		}
		runs = append(runs, r)
	}

	sum := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range runs {
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := r.Metrics[name]
			fmt.Fprintf(stdout, "%s %s %.6g %s (%d)\n", r.Workload, name, m.Value, m.Unit, m.N)
			key := name
			if len(runs) > 1 {
				key = r.Workload + "/" + name
			}
			sum.Metrics[key] = metricValue{Value: m.Value, Unit: m.Unit}
		}
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
	}
	if o.out != "" {
		if err := appendRuns(o.out, runs); err != nil {
			fmt.Fprintln(os.Stderr, "movrbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "movrbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// summary is the closing JSON line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childMain runs one workload in this process and writes its result as
// the last JSON line.
func childMain(o options, stdout io.Writer) int {
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "movrbench: unknown workload %q\n", o.workload)
		return 2
	}
	enc := json.NewEncoder(stdout)
	var r runResult
	var err error
	if w.offline {
		r, err = runOffline(o, w, enc)
	} else {
		r, err = runMovrd(o, w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "movrbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := enc.Encode(childLine{Result: &r}); err != nil {
		return 1
	}
	return 0
}

// appendRuns adds runs to the JSON result file at path, creating it when
// missing, so repeated runs collect into one file for -compare.
func appendRuns(path string, runs []runResult) error {
	var f resultFile
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !os.IsNotExist(err):
		return err
	}
	f.Runs = append(f.Runs, runs...)
	raw, err = json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// resultFile is the -out format: every run appended so far.
type resultFile struct {
	Runs []runResult `json:"runs"`
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}
