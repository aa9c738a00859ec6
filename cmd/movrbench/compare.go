package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of a parent/change comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// comparison is one workload × metric row of a comparison between a
// parent's runs (a) and a change's runs (b).
type comparison struct {
	q1A, medA, q3A float64
	q1B, medB, q3B float64
	nA, nB         int
	pairs, wins    int
	verdict        string
}

// judge applies the paired-run rule. A gain needs the change to win at
// least nine tenths of the pairs (ties count for neither) and the medians
// to differ by more than the parent's interquartile spread. A change
// whose median is worse than the parent's by more than bound (a share of
// the parent's median) regressed. Otherwise the metric is unchanged —
// unless either side's spread exceeds the bound, which leaves it
// unresolved unless every change run beats every parent run.
func judge(a, b []float64, pairs [][2]float64, better string, bound float64) comparison {
	c := comparison{nA: len(a), nB: len(b), pairs: len(pairs)}
	c.q1A, c.medA, c.q3A = quartiles(a)
	c.q1B, c.medB, c.q3B = quartiles(b)
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	for _, p := range pairs {
		if sign*(p[1]-p[0]) > 0 {
			c.wins++
		}
	}
	gain := sign * (c.medB - c.medA)
	base := math.Abs(c.medA)
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case c.pairs > 0 && 10*c.wins >= 9*c.pairs && gain > c.q3A-c.q1A:
		c.verdict = improved
	case -gain > bound*base:
		c.verdict = regressed
	case c.q3A-c.q1A > bound*base || c.q3B-c.q1B > bound*math.Abs(c.medB):
		c.verdict = unresolved
		if allBetter {
			c.verdict = improved
		}
	default:
		c.verdict = unchanged
	}
	return c
}

// pairRuns pairs the i-th run of each seed in a with the i-th run of the
// same seed in b, in file order.
func pairRuns(a, b []runResult, metric string) [][2]float64 {
	bySeed := map[int64][]float64{}
	for _, r := range b {
		if m, ok := r.Metrics[metric]; ok {
			bySeed[r.Seed] = append(bySeed[r.Seed], m.Value)
		}
	}
	var pairs [][2]float64
	used := map[int64]int{}
	for _, r := range a {
		m, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		if i := used[r.Seed]; i < len(bySeed[r.Seed]) {
			pairs = append(pairs, [2]float64{m.Value, bySeed[r.Seed][i]})
			used[r.Seed]++
		}
	}
	return pairs
}

func readResultFile(path string) ([]runResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// compareMain compares the untraced runs of two -out files, parent first,
// for every workload and end-to-end metric, and exits 1 when any metric
// regressed.
func compareMain(benchPath, aPath, bPath string, out io.Writer) int {
	def, err := loadBenchDef(benchPath)
	if err == nil {
		err = compareFiles(def, aPath, bPath, out)
	}
	switch {
	case err == errRegressed:
		return 1
	case err != nil:
		fmt.Fprintln(os.Stderr, "movrbench:", err)
		return 1
	}
	return 0
}

var errRegressed = fmt.Errorf("a metric regressed")

func compareFiles(def benchDef, aPath, bPath string, out io.Writer) error {
	a, err := readResultFile(aPath)
	if err != nil {
		return err
	}
	b, err := readResultFile(bPath)
	if err != nil {
		return err
	}
	pick := func(runs []runResult, w string) []runResult {
		var out []runResult
		for _, r := range runs {
			if r.Workload == w && !r.Traced && r.Correct {
				out = append(out, r)
			}
		}
		return out
	}
	values := func(runs []runResult, metric string) []float64 {
		var xs []float64
		for _, r := range runs {
			if m, ok := r.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3] (n)\tchange median [q1, q3] (n)\twins\tverdict")
	anyRegressed := false
	for _, w := range workloads {
		ra, rb := pick(a, w.name), pick(b, w.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range def.EndToEnd {
			xa, xb := values(ra, m.Name), values(rb, m.Name)
			if len(xa) == 0 || len(xb) == 0 || m.Bound == nil {
				continue
			}
			c := judge(xa, xb, pairRuns(ra, rb, m.Name), m.Better, *m.Bound)
			anyRegressed = anyRegressed || c.verdict == regressed
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%d/%d\t%s\n",
				w.name, m.Name, c.medA, c.q1A, c.q3A, c.nA, c.medB, c.q1B, c.q3B, c.nB, c.wins, c.pairs, c.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if anyRegressed {
		return errRegressed
	}
	return nil
}
