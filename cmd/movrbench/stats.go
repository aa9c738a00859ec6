package main

import (
	"math"
	"sort"

	"github.com/movr-sim/movr/internal/stats"
)

// tailPercentile is the highest percentile, at most the 99th, that has at
// least ten of n samples beyond it — the percentile a tail metric
// reports.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return math.Min(99, 100*(1-10/float64(n)))
}

// setTail reports prefix_p50_ms and prefix_p99_ms over xs (in ms); the
// p99 is the tail percentile the sample count supports. An empty sample
// reports zeros: the layer did not run.
func setTail(r *runResult, prefix string, xs []float64) {
	r.set(prefix+"_p50_ms", median0(xs), "ms", len(xs))
	r.set(prefix+"_p99_ms", tail0(xs), "ms", len(xs))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), so spreads read the same as in external analyses.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median0 and tail0 are the median and the tail percentile of xs, 0 for
// an empty sample.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

func tail0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, tailPercentile(len(xs)))
}
