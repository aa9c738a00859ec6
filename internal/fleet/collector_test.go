package fleet

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/stream"
)

// syntheticOutcomes builds n deterministic outcomes spanning the metric
// ranges, without running any simulation — fast fodder for the
// order-invariance and memory properties.
func syntheticOutcomes(n int, seed int64) []SessionOutcome {
	rng := rand.New(rand.NewSource(seed))
	out := make([]SessionOutcome, n)
	for i := range out {
		frames := 100 + rng.Intn(200)
		delivered := rng.Intn(frames + 1)
		glitches := frames - delivered
		out[i] = SessionOutcome{
			ID:   "synth",
			Seed: int64(i),
			Report: stream.Report{
				Frames:        frames,
				Delivered:     delivered,
				Glitches:      glitches,
				GlitchFrac:    float64(glitches) / float64(frames),
				TotalOutage:   time.Duration(rng.Int63n(int64(2 * time.Second))),
				LongestOutage: time.Duration(rng.Int63n(int64(time.Second))),
			},
			Handoffs:      rng.Intn(20),
			DeliveredFrac: float64(delivered) / float64(frames),
		}
	}
	return out
}

// TestStreamStateOrderInvariant pins the property the whole streaming
// design rests on: folding the same outcomes in any order yields
// bit-identical state, so worker scheduling can never leak into
// results.
func TestStreamStateOrderInvariant(t *testing.T) {
	outcomes := syntheticOutcomes(257, 11)
	baseline := NewStreamCollector(2)
	for i, o := range outcomes {
		baseline.Add(i, o)
	}
	want, err := json.Marshal(baseline.Result().Stream)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(len(outcomes))
		c := NewStreamCollector(2)
		for _, i := range perm {
			c.Add(i, outcomes[i])
		}
		got, err := json.Marshal(c.Result().Stream)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("trial %d: permuted fold produced different state", trial)
		}
	}
}

// assertStreamWithinBound checks every streaming-aggregate field
// against the exact aggregate: totals and extrema exact, means within
// fixed-point quantization, percentiles within the documented sketch
// bound.
func assertStreamWithinBound(t *testing.T, exact Aggregate, streamed Result) {
	t.Helper()
	st := streamed.Stream
	if st == nil {
		t.Fatal("streaming result carries no state")
	}
	agg := streamed.Agg
	if agg.Sessions != exact.Sessions || agg.Frames != exact.Frames ||
		agg.Delivered != exact.Delivered || agg.Glitches != exact.Glitches ||
		agg.TotalHandoffs != exact.TotalHandoffs || agg.WorstOutage != exact.WorstOutage {
		t.Fatalf("streaming totals differ from exact:\n  stream %+v\n  exact  %+v", agg, exact)
	}
	check := func(name string, got, want Quantiles, sketch MetricSketch) {
		bound := sketch.ErrorBound()
		for _, c := range []struct {
			label string
			g, w  float64
			tol   float64
		}{
			{"p50", got.P50, want.P50, bound},
			{"p95", got.P95, want.P95, bound},
			{"p99", got.P99, want.P99, bound},
			{"mean", got.Mean, want.Mean, 1e-6},
			{"min", got.Min, want.Min, 0},
			{"max", got.Max, want.Max, 0},
		} {
			if math.Abs(c.g-c.w) > c.tol {
				t.Errorf("%s %s: stream %v vs exact %v exceeds bound %v", name, c.label, c.g, c.w, c.tol)
			}
		}
	}
	check("delivered_frac", agg.DeliveredFrac, exact.DeliveredFrac, st.DeliveredFrac)
	check("glitch_frac", agg.GlitchFrac, exact.GlitchFrac, st.GlitchFrac)
	check("outage_seconds", agg.OutageSeconds, exact.OutageSeconds, st.OutageSeconds)
	check("handoffs", agg.Handoffs, exact.Handoffs, st.Handoffs)
}

// TestStreamWithinBoundSeed7 pins the streaming error bound on the
// seed-7 coex fixture: the percentile sketch must track the exact
// aggregate within MetricSketch.ErrorBound on a real policy-scheduled
// workload, and totals must be exact.
func TestStreamWithinBoundSeed7(t *testing.T) {
	cfg := ScenarioConfig{
		Duration:     500 * time.Millisecond,
		ReEvalPeriod: 50 * time.Millisecond,
		Seed:         7,
	}
	specs, err := KindCoex.Specs(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Run(context.Background(), specs, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := RunCollect(context.Background(), specs, Config{Workers: 2}, StreamCollectorFor(specs))
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Sessions != nil {
		t.Fatal("streaming run retained per-session outcomes")
	}
	assertStreamWithinBound(t, exact.Agg, streamed)
}

// TestRunCollectExactMatchesRun pins that the Collector refactor did
// not move the exact path: RunCollect with an ExactCollector is Run.
func TestRunCollectExactMatchesRun(t *testing.T) {
	specs := shortScenario(6, 3)
	a, err := Run(context.Background(), specs, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCollect(context.Background(), specs, Config{Workers: 2}, NewExactCollector(len(specs)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RunCollect(ExactCollector) differs from Run")
	}
	c, err := RunCollect(context.Background(), specs, Config{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("RunCollect(nil) differs from Run")
	}
}

// TestStreamCollectorConstantMemory is the constant-RSS acceptance
// check at the collector level: folding an outcome allocates nothing in
// steady state, and the state never outgrows the sketch resolution — so
// a 100k-session job holds no more collector memory than sketchBins
// nonzero bins per metric.
func TestStreamCollectorConstantMemory(t *testing.T) {
	c := NewStreamCollector(2)
	outcomes := syntheticOutcomes(1024, 5)
	i := 0
	allocs := testing.AllocsPerRun(100000, func() {
		c.Add(i, outcomes[i%len(outcomes)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("StreamCollector.Add allocates %.1f objects/op, want 0", allocs)
	}
	st := c.Result().Stream
	if st.Sessions < 100000 {
		t.Fatalf("folded %d sessions, want >= 100000", st.Sessions)
	}
	if got := st.Aggregate(); got.Sessions != st.Sessions || got.Frames == 0 {
		t.Fatalf("aggregate over 100k synthetic sessions looks empty: %+v", got)
	}
}

// TestStreamQuantileAgainstExact fuzzes the sketch estimator against
// stats.Percentile over random samples, checking the documented bound
// directly.
func TestStreamQuantileAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(400)
		m := newMetricSketch(0, 1)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
			m.add(xs[i])
		}
		for _, p := range []float64{0, 10, 50, 90, 95, 99, 100} {
			got := m.Quantile(p)
			want := exactPercentile(xs, p)
			if math.Abs(got-want) > m.ErrorBound() {
				t.Fatalf("trial %d n=%d p%.0f: sketch %v vs exact %v exceeds %v",
					trial, n, p, got, want, m.ErrorBound())
			}
		}
	}
	var empty MetricSketch
	if !math.IsNaN(empty.Quantile(50)) || !math.IsNaN(empty.Mean()) {
		t.Fatal("empty sketch should summarize to NaN")
	}
}

// exactPercentile mirrors stats.Percentile without importing it into
// the fleet package's test (avoiding a reference implementation drift
// would hide): sort a copy, interpolate at rank p/100·(n−1).
func exactPercentile(xs []float64, p float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if len(cp) == 1 {
		return cp[0]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo < 0 {
		lo, hi = 0, 0
	}
	if hi >= len(cp) {
		lo, hi = len(cp)-1, len(cp)-1
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// TestHistogramJSONIsDense pins the wire form of the sparse histogram:
// it marshals to exactly the bytes of the dense []int64 count array, and
// unmarshals back to the same sketch.
func TestHistogramJSONIsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 64, 1000} {
		m := newMetricSketch(0, 1)
		dense := make([]int64, sketchBins)
		for i := 0; i < n; i++ {
			x := rng.Float64()
			if i%7 == 0 {
				x = 0.999 // repeat one bin
			}
			m.add(x)
			dense[m.binOf(x)]++
		}
		got, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(struct {
			Count int64   `json:"count"`
			SumFP int64   `json:"sum_fp"`
			Min   float64 `json:"min"`
			Max   float64 `json:"max"`
			Lo    float64 `json:"lo"`
			Hi    float64 `json:"hi"`
			Bins  []int64 `json:"bins"`
		}{m.Count, m.SumFP, m.Min, m.Max, m.Lo, m.Hi, dense})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("n=%d: sparse JSON differs from the dense array's", n)
		}
		var back MetricSketch
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		again, _ := json.Marshal(back)
		if string(again) != string(got) || back.Quantile(50) != m.Quantile(50) && n > 0 {
			t.Fatalf("n=%d: JSON round trip changed the sketch", n)
		}
	}
	if got, _ := json.Marshal(MetricSketch{}.Bins); string(got) != "null" {
		t.Fatalf("zero Histogram marshals to %s, want null like a nil slice", got)
	}
}

// ErrorBound is the guaranteed worst-case absolute error of Quantile
// against the exact stats.Percentile over the same samples: one bin
// width. (Values outside [Lo, Hi) clamp into the edge bins, so samples
// beyond the declared range can exceed the bound — the fleet
// constructors size ranges so that cannot happen.)
func (m MetricSketch) ErrorBound() float64 {
	if m.Bins.n == 0 {
		return math.Inf(1)
	}
	return (m.Hi - m.Lo) / float64(m.Bins.n)
}
