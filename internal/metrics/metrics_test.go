package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "jobs submitted")
	g := r.NewGauge("jobs_running", "jobs running now")
	c.Inc()
	c.Add(4)
	g.Add(3)
	g.Add(-1)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	if g.Value() != 2 {
		t.Errorf("gauge = %d", g.Value())
	}
	out := r.String()
	for _, want := range []string{
		"# HELP jobs_total jobs submitted",
		"# TYPE jobs_total counter",
		"jobs_total 5",
		"# TYPE jobs_running gauge",
		"jobs_running 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterRejectsDecrement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Add should panic")
		}
	}()
	NewRegistry().NewCounter("c", "h").Add(-1)
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("same", "h")
	defer func() {
		if recover() == nil {
			t.Error("duplicate metric name should panic")
		}
	}()
	r.NewGauge("same", "h")
}

func TestExpositionSortedAndDeterministic(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("zeta_total", "z")
	r.NewCounter("alpha_total", "a")
	r.NewGaugeFunc("mid_gauge", "m", func() float64 { return 1.5 })
	out := r.String()
	za := strings.Index(out, "alpha_total")
	zm := strings.Index(out, "mid_gauge")
	zz := strings.Index(out, "zeta_total")
	if !(za < zm && zm < zz) {
		t.Errorf("metrics not sorted by name:\n%s", out)
	}
	if out != r.String() {
		t.Error("exposition not deterministic across calls")
	}
	if !strings.Contains(out, "mid_gauge 1.5") {
		t.Errorf("gauge func sample missing:\n%s", out)
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := r.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_sum 56.05",
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("q_seconds", "q", []float64{1, 2, 3, 4})
	if h.Quantile(50) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	// 100 uniform samples, 25 per bucket.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%4) + 0.5)
	}
	if got := h.Quantile(50); math.Abs(got-2) > 0.5 {
		t.Errorf("p50 = %g, want ~2", got)
	}
	if got := h.Quantile(95); math.Abs(got-3.8) > 0.5 {
		t.Errorf("p95 = %g, want ~3.8", got)
	}
	// A sample beyond every bound lands in +Inf and reports the largest
	// finite bound.
	h2 := r.NewHistogram("q2_seconds", "q", []float64{1})
	h2.Observe(100)
	if got := h2.Quantile(99); got != 1 {
		t.Errorf("+Inf-bucket quantile = %g, want clamp to 1", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c")
	g := r.NewGauge("g", "g")
	h := r.NewHistogram("h_seconds", "h", DefaultLatencyBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) / 100)
				_ = r.String()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || h.Count() != 8000 {
		t.Errorf("c=%d g=%d h=%d, want 8000 each", c.Value(), g.Value(), h.Count())
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("jobs_by_kind_total", "jobs by scenario kind", "kind")
	v.Inc("coex")
	v.Inc("coex")
	v.Inc("mixed")
	v.With("arcade").Add(3)
	if got := v.Value("coex"); got != 2 {
		t.Errorf("coex = %d, want 2", got)
	}
	if got := v.Value("never"); got != 0 {
		t.Errorf("unseen label = %d, want 0", got)
	}
	out := r.String()
	for _, want := range []string{
		"# TYPE jobs_by_kind_total counter",
		`jobs_by_kind_total{kind="arcade"} 3`,
		`jobs_by_kind_total{kind="coex"} 2`,
		`jobs_by_kind_total{kind="mixed"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Children are sorted by label value for deterministic scrapes.
	if strings.Index(out, `kind="arcade"`) > strings.Index(out, `kind="coex"`) {
		t.Error("children not sorted by label value")
	}
}
