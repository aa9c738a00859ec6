// Package metrics is a dependency-free counter/gauge/histogram registry
// with Prometheus text exposition — the observability substrate of the
// movrd daemon, and small enough for any other part of the codebase to
// adopt. All instruments are safe for concurrent use; exposition output
// is sorted by metric name so scrapes (and tests) are deterministic.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one registered instrument.
type metric interface {
	name() string
	help() string
	typ() string
	write(w io.Writer)
}

// Registry holds a set of named instruments.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// register adds m, panicking on a duplicate name — metric names are
// compile-time constants, so a collision is a programming error.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[m.name()]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", m.name()))
	}
	r.metrics[m.name()] = m
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	ms := make([]metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		ms = append(ms, r.metrics[n])
	}
	r.mu.Unlock()

	for _, m := range ms {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name(), m.help())
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name(), m.typ())
		m.write(w)
	}
}

// String renders the registry as the exposition text.
func (r *Registry) String() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing integer sample.
type Counter struct {
	nm, hp string
	v      atomic.Int64
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{nm: name, hp: help}
	r.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters never go down).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter decrement")
	}
	c.v.Add(n)
}

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) name() string { return c.nm }
func (c *Counter) help() string { return c.hp }
func (c *Counter) typ() string  { return "counter" }
func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.nm, c.v.Load())
}

// Gauge is an integer sample that can go up and down.
type Gauge struct {
	nm, hp string
	v      atomic.Int64
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{nm: name, hp: help}
	r.register(g)
	return g
}

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) name() string { return g.nm }
func (g *Gauge) help() string { return g.hp }
func (g *Gauge) typ() string  { return "gauge" }
func (g *Gauge) write(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", g.nm, g.v.Load())
}

// CounterVec is a family of counters keyed by one label — per-scenario
// job counts and the like. Children are created on first use and live
// for the registry's lifetime, so the label must be low-cardinality
// (an enum, not user input).
type CounterVec struct {
	nm, hp, label string

	mu       sync.Mutex
	children map[string]*atomic.Int64
}

// NewCounterVec registers a single-label counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{nm: name, hp: help, label: label, children: make(map[string]*atomic.Int64)}
	r.register(v)
	return v
}

// With returns the child counter for the given label value, creating it
// on first use.
func (v *CounterVec) With(value string) *atomic.Int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &atomic.Int64{}
		v.children[value] = c
	}
	return c
}

// Inc adds one to the child for the given label value.
func (v *CounterVec) Inc(value string) { v.With(value).Add(1) }

// Value reports the child's current count (0 if never incremented).
func (v *CounterVec) Value(value string) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[value]; ok {
		return c.Load()
	}
	return 0
}

func (v *CounterVec) name() string { return v.nm }
func (v *CounterVec) help() string { return v.hp }
func (v *CounterVec) typ() string  { return "counter" }
func (v *CounterVec) write(w io.Writer) {
	v.mu.Lock()
	values := make([]string, 0, len(v.children))
	for val := range v.children {
		values = append(values, val)
	}
	sort.Strings(values)
	counts := make([]int64, len(values))
	for i, val := range values {
		counts[i] = v.children[val].Load()
	}
	v.mu.Unlock()
	for i, val := range values {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.nm, v.label, val, counts[i])
	}
}

// gaugeFunc samples a float from a callback at exposition time — for
// values owned elsewhere (pool utilization, derived quantiles).
type gaugeFunc struct {
	nm, hp string
	fn     func() float64
}

// NewGaugeFunc registers a gauge whose value is fn() at scrape time.
// fn must be safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&gaugeFunc{nm: name, hp: help, fn: fn})
}

func (g *gaugeFunc) name() string { return g.nm }
func (g *gaugeFunc) help() string { return g.hp }
func (g *gaugeFunc) typ() string  { return "gauge" }
func (g *gaugeFunc) write(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.nm, formatFloat(g.fn()))
}

// Histogram accumulates observations into cumulative buckets, Prometheus
// style, and can estimate quantiles locally (for surfacing p50/p95
// without a scrape pipeline).
type Histogram struct {
	nm, hp string
	bounds []float64 // ascending upper bounds, +Inf implicit

	mu     sync.Mutex
	counts []int64 // per-bucket (non-cumulative), len(bounds)+1
	sum    float64
	total  int64
}

// NewHistogram registers a histogram over the given ascending bucket
// upper bounds. The +Inf bucket is implicit.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{
		nm:     name,
		hp:     help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// DefaultLatencyBuckets spans 1 ms to ~100 s in roughly 1-2.5-5 steps —
// suitable for job and request latencies in seconds.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Quantile estimates the p-th quantile (p in [0, 100]) by linear
// interpolation within the bucket holding it, assuming uniform spread —
// the same estimate Prometheus's histogram_quantile makes. Returns 0
// with no observations; a quantile landing in the +Inf bucket reports
// the largest finite bound.
func (h *Histogram) Quantile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := p / 100 * float64(h.total)
	var cum int64
	for i, c := range h.counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) name() string { return h.nm }
func (h *Histogram) help() string { return h.hp }
func (h *Histogram) typ() string  { return "histogram" }
func (h *Histogram) write(w io.Writer) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	var cum int64
	for i, b := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.nm, formatFloat(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, total)
	fmt.Fprintf(w, "%s_sum %s\n", h.nm, formatFloat(sum))
	fmt.Fprintf(w, "%s_count %d\n", h.nm, total)
}
