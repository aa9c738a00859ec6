package fleet

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"
)

// This file is the aggregation layer of the fleet engine: a Collector
// abstraction over "what happens to each SessionOutcome as it
// completes", an exact collector (the historical path — every outcome
// retained, aggregates computed over the full list), and a
// constant-memory streaming collector built on fixed-bin sketches.
//
// Determinism contract:
//
//   - The exact path is bit-identical to the pre-Collector fleet.Run:
//     outcomes land in spec order and aggregation walks that order.
//   - The streaming path folds outcomes in completion order, which the
//     worker pool does not fix — so every streaming accumulator is
//     exactly order-invariant by construction: integer counters,
//     fixed-point (1e-9-quantized) sums, min/max, and integer bin
//     counts. The same outcome multiset yields the same StreamState
//     bit for bit whatever the completion order.
//
// Accuracy contract of the streaming path (documented error bounds):
//
//   - Sessions, Frames, Delivered, Glitches, TotalHandoffs and
//     WorstOutage are exact. Min and Max of every metric are exact.
//   - Means are quantized at 1e-9 per sample: |mean_stream − mean_exact|
//     ≤ 0.5e-9 (plus ordinary float rounding).
//   - Percentiles come from a fixed-bin histogram sketch and are within
//     one bin width, (Hi−Lo)/bins, of the exact (stats.Percentile)
//     value. With 4096 bins that is ≈ 0.000245 for the delivered/glitch
//     fractions (range [0,1]) and maxOutage/4096 for outage seconds;
//     handoff percentiles use width-1 bins and are within 1 handoff
//     (exact location, sub-bin interpolation only) while the
//     per-session count stays below 4096.

// sketchBins is the fixed resolution of every percentile sketch. The
// serialized state is ~4·sketchBins int64 counters per aggregate —
// constant in the session count. In memory only the bins in use are
// held (see Histogram), never more than sketchBins per sketch.
const sketchBins = 4096

// fpScale is the fixed-point quantum of streaming sums: samples are
// accumulated as round(x·1e9) in int64, making addition exactly
// commutative and associative — the property that keeps completion
// order out of the result.
const fpScale = 1e9

// streamSchemaV versions the serialized StreamState a streaming result
// carries, so a reader can tell its layout apart from a later one.
const streamSchemaV = 1

// Collector consumes per-session outcomes as the pool completes them
// and produces the run's Result. Add is called once per spec index,
// from worker goroutines, in completion order — implementations must be
// safe for concurrent use and must not depend on call order for the
// deterministic parts of their output.
type Collector interface {
	// Add records outcome o of spec index i.
	Add(i int, o SessionOutcome)

	// Result finalizes and returns the aggregate view.
	Result() Result
}

// ExactCollector is the historical aggregation path: every outcome is
// retained in spec order and the Aggregate is computed over the full
// list. Memory is O(sessions); results are bit-identical to pre-
// Collector fleet.Run.
type ExactCollector struct {
	outcomes []SessionOutcome
}

// NewExactCollector sizes the collector for n specs.
func NewExactCollector(n int) *ExactCollector {
	return &ExactCollector{outcomes: make([]SessionOutcome, n)}
}

// Add stores o at its spec index. Distinct indices never race, so no
// lock is needed.
func (c *ExactCollector) Add(i int, o SessionOutcome) { c.outcomes[i] = o }

// Result returns outcomes in spec order plus their aggregate.
func (c *ExactCollector) Result() Result {
	return Result{Sessions: c.outcomes, Agg: aggregate(c.outcomes)}
}

// MetricSketch is a bounded-size summary of one per-session metric:
// exact count, min, max and fixed-point sum, plus a fixed-bin histogram
// over [Lo, Hi) for percentile estimates. All accumulators are integers
// or order-invariant extrema, so any fold order produces the identical
// state.
type MetricSketch struct {
	Count int64     `json:"count"`
	SumFP int64     `json:"sum_fp"` // Σ round(x·1e9), exactly order-invariant
	Min   float64   `json:"min"`    // exact; 0 until Count > 0
	Max   float64   `json:"max"`    // exact; 0 until Count > 0
	Lo    float64   `json:"lo"`     // sketch range, fixed at construction
	Hi    float64   `json:"hi"`
	Bins  Histogram `json:"bins"`
}

// Histogram is a fixed-length array of bin counts held sparsely: the
// nonzero bins in increasing index order. A fleet job folds tens of
// sessions into thousands of bins, so a Result kept in memory carries
// only the bins in use. It serializes as the dense count array, so the
// JSON form is the plain histogram.
type Histogram struct {
	n    int
	bins []binCount
}

// binCount is one nonzero bin of a Histogram.
type binCount struct {
	i int32
	c int64
}

// histogramCap presizes a Histogram for the distinct bins a typical
// job's sessions fill, so folding them never regrows it.
const histogramCap = 64

// inc adds one to bin i.
func (h *Histogram) inc(i int) {
	lo, hi := 0, len(h.bins)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(h.bins[m].i) < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(h.bins) && int(h.bins[lo].i) == i {
		h.bins[lo].c++
		return
	}
	h.bins = slices.Insert(h.bins, lo, binCount{int32(i), 1})
}

// MarshalJSON writes the dense count array (null for a zero Histogram,
// as for a nil slice).
func (h Histogram) MarshalJSON() ([]byte, error) {
	if h.n == 0 {
		return []byte("null"), nil
	}
	out := make([]byte, 0, 2*h.n+16*len(h.bins))
	out = append(out, '[')
	k := 0
	for i := 0; i < h.n; i++ {
		if i > 0 {
			out = append(out, ',')
		}
		var c int64
		if k < len(h.bins) && int(h.bins[k].i) == i {
			c = h.bins[k].c
			k++
		}
		out = strconv.AppendInt(out, c, 10)
	}
	return append(out, ']'), nil
}

// UnmarshalJSON reads the dense count array.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var dense []int64
	if err := json.Unmarshal(b, &dense); err != nil {
		return err
	}
	*h = Histogram{n: len(dense)}
	for i, c := range dense {
		if c != 0 {
			h.bins = append(h.bins, binCount{int32(i), c})
		}
	}
	return nil
}

func newMetricSketch(lo, hi float64) MetricSketch {
	if hi <= lo {
		hi = lo + 1
	}
	return MetricSketch{Lo: lo, Hi: hi, Bins: Histogram{n: sketchBins, bins: make([]binCount, 0, histogramCap)}}
}

func (m *MetricSketch) binOf(x float64) int {
	i := int((x - m.Lo) / (m.Hi - m.Lo) * float64(m.Bins.n))
	if i < 0 {
		i = 0
	}
	if i >= m.Bins.n {
		i = m.Bins.n - 1
	}
	return i
}

func (m *MetricSketch) add(x float64) {
	if m.Count == 0 || x < m.Min {
		m.Min = x
	}
	if m.Count == 0 || x > m.Max {
		m.Max = x
	}
	m.Count++
	m.SumFP += int64(math.Round(x * fpScale))
	m.Bins.inc(m.binOf(x))
}

// Mean returns the fixed-point mean (NaN when empty).
func (m MetricSketch) Mean() float64 {
	if m.Count == 0 {
		return math.NaN()
	}
	return float64(m.SumFP) / fpScale / float64(m.Count)
}

// orderStat reconstructs the k-th (0-based) order statistic from the
// histogram: the bin holding it is located exactly by cumulative
// counts, and the position inside the bin is interpolated. The true
// order statistic lies in the same bin (counting is exact), so the
// estimate is within one bin width of it.
func (m MetricSketch) orderStat(k int64) float64 {
	binW := (m.Hi - m.Lo) / float64(m.Bins.n)
	var cum int64
	for _, b := range m.Bins.bins {
		c := b.c
		if k < cum+c {
			frac := (float64(k-cum) + 0.5) / float64(c)
			v := m.Lo + binW*(float64(b.i)+frac)
			// Clamp into the observed range: both the estimate and the
			// true value live in bin ∩ [Min, Max], an interval no wider
			// than the bin.
			if v < m.Min {
				v = m.Min
			}
			if v > m.Max {
				v = m.Max
			}
			return v
		}
		cum += c
	}
	return m.Max
}

// Quantile estimates the p-th percentile with the same rank
// interpolation stats.Percentile uses, within one bin width of it.
func (m MetricSketch) Quantile(p float64) float64 {
	if m.Count == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return m.Min
	}
	if p >= 100 {
		return m.Max
	}
	rank := p / 100 * float64(m.Count-1)
	lo := int64(math.Floor(rank))
	hi := int64(math.Ceil(rank))
	vlo := m.orderStat(lo)
	if lo == hi {
		return vlo
	}
	frac := rank - float64(lo)
	return vlo*(1-frac) + m.orderStat(hi)*frac
}

// Summary renders the sketch as the fleet Quantiles set; Min, Max are
// exact, Mean fixed-point, percentiles within one bin width.
func (m MetricSketch) Summary() Quantiles {
	return Quantiles{
		P50:  m.Quantile(50),
		P95:  m.Quantile(95),
		P99:  m.Quantile(99),
		Mean: m.Mean(),
		Min:  minOrNaN(m),
		Max:  maxOrNaN(m),
	}
}

func minOrNaN(m MetricSketch) float64 {
	if m.Count == 0 {
		return math.NaN()
	}
	return m.Min
}

func maxOrNaN(m MetricSketch) float64 {
	if m.Count == 0 {
		return math.NaN()
	}
	return m.Max
}

// StreamState is the complete, serializable state of a streaming
// aggregation: bounded in size whatever the session count and exactly
// order-invariant. A streaming result carries it beside the aggregate
// it derives.
type StreamState struct {
	SchemaV       int          `json:"schema_v"`
	Sessions      int          `json:"sessions"`
	Frames        int64        `json:"frames"`
	Delivered     int64        `json:"delivered"`
	Glitches      int64        `json:"glitches"`
	TotalHandoffs int64        `json:"total_handoffs"`
	WorstOutageNS int64        `json:"worst_outage_ns"`
	DeliveredFrac MetricSketch `json:"delivered_frac"`
	GlitchFrac    MetricSketch `json:"glitch_frac"`
	OutageSeconds MetricSketch `json:"outage_seconds"`
	Handoffs      MetricSketch `json:"handoffs"`
}

func newStreamState(maxOutageSeconds float64) StreamState {
	if maxOutageSeconds <= 0 {
		maxOutageSeconds = 1
	}
	return StreamState{
		SchemaV:       streamSchemaV,
		DeliveredFrac: newMetricSketch(0, 1),
		GlitchFrac:    newMetricSketch(0, 1),
		OutageSeconds: newMetricSketch(0, maxOutageSeconds),
		// Width-1 bins: handoff counts below sketchBins land each in
		// their own bin, so percentile error is sub-bin interpolation
		// only (≤ 1 handoff).
		Handoffs: newMetricSketch(0, sketchBins),
	}
}

func (st *StreamState) add(o SessionOutcome) {
	st.Sessions++
	st.Frames += int64(o.Report.Frames)
	st.Delivered += int64(o.Report.Delivered)
	st.Glitches += int64(o.Report.Glitches)
	st.TotalHandoffs += int64(o.Handoffs)
	if ns := int64(o.Report.LongestOutage); ns > st.WorstOutageNS {
		st.WorstOutageNS = ns
	}
	st.DeliveredFrac.add(o.DeliveredFrac)
	st.GlitchFrac.add(o.Report.GlitchFrac)
	st.OutageSeconds.add(o.Report.TotalOutage.Seconds())
	st.Handoffs.add(float64(o.Handoffs))
}

// Aggregate derives the fleet Aggregate from the sketch state: totals
// and worst outage exact, quantiles within the documented bounds.
func (st StreamState) Aggregate() Aggregate {
	return Aggregate{
		Sessions:      st.Sessions,
		Frames:        int(st.Frames),
		Delivered:     int(st.Delivered),
		Glitches:      int(st.Glitches),
		DeliveredFrac: st.DeliveredFrac.Summary(),
		GlitchFrac:    st.GlitchFrac.Summary(),
		OutageSeconds: st.OutageSeconds.Summary(),
		WorstOutage:   time.Duration(st.WorstOutageNS),
		Handoffs:      st.Handoffs.Summary(),
		TotalHandoffs: int(st.TotalHandoffs),
	}
}

// StreamCollector folds outcomes into a StreamState as they complete:
// the constant-memory aggregation path. Safe for concurrent Add; the
// state is order-invariant, so worker scheduling cannot change the
// result.
type StreamCollector struct {
	mu sync.Mutex
	st StreamState
}

// NewStreamCollector builds a streaming collector whose outage sketch
// spans [0, maxOutageSeconds] — a session's total outage can never
// exceed its duration, so pass the longest session duration of the run.
func NewStreamCollector(maxOutageSeconds float64) *StreamCollector {
	return &StreamCollector{st: newStreamState(maxOutageSeconds)}
}

// StreamCollectorFor sizes the collector for a spec set: the outage
// range is the longest session duration.
func StreamCollectorFor(specs []Spec) *StreamCollector {
	maxOutage := 0.0
	for _, sp := range specs {
		if d := sp.Session.Duration.Seconds(); d > maxOutage {
			maxOutage = d
		}
	}
	return NewStreamCollector(maxOutage)
}

// Add folds outcome o into the running state. The spec index is unused:
// the state is order-invariant by construction.
func (c *StreamCollector) Add(_ int, o SessionOutcome) {
	c.mu.Lock()
	c.st.add(o)
	c.mu.Unlock()
}

// Result returns the streaming Result: aggregate plus sketch state, no
// per-session list. Call it after the last Add: the returned state
// shares its histogram bins with the collector.
func (c *StreamCollector) Result() Result {
	c.mu.Lock()
	st := c.st
	c.mu.Unlock()
	return Result{Agg: st.Aggregate(), Stream: &st}
}
