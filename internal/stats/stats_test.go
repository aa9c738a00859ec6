package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	// Sample std dev of the classic data set is ~2.138.
	if s := StdDev(xs); math.Abs(s-2.13809) > 1e-4 {
		t.Errorf("StdDev = %v", s)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("StdDev of single sample should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty Min/Max should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	// Input must not be mutated.
	unsorted := []float64{3, 1, 2}
	Percentile(unsorted, 50)
	if unsorted[0] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileSortedMatchesPercentile(t *testing.T) {
	// Percentile is a copy and a sort in front of PercentileSorted, so
	// the two must agree bit for bit on every size and rank; the input
	// holds repeats so ties are covered too.
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 1000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(rng.Float64()*1e4) * 1e3
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range []float64{0, 1, 25, 50, 99, 99.9, 100} {
			if got, want := PercentileSorted(sorted, p), Percentile(xs, p); got != want {
				t.Fatalf("n=%d p=%v: PercentileSorted %v, Percentile %v", n, p, got, want)
			}
		}
	}
	if !math.IsNaN(PercentileSorted(nil, 50)) {
		t.Error("PercentileSorted of an empty slice should be NaN")
	}
}

func TestSummary(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Mean != 5.5 || s.Min != 1 || s.Max != 10 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	slope, intercept := LinearFit(xs, ys)
	if math.Abs(slope-2) > 1e-9 || math.Abs(intercept-1) > 1e-9 {
		t.Errorf("fit = %v, %v", slope, intercept)
	}
	if s, _ := LinearFit([]float64{1}, []float64{2}); !math.IsNaN(s) {
		t.Error("underdetermined fit should be NaN")
	}
	if s, _ := LinearFit([]float64{2, 2}, []float64{1, 5}); !math.IsNaN(s) {
		t.Error("zero-variance fit should be NaN")
	}
}

func TestErrors(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 2, 5}
	if got := MeanAbsError(a, b); math.Abs(got-1) > 1e-9 {
		t.Errorf("MAE = %v", got)
	}
	if !math.IsNaN(MeanAbsError(a, b[:2])) {
		t.Error("length mismatch should be NaN")
	}
}

// Property: CDF is monotonically nondecreasing.
func TestQuickCDFMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	c := NewCDF(xs)
	f := func(a, b float64) bool {
		a, b = math.Mod(a, 100), math.Mod(b, 100)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is bounded by min and max and monotone in p.
func TestQuickPercentileBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 57)
	for i := range xs {
		xs[i] = rng.Float64()*200 - 100
	}
	f := func(p1, p2 float64) bool {
		p1 = math.Abs(math.Mod(p1, 100))
		p2 = math.Abs(math.Mod(p2, 100))
		if math.IsNaN(p1) || math.IsNaN(p2) {
			return true
		}
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		return v1 <= v2+1e-12 && v1 >= Min(xs)-1e-12 && v2 <= Max(xs)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: At inverts the sorted sample, stepping by 1/n at each point.
func TestQuickQuantileInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	sort.Float64s(xs)
	c := NewCDF(xs)
	for i, x := range xs {
		q := float64(i+1) / float64(len(xs))
		if got := c.At(x); math.Abs(got-q) > 1e-12 {
			t.Fatalf("At(%v) = %v, want %v", x, got, q)
		}
	}
}
