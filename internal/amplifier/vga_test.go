package amplifier

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/movr-sim/movr/internal/units"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{MinGainDB: 10, MaxGainDB: 0, StepDB: 0.5, RappP: 2},
		{MinGainDB: 0, MaxGainDB: 60, StepDB: 0, RappP: 2},
		{MinGainDB: 0, MaxGainDB: 60, StepDB: 0.5, RappP: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestGainWords(t *testing.T) {
	v := Default()
	if v.Words() != 101 {
		t.Errorf("Words = %d, want 101 (0-50 dB in 0.5 steps)", v.Words())
	}
	if v.GainDB() != 0 {
		t.Errorf("initial gain = %v, want min", v.GainDB())
	}
	v.SetGainWord(20)
	if v.GainDB() != 10 {
		t.Errorf("gain at word 20 = %v, want 10", v.GainDB())
	}
	// Clamping.
	if got := v.SetGainWord(-5); got != 0 {
		t.Errorf("negative word clamped to %d", got)
	}
	if got := v.SetGainWord(1000); got != 100 {
		t.Errorf("oversized word clamped to %d", got)
	}
	// SetGainDB rounds to the nearest step.
	if got := v.SetGainDB(33.3); got != 33.5 {
		t.Errorf("SetGainDB(33.3) = %v, want 33.5", got)
	}
	if got := v.SetGainDB(200); got != 50 {
		t.Errorf("SetGainDB(200) = %v, want clamp to 50", got)
	}
}

func TestLinearRegionGain(t *testing.T) {
	v := Default()
	v.SetGainDB(30)
	// Small signal far below saturation: out = in + gain.
	out := v.OutputPowerDBm(-60)
	if math.Abs(out-(-30)) > 0.01 {
		t.Errorf("linear output = %v, want -30", out)
	}
	if v.Saturated(-60) {
		t.Error("should not be saturated at tiny input")
	}
	if c := v.CompressionDB(-60); c > 0.01 {
		t.Errorf("compression at tiny input = %v", c)
	}
}

func TestSaturation(t *testing.T) {
	v := Default()
	v.SetGainDB(50)
	// Ideal output would be +30 dBm, 10 dB above Psat: deeply compressed.
	out := v.OutputPowerDBm(-20)
	if out > v.Config().PsatDBm+0.1 {
		t.Errorf("output %v exceeds Psat %v", out, v.Config().PsatDBm)
	}
	if !v.Saturated(-20) {
		t.Error("should be saturated")
	}
	// Output monotone in input even while compressed.
	if v.OutputPowerDBm(-15) < out {
		t.Error("output should not decrease with more input")
	}
}

func TestCurrentSpikeAtCompression(t *testing.T) {
	// Walk the gain up in steps at fixed input; the per-step current
	// delta must jump sharply when compression sets in — this is the
	// knee the §4.2 algorithm detects.
	v := Default()
	in := -25.0
	prev := math.NaN()
	kneeWord := -1
	for w := 0; w < v.Words(); w++ {
		v.SetGainWord(w)
		i := v.SupplyCurrentA(in)
		if !math.IsNaN(prev) {
			if d := i - prev; kneeWord < 0 && d > 0.05 {
				kneeWord = w
			}
		}
		prev = i
	}
	if kneeWord < 0 {
		t.Fatal("no current knee found")
	}
	kneeGain := v.Config().MinGainDB + float64(kneeWord)*v.Config().StepDB
	// The knee should sit within a few dB of the gain at which the
	// ideal output crosses Psat: gain = Psat − in = 45.
	if math.Abs(kneeGain-45) > 5 {
		t.Errorf("current knee at gain %v dB, want ~45", kneeGain)
	}
}

func TestCurrentMonotoneInGain(t *testing.T) {
	v := Default()
	prev := -1.0
	for w := 0; w < v.Words(); w++ {
		v.SetGainWord(w)
		i := v.SupplyCurrentA(-40)
		if i < prev-1e-12 {
			t.Fatalf("current decreased at word %d", w)
		}
		prev = i
	}
}

func TestOOKModulationContrast(t *testing.T) {
	// The backscatter protocol needs a large on/off contrast. The
	// alignment sweep's square wave silences the reflected tone in its
	// off half, so the contrast is the on-state output itself.
	v := Default()
	v.SetGainDB(40)
	if on := v.OutputPowerDBm(-40); on < -10 {
		t.Errorf("OOK contrast insufficient: on=%v", on)
	}
}

// Property: output power never exceeds Psat + epsilon, and never exceeds
// the ideal linear output.
func TestQuickOutputBounds(t *testing.T) {
	v := Default()
	f := func(in, g float64) bool {
		in = math.Mod(in, 80) - 60 // -140..20 dBm
		g = math.Abs(math.Mod(g, 60))
		if math.IsNaN(in) || math.IsNaN(g) {
			return true
		}
		v.SetGainDB(g)
		out := v.OutputPowerDBm(in)
		return out <= v.Config().PsatDBm+1e-9 && out <= in+v.GainDB()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: supply current is bounded by quiescent + slope + spike.
func TestQuickCurrentBounds(t *testing.T) {
	v := Default()
	cfg := v.Config()
	maxI := cfg.QuiescentA + cfg.SlopeA + cfg.SpikeA
	f := func(in, g float64) bool {
		in = math.Mod(in, 100) - 50
		g = math.Abs(math.Mod(g, 60))
		if math.IsNaN(in) || math.IsNaN(g) {
			return true
		}
		v.SetGainDB(g)
		i := v.SupplyCurrentA(in)
		return i >= cfg.QuiescentA-1e-12 && i <= maxI+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: compression is monotone nondecreasing in input power.
func TestQuickCompressionMonotone(t *testing.T) {
	v := Default()
	v.SetGainDB(50)
	f := func(a, b float64) bool {
		p1 := math.Mod(a, 60) - 50
		p2 := math.Mod(b, 60) - 50
		if math.IsNaN(p1) || math.IsNaN(p2) {
			return true
		}
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return v.CompressionDB(p1) <= v.CompressionDB(p2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// rappPowReference is a frozen copy of the general Rapp transfer, the
// formula OutputMw evaluates for every p other than 2.
func rappPowReference(t Transfer, inMw float64) float64 {
	gp := t.gainLin * inMw
	return gp / math.Pow(1+math.Pow(gp/t.satMw, t.p), 1/t.p)
}

// TestTransferP2MatchesPow pins the p = 2 fast path of OutputMw to the
// general math.Pow formula bit for bit: a seeded sweep of inputs and
// gains across the whole float64 exponent range, the stock gain words,
// and the edge cases — zero, a subnormal u², squares that overflow,
// MaxFloat64, +Inf and NaN.
func TestTransferP2MatchesPow(t *testing.T) {
	v := Default()
	if v.Config().RappP != 2 {
		t.Fatalf("stock RappP = %v; the fast path no longer covers the default", v.Config().RappP)
	}
	check := func(tr Transfer, in float64) {
		t.Helper()
		got, want := tr.OutputMw(in), rappPowReference(tr, in)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("OutputMw(%v) at gain %v sat %v = %v (bits %x), Pow formula %v (bits %x)",
				in, tr.gainLin, tr.satMw, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}

	edges := []float64{0, math.Copysign(0, -1), 1e-160, 1e-155, 1e154, 1.3e154, 1.35e154, 1e155, 1e200,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()}
	sats := []float64{1, v.satMw, 1e-3, 1e3}
	for _, sat := range sats {
		for _, g := range []float64{1, 0.5, 2, 1e6} {
			tr := Transfer{gainLin: g, satMw: sat, p: 2}
			for _, in := range edges {
				check(tr, in)
			}
		}
	}

	// Every stock gain word over a dense sweep of drive levels.
	for w := 0; w < v.Words(); w++ {
		v.SetGainWord(w)
		tr := v.Transfer()
		for dBm := -120.0; dBm <= 40; dBm += 0.25 {
			check(tr, units.DBmToMilliwatts(dBm))
		}
	}

	// Seeded log-uniform sweep over the float64 exponent range.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		in := math.Ldexp(1+rng.Float64(), rng.Intn(2000)-1000)
		tr := Transfer{
			gainLin: math.Ldexp(1+rng.Float64(), rng.Intn(200)-100),
			satMw:   math.Ldexp(1+rng.Float64(), rng.Intn(200)-100),
			p:       2,
		}
		check(tr, in)
	}
}
