package antenna

import (
	"math"
	"math/rand"
	"testing"

	"github.com/movr-sim/movr/internal/units"
)

// gainReference is GainDBi as it was computed before the array factor
// moved to one Sincos per element and the peak gain was cached at New:
// a Cos and a Sin per element, and PeakGainDBi's Log10 on every call.
// Frozen here as the bit-level reference for the cheaper path.
func gainReference(a *Array, worldDeg float64) float64 {
	cfg := a.cfg
	rel := units.AngleDiffDeg(worldDeg, cfg.OrientationDeg)
	peak := cfg.ElementGainDBi + 10*math.Log10(float64(cfg.Elements))
	if math.Abs(rel) > 90 {
		return peak - cfg.BacklobeDB
	}
	af := 1.0
	if n := cfg.Elements; n > 1 {
		d := cfg.SpacingWavelengths
		u := math.Sin(units.DegToRad(rel))
		us := math.Sin(units.DegToRad(a.steeringRel))
		quant := 2 * math.Pi / float64(int(1)<<cfg.PhaseShifterBits)
		var re, im float64
		for i := 0; i < n; i++ {
			phi := -2 * math.Pi * d * float64(i) * us
			phi = math.Round(phi/quant) * quant
			ph := 2*math.Pi*d*float64(i)*u + phi
			re += math.Cos(ph)
			im += math.Sin(ph)
		}
		af = math.Hypot(re, im) / float64(n)
	}
	cosT := math.Cos(units.DegToRad(rel))
	elemDB := 20 * math.Log10(math.Max(cosT, 1e-6))
	elemDB = math.Max(elemDB, -cfg.BacklobeDB)
	afDB := 20 * math.Log10(math.Max(af, 1e-9))
	g := peak + afDB + elemDB
	if g < peak-patternFloorDB {
		g = peak - patternFloorDB
	}
	return g
}

// checkGainMatchesReference fails t unless GainDBi toward probe equals
// gainReference bit for bit and is finite.
func checkGainMatchesReference(t *testing.T, a *Array, probe float64) {
	t.Helper()
	got, want := a.GainDBi(probe), gainReference(a, probe)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("cfg %+v steer %v probe %v: GainDBi %v (%#x), reference %v (%#x)",
			a.cfg, a.steeringRel, probe, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("cfg %+v steer %v probe %v: GainDBi %v is not finite", a.cfg, a.steeringRel, probe, got)
	}
}

// TestGainMatchesReference holds GainDBi to the frozen Cos/Sin
// reference over a seeded grid: 1–64 elements, 1–12 phase-shifter bits,
// 0.25–1 λ spacing, steering requests inside and beyond ±MaxScanDeg (so
// the clamp engages), and probes on both sides of the ±90° backlobe
// edge as well as exactly on it.
func TestGainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []float64{-90, 90, -90.000001, 90.000001, -89.999999, 89.999999, 0}
	for c := 0; c < 400; c++ {
		cfg := Config{
			Elements:           1 + rng.Intn(64),
			SpacingWavelengths: 0.25 + 0.75*rng.Float64(),
			PhaseShifterBits:   1 + rng.Intn(12),
			ElementGainDBi:     10 * rng.Float64(),
			BacklobeDB:         10 + 30*rng.Float64(),
			OrientationDeg:     360 * rng.Float64(),
		}
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.SteerTo(cfg.OrientationDeg + (rng.Float64()*2-1)*(MaxScanDeg+30))
		for _, rel := range edges {
			checkGainMatchesReference(t, a, cfg.OrientationDeg+rel)
		}
		for k := 0; k < 40; k++ {
			checkGainMatchesReference(t, a, cfg.OrientationDeg+(rng.Float64()*2-1)*180)
		}
	}
}

// FuzzArrayGain checks GainDBi against the frozen reference over
// arbitrary array shapes, steering and probe angles: the two agree bit
// for bit, and the gain is finite and within [peak − patternFloorDB,
// peak]. Non-finite angles and spacings outside (0, 16] λ are skipped.
// The seed corpus under testdata/fuzz/FuzzArrayGain covers one element,
// 32 elements, a 1-bit phase shifter, probes at exactly ±90° from
// boresight, and a huge angle.
func FuzzArrayGain(f *testing.F) {
	f.Fuzz(func(t *testing.T, elements, bits uint8, spacing, orient, steer, probe float64) {
		if !(spacing > 0 && spacing <= 16) {
			t.Skip()
		}
		for _, v := range []float64{orient, steer, probe} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		a, err := New(Config{
			Elements:           1 + int(elements)%64,
			SpacingWavelengths: spacing,
			PhaseShifterBits:   1 + int(bits)%12,
			ElementGainDBi:     DefaultElementGainDBi,
			BacklobeDB:         DefaultBacklobeDB,
			OrientationDeg:     orient,
		})
		if err != nil {
			t.Fatal(err)
		}
		a.SteerTo(steer)
		checkGainMatchesReference(t, a, probe)
		g, peak := a.GainDBi(probe), a.PeakGainDBi()
		if g > peak+1e-9 || g < peak-patternFloorDB-1e-9 {
			t.Fatalf("gain %v outside [%v, %v]", g, peak-patternFloorDB, peak)
		}
	})
}
