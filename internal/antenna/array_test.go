package antenna

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/movr-sim/movr/internal/units"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Elements: 0, SpacingWavelengths: 0.5, PhaseShifterBits: 8},
		{Elements: 8, SpacingWavelengths: 0, PhaseShifterBits: 8},
		{Elements: 8, SpacingWavelengths: 0.5, PhaseShifterBits: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Non-finite floats, each of which would make GainDBi NaN or ±Inf,
	// are rejected with a NonFiniteError naming the field.
	nonFinite := []struct {
		field string
		cfg   Config
	}{
		{"SpacingWavelengths", Config{Elements: 8, SpacingWavelengths: math.NaN(), PhaseShifterBits: 8}},
		{"SpacingWavelengths", Config{Elements: 8, SpacingWavelengths: math.Inf(1), PhaseShifterBits: 8}},
		{"SpacingWavelengths", Config{Elements: 8, SpacingWavelengths: math.Inf(-1), PhaseShifterBits: 8}},
		{"ElementGainDBi", Config{Elements: 8, SpacingWavelengths: 0.5, PhaseShifterBits: 8, ElementGainDBi: math.Inf(1)}},
		{"ElementGainDBi", Config{Elements: 8, SpacingWavelengths: 0.5, PhaseShifterBits: 8, ElementGainDBi: math.NaN()}},
		{"BacklobeDB", Config{Elements: 8, SpacingWavelengths: 0.5, PhaseShifterBits: 8, BacklobeDB: math.NaN()}},
		{"BacklobeDB", Config{Elements: 8, SpacingWavelengths: 0.5, PhaseShifterBits: 8, BacklobeDB: math.Inf(1)}},
		{"OrientationDeg", Config{Elements: 8, SpacingWavelengths: 0.5, PhaseShifterBits: 8, OrientationDeg: math.NaN()}},
		{"OrientationDeg", Config{Elements: 8, SpacingWavelengths: 0.5, PhaseShifterBits: 8, OrientationDeg: math.Inf(-1)}},
	}
	for i, c := range nonFinite {
		_, err := New(c.cfg)
		var nf *NonFiniteError
		if !errors.As(err, &nf) || nf.Field != c.field {
			t.Errorf("non-finite case %d: err %v, want a NonFiniteError on %s", i, err, c.field)
		}
	}
	if _, err := New(DefaultConfig(0)); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestPeakGain(t *testing.T) {
	a := Default(0)
	// 5 dBi element + 10 log10(10) = 15 dBi.
	if got := a.PeakGainDBi(); math.Abs(got-15) > 1e-9 {
		t.Errorf("PeakGainDBi = %v, want 15", got)
	}
	// Boresight gain equals peak (no scan loss, no quantization loss at 0).
	if got := a.GainDBi(0); math.Abs(got-15) > 0.1 {
		t.Errorf("boresight gain = %v, want ~15", got)
	}
}

func TestBeamwidthMatchesPaper(t *testing.T) {
	// Paper §5.1: beamwidth ~10 degrees.
	a := Default(0)
	bw := a.BeamwidthDeg()
	if bw < 8 || bw > 12 {
		t.Errorf("beamwidth = %v°, want ~10°", bw)
	}
}

func TestSteeringMovesPeak(t *testing.T) {
	a := Default(0)
	applied := a.SteerTo(30)
	if math.Abs(units.AngleDiffDeg(applied, 30)) > 1e-9 {
		t.Fatalf("applied steering = %v", applied)
	}
	// Gain at 30° must now be near peak; gain at 0° must be well down.
	g30, g0 := a.GainDBi(30), a.GainDBi(0)
	if g30 < 13 {
		t.Errorf("gain at steering = %v", g30)
	}
	if g0 > g30-8 {
		t.Errorf("gain off-beam = %v vs %v: beam did not move", g0, g30)
	}
}

func TestSteeringClamp(t *testing.T) {
	a := Default(90)
	applied := a.SteerTo(90 + 120) // request beyond scan range
	rel := units.AngleDiffDeg(applied, 90)
	if math.Abs(rel-MaxScanDeg) > 1e-9 {
		t.Errorf("steering clamped to %v, want %v", rel, MaxScanDeg)
	}
}

func TestBacklobe(t *testing.T) {
	a := Default(0)
	// Directly behind the array.
	got := a.GainDBi(180)
	want := a.PeakGainDBi() - DefaultBacklobeDB
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("backlobe gain = %v, want %v", got, want)
	}
}

func TestPatternSymmetryAtBoresight(t *testing.T) {
	a := Default(0)
	for _, off := range []float64{5, 10, 20, 40, 70} {
		gp, gm := a.GainDBi(off), a.GainDBi(-off)
		if math.Abs(gp-gm) > 0.2 {
			t.Errorf("asymmetry at ±%v°: %v vs %v", off, gp, gm)
		}
	}
}

func TestScanLoss(t *testing.T) {
	// Steering far off boresight must cost gain (element pattern).
	a := Default(0)
	a.SteerTo(0)
	g0 := a.GainDBi(0)
	a.SteerTo(60)
	g60 := a.GainDBi(60)
	if g60 >= g0-2 {
		t.Errorf("no scan loss: %v at 0° vs %v at 60°", g0, g60)
	}
}

func TestCoarsePhaseShifterDegradesPattern(t *testing.T) {
	// Ablation hook: with 2-bit phase shifters, steering error and
	// sidelobe level should be visibly worse than with 8-bit.
	fine := Default(0)
	cfg := DefaultConfig(0)
	cfg.PhaseShifterBits = 2
	coarse, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fine.SteerTo(37)
	coarse.SteerTo(37)
	if coarse.GainDBi(37) > fine.GainDBi(37)+1e-9 {
		t.Errorf("coarse quantization should not beat fine: %v vs %v",
			coarse.GainDBi(37), fine.GainDBi(37))
	}
}

func TestSingleElementIsWide(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.Elements = 1
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One element: array factor is 1 everywhere in front.
	if got := a.GainDBi(0); math.Abs(got-cfg.ElementGainDBi) > 1e-9 {
		t.Errorf("single-element boresight gain = %v", got)
	}
	if bw := a.BeamwidthDeg(); bw < 60 {
		t.Errorf("single-element beamwidth = %v, want wide", bw)
	}
}

func TestCodebook(t *testing.T) {
	a := Default(90)
	cb := a.Codebook(5)
	wantLen := int(2*MaxScanDeg/5) + 1
	if len(cb) != wantLen {
		t.Errorf("codebook size = %d, want %d", len(cb), wantLen)
	}
	// First entry is boresight − MaxScanDeg.
	if math.Abs(units.AngleDiffDeg(cb[0], 90-MaxScanDeg)) > 1e-9 {
		t.Errorf("codebook[0] = %v", cb[0])
	}
	// Non-positive step degenerates to boresight.
	if cb := a.Codebook(0); len(cb) != 1 || math.Abs(units.AngleDiffDeg(cb[0], 90)) > 1e-9 {
		t.Errorf("degenerate codebook = %v", cb)
	}
}

func TestSetOrientation(t *testing.T) {
	a := Default(0)
	a.SteerTo(10)
	a.SetOrientation(90)
	// Relative steering preserved: world beam now at 100.
	if got := a.SteeringDeg(); math.Abs(units.AngleDiffDeg(got, 100)) > 1e-9 {
		t.Errorf("SteeringDeg after re-orient = %v", got)
	}
}

// Property: gain never exceeds peak gain (plus numeric slack).
func TestQuickGainBounded(t *testing.T) {
	a := Default(45)
	f := func(steer, probe float64) bool {
		steer = math.Mod(steer, 360)
		probe = math.Mod(probe, 360)
		if math.IsNaN(steer) || math.IsNaN(probe) {
			return true
		}
		a.SteerTo(steer)
		g := a.GainDBi(probe)
		return g <= a.PeakGainDBi()+1e-6 && g >= a.PeakGainDBi()-patternFloorDB-1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the gain at the steered direction tracks peak gain minus the
// element-pattern scan loss (cos²), within a small quantization margin.
func TestQuickSteeredGainHigh(t *testing.T) {
	a := Default(0)
	f := func(steer float64) bool {
		rel := math.Mod(steer, 60) // stay well inside scan range
		if math.IsNaN(rel) {
			return true
		}
		applied := a.SteerTo(rel)
		scanLoss := -20 * math.Log10(math.Cos(units.DegToRad(rel)))
		return a.GainDBi(applied) > a.PeakGainDBi()-scanLoss-1.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
