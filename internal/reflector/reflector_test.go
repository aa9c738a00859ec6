package reflector

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/units"
)

func dev() *Reflector { return Default(geom.V(2.5, 5), 270) } // north wall, facing south

// lowIso returns a device whose isolation band overlaps the amplifier's
// gain range, so instability is reachable in tests.
func lowIso() *Reflector {
	cfg := DefaultConfig(geom.V(2.5, 5), 270)
	cfg.BaseIsolationDB = 40
	cfg.MinLeakageDB = 25
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// minLeakageBeam scans TX beam angles and returns the angle with the
// lowest leakage for the device's current RX beam.
func minLeakageBeam(r *Reflector) (angle, leakage float64) {
	leakage = math.Inf(1)
	for rel := -60.0; rel <= 60; rel++ {
		r.SetTXBeam(270 + rel)
		if l := r.LeakageDB(); l < leakage {
			leakage, angle = l, 270+rel
		}
	}
	r.SetTXBeam(angle)
	return angle, leakage
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig(geom.V(0, 0), 0)
	cfg.RXArray.Elements = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad rx array should fail")
	}
	cfg = DefaultConfig(geom.V(0, 0), 0)
	cfg.Amp.StepDB = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad amp should fail")
	}
}

func TestGeometry(t *testing.T) {
	r := dev()
	if !r.Pos().AlmostEqual(geom.V(2.5, 5), 1e-12) {
		t.Error("Pos wrong")
	}
	if r.MountDeg() != 270 {
		t.Error("MountDeg wrong")
	}
}

func TestBeamControl(t *testing.T) {
	r := dev()
	applied := r.SetRXBeam(250)
	if math.Abs(units.AngleDiffDeg(applied, 250)) > 1e-9 {
		t.Errorf("rx beam = %v", applied)
	}
	r.SetTXBeam(300)
	if math.Abs(units.AngleDiffDeg(r.TXBeamDeg(), 300)) > 1e-9 {
		t.Errorf("tx beam = %v", r.TXBeamDeg())
	}
	if math.Abs(units.AngleDiffDeg(r.RXBeamDeg(), 250)) > 1e-9 {
		t.Errorf("rx beam changed to %v", r.RXBeamDeg())
	}
	// SetBothBeams aligns both.
	r.SetBothBeams(280)
	if r.RXBeamDeg() != r.TXBeamDeg() {
		t.Error("SetBothBeams did not align beams")
	}
}

func TestLeakageRangeMatchesFig7(t *testing.T) {
	// Fig 7 shows isolation roughly 50-80 dB with ≥15 dB variation as
	// the TX beam sweeps. Our device should land in that regime.
	r := dev()
	for _, rxRel := range []float64{-40, -25, 0, 25, 40} {
		r.SetRXBeam(270 + rxRel)
		lo, hi := math.Inf(1), math.Inf(-1)
		for txRel := -50.0; txRel <= 50; txRel++ {
			r.SetTXBeam(270 + txRel)
			l := r.LeakageDB()
			lo = math.Min(lo, l)
			hi = math.Max(hi, l)
		}
		if lo < 30 || hi > 130 {
			t.Errorf("rxRel=%v: leakage range [%v, %v] out of plausible band", rxRel, lo, hi)
		}
		if hi-lo < 12 {
			t.Errorf("rxRel=%v: leakage variation %v dB, want ≥12 (Fig 7 shows ~20)", rxRel, hi-lo)
		}
	}
}

func TestLeakageDependsOnBothAngles(t *testing.T) {
	r := dev()
	r.SetRXBeam(270 - 20)
	r.SetTXBeam(270 + 10)
	l1 := r.LeakageDB()
	r.SetRXBeam(270 + 30)
	l2 := r.LeakageDB()
	if math.Abs(l1-l2) < 0.5 {
		t.Errorf("leakage should move with RX angle: %v vs %v", l1, l2)
	}
}

func TestStability(t *testing.T) {
	r := dev()
	r.SetBothBeams(270)
	l := r.LeakageDB()
	// Gain below leakage: stable.
	r.Amp().SetGainDB(l - 10)
	if !r.Stable() {
		t.Error("should be stable with 10 dB margin")
	}
	if r.LoopGainDB() >= 0 {
		t.Error("loop gain should be negative")
	}
	// Gain above leakage: unstable (if reachable within amp range).
	if l+5 <= r.Amp().Config().MaxGainDB {
		r.Amp().SetGainDB(l + 5)
		if r.Stable() {
			t.Error("should be unstable with gain above leakage")
		}
	}
}

func TestFeedbackFixedPointStable(t *testing.T) {
	r := dev()
	r.SetBothBeams(270)
	l := r.LeakageDB()
	r.Amp().SetGainDB(math.Min(l-10, r.Amp().Config().MaxGainDB))
	ext := -45.0
	eff := r.EffectiveAmpInputDBm(ext)
	// Small-signal regenerative boost: eff = ext / (1 - g/l) in linear;
	// with 10 dB margin that is < 0.5 dB above ext.
	if eff < ext || eff > ext+1 {
		t.Errorf("effective input = %v for ext %v", eff, ext)
	}
	if r.SaturatedAt(ext) {
		t.Error("should not saturate with margin")
	}
	// Output ≈ input + gain.
	out := r.OutputPowerDBm(ext)
	if math.Abs(out-(ext+r.Amp().GainDB())) > 1.5 {
		t.Errorf("output = %v, want ≈ %v", out, ext+r.Amp().GainDB())
	}
}

func TestFeedbackDrivesSaturationWhenUnstable(t *testing.T) {
	r := lowIso()
	r.SetRXBeam(270)
	_, l := minLeakageBeam(r)
	if l+2 > r.Amp().Config().MaxGainDB {
		t.Fatalf("low-isolation device leakage %v still beyond amp range", l)
	}
	r.Amp().SetGainDB(l + 2)
	ext := -60.0 // tiny external signal; instability must still rail it
	if !r.SaturatedAt(ext) {
		t.Error("unstable loop should saturate the amplifier")
	}
	// The current sensor must show the spike.
	iUnstable := r.SupplyCurrentA(ext)
	r.Amp().SetGainDB(l - 6)
	iStable := r.SupplyCurrentA(ext)
	if iUnstable < iStable+0.3 {
		t.Errorf("saturation current %v not clearly above stable %v", iUnstable, iStable)
	}
}

func TestLeakageSteeringChangesStability(t *testing.T) {
	// The §4.2 motivation: a gain that is safe at one beam setting can
	// be unsafe at another. Find two TX angles with very different
	// leakage and show a gain between them flips stability.
	r := lowIso()
	r.SetRXBeam(270)
	lo, hi := math.Inf(1), math.Inf(-1)
	loAng, hiAng := 0.0, 0.0
	for rel := -50.0; rel <= 50; rel += 1 {
		r.SetTXBeam(270 + rel)
		l := r.LeakageDB()
		if l < lo {
			lo, loAng = l, 270+rel
		}
		if l > hi {
			hi, hiAng = l, 270+rel
		}
	}
	mid := (lo + hi) / 2
	if mid > r.Amp().Config().MaxGainDB {
		t.Fatalf("mid leakage %v beyond amp range on low-isolation device", mid)
	}
	r.Amp().SetGainDB(mid)
	r.SetTXBeam(loAng)
	if r.Stable() {
		t.Errorf("gain %v should be unstable at leakage %v", mid, lo)
	}
	r.SetTXBeam(hiAng)
	if !r.Stable() {
		t.Errorf("gain %v should be stable at leakage %v", mid, hi)
	}
}

func TestRippleDeterministicPerSeed(t *testing.T) {
	cfg1 := DefaultConfig(geom.V(0, 0), 0)
	cfg2 := DefaultConfig(geom.V(0, 0), 0)
	r1a, _ := New(cfg1)
	r1b, _ := New(cfg1)
	cfg2.Seed = 99
	r2, _ := New(cfg2)
	r1a.SetBothBeams(20)
	r1b.SetBothBeams(20)
	r2.SetBothBeams(20)
	if r1a.LeakageDB() != r1b.LeakageDB() {
		t.Error("same seed should give identical leakage")
	}
	if r1a.LeakageDB() == r2.LeakageDB() {
		t.Error("different seeds should differ")
	}
}

// Property: leakage respects the configured floor everywhere.
func TestQuickLeakageFloor(t *testing.T) {
	r := dev()
	f := func(a, b float64) bool {
		r.SetRXBeam(270 + math.Mod(a, 75))
		r.SetTXBeam(270 + math.Mod(b, 75))
		return r.LeakageDB() >= r.cfg.MinLeakageDB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: effective amplifier input never falls below the external
// input (feedback only adds energy) and stays finite.
func TestQuickEffectiveInputBounds(t *testing.T) {
	r := dev()
	f := func(a, g float64) bool {
		ext := math.Mod(a, 50) - 60 // -110..-10 dBm
		r.Amp().SetGainDB(math.Abs(math.Mod(g, 60)))
		if math.IsNaN(ext) {
			return true
		}
		eff := r.EffectiveAmpInputDBm(ext)
		return eff >= ext-1e-9 && !math.IsNaN(eff) && !math.IsInf(eff, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: supply current with an unstable loop is always at least the
// current with a comfortably stable loop (same external input).
func TestQuickUnstableCurrentDominates(t *testing.T) {
	r := dev()
	f := func(a float64) bool {
		r.SetBothBeams(270 + math.Mod(a, 50))
		l := r.LeakageDB()
		maxG := r.Amp().Config().MaxGainDB
		if l+1 > maxG || l-8 < 0 {
			return true // cannot realize both regimes at this angle
		}
		ext := -55.0
		r.Amp().SetGainDB(l + 1)
		iHot := r.SupplyCurrentA(ext)
		r.Amp().SetGainDB(l - 8)
		iCold := r.SupplyCurrentA(ext)
		return iHot >= iCold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
