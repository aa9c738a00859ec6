package gainctl

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/reflector"
)

// lowIso builds a reflector whose leakage band overlaps the amplifier
// gain range, so the knee is reachable.
func lowIso(seed int64) *reflector.Reflector {
	cfg := reflector.DefaultConfig(geom.V(2.5, 5), 270)
	cfg.BaseIsolationDB = 40
	cfg.MinLeakageDB = 25
	cfg.Seed = seed
	r, err := reflector.New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

func TestOptimizeStaysStable(t *testing.T) {
	dev := lowIso(1)
	dev.SetBothBeams(270)
	res := Optimize(dev, -60, DefaultConfig())
	if !res.KneeDetected {
		t.Fatalf("expected a knee within amp range (leakage %v)", dev.LeakageDB())
	}
	if !dev.Stable() {
		t.Errorf("final gain %v leaves loop unstable (leakage %v)", res.GainDB, dev.LeakageDB())
	}
	if dev.SaturatedAt(-60) {
		t.Error("final gain leaves amplifier saturated")
	}
	if res.MarginDB <= 0 {
		t.Errorf("margin = %v, want positive", res.MarginDB)
	}
	// "Just below": margin should be small, not tens of dB.
	if res.MarginDB > 8 {
		t.Errorf("margin = %v dB, algorithm is too conservative", res.MarginDB)
	}
}

func TestOptimizeHitsMaxWhenSafe(t *testing.T) {
	// Default (high-isolation) device: leakage ~60 dB, amp max 50:
	// no knee from feedback at weak input; algorithm should ride to max
	// gain.
	dev := reflector.Default(geom.V(2.5, 5), 270)
	dev.SetBothBeams(270)
	res := Optimize(dev, -70, DefaultConfig())
	if res.KneeDetected && res.GainDB < 45 {
		t.Errorf("unexpected early knee at %v dB (leakage %v)", res.GainDB, dev.LeakageDB())
	}
	if res.GainDB < 45 {
		t.Errorf("final gain = %v, want near max", res.GainDB)
	}
	if !dev.Stable() {
		t.Error("device should be stable at max gain with high isolation")
	}
}

func TestOptimizeAdaptsToBeamChange(t *testing.T) {
	// §4.2's point: when beams move, leakage moves, and the achievable
	// gain must follow. Find two beam settings with well-separated
	// leakage and check the algorithm lands accordingly.
	dev := lowIso(3)
	dev.SetRXBeam(270)
	loAng, hiAng := 0.0, 0.0
	lo, hi := math.Inf(1), math.Inf(-1)
	for rel := -50.0; rel <= 50; rel++ {
		dev.SetTXBeam(270 + rel)
		l := dev.LeakageDB()
		if l < lo {
			lo, loAng = l, 270+rel
		}
		if l > hi {
			hi, hiAng = l, 270+rel
		}
	}
	if hi-lo < 8 {
		t.Skipf("leakage swing only %v dB at this seed", hi-lo)
	}
	dev.SetTXBeam(loAng)
	resLo := Optimize(dev, -60, DefaultConfig())
	dev.SetTXBeam(hiAng)
	resHi := Optimize(dev, -60, DefaultConfig())
	if resHi.GainDB <= resLo.GainDB {
		t.Errorf("gain at high leakage (%v) should exceed gain at low leakage (%v)",
			resHi.GainDB, resLo.GainDB)
	}
}

func TestOptimizeWithStrongInput(t *testing.T) {
	// With a strong off-air input the amplifier overdrives before the
	// feedback loop does; the algorithm must still back off to an
	// unsaturated point.
	dev := reflector.Default(geom.V(2.5, 5), 270)
	dev.SetBothBeams(270)
	res := Optimize(dev, -28, DefaultConfig())
	if !res.KneeDetected {
		t.Fatal("expected overdrive knee")
	}
	if dev.SaturatedAt(-28) {
		t.Error("final point should be unsaturated")
	}
	// Knee from overdrive: gain ≈ Psat − input ≈ 48 minus backoff.
	if res.GainDB < 40 || res.GainDB > 48 {
		t.Errorf("gain = %v, want ~44-47", res.GainDB)
	}
}

func TestBackoffClamped(t *testing.T) {
	dev := lowIso(5)
	dev.SetBothBeams(270)
	cfg := DefaultConfig()
	cfg.BackoffSteps = 0 // invalid; clamps to 1
	res := Optimize(dev, -60, cfg)
	if res.Steps == 0 {
		t.Error("no steps taken")
	}
	if res.Word < 0 {
		t.Error("negative word")
	}
}

// Property: across seeds and beam angles, the algorithm never leaves the
// device unstable or saturated at the probe input.
func TestQuickNeverSaturated(t *testing.T) {
	f := func(seed int64, beamOff float64) bool {
		dev := lowIso(seed%100 + 1)
		dev.SetBothBeams(270 + math.Mod(beamOff, 50))
		res := Optimize(dev, -60, DefaultConfig())
		if res.KneeDetected && !dev.Stable() {
			// Knee detected must imply a stable final point.
			return false
		}
		return !dev.SaturatedAt(-60)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the achieved gain is monotone (within a step) in base
// isolation — more isolation, more gain.
func TestQuickGainTracksIsolation(t *testing.T) {
	mk := func(iso float64) *reflector.Reflector {
		cfg := reflector.DefaultConfig(geom.V(2.5, 5), 270)
		cfg.BaseIsolationDB = iso
		cfg.MinLeakageDB = 20
		r, err := reflector.New(cfg)
		if err != nil {
			panic(err)
		}
		r.SetBothBeams(270)
		return r
	}
	prev := -1.0
	for iso := 30.0; iso <= 55; iso += 5 {
		res := Optimize(mk(iso), -60, DefaultConfig())
		if res.GainDB < prev-0.5 {
			t.Fatalf("gain %v at isolation %v below previous %v", res.GainDB, iso, prev)
		}
		prev = res.GainDB
	}
}

// TestOptimizeZeroAllocs guards a steady-state gain-control run: once the
// Optimizer's probe scratch and the device's fixed-point memo exist, a
// run at a fresh drive level allocates nothing.
func TestOptimizeZeroAllocs(t *testing.T) {
	dev := lowIso(1)
	dev.SetBothBeams(270)
	var opt Optimizer
	cfg := DefaultConfig()
	opt.Optimize(dev, -60, cfg)
	ext := -60.0
	allocs := testing.AllocsPerRun(100, func() {
		ext += 0.1
		opt.Optimize(dev, ext, cfg)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Optimize allocates %.1f objects/op, want 0", allocs)
	}
}
