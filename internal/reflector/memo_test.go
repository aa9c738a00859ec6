package reflector

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/movr-sim/movr/internal/geom"
)

// The leakage and feedback fixed-point memos must be invisible: a device
// whose beams and gain words are driven through an arbitrary sequence of
// (steer, program, evaluate) operations must report bit-identical
// leakage, effective input, output power, and supply current to a fresh
// device evaluated cold at every step. This pins the memo keys — beam
// angles for the leakage cache, (external input, leakage, gain word) for
// the fixed-point cache — as exactly the inputs the underlying pure
// functions depend on.
func TestMemoizedEvaluationsBitIdentical(t *testing.T) {
	dev := Default(geom.V(4.6, 4.6), 225)
	rng := rand.New(rand.NewSource(42))

	for step := 0; step < 500; step++ {
		switch rng.Intn(4) {
		case 0:
			dev.SetTXBeam(rng.Float64() * 360)
		case 1:
			dev.SetRXBeam(rng.Float64() * 360)
		case 2:
			dev.Amp().SetGainWord(rng.Intn(dev.Amp().Words()))
		case 3:
			// Repeat evaluation at unchanged state: the memo-hit path.
		}
		ext := -60 + rng.Float64()*40

		// A cold reference device in the identical state, with no memo
		// history at all.
		ref := Default(geom.V(4.6, 4.6), 225)
		ref.SetTXBeam(dev.TXBeamDeg())
		ref.SetRXBeam(dev.RXBeamDeg())
		ref.Amp().SetGainWord(dev.Amp().GainWord())

		if got, want := dev.LeakageDB(), ref.LeakageDB(); got != want {
			t.Fatalf("step %d: LeakageDB memo %v != cold %v", step, got, want)
		}
		if got, want := dev.EffectiveAmpInputDBm(ext), ref.EffectiveAmpInputDBm(ext); got != want {
			t.Fatalf("step %d: EffectiveAmpInputDBm memo %v != cold %v", step, got, want)
		}
		if got, want := dev.SupplyCurrentA(ext), ref.SupplyCurrentA(ext); got != want {
			t.Fatalf("step %d: SupplyCurrentA memo %v != cold %v", step, got, want)
		}
		if got, want := dev.OutputPowerDBm(ext), ref.OutputPowerDBm(ext); got != want {
			t.Fatalf("step %d: OutputPowerDBm memo %v != cold %v", step, got, want)
		}
	}
}

// TestLeakagePatternMemo: a memoized pattern is the one its key builds,
// for a repeated key, keys past the memo's bound, and swings that
// compare unequal to themselves or equal to their opposite sign.
func TestLeakagePatternMemo(t *testing.T) {
	swings := [][2]float64{{8, 6}, {0, 0}, {math.Copysign(0, -1), 6}, {math.NaN(), 6}}
	for seed := int64(0); seed < maxMemoPatterns+8; seed++ {
		for _, sw := range swings {
			for rep := 0; rep < 2; rep++ {
				got, want := newLeakagePattern(seed, sw[0], sw[1]), buildLeakagePattern(seed, sw[0], sw[1])
				if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
					t.Fatalf("seed %d swings %v: memo gives %#v, a fresh build %#v", seed, sw, got, want)
				}
			}
		}
	}
	if n := len(patterns.m); n > maxMemoPatterns {
		t.Fatalf("memo holds %d patterns, bound %d", n, maxMemoPatterns)
	}
}
