package reflector

import (
	"math"
	"math/rand"
	"testing"

	"github.com/movr-sim/movr/internal/amplifier"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/units"
)

// The functions below freeze the dB-domain arithmetic the feedback solve
// used before it moved to linear power: the Rapp model in normalized
// voltage, and a fixed-point iteration that converts dBm→mW→dBm around
// it on every step. They are the behavioral reference the linear-power
// solve must keep matching.

// refOutputDBm is the frozen dB-domain Rapp model.
func refOutputDBm(cfg amplifier.Config, gainDB, inDBm float64) float64 {
	ideal := inDBm + gainDB
	x := math.Pow(10, (ideal-cfg.PsatDBm)/20)
	p2 := 2 * cfg.RappP
	out := x / math.Pow(1+math.Pow(x, p2), 1/p2)
	return cfg.PsatDBm + 20*math.Log10(out)
}

// refSolveDBm is the frozen dB-domain feedback iteration.
func refSolveDBm(cfg amplifier.Config, gainDB, extDBm, leakDB float64) float64 {
	extMw := units.DBmToMilliwatts(extDBm)
	x := extMw
	for i := 0; i < feedbackIterations; i++ {
		out := refOutputDBm(cfg, gainDB, units.MilliwattsToDBm(x))
		next := extMw + units.DBmToMilliwatts(out-leakDB)
		if math.Abs(next-x) <= 1e-12*math.Max(x, 1e-30) {
			x = next
			break
		}
		x = next
	}
	return units.MilliwattsToDBm(x)
}

// refSaturated is the frozen ≥ 1 dB compression test.
func refSaturated(cfg amplifier.Config, gainDB, inDBm float64) bool {
	return inDBm+gainDB-refOutputDBm(cfg, gainDB, inDBm) >= 1
}

// refCurrentA is the frozen supply-current model.
func refCurrentA(cfg amplifier.Config, gainDB, inDBm float64) float64 {
	out := refOutputDBm(cfg, gainDB, inDBm)
	frac := math.Min(units.DBmToMilliwatts(out)/units.DBmToMilliwatts(cfg.PsatDBm), 1)
	c := inDBm + gainDB - out
	return cfg.QuiescentA + cfg.SlopeA*math.Sqrt(frac) + cfg.SpikeA/(1+math.Exp(-(c-1)/0.15))
}

// feedbackTolDB bounds how far the linear-power fixed point may sit from
// the frozen dB-domain one.
const feedbackTolDB = 1e-9

// TestFeedbackSolverMatchesDBReference runs the linear-power solve and
// the frozen dB-domain reference over a jittered grid of external drive
// (−90..−20 dBm), leakage (35..80 dB) and every gain word. The fixed
// points must agree to within feedbackTolDB, and every decision gain
// control reads from them — saturation, and the one-step current jump
// past the default 50 mA threshold — must come out the same.
func TestFeedbackSolverMatchesDBReference(t *testing.T) {
	r := Default(geom.V(2.5, 5), 270)
	amp := r.Amp()
	cfg := amp.Config()
	rng := rand.New(rand.NewSource(13))
	const thrA = 0.05
	probes, worst := 0, 0.0
	for ext := -90.0; ext < -20; ext += 2 {
		for leak := 35.0; leak < 80; leak += 1.5 {
			e := ext + 2*rng.Float64()
			l := leak + 1.5*rng.Float64()
			var prevGot, prevWant float64
			for w := 0; w < amp.Words(); w++ {
				amp.SetGainWord(w)
				g := amp.GainDB()
				got := r.solveFeedback(units.DBmToMilliwatts(e), units.DBToLinear(-l))
				want := refSolveDBm(cfg, g, e, l)
				probes++
				d := math.Abs(got - want)
				worst = math.Max(worst, d)
				if !(d <= feedbackTolDB) {
					t.Fatalf("ext %v leak %v word %d: x = %v, reference %v (Δ %.3g dB)", e, l, w, got, want, d)
				}
				if gs, ws := amp.Saturated(got), refSaturated(cfg, g, want); gs != ws {
					t.Fatalf("ext %v leak %v word %d: saturated %v, reference %v", e, l, w, gs, ws)
				}
				curGot, curWant := amp.SupplyCurrentA(got), refCurrentA(cfg, g, want)
				if w > 0 {
					if gj, wj := curGot-prevGot > thrA, curWant-prevWant > thrA; gj != wj {
						t.Fatalf("ext %v leak %v word %d: current jump %v, reference %v", e, l, w, gj, wj)
					}
				}
				prevGot, prevWant = curGot, curWant
			}
		}
	}
	if probes < 100000 {
		t.Fatalf("only %d probes", probes)
	}
	t.Logf("%d probes, worst |Δx| = %.3g dB", probes, worst)
}

// fixedLeakDevice returns a default device whose leakage is exactly
// leakDB at every beam angle.
func fixedLeakDevice(leakDB float64) *Reflector {
	cfg := DefaultConfig(geom.V(2.5, 5), 270)
	cfg.BaseIsolationDB = leakDB
	cfg.MinLeakageDB = 0
	cfg.SlowSwingDB, cfg.FastSwingDB = 0, 0
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// FuzzFeedbackSolver checks EffectiveAmpInputDBm over arbitrary drive,
// leakage and gain word: the result is never NaN, is
// −Inf (a fully blocked leg) or at least the external input (feedback
// only adds power), and lies within feedbackTolDB of the frozen
// dB-domain reference. Inputs outside the physical range — drive above
// +30 dBm or below −150 dBm other than −Inf, leakage outside 0..120 dB
// — are skipped. The seed corpus under testdata/fuzz/FuzzFeedbackSolver
// covers a blocked leg, a probe that hits the iteration cap (loop gain
// 1), deep saturation (max word at MinLeakageDB) and an unstable loop
// (45 dB of gain over 40 dB of leakage) at moderate drive.
func FuzzFeedbackSolver(f *testing.F) {
	f.Fuzz(func(t *testing.T, ext, leak float64, word uint8) {
		if !math.IsInf(ext, -1) && !(ext >= -150 && ext <= 30) || !(leak >= 0 && leak <= 120) {
			t.Skip()
		}
		r := fixedLeakDevice(leak)
		amp := r.Amp()
		amp.SetGainWord(int(word) % amp.Words())
		got := r.EffectiveAmpInputDBm(ext)
		want := refSolveDBm(amp.Config(), amp.GainDB(), ext, r.LeakageDB())
		switch {
		case math.IsNaN(got):
			t.Fatalf("x = NaN")
		case math.IsInf(got, -1):
			if !math.IsInf(ext, -1) {
				t.Fatalf("x = −Inf for finite drive %v", ext)
			}
		case got < ext:
			t.Fatalf("x = %v below the external input %v", got, ext)
		}
		if got != want && !(math.Abs(got-want) <= feedbackTolDB) {
			t.Fatalf("x = %v, reference %v", got, want)
		}
	})
}
