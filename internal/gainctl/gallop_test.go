package gainctl

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/units"
)

// sweepReference is the original minimum-to-maximum linear sweep, frozen
// here as the behavioral reference for the galloping search. Any change
// to Optimize must keep the final programmed word identical to this.
func sweepReference(dev *reflector.Reflector, extInDBm float64, cfg Config) Result {
	amp := dev.Amp()
	if cfg.BackoffSteps < 1 {
		cfg.BackoffSteps = 1
	}
	amp.SetGainWord(0)
	prev := dev.SupplyCurrentA(extInDBm)
	res := Result{}
	maxWord := amp.Words() - 1
	for w := 1; w <= maxWord; w++ {
		amp.SetGainWord(w)
		res.Steps++
		cur := dev.SupplyCurrentA(extInDBm)
		if cur-prev > cfg.JumpThresholdA {
			amp.SetGainWord(w - cfg.BackoffSteps)
			res.KneeDetected = true
			break
		}
		prev = cur
	}
	res.Word = amp.GainWord()
	res.GainDB = amp.GainDB()
	res.MarginDB = dev.LeakageDB() - res.GainDB
	return res
}

func mkDevice(seed int64, isoDB, minLeakDB float64) *reflector.Reflector {
	cfg := reflector.DefaultConfig(geom.V(2.5, 5), 270)
	cfg.BaseIsolationDB = isoDB
	cfg.MinLeakageDB = minLeakDB
	cfg.Seed = seed
	r, err := reflector.New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// TestGallopMatchesLinearSweep fuzzes the galloping knee search against
// the frozen linear sweep across device seeds, isolation bands, beam
// offsets, drive levels, and thresholds. The final word, gain, knee flag
// and margin must match exactly; probe count must never exceed the
// sweep's.
func TestGallopMatchesLinearSweep(t *testing.T) {
	var opt Optimizer
	f := func(seed int64, isoQ, beamQ, extQ, thrQ, backQ uint16) bool {
		iso := 25 + float64(isoQ%9)*5      // 25..65 dB
		minLeak := 15 + float64(isoQ%3)*10 // 15..35 dB
		beam := 240 + float64(beamQ%13)*5  // 240..300°
		ext := -80 + float64(extQ%12)*5    // -80..-25 dBm
		cfg := Config{
			JumpThresholdA: 0.005 * float64(1+thrQ%30), // 5 mA..150 mA
			BackoffSteps:   int(backQ % 9),             // 0 (clamps to 1)..8
		}
		devA := mkDevice(seed%64+1, iso, minLeak)
		devB := mkDevice(seed%64+1, iso, minLeak)
		devA.SetBothBeams(beam)
		devB.SetBothBeams(beam)

		want := sweepReference(devA, ext, cfg)
		got := opt.Optimize(devB, ext, cfg)
		if got.Word != want.Word || got.GainDB != want.GainDB ||
			got.KneeDetected != want.KneeDetected || got.MarginDB != want.MarginDB {
			t.Logf("seed=%d iso=%v leak=%v beam=%v ext=%v cfg=%+v:\n  sweep  %+v\n  gallop %+v",
				seed%64+1, iso, minLeak, beam, ext, cfg, want, got)
			return false
		}
		if want.KneeDetected && got.Steps > want.Steps {
			t.Logf("gallop probed %d words, sweep only %d", got.Steps, want.Steps)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// dbReferenceCurrentA is the supply current at the device's current gain
// word as the dB-domain arithmetic computed it before the feedback solve
// moved to linear power, frozen here and built only from exported
// accessors: the Rapp model in normalized voltage, iterated to the
// leakage loop's fixed point with dBm↔mW conversions on every step.
func dbReferenceCurrentA(dev *reflector.Reflector, extDBm float64) float64 {
	amp := dev.Amp()
	cfg, g, l := amp.Config(), amp.GainDB(), dev.LeakageDB()
	out := func(in float64) float64 {
		x := math.Pow(10, (in+g-cfg.PsatDBm)/20)
		p2 := 2 * cfg.RappP
		return cfg.PsatDBm + 20*math.Log10(x/math.Pow(1+math.Pow(x, p2), 1/p2))
	}
	extMw := units.DBmToMilliwatts(extDBm)
	x := extMw
	for i := 0; i < 400; i++ {
		next := extMw + units.DBmToMilliwatts(out(units.MilliwattsToDBm(x))-l)
		if math.Abs(next-x) <= 1e-12*math.Max(x, 1e-30) {
			x = next
			break
		}
		x = next
	}
	in := units.MilliwattsToDBm(x)
	o := out(in)
	frac := math.Min(units.DBmToMilliwatts(o)/units.DBmToMilliwatts(cfg.PsatDBm), 1)
	c := in + g - o
	return cfg.QuiescentA + cfg.SlopeA*math.Sqrt(frac) + cfg.SpikeA/(1+math.Exp(-(c-1)/0.15))
}

// TestOptimizeMatchesDBReferenceSweep holds Optimize, running on the
// linear-power feedback solve, to the word a minimum-to-maximum sweep
// over the frozen dB-domain current picks, across the input space of
// TestGallopMatchesLinearSweep.
func TestOptimizeMatchesDBReferenceSweep(t *testing.T) {
	var opt Optimizer
	f := func(seed int64, isoQ, beamQ, extQ, thrQ, backQ uint16) bool {
		iso := 25 + float64(isoQ%9)*5
		minLeak := 15 + float64(isoQ%3)*10
		beam := 240 + float64(beamQ%13)*5
		ext := -80 + float64(extQ%12)*5
		cfg := Config{
			JumpThresholdA: 0.005 * float64(1+thrQ%30),
			BackoffSteps:   int(backQ % 9),
		}
		dev := mkDevice(seed%64+1, iso, minLeak)
		dev.SetBothBeams(beam)

		amp := dev.Amp()
		maxWord := amp.Words() - 1
		want := maxWord
		prev := dbReferenceCurrentA(dev, ext)
		for w := 1; w <= maxWord; w++ {
			amp.SetGainWord(w)
			cur := dbReferenceCurrentA(dev, ext)
			if cur-prev > cfg.JumpThresholdA {
				want = amp.SetGainWord(w - max(cfg.BackoffSteps, 1))
				break
			}
			prev = cur
		}

		if got := opt.Optimize(dev, ext, cfg); got.Word != want {
			t.Logf("seed=%d iso=%v leak=%v beam=%v ext=%v cfg=%+v: Optimize word %d, dB reference sweep %d",
				seed%64+1, iso, minLeak, beam, ext, cfg, got.Word, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGallopProbeCount pins the headline saving: on a representative
// no-knee device the whole-range certificate resolves the run with one
// probe beyond the word-0 reference (the maximum word), where the linear
// sweep probes every word.
func TestGallopProbeCount(t *testing.T) {
	dev := reflector.Default(geom.V(2.5, 5), 270)
	dev.SetBothBeams(270)
	res := Optimize(dev, -70, DefaultConfig())
	if res.KneeDetected {
		t.Fatalf("setup: want a no-knee device, got a knee at word %d", res.Word)
	}
	if res.Steps != 1 {
		t.Fatalf("no-knee run probed %d words, want 1 (the maximum word)", res.Steps)
	}
}

// TestSupplyCurrentMonotone checks the physical premise the gallop's
// bracket pruning rests on: supply current is monotone nondecreasing in
// the gain word.
func TestSupplyCurrentMonotone(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, ext := range []float64{-80, -60, -40, -28} {
			dev := mkDevice(seed, 40, 25)
			dev.SetBothBeams(270)
			amp := dev.Amp()
			prev := math.Inf(-1)
			for w := 0; w < amp.Words(); w++ {
				amp.SetGainWord(w)
				cur := dev.SupplyCurrentA(ext)
				if cur < prev {
					t.Fatalf("seed %d ext %v: I(%d)=%v < I(%d)=%v", seed, ext, w, cur, w-1, prev)
				}
				prev = cur
			}
		}
	}
}
