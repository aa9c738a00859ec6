package relay

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/movr-sim/movr/internal/units"
)

func TestHopSNR(t *testing.T) {
	h := HopBudget{SignalDBm: -46, NoiseDBm: -76.5}
	if got := h.SNRdB(); math.Abs(got-30.5) > 1e-9 {
		t.Errorf("hop SNR = %v", got)
	}
}

func TestCombineSymmetricHops(t *testing.T) {
	// Equal 20 dB hops: gamma = 100*100/201 = 49.75 -> 16.97 dB.
	got := CombineSNRdB(20, 20)
	want := units.LinearToDB(100 * 100 / 201.0)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("combined = %v, want %v", got, want)
	}
}

func TestCombineAsymmetricApproachesWeakHop(t *testing.T) {
	// With one very strong hop, the combination approaches the weak hop.
	got := CombineSNRdB(60, 15)
	if math.Abs(got-15) > 0.2 {
		t.Errorf("combined = %v, want ≈15", got)
	}
}

func TestEndToEndMatchesClosedForm(t *testing.T) {
	// Construct hops in compatible terms and compare the two formulas.
	hop1 := HopBudget{SignalDBm: -46, NoiseDBm: -76.5} // SNR1 = 30.5
	hop2Gain := 0.4                                    // arbitrary
	headsetNoise := -74.5
	e2e := EndToEnd(hop1, hop2Gain, headsetNoise)

	snr1 := hop1.SNRdB()
	snr2 := hop1.SignalDBm + hop2Gain - headsetNoise // signal vs headset noise only
	closed := CombineSNRdB(snr1, snr2)
	// The closed form includes the +1 term; with these SNRs the two
	// should agree within a small tolerance.
	if math.Abs(e2e-closed) > 0.15 {
		t.Errorf("EndToEnd = %v, closed form = %v", e2e, closed)
	}
}

func TestEndToEndPaperScenario(t *testing.T) {
	// The §5.2 geometry: AP and reflector in opposite corners (~6.2 m),
	// headset mid-room (~3 m from reflector).
	hop1 := HopBudget{
		SignalDBm: 0 + 15 - units.FSPL(6.2, units.ISM24GHz) + 15, // ≈ -46
		NoiseDBm:  units.ThermalNoiseDBm(units.Channel80211adBandwidth, 5),
	}
	hop2Gain := 50.0 + 15 - units.FSPL(3, units.ISM24GHz) + 15 - 10
	headsetNoise := units.ThermalNoiseDBm(units.Channel80211adBandwidth, 7)
	e2e := EndToEnd(hop1, hop2Gain, headsetNoise)
	// MoVR should deliver mid-to-high 20s dB here — above the ~22-25 dB
	// LOS, i.e. "a few dB higher than the SNR over the unblocked direct
	// path" (§1).
	if e2e < 23 || e2e > 32 {
		t.Errorf("paper-scenario e2e SNR = %v, want ~26±3", e2e)
	}
}

// Property: combined SNR never exceeds either hop (relay can only lose).
func TestQuickCombinedBelowBound(t *testing.T) {
	f := func(a, b float64) bool {
		s1 := math.Mod(a, 50)
		s2 := math.Mod(b, 50)
		if math.IsNaN(s1) || math.IsNaN(s2) {
			return true
		}
		c := CombineSNRdB(s1, s2)
		return c <= math.Min(s1, s2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: combined SNR is monotone in each hop SNR.
func TestQuickCombinedMonotone(t *testing.T) {
	f := func(a, b, d float64) bool {
		s1 := math.Mod(a, 40)
		s2 := math.Mod(b, 40)
		inc := math.Abs(math.Mod(d, 10))
		if math.IsNaN(s1) || math.IsNaN(s2) || math.IsNaN(inc) {
			return true
		}
		return CombineSNRdB(s1+inc, s2) >= CombineSNRdB(s1, s2)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: EndToEnd degrades when the forwarded noise grows (higher
// hop1 noise floor at equal signal).
func TestQuickEndToEndNoiseMonotone(t *testing.T) {
	f := func(n float64) bool {
		extra := math.Abs(math.Mod(n, 20))
		if math.IsNaN(extra) {
			return true
		}
		base := EndToEnd(HopBudget{SignalDBm: -50, NoiseDBm: -80}, 40, -75)
		worse := EndToEnd(HopBudget{SignalDBm: -50, NoiseDBm: -80 + extra}, 40, -75)
		return worse <= base+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzRelayCeiling checks the two properties of EndToEnd that make the
// link manager's SNR ceiling an upper bound: with the drive level, the
// hop-1 noise, the hop-2 gain ceiling gCeil and the headset noise all
// within ±1e3 dB, any hop-2 gain g ≤ gCeil yields no more SNR than gCeil
// (up to rounding far below a nanodecibel), and the SNR rises no faster
// than the gain.
func FuzzRelayCeiling(f *testing.F) {
	f.Fuzz(func(t *testing.T, signal, noise1, noiseHS, gCeil, g float64) {
		for _, x := range []float64{signal, noise1, noiseHS, gCeil} {
			if !(-1e3 <= x && x <= 1e3) {
				t.Skip()
			}
		}
		if !(g <= gCeil) {
			t.Skip()
		}
		hop1 := HopBudget{SignalDBm: signal, NoiseDBm: noise1}
		at, ceil := EndToEnd(hop1, g, noiseHS), EndToEnd(hop1, gCeil, noiseHS)
		if !(at <= ceil+1e-9) {
			t.Fatalf("EndToEnd(%v, g=%v, %v) = %v above the ceiling's %v", hop1, g, noiseHS, at, ceil)
		}
		if !math.IsInf(g, -1) && !(ceil-at <= gCeil-g+1e-9) {
			t.Fatalf("EndToEnd(%v, ·, %v) rose %v from g=%v to %v, more than the gain", hop1, noiseHS, ceil-at, g, gCeil)
		}
	})
}

// CombineSNRdB is the classic closed-form amplify-and-forward
// combination of two hop SNRs (both in dB):
//
//	γ_e2e = γ1·γ2 / (γ1 + γ2 + 1)
//
// It equals EndToEnd when the hops are expressed in normalized form; the
// tests hold EndToEnd to it.
func CombineSNRdB(snr1DB, snr2DB float64) float64 {
	g1 := units.DBToLinear(snr1DB)
	g2 := units.DBToLinear(snr2DB)
	return units.LinearToDB(g1 * g2 / (g1 + g2 + 1))
}
