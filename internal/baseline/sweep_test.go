package baseline

import (
	"math"
	"testing"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/room"
)

// refOptNLOS is the per-pair Opt-NLOS sweep the tables and the ceiling
// replaced, kept as the reference they must match bit for bit: trace,
// filter the reflected paths, then for every beam pair rotate both
// arrays and run Budget.CombinedSNRdB. It rotates copies of the arrays
// and leaves tx and rx untouched.
func refOptNLOS(tr *channel.Tracer, tx, rx *radio.Radio, stepDeg float64) OptNLOSResult {
	txA, rxA := *tx.Array, *rx.Array
	var refl []channel.Path
	for _, p := range tr.TraceHInto(nil, tx.Pos, rx.Pos, tx.HeightM, rx.HeightM) {
		if p.Kind == channel.Reflected {
			refl = append(refl, p)
		}
	}
	res := OptNLOSResult{SNRdB: math.Inf(-1)}
	if len(refl) == 0 {
		return res
	}
	if stepDeg <= 0 {
		stepDeg = 1
	}
	for txBeam := 0.0; txBeam < 360; txBeam += stepDeg {
		txA.SetOrientation(txBeam)
		txA.SteerTo(txBeam)
		for rxBeam := 0.0; rxBeam < 360; rxBeam += stepDeg {
			rxA.SetOrientation(rxBeam)
			rxA.SteerTo(rxBeam)
			res.Combos++
			snr := tx.Budget.CombinedSNRdB(refl, &txA, &rxA)
			if snr > res.SNRdB {
				res.SNRdB = snr
				res.TXBeamDeg = txBeam
				res.RXBeamDeg = rxBeam
			}
		}
	}
	return res
}

// sameResult reports whether two sweep results agree bit for bit.
func sameResult(a, b OptNLOSResult) bool {
	return math.Float64bits(a.SNRdB) == math.Float64bits(b.SNRdB) &&
		a.TXBeamDeg == b.TXBeamDeg && a.RXBeamDeg == b.RXBeamDeg && a.Combos == b.Combos
}

// sweepCase is one Opt-NLOS placement: the Fig 9 office with its AP in
// the corner, a headset at hs facing yaw, and optionally the Fig 9 hand
// blocker in front of the headset toward the AP.
type sweepCase struct {
	hs         geom.Vec
	yaw        float64
	hand       bool
	maxBounces int
	stepDeg    float64
}

func (c sweepCase) build() (*channel.Tracer, *radio.AP, *radio.Headset) {
	rm := room.NewOffice5x5()
	b := channel.DefaultBudget()
	tr := channel.NewTracer(rm, b.FreqHz, c.maxBounces)
	ap := radio.NewAP(geom.V(0.4, 0.4), antenna.Default(45), b)
	hs := radio.NewHeadset(c.hs, antenna.Default(c.yaw), b)
	if c.hand {
		rm.AddObstacle(room.Hand(geom.FromPolar(hs.Pos, geom.DirectionDeg(hs.Pos, ap.Pos), 0.35)))
	}
	return tr, ap, hs
}

// checkAgainstRef runs the sweep and the reference on c and fails t on
// any difference in the result or in either radio's pointing.
func checkAgainstRef(t *testing.T, c sweepCase) {
	t.Helper()
	tr, ap, hs := c.build()
	apO, apS := ap.Array.Pointing()
	hsO, hsS := hs.Array.Pointing()
	got := OptNLOS(tr, &ap.Radio, &hs.Radio, c.stepDeg)
	want := refOptNLOS(tr, &ap.Radio, &hs.Radio, c.stepDeg)
	if !sameResult(got, want) {
		t.Errorf("%+v: sweep %+v, per-pair reference %+v", c, got, want)
	}
	for _, r := range []struct {
		name          string
		a             *antenna.Array
		orient, steer float64
	}{{"ap", ap.Array, apO, apS}, {"headset", hs.Array, hsO, hsS}} {
		o, s := r.a.Pointing()
		if math.Float64bits(o) != math.Float64bits(r.orient) || math.Float64bits(s) != math.Float64bits(r.steer) {
			t.Errorf("%+v: %s pointing (%v, %v) after the sweep, (%v, %v) before", c, r.name, o, s, r.orient, r.steer)
		}
	}
}

// TestOptNLOSMatchesBruteForce holds the table sweep with its ceiling to
// the per-pair reference over a grid of placements, with steps that do
// and do not divide 360, with and without the Fig 9 hand blocker, and
// with a tracer of second-order bounces, which has more paths.
func TestOptNLOSMatchesBruteForce(t *testing.T) {
	var cases []sweepCase
	for i, x := range []float64{1.1, 2.3, 3.5, 4.4} {
		for j, y := range []float64{1.2, 2.6, 4.1} {
			yaw := float64(40*i + 70*j)
			step := []float64{7, 5, 6}[(i+j)%3]
			bounces := 1
			if (i+2*j)%5 == 2 {
				bounces = 2
			}
			for _, hand := range []bool{false, true} {
				cases = append(cases, sweepCase{geom.V(x, y), yaw, hand, bounces, step})
			}
		}
	}
	for _, c := range cases {
		checkAgainstRef(t, c)
	}

	// No reflections: nothing to sweep.
	c := sweepCase{hs: geom.V(3.8, 2.6), yaw: 215, maxBounces: 0, stepDeg: 5}
	checkAgainstRef(t, c)
	tr, ap, hs := c.build()
	if res := OptNLOS(tr, &ap.Radio, &hs.Radio, c.stepDeg); !math.IsInf(res.SNRdB, -1) || res.Combos != 0 {
		t.Errorf("direct-only tracer: %+v, want −Inf over 0 combos", res)
	}
}

// TestOptNLOSCeilingWork pins how many beam pairs run the power chain at
// two fixed placements; the rest are ruled out by the ceiling. The count
// depends on no clock, so it is exact.
func TestOptNLOSCeilingWork(t *testing.T) {
	for _, tc := range []struct {
		c      sweepCase
		combos int
		chains int
	}{
		{sweepCase{hs: geom.V(3.8, 2.6), yaw: 215, hand: true, maxBounces: 1, stepDeg: 6}, 3600, 30},
		{sweepCase{hs: geom.V(2.2, 4.1), yaw: 300, maxBounces: 1, stepDeg: 2}, 32400, 281},
	} {
		tr, ap, hs := tc.c.build()
		res, chains := sweep(tr, &ap.Radio, &hs.Radio, tc.c.stepDeg, nil)
		if res.Combos != tc.combos || chains != tc.chains {
			t.Errorf("%+v: %d combos, %d chains run; want %d and %d", tc.c, res.Combos, chains, tc.combos, tc.chains)
		}
	}
}

// TestOptNLOSBufZeroAllocs pins OptNLOSBuf's promise: with a warmed
// Scratch the sweep allocates nothing.
func TestOptNLOSBufZeroAllocs(t *testing.T) {
	tr, ap, hs := sweepCase{hs: geom.V(3.8, 2.6), yaw: 215, hand: true, maxBounces: 1}.build()
	var s Scratch
	OptNLOSBuf(tr, &ap.Radio, &hs.Radio, 12, &s)
	if n := testing.AllocsPerRun(5, func() { OptNLOSBuf(tr, &ap.Radio, &hs.Radio, 12, &s) }); n != 0 {
		t.Errorf("OptNLOSBuf with a warmed scratch: %v allocs/op, want 0", n)
	}
}

// FuzzOptNLOS holds the sweep to the per-pair reference for arbitrary
// finite radio placements and orientations, with or without a hand
// blocker. The step is clamped to [10°, 120°] so each input stays cheap.
func FuzzOptNLOS(f *testing.F) {
	f.Add(0.4, 0.4, 45.0, 3.8, 2.6, 215.0, true, 12.0)
	f.Add(0.4, 0.4, 45.0, 2.2, 4.1, 300.0, false, 10.0)
	f.Fuzz(func(t *testing.T, txX, txY, txYaw, rxX, rxY, rxYaw float64, hand bool, step float64) {
		for _, v := range []float64{txX, txY, txYaw, rxX, rxY, rxYaw, step} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		step = min(max(step, 10), 120)
		rm := room.NewOffice5x5()
		b := channel.DefaultBudget()
		tr := channel.NewTracer(rm, b.FreqHz, 1)
		ap := radio.NewAP(geom.V(txX, txY), antenna.Default(txYaw), b)
		hs := radio.NewHeadset(geom.V(rxX, rxY), antenna.Default(rxYaw), b)
		if hand {
			rm.AddObstacle(room.Hand(geom.FromPolar(hs.Pos, geom.DirectionDeg(hs.Pos, ap.Pos), 0.35)))
		}
		got := OptNLOS(tr, &ap.Radio, &hs.Radio, step)
		want := refOptNLOS(tr, &ap.Radio, &hs.Radio, step)
		if !sameResult(got, want) {
			t.Fatalf("sweep %+v, per-pair reference %+v", got, want)
		}
	})
}
