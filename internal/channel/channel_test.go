package channel

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/units"
)

func office() *room.Room { return room.NewOffice5x5() }

func TestDirectPath(t *testing.T) {
	tr := NewTracer(office(), units.ISM24GHz, 0)
	tx, rx := geom.V(0.5, 0.5), geom.V(4.5, 3.5)
	paths := tr.Trace(tx, rx)
	if len(paths) != 1 {
		t.Fatalf("path count = %d, want 1 (direct only)", len(paths))
	}
	p := paths[0]
	if p.Kind != Direct || p.Bounces != 0 {
		t.Errorf("kind = %v bounces = %d", p.Kind, p.Bounces)
	}
	if math.Abs(p.LengthM-5) > 1e-9 {
		t.Errorf("length = %v, want 5", p.LengthM)
	}
	if p.BlockLossDB != 0 {
		t.Errorf("clear room block loss = %v", p.BlockLossDB)
	}
	// AoD and AoA are opposite directions.
	if math.Abs(units.AngleDiffDeg(p.AoDDeg, p.AoADeg+180)) > 1e-9 {
		t.Errorf("AoD %v and AoA %v not reciprocal", p.AoDDeg, p.AoADeg)
	}
}

func TestSingleBouncePaths(t *testing.T) {
	tr := NewTracer(office(), units.ISM24GHz, 1)
	tx, rx := geom.V(1, 2.5), geom.V(4, 2.5)
	paths := tr.Trace(tx, rx)
	var reflected []Path
	for _, p := range paths {
		if p.Kind == Reflected {
			reflected = append(reflected, p)
		}
	}
	if len(reflected) < 2 {
		t.Fatalf("reflected path count = %d, want ≥2 (floor plan walls)", len(reflected))
	}
	for _, p := range reflected {
		if p.Bounces != 1 || len(p.Points) != 3 {
			t.Errorf("bad reflected path: %+v", p)
		}
		// Reflected paths are strictly longer than direct.
		if p.LengthM <= 3 {
			t.Errorf("reflected length %v should exceed direct 3", p.LengthM)
		}
		if p.ReflLossDB <= 0 {
			t.Errorf("reflection must lose power, got %v", p.ReflLossDB)
		}
	}
	// Paths are sorted by total loss; first must be the direct path.
	if paths[0].Kind != Direct {
		t.Error("direct path should be lowest loss in clear room")
	}
}

// TestDoubleBouncePaths pins the reflection-order cap: a tracer asked
// for order 2 traces no double bounces, only the order-1 path set.
func TestDoubleBouncePaths(t *testing.T) {
	rm := office()
	tx, rx := geom.V(1, 1.5), geom.V(4, 3.5)
	got := NewTracer(rm, units.ISM24GHz, 2).Trace(tx, rx)
	want := NewTracer(rm, units.ISM24GHz, 1).Trace(tx, rx)
	for _, p := range got {
		if p.Bounces > 1 {
			t.Fatalf("traced a %d-bounce path: %+v", p.Bounces, p)
		}
	}
	pathsBitIdentical(t, "order 2", got, want)
}

func TestMaxBouncesClamp(t *testing.T) {
	tr := NewTracer(office(), units.ISM24GHz, 99)
	if tr.maxBounces != 1 {
		t.Errorf("maxBounces = %d, want clamp to 1", tr.maxBounces)
	}
	tr = NewTracer(office(), units.ISM24GHz, -3)
	if tr.maxBounces != 0 {
		t.Errorf("maxBounces = %d, want clamp to 0", tr.maxBounces)
	}
}

func TestHandBlockageLoss(t *testing.T) {
	rm := office()
	tr := NewTracer(rm, units.ISM24GHz, 0)
	tx, rx := geom.V(0.5, 2.5), geom.V(4.5, 2.5)
	clear := tr.Trace(tx, rx)[0]

	// Hand dead-centre on the path.
	rm.AddObstacle(room.Hand(geom.V(2.5, 2.5)))
	blocked := tr.Trace(tx, rx)[0]
	loss := blocked.BlockLossDB - clear.BlockLossDB
	// Paper §3: hand blockage degrades SNR by more than 14 dB.
	if loss < 14 {
		t.Errorf("hand blockage = %v dB, paper says >14", loss)
	}
	if loss > room.HandLossDB+1e-9 {
		t.Errorf("hand blockage = %v dB exceeds cap %v", loss, room.HandLossDB)
	}
}

func TestBlockageOrdering(t *testing.T) {
	// Deep-shadow losses must follow the paper's hand < head < body order.
	tx, rx := geom.V(0.5, 2.5), geom.V(4.5, 2.5)
	centre := geom.V(2.5, 2.5)
	losses := map[string]float64{}
	for name, obs := range map[string]room.Obstacle{
		"hand": room.Hand(centre),
		"head": room.Head(centre),
		"body": room.Body(centre),
	} {
		rm := office()
		rm.AddObstacle(obs)
		tr := NewTracer(rm, units.ISM24GHz, 0)
		losses[name] = tr.Trace(tx, rx)[0].BlockLossDB
	}
	if !(losses["hand"] < losses["head"] && losses["head"] < losses["body"]) {
		t.Errorf("blockage ordering violated: %v", losses)
	}
}

func TestGrazingBlockageIsPartial(t *testing.T) {
	rm := office()
	tr := NewTracer(rm, units.ISM24GHz, 0)
	tx, rx := geom.V(0.5, 2.5), geom.V(4.5, 2.5)
	// Hand centre offset so the disc edge just grazes the path.
	rm.AddObstacle(room.Hand(geom.V(2.5, 2.5+room.HandRadiusM+0.01)))
	p := tr.Trace(tx, rx)[0]
	if p.BlockLossDB <= 0 {
		t.Error("grazing obstacle should cause some diffraction loss")
	}
	if p.BlockLossDB >= room.HandLossDB {
		t.Errorf("grazing loss %v should be below the deep-shadow cap", p.BlockLossDB)
	}
	// Far away: no loss.
	rm.ClearObstacles()
	rm.AddObstacle(room.Hand(geom.V(2.5, 4.5)))
	if p := tr.Trace(tx, rx)[0]; p.BlockLossDB != 0 {
		t.Errorf("distant obstacle caused %v dB loss", p.BlockLossDB)
	}
}

func TestObstacleAtEndpoint(t *testing.T) {
	rm := office()
	tr := NewTracer(rm, units.ISM24GHz, 0)
	tx, rx := geom.V(0.5, 2.5), geom.V(4.5, 2.5)
	// Obstacle centred exactly on the receiver: full shadow.
	rm.AddObstacle(room.Head(rx))
	if p := tr.Trace(tx, rx)[0]; p.BlockLossDB != room.HeadLossDB {
		t.Errorf("endpoint overlap loss = %v, want %v", p.BlockLossDB, room.HeadLossDB)
	}
	// Obstacle beside the receiver but not overlapping: clear.
	rm.ClearObstacles()
	rm.AddObstacle(room.Hand(geom.V(4.5, 2.5+0.2)))
	if p := tr.Trace(tx, rx)[0]; p.BlockLossDB != 0 {
		t.Errorf("nearby endpoint obstacle loss = %v, want 0", p.BlockLossDB)
	}
}

func TestNLOSBudgetMatchesPaper(t *testing.T) {
	// Best wall reflection should sit roughly 10-25 dB below the direct
	// path (paper: NLOS mean 16-17 dB below LOS).
	tr := NewTracer(office(), units.ISM24GHz, 1)
	tx, rx := geom.V(0.7, 0.7), geom.V(4.2, 3.8)
	paths := tr.Trace(tx, rx)
	// Paths sort by ascending loss: the first is the best, the first
	// reflected one the best reflection.
	ri := -1
	for i, p := range paths {
		if p.Kind == Reflected {
			ri = i
			break
		}
	}
	if ri < 0 {
		t.Fatal("missing reflected path")
	}
	gap := paths[ri].PropagationLossDB(units.ISM24GHz) - paths[0].PropagationLossDB(units.ISM24GHz)
	if gap < 6 || gap > 25 {
		t.Errorf("NLOS-vs-LOS gap = %v dB, want ~8-25 (paper mean 16-17)", gap)
	}
}

func TestBudgetSNR(t *testing.T) {
	b := DefaultBudget()
	// Noise floor ~ -74.5 dBm for 1.76 GHz, NF 7.
	if nf := b.NoiseFloorDBm(); math.Abs(nf-(-74.5)) > 0.5 {
		t.Errorf("noise floor = %v", nf)
	}
	tr := NewTracer(office(), b.FreqHz, 0)
	p := tr.Trace(geom.V(1, 1), geom.V(4, 4))[0]
	// With 15 dBi arrays on both ends, a mid-room link should land in
	// the paper's LOS regime (Fig 3: mean SNR ≈ 25 dB).
	snr := b.SNRdB(b.RXPowerDBm(p, 15, 15))
	if snr < 20 || snr > 30 {
		t.Errorf("LOS SNR = %v dB, want paper-like ~25", snr)
	}
	// Headset very close to the AP: "very high SNR (30-35 dB)" (§5.2).
	pc := tr.Trace(geom.V(1, 1), geom.V(1.8, 1.6))[0]
	if snr := b.SNRdB(b.RXPowerDBm(pc, 15, 15)); snr < 30 || snr > 40 {
		t.Errorf("close-range SNR = %v dB, want 30-35+", snr)
	}
}

type fixedGain float64

func (g fixedGain) GainDBi(float64) float64 { return float64(g) }

func TestCombinedPower(t *testing.T) {
	b := DefaultBudget()
	tr := NewTracer(office(), b.FreqHz, 1)
	paths := tr.Trace(geom.V(1, 2.5), geom.V(4, 2.5))
	// With isotropic antennas, combined power must exceed any single
	// path's power (energy adds) and be within a few dB of the direct.
	combined := b.CombinedRXPowerDBm(paths, fixedGain(0), fixedGain(0))
	direct := b.RXPowerDBm(paths[0], 0, 0) // paths sort by ascending loss
	if combined < direct {
		t.Errorf("combined %v < strongest path %v", combined, direct)
	}
	if combined > direct+6 {
		t.Errorf("combined %v implausibly above direct %v", combined, direct)
	}
	snr := b.CombinedSNRdB(paths, fixedGain(0), fixedGain(0))
	if snr != b.SNRdB(combined) {
		t.Error("CombinedSNRdB inconsistent with CombinedRXPowerDBm")
	}
}

// Property: blockage loss increases monotonically (within tolerance) as an
// obstacle slides from grazing to dead-centre on the path.
func TestQuickBlockageMonotoneInPenetration(t *testing.T) {
	tx, rx := geom.V(0.5, 2.5), geom.V(4.5, 2.5)
	prev := -1.0
	for off := 0.3; off >= 0; off -= 0.01 {
		rm := office()
		rm.AddObstacle(room.Body(geom.V(2.5, 2.5+off)))
		tr := NewTracer(rm, units.ISM24GHz, 0)
		loss := tr.Trace(tx, rx)[0].BlockLossDB
		if loss < prev-1e-9 {
			t.Fatalf("loss decreased from %v to %v at offset %v", prev, loss, off)
		}
		prev = loss
	}
}

// Property: the channel is reciprocal — swapping transmitter and
// receiver (positions and heights) yields the same set of path losses,
// with departure and arrival angles exchanged.
func TestQuickChannelReciprocity(t *testing.T) {
	rm := office()
	rm.AddObstacle(room.Body(geom.V(2.2, 2.7)))
	tr := NewTracer(rm, units.ISM24GHz, 1)
	f := func(ax, ay, bx, by float64) bool {
		a := geom.V(0.4+math.Abs(math.Mod(ax, 4.2)), 0.4+math.Abs(math.Mod(ay, 4.2)))
		b := geom.V(0.4+math.Abs(math.Mod(bx, 4.2)), 0.4+math.Abs(math.Mod(by, 4.2)))
		if a.Dist(b) < 0.3 {
			return true
		}
		fwd := tr.TraceHInto(nil, a, b, 1.5, 2.3)
		rev := tr.TraceHInto(nil, b, a, 2.3, 1.5)
		if len(fwd) != len(rev) {
			return false
		}
		// Paths come sorted by loss; compare element-wise.
		for i := range fwd {
			if math.Abs(fwd[i].PropagationLossDB(units.ISM24GHz)-rev[i].PropagationLossDB(units.ISM24GHz)) > 1e-6 {
				return false
			}
			if math.Abs(units.AngleDiffDeg(fwd[i].AoDDeg, rev[i].AoADeg)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: total propagation loss is always at least the free-space loss
// of the direct distance (triangle inequality + nonnegative extra losses).
func TestQuickLossLowerBound(t *testing.T) {
	rm := office()
	tr := NewTracer(rm, units.ISM24GHz, 1)
	f := func(ax, ay, bx, by float64) bool {
		tx := geom.V(0.3+math.Abs(math.Mod(ax, 4.4)), 0.3+math.Abs(math.Mod(ay, 4.4)))
		rx := geom.V(0.3+math.Abs(math.Mod(bx, 4.4)), 0.3+math.Abs(math.Mod(by, 4.4)))
		if tx.Dist(rx) < 0.2 {
			return true
		}
		floor := units.FSPL(tx.Dist(rx), units.ISM24GHz)
		for _, p := range tr.Trace(tx, rx) {
			if p.PropagationLossDB(units.ISM24GHz) < floor-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
