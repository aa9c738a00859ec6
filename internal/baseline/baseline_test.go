package baseline

import (
	"math"
	"testing"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/phy"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/units"
)

func testbed() (*room.Room, *channel.Tracer, *radio.Radio, *radio.Radio) {
	rm := room.NewOffice5x5()
	b := channel.DefaultBudget()
	tr := channel.NewTracer(rm, b.FreqHz, 1)
	tx := radio.New("tx", geom.V(0.6, 0.6), antenna.Default(45), b)
	rx := radio.New("rx", geom.V(3.8, 2.6), antenna.Default(215), b)
	return rm, tr, tx, rx
}

func TestOptNLOSBelowLOS(t *testing.T) {
	// The paper's core §3 finding: the best wall reflection sits far
	// below the line of sight — mean 16-17 dB down.
	_, tr, tx, rx := testbed()
	los := radio.LinkSNRAligned(tr, tx, rx)
	res := OptNLOS(tr, tx, rx, 3)
	if math.IsInf(res.SNRdB, -1) {
		t.Fatal("no NLOS path found")
	}
	gap := los - res.SNRdB
	if gap < 8 || gap > 30 {
		t.Errorf("NLOS gap = %v dB, want paper-like 10-25", gap)
	}
	// Opt-NLOS must fail the VR requirement (Fig 3 last bar).
	if phy.HTCViveRequirement().MetBySNR(res.SNRdB) {
		t.Errorf("Opt-NLOS at %v dB should fail VR", res.SNRdB)
	}
	if res.Combos == 0 {
		t.Error("no combos counted")
	}
}

func TestOptNLOSFindsAWall(t *testing.T) {
	// The winning beams should NOT point at each other (that is the
	// excluded LOS direction) — they point at a wall.
	_, tr, tx, rx := testbed()
	preOrient := tx.Array.OrientationDeg()
	preSteer := tx.Array.SteeringDeg()
	res := OptNLOS(tr, tx, rx, 3)
	losTX := geom.DirectionDeg(tx.Pos, rx.Pos)
	if math.Abs(units.AngleDiffDeg(res.TXBeamDeg, losTX)) < 5 {
		t.Errorf("Opt-NLOS TX beam %v suspiciously at LOS %v", res.TXBeamDeg, losTX)
	}
	// The sweep must not leave the radios rotated: state is restored.
	if tx.Array.OrientationDeg() != preOrient {
		t.Error("tx orientation not restored")
	}
	if math.Abs(units.AngleDiffDeg(tx.Array.SteeringDeg(), preSteer)) > 1e-9 {
		t.Error("tx steering not restored")
	}
}

func TestOptNLOSNoReflections(t *testing.T) {
	// Direct-only tracer: no NLOS paths exist.
	rm := room.NewOffice5x5()
	b := channel.DefaultBudget()
	tr := channel.NewTracer(rm, b.FreqHz, 0)
	tx := radio.New("tx", geom.V(1, 1), antenna.Default(45), b)
	rx := radio.New("rx", geom.V(4, 4), antenna.Default(225), b)
	res := OptNLOS(tr, tx, rx, 5)
	if !math.IsInf(res.SNRdB, -1) {
		t.Errorf("expected -Inf with no reflections, got %v", res.SNRdB)
	}
}

func TestMultiAP(t *testing.T) {
	b := channel.DefaultBudget()
	deploy := MultiAP{APs: []*radio.AP{
		radio.NewAP(geom.V(0.3, 0.3), antenna.Default(45), b),
		radio.NewAP(geom.V(4.7, 4.7), antenna.Default(225), b),
	}}
	// Cabling cost grows with deployment size.
	pc := geom.V(0.3, 0.3)
	if deploy.CablingM(pc) <= 8 {
		t.Errorf("cabling = %v m, want substantial", deploy.CablingM(pc))
	}
}
