package channel

import (
	"math"
	"testing"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/units"
)

func TestAtmosphericLoss(t *testing.T) {
	// 60 GHz oxygen band: 15 dB/km.
	if got := AtmosphericLossDB(1000, units.Band60GHz); math.Abs(got-15) > 1e-9 {
		t.Errorf("60 GHz/km = %v", got)
	}
	// Indoor distances: fractions of a dB.
	if got := AtmosphericLossDB(5, units.Band60GHz); got > 0.1 {
		t.Errorf("60 GHz indoor = %v, should be small", got)
	}
	// 24 GHz: negligible.
	if got := AtmosphericLossDB(1000, units.ISM24GHz); got > 0.2 {
		t.Errorf("24 GHz/km = %v", got)
	}
	// Sub-mmWave: essentially zero.
	if got := AtmosphericLossDB(1000, 5e9); got > 0.02 {
		t.Errorf("5 GHz/km = %v", got)
	}
}

func TestBudget60GHz(t *testing.T) {
	b := Budget60GHz()
	if b.FreqHz != units.Band60GHz {
		t.Errorf("carrier = %v", b.FreqHz)
	}
	// Same link at 60 GHz loses ~8 dB of free-space budget vs 24 GHz
	// (quadrupled frequency) with equal antenna gains.
	b24 := DefaultBudget()
	tr24 := NewTracer(room.NewOffice5x5(), b24.FreqHz, 0)
	tr60 := NewTracer(room.NewOffice5x5(), b.FreqHz, 0)
	tx, rx := geom.V(1, 1), geom.V(4, 4)
	p24 := tr24.Trace(tx, rx)[0]
	p60 := tr60.Trace(tx, rx)[0]
	gap := p60.PropagationLossDB(b.FreqHz) - p24.PropagationLossDB(b24.FreqHz)
	if gap < 7.5 || gap > 9 {
		t.Errorf("60-vs-24 GHz loss gap = %v dB, want ~8", gap)
	}
}

func TestLowFurniturePassedOver(t *testing.T) {
	// The living room's sofa (0.8 m) crosses the plan-view path but a
	// headset-height (1.7 m) link flies over it.
	rm := room.NewLivingRoom()
	tr := NewTracer(rm, units.ISM24GHz, 0)
	p := tr.Trace(geom.V(0.5, 1.5), geom.V(5.5, 1.5))[0]
	if p.BlockLossDB > 0.1 {
		t.Errorf("sofa cost %v dB at headset height, want ~0", p.BlockLossDB)
	}
	// A knee-height link would be shadowed.
	pLow := tr.TraceHInto(nil, geom.V(0.5, 1.5), geom.V(5.5, 1.5), 0.5, 0.5)[0]
	if pLow.BlockLossDB < 10 {
		t.Errorf("knee-height link lost only %v dB to the sofa", pLow.BlockLossDB)
	}
}

func TestSharperDiffractionAt60GHz(t *testing.T) {
	// Shorter wavelength makes shadows harder: the same grazing
	// obstacle costs at least as much at 60 GHz as at 24 GHz.
	mk := func(freq float64) float64 {
		rm := room.NewOffice5x5()
		// Obstacle edge right at the path: deep grazing.
		rm.AddObstacle(room.Hand(geom.V(2.5, 2.5+room.HandRadiusM)))
		tr := NewTracer(rm, freq, 0)
		return tr.Trace(geom.V(0.5, 2.5), geom.V(4.5, 2.5))[0].BlockLossDB
	}
	l24 := mk(units.ISM24GHz)
	l60 := mk(units.Band60GHz)
	if l60 < l24 {
		t.Errorf("60 GHz grazing loss %v below 24 GHz %v", l60, l24)
	}
}
