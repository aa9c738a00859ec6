package room

import (
	"testing"

	"github.com/movr-sim/movr/internal/geom"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5, Drywall); err == nil {
		t.Error("zero width should error")
	}
	if _, err := New(5, -1, Drywall); err == nil {
		t.Error("negative depth should error")
	}
	r, err := New(4, 3, Concrete)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Walls()) != 4 {
		t.Errorf("wall count = %d", len(r.Walls()))
	}
	for _, w := range r.Walls() {
		if w.Mat != Concrete {
			t.Errorf("wall material = %v", w.Mat)
		}
	}
	// Interior walls follow the perimeter in the order given.
	in := []Wall{
		{Seg: geom.Seg(geom.V(2, 2), geom.V(3, 2)), Mat: Metal},
		{Seg: geom.Seg(geom.V(1, 1), geom.V(1, 2)), Mat: Glass},
	}
	r, err = New(5, 5, Drywall, in...)
	if err != nil {
		t.Fatal(err)
	}
	if ws := r.Walls(); len(ws) != 6 || ws[4] != in[0] || ws[5] != in[1] {
		t.Errorf("walls with interior = %+v", ws)
	}
}

func TestOffice5x5(t *testing.T) {
	r := NewOffice5x5()
	if r.WidthM != 5 || r.DepthM != 5 {
		t.Errorf("dimensions = %vx%v", r.WidthM, r.DepthM)
	}
	// Perimeter + whiteboard + cabinet + desk.
	if len(r.Walls()) != 7 {
		t.Errorf("wall count = %d, want 7", len(r.Walls()))
	}
	// The metal cabinet must be the lowest-loss reflector.
	bestLoss := 1e9
	for _, w := range r.Walls() {
		if w.Mat.ReflLossDB < bestLoss {
			bestLoss = w.Mat.ReflLossDB
		}
	}
	if bestLoss != Metal.ReflLossDB {
		t.Errorf("best reflector loss = %v, want metal %v", bestLoss, Metal.ReflLossDB)
	}
}

func TestLOSAndObstacles(t *testing.T) {
	r := NewOffice5x5()
	a, b := geom.V(0.5, 2.5), geom.V(4.5, 2.5)
	if !r.LOSClear(a, b) {
		t.Fatal("empty room should have clear LOS")
	}
	idx := r.AddObstacle(Hand(geom.V(2.5, 2.5)))
	if r.LOSClear(a, b) {
		t.Error("hand on the path should block LOS")
	}
	r.MoveObstacle(idx, geom.V(-10, -10)) // parked outside the room
	if !r.LOSClear(a, b) {
		t.Error("LOS should be restored once the hand is parked")
	}
}

func TestObstacleManagement(t *testing.T) {
	r := NewOffice5x5()
	i := r.AddObstacle(Head(geom.V(1, 1)))
	r.MoveObstacle(i, geom.V(2, 2))
	if got := r.Obstacles()[i].Shape.C; !got.AlmostEqual(geom.V(2, 2), 1e-12) {
		t.Errorf("moved obstacle at %v", got)
	}
	// Out-of-range ops are no-ops.
	r.MoveObstacle(-1, geom.V(0, 0))
	r.MoveObstacle(99, geom.V(0, 0))
	if len(r.Obstacles()) != 1 {
		t.Errorf("obstacle count = %d", len(r.Obstacles()))
	}
	r.ClearObstacles()
	if len(r.Obstacles()) != 0 {
		t.Error("ClearObstacles failed")
	}
}

func TestBlockerPresets(t *testing.T) {
	h := Hand(geom.V(0, 0))
	hd := Head(geom.V(0, 0))
	b := Body(geom.V(0, 0))
	// Paper ordering (Fig 3): hand < head < body in shadowing depth.
	if !(h.MaxLossDB < hd.MaxLossDB && hd.MaxLossDB < b.MaxLossDB) {
		t.Errorf("loss ordering violated: %v %v %v", h.MaxLossDB, hd.MaxLossDB, b.MaxLossDB)
	}
	// Hand must exceed the paper's ">14 dB" SNR drop.
	if h.MaxLossDB <= 14 {
		t.Errorf("hand loss = %v, paper says >14", h.MaxLossDB)
	}
	if !(h.Shape.R < hd.Shape.R && hd.Shape.R < b.Shape.R) {
		t.Error("radius ordering violated")
	}
	f := Furniture(geom.V(1, 1), 0.4)
	if f.Shape.R != 0.4 || f.MaxLossDB < b.MaxLossDB {
		t.Errorf("furniture preset = %+v", f)
	}
}
