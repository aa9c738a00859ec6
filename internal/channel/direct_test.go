package channel

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/units"
)

// TestDirectHIntoMatchesFullTrace pins the direct-only query to the full
// trace: across seeded endpoints, heights, and obstacles — one centred on
// an endpoint, some grazing the leg, some random — in the office and the
// living room at every reflection order, Tracer.DirectHInto must return
// exactly the Kind == Direct path of TraceHInto, bit for bit in every
// field including Points. The direct-only buffer is scrambled by a full
// trace before every query so Points reuse cannot hide a stale value.
func TestDirectHIntoMatchesFullTrace(t *testing.T) {
	rooms := []struct {
		name string
		make func() *room.Room
	}{{"office", room.NewOffice5x5}, {"livingroom", room.NewLivingRoom}}
	var full, dbuf []Path
	grazed, shadowed := 0, 0
	for _, rc := range rooms {
		for bounces := 0; bounces <= 1; bounces++ {
			rng := rand.New(rand.NewSource(int64(100 + bounces)))
			for c := 0; c < 60; c++ {
				rm := rc.make()
				tx := geom.V(0.2+rng.Float64()*(rm.WidthM-0.4), 0.2+rng.Float64()*(rm.DepthM-0.4))
				rx := geom.V(0.2+rng.Float64()*(rm.WidthM-0.4), 0.2+rng.Float64()*(rm.DepthM-0.4))
				hTx := 1.2 + rng.Float64()*1.1
				hRx := 1.2 + rng.Float64()*1.1

				// A head centred on one endpoint (the player's own head
				// beside the headset).
				end := rx
				if rng.Intn(2) == 0 {
					end = tx
				}
				rm.AddObstacle(room.Head(end))
				// Blockers grazing the leg: centred just inside or just
				// outside one radius of a point along it.
				seg := geom.Seg(tx, rx)
				for g := rng.Intn(3) + 1; g > 0; g-- {
					o := room.Body(geom.Vec{})
					if rng.Intn(2) == 0 {
						o = room.Hand(geom.Vec{})
					}
					off := o.Shape.R + (rng.Float64()-0.5)*0.1
					if rng.Intn(2) == 0 {
						off = -off
					}
					o.Shape.C = seg.PointAt(0.2 + 0.6*rng.Float64()).Add(seg.Normal().Scale(off))
					rm.AddObstacle(o)
				}
				for r := rng.Intn(3); r > 0; r-- {
					rm.AddObstacle(room.Furniture(geom.V(rng.Float64()*rm.WidthM, rng.Float64()*rm.DepthM), 0.15+rng.Float64()*0.3))
				}

				tr := NewTracer(rm, units.Band60GHz, bounces)
				for _, o := range rm.Obstacles() {
					v := obstacleLossDB(seg, o, tr.lambda, hTx, hRx)
					if o.Shape.C == end && v == o.MaxLossDB {
						shadowed++
					}
					if v > 0 && v < o.MaxLossDB {
						grazed++
					}
				}
				label := fmt.Sprintf("%s bounces=%d case=%d", rc.name, bounces, c)

				full = tr.TraceHInto(full[:0], tx, rx, hTx, hRx)
				var want []Path
				for i := range full {
					if full[i].Kind == Direct {
						p := full[i]
						p.Points = append([]geom.Vec(nil), p.Points...)
						want = append(want, p)
					}
				}
				if len(want) != 1 {
					t.Fatalf("%s: full trace has %d direct paths, want 1", label, len(want))
				}

				dbuf = tr.TraceHInto(dbuf[:0], rx, tx, hRx, hTx)
				dbuf = tr.DirectHInto(dbuf[:0], tx, rx, hTx, hRx)
				pathsBitIdentical(t, label, dbuf, want)
			}
		}
	}
	if grazed < 20 || shadowed < 20 {
		t.Fatalf("obstacle mix gave %d partial and %d endpoint shadowings; test geometry is wrong", grazed, shadowed)
	}
}
