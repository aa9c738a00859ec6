package channel

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
)

// comparePaths requires two traced path sets to be bitwise identical,
// including order.
func comparePaths(t *testing.T, tag string, got, want []Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", tag, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Bounces != w.Bounces ||
			g.AoDDeg != w.AoDDeg || g.AoADeg != w.AoADeg ||
			g.LengthM != w.LengthM || g.ReflLossDB != w.ReflLossDB ||
			g.BlockLossDB != w.BlockLossDB || len(g.Points) != len(w.Points) {
			t.Fatalf("%s: path %d differs:\n got %+v\nwant %+v", tag, i, g, w)
		}
		for j := range g.Points {
			if g.Points[j] != w.Points[j] {
				t.Fatalf("%s: path %d point %d %v != %v", tag, i, j, g.Points[j], w.Points[j])
			}
		}
	}
}

// TestPathCacheBitIdenticalUnderMotion drives a cached leg through the
// full mix of steady, obstacle-moving, and endpoint-moving queries and
// requires every emission to match a fresh uncached trace bit for bit.
// A second, direct-only slot rides the same motion and must match
// Tracer.DirectHInto at every step.
func TestPathCacheBitIdenticalUnderMotion(t *testing.T) {
	rm := room.NewOffice5x5()
	body := rm.AddObstacle(room.Body(geom.V(2.5, 2.5)))
	hand := rm.AddObstacle(room.Hand(geom.V(-10, -10)))
	tr := NewTracer(rm, DefaultBudget().FreqHz, 1)
	ref := NewTracer(rm, DefaultBudget().FreqHz, 1)
	c := NewPathCache(tr)

	rng := rand.New(rand.NewSource(9))
	a, b := geom.V(0.4, 0.4), geom.V(3.4, 2.4)
	var buf, refBuf, dBuf, dRefBuf []Path
	var dHits, dRevals, dMisses int
	for step := 0; step < 400; step++ {
		switch rng.Intn(6) {
		case 0:
			// Peer body drifts (possibly across the leg).
			rm.MoveObstacle(body, geom.V(rng.Float64()*5, rng.Float64()*5))
		case 1:
			// Hand toggles between parked and raised in front of the leg.
			if rng.Intn(2) == 0 {
				rm.MoveObstacle(hand, geom.V(-10, -10))
			} else {
				rm.MoveObstacle(hand, geom.V(1+rng.Float64()*3, 1+rng.Float64()*3))
			}
		case 2:
			// Receiver endpoint moves (headset walking).
			b = geom.V(0.5+rng.Float64()*4, 0.5+rng.Float64()*4)
		default:
			// Steady tick: nothing moved since the last query.
		}
		buf = c.TraceHInto(0, buf[:0], a, b, HeightAPM, HeightHeadsetM)
		refBuf = ref.TraceHInto(refBuf[:0], a, b, HeightAPM, HeightHeadsetM)
		comparePaths(t, "motion", buf, refBuf)
		before := c.Stats()
		dBuf = c.DirectHInto(1, dBuf[:0], b, a, HeightHeadsetM, HeightReflectorM)
		dRefBuf = ref.DirectHInto(dRefBuf[:0], b, a, HeightHeadsetM, HeightReflectorM)
		comparePaths(t, "motion direct-only", dBuf, dRefBuf)
		after := c.Stats()
		dHits += after.Hits - before.Hits
		dRevals += after.Revalidations - before.Revalidations
		dMisses += after.Misses - before.Misses
	}
	st := c.Stats()
	if st.Hits-dHits == 0 || st.Revalidations-dRevals == 0 || st.Misses-dMisses == 0 {
		t.Fatalf("fuzz did not exercise all tiers on the full slot: %+v, direct-only %d/%d/%d", st, dHits, dRevals, dMisses)
	}
	if dHits == 0 || dRevals == 0 || dMisses == 0 {
		t.Fatalf("fuzz did not exercise all tiers on the direct-only slot: %d/%d/%d", dHits, dRevals, dMisses)
	}
}

// TestPathCacheOrderInSlotKey pins the trace order as part of the slot
// key: one slot queried full, direct-only, full, direct-only at fixed
// geometry must answer each query at its own order — a fresh trace of
// that order — never the other order's cached set.
func TestPathCacheOrderInSlotKey(t *testing.T) {
	rm := room.NewOffice5x5()
	rm.AddObstacle(room.Body(geom.V(2.0, 1.6)))
	tr := NewTracer(rm, DefaultBudget().FreqHz, 1)
	ref := NewTracer(rm, DefaultBudget().FreqHz, 1)
	c := NewPathCache(tr)

	a, b := geom.V(0.4, 0.4), geom.V(3.4, 2.4)
	var buf, refBuf []Path
	for i, direct := range []bool{false, true, false, true} {
		misses := c.Stats().Misses
		if direct {
			buf = c.DirectHInto(0, buf[:0], a, b, HeightAPM, HeightHeadsetM)
			refBuf = ref.DirectHInto(refBuf[:0], a, b, HeightAPM, HeightHeadsetM)
		} else {
			buf = c.TraceHInto(0, buf[:0], a, b, HeightAPM, HeightHeadsetM)
			refBuf = ref.TraceHInto(refBuf[:0], a, b, HeightAPM, HeightHeadsetM)
		}
		comparePaths(t, fmt.Sprintf("query %d direct=%v", i, direct), buf, refBuf)
		if c.Stats().Misses != misses+1 {
			t.Fatalf("query %d: an order change must re-trace, stats %+v", i, c.Stats())
		}
	}
	if len(refBuf) != 1 {
		t.Fatalf("direct-only trace returned %d paths, want 1", len(refBuf))
	}
}

// TestPathCachePeerCrossesLeg pins the revalidation edge the coex rooms
// hit every tick: a peer body marching straight across a cached LoS leg
// must change the emitted blockage at every step — no stale cached paths
// — and match a fresh trace exactly, via the revalidation tier.
func TestPathCachePeerCrossesLeg(t *testing.T) {
	rm := room.NewOffice5x5()
	body := rm.AddObstacle(room.Body(geom.V(2.5, 4.5)))
	tr := NewTracer(rm, DefaultBudget().FreqHz, 1)
	ref := NewTracer(rm, DefaultBudget().FreqHz, 1)
	c := NewPathCache(tr)

	a, b := geom.V(0.4, 2.5), geom.V(4.6, 2.5)
	var buf, refBuf []Path
	// Warm the slot (miss), then trigger contribution recording (miss).
	buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.5)
	rm.MoveObstacle(body, geom.V(2.5, 4.4))
	buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.5)

	sawBlocked := false
	var lastDirect float64
	for i := 0; i <= 40; i++ {
		// March from y=4.0 down through the leg at y=2.5 and beyond.
		rm.MoveObstacle(body, geom.V(2.5, 4.0-float64(i)*0.1))
		before := c.Stats().Revalidations
		buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.5)
		if c.Stats().Revalidations != before+1 {
			t.Fatalf("step %d: expected a revalidation, stats %+v", i, c.Stats())
		}
		refBuf = ref.TraceHInto(refBuf[:0], a, b, 1.5, 1.5)
		comparePaths(t, "crossing", buf, refBuf)
		for _, p := range buf {
			if p.Kind == Direct {
				if p.BlockLossDB > 10 {
					sawBlocked = true
				}
				lastDirect = p.BlockLossDB
			}
		}
	}
	if !sawBlocked {
		t.Fatal("the crossing body never blocked the cached leg; test geometry is wrong")
	}
	if lastDirect > 1 {
		t.Fatalf("body past the leg but cached blockage stuck at %v dB", lastDirect)
	}
}

// TestPathCacheObstacleSetChangeForcesRetrace pins the remaining
// invalidation edge: adding an obstacle (a player entering the room), or
// clearing the set and re-adding fewer (fig3's rebuild), changes the
// obstacle count and must bypass the cached contributions entirely. A
// player leaving is parked outside the room, which keeps the count.
func TestPathCacheObstacleSetChangeForcesRetrace(t *testing.T) {
	rm := room.NewOffice5x5()
	tr := NewTracer(rm, DefaultBudget().FreqHz, 1)
	ref := NewTracer(rm, DefaultBudget().FreqHz, 1)
	c := NewPathCache(tr)

	a, b := geom.V(0.4, 2.5), geom.V(4.6, 2.5)
	var buf, refBuf []Path
	buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.5)
	buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.5)

	idx := rm.AddObstacle(room.Body(geom.V(2.5, 2.5))) // player enters, on the leg
	misses := c.Stats().Misses
	buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.5)
	if c.Stats().Misses != misses+1 {
		t.Fatalf("obstacle add did not force a re-trace, stats %+v", c.Stats())
	}
	refBuf = ref.TraceHInto(refBuf[:0], a, b, 1.5, 1.5)
	comparePaths(t, "enter", buf, refBuf)

	rm.MoveObstacle(idx, geom.V(-10, -10)) // player leaves
	hits := c.Stats().Hits
	buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.5)
	if c.Stats().Hits != hits {
		t.Fatalf("parking the obstacle outside was served as a hit, stats %+v", c.Stats())
	}
	refBuf = ref.TraceHInto(refBuf[:0], a, b, 1.5, 1.5)
	comparePaths(t, "leave", buf, refBuf)

	rm.AddObstacle(room.Hand(geom.V(2.0, 2.5)))
	buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.5)
	rm.ClearObstacles() // rebuild with one obstacle fewer
	rm.AddObstacle(room.Body(geom.V(2.5, 2.5)))
	misses = c.Stats().Misses
	buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.5)
	if c.Stats().Misses != misses+1 {
		t.Fatalf("clearing and re-adding fewer did not force a re-trace, stats %+v", c.Stats())
	}
	refBuf = ref.TraceHInto(refBuf[:0], a, b, 1.5, 1.5)
	comparePaths(t, "rebuild", buf, refBuf)
}

// TestPathCacheZeroAllocs guards the steady-state budget of all three
// warm tiers: full hits, moved-obstacle revalidations, and full
// re-traces of a moving endpoint must not allocate once the slot and the
// destination buffer have warmed up.
func TestPathCacheZeroAllocs(t *testing.T) {
	rm := room.NewOffice5x5()
	body := rm.AddObstacle(room.Body(geom.V(2.5, 2.0)))
	tr := NewTracer(rm, DefaultBudget().FreqHz, 1)
	c := NewPathCache(tr)

	a, b := geom.V(0.4, 0.4), geom.V(3.4, 2.4)
	var buf []Path
	// Warm: slot fill, contribution recording, dst growth.
	for i := 0; i < 3; i++ {
		rm.MoveObstacle(body, geom.V(2.5, 2.0+float64(i)*0.01))
		buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.7)
	}

	allocs := testing.AllocsPerRun(200, func() {
		buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.7) // hit
	})
	if allocs != 0 {
		t.Fatalf("warm hit allocates %.1f objects/op, want 0", allocs)
	}

	i := 0
	allocs = testing.AllocsPerRun(200, func() {
		i++
		rm.MoveObstacle(body, geom.V(2.5, 2.0+float64(i%7)*0.05))
		buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.7) // revalidation
	})
	if allocs != 0 {
		t.Fatalf("warm revalidation allocates %.1f objects/op, want 0", allocs)
	}

	// Moving endpoint: full re-trace tier, same buffers.
	allocs = testing.AllocsPerRun(200, func() {
		i++
		bb := geom.V(3.4, 2.4+float64(i%5)*0.01)
		buf = c.TraceHInto(0, buf[:0], a, bb, 1.5, 1.7)
	})
	if allocs != 0 {
		t.Fatalf("warm re-trace allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPathCacheEpochSubsetMove pins the epoch-driven revalidation the
// bay-batched tick relies on: when only a subset of a room's obstacles
// move in a tick, the cache must revalidate exactly the moved ones
// (taking the revalidation tier, not a full re-trace), a parked obstacle
// "moved" to its current position must not defeat the full-hit tier, and
// clearing the set and re-adding the same obstacles (fig3's rebuild)
// revalidates rather than re-traces.
func TestPathCacheEpochSubsetMove(t *testing.T) {
	rm := room.NewOffice5x5()
	bodyA := rm.AddObstacle(room.Body(geom.V(1.5, 3.5)))
	bodyB := rm.AddObstacle(room.Body(geom.V(3.5, 3.5)))
	hand := rm.AddObstacle(room.Hand(geom.V(-10, -10)))
	tr := NewTracer(rm, DefaultBudget().FreqHz, 1)
	ref := NewTracer(rm, DefaultBudget().FreqHz, 1)
	c := NewPathCache(tr)

	a, b := geom.V(0.4, 2.5), geom.V(4.6, 2.5)
	var buf, refBuf []Path
	query := func(tag string) {
		t.Helper()
		buf = c.TraceHInto(0, buf[:0], a, b, 1.5, 1.5)
		refBuf = ref.TraceHInto(refBuf[:0], a, b, 1.5, 1.5)
		comparePaths(t, tag, buf, refBuf)
	}

	// Warm the slot, then trigger contribution recording.
	query("warm")
	rm.MoveObstacle(bodyA, geom.V(1.5, 3.4))
	query("record")

	// Tick where only bodyA of the three obstacles moves.
	rm.MoveObstacle(bodyA, geom.V(1.5, 2.6))
	rm.MoveObstacle(bodyB, geom.V(3.5, 3.5)) // parked: same position
	rm.MoveObstacle(hand, geom.V(-10, -10))  // parked: same position
	before := c.Stats()
	query("subset-move")
	after := c.Stats()
	if after.Revalidations != before.Revalidations+1 || after.Misses != before.Misses {
		t.Fatalf("subset move should revalidate: before %+v after %+v", before, after)
	}

	// Tick where every "move" is to the current position: full hit.
	rm.MoveObstacle(bodyA, geom.V(1.5, 2.6))
	rm.MoveObstacle(bodyB, geom.V(3.5, 3.5))
	rm.MoveObstacle(hand, geom.V(-10, -10))
	before = c.Stats()
	query("parked")
	after = c.Stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("parked tick should be a full hit: before %+v after %+v", before, after)
	}

	// Rebuild at the same count: every obstacle is stamped anew, so the
	// query revalidates them all from the recorded contributions.
	kept := append([]room.Obstacle(nil), rm.Obstacles()...)
	rm.ClearObstacles()
	for _, o := range kept {
		rm.AddObstacle(o)
	}
	before = c.Stats()
	query("rebuild")
	after = c.Stats()
	if after.Revalidations != before.Revalidations+1 || after.Misses != before.Misses {
		t.Fatalf("same-count rebuild should revalidate: before %+v after %+v", before, after)
	}
}
