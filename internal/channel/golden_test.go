package channel

// Golden determinism tests: the allocation-free tracer (precomputed wall
// transforms + TraceHInto scratch reuse) must produce paths
// BIT-identical to the pre-refactor implementation. referenceTraceH below
// is a frozen verbatim copy of that implementation (it recomputes every
// mirror image and allocates fresh slices per call); TestTraceGolden
// drives both over seeded rooms, obstacles, endpoints, heights, carriers
// and reflection orders and compares every float via math.Float64bits.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/units"
)

// --- frozen pre-refactor implementation ---

func referenceTraceH(t *Tracer, tx, rx geom.Vec, hTx, hRx float64) []Path {
	paths := []Path{referenceDirect(t, tx, rx, hTx, hRx)}
	if t.maxBounces >= 1 {
		paths = append(paths, referenceSingleBounce(t, tx, rx, hTx, hRx)...)
	}
	for i := 1; i < len(paths); i++ {
		for j := i; j > 0 && paths[j].PropagationLossDB(t.freqHz) < paths[j-1].PropagationLossDB(t.freqHz); j-- {
			paths[j], paths[j-1] = paths[j-1], paths[j]
		}
	}
	return paths
}

func referenceDirect(t *Tracer, tx, rx geom.Vec, hTx, hRx float64) Path {
	return Path{
		Kind:        Direct,
		Points:      []geom.Vec{tx, rx},
		Bounces:     0,
		AoDDeg:      units.NormalizeDeg(geom.DirectionDeg(tx, rx)),
		AoADeg:      units.NormalizeDeg(geom.DirectionDeg(rx, tx)),
		LengthM:     tx.Dist(rx),
		BlockLossDB: referenceLegBlockageDB(t, tx, rx, hTx, hRx),
	}
}

func referenceSingleBounce(t *Tracer, tx, rx geom.Vec, hTx, hRx float64) []Path {
	var paths []Path
	for _, w := range t.room.Walls() {
		hit, ok := geom.SpecularPoint(tx, rx, w.Seg)
		if !ok {
			continue
		}
		l1 := tx.Dist(hit)
		total := l1 + hit.Dist(rx)
		hHit := hTx + (hRx-hTx)*l1/total
		p := Path{
			Kind:        Reflected,
			Points:      []geom.Vec{tx, hit, rx},
			Bounces:     1,
			AoDDeg:      units.NormalizeDeg(geom.DirectionDeg(tx, hit)),
			AoADeg:      units.NormalizeDeg(geom.DirectionDeg(rx, hit)),
			LengthM:     total,
			ReflLossDB:  w.Mat.ReflLossDB,
			BlockLossDB: referenceLegBlockageDB(t, tx, hit, hTx, hHit) + referenceLegBlockageDB(t, hit, rx, hHit, hRx),
		}
		paths = append(paths, p)
	}
	return paths
}

func referenceLegBlockageDB(t *Tracer, a, b geom.Vec, hA, hB float64) float64 {
	lambda := units.Wavelength(t.freqHz)
	seg := geom.Seg(a, b)
	total := 0.0
	for _, o := range t.room.Obstacles() {
		total += obstacleLossDB(seg, o, lambda, hA, hB)
	}
	return total
}

// --- golden comparison ---

// goldenRoom builds one seeded room: the stock office, the living room,
// or a random rectangle with extra interior walls, plus random obstacles.
func goldenRoom(rng *rand.Rand) *room.Room {
	var rm *room.Room
	switch rng.Intn(3) {
	case 0:
		rm = room.NewOffice5x5()
	case 1:
		rm = room.NewLivingRoom()
	default:
		w := 3 + rng.Float64()*5
		d := 3 + rng.Float64()*5
		var interior []room.Wall
		for i := rng.Intn(3); i > 0; i-- {
			a := geom.V(rng.Float64()*w, rng.Float64()*d)
			b := geom.V(rng.Float64()*w, rng.Float64()*d)
			interior = append(interior, room.Wall{Seg: geom.Seg(a, b), Mat: room.Metal})
		}
		var err error
		rm, err = room.New(w, d, room.Concrete, interior...)
		if err != nil {
			panic(err)
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		p := geom.V(rng.Float64()*rm.WidthM, rng.Float64()*rm.DepthM)
		switch rng.Intn(3) {
		case 0:
			rm.AddObstacle(room.Hand(p))
		case 1:
			rm.AddObstacle(room.Body(p))
		default:
			rm.AddObstacle(room.Furniture(p, 0.15+rng.Float64()*0.3))
		}
	}
	return rm
}

func pathsBitIdentical(t *testing.T, label string, got, want []Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: path count = %d, want %d", label, len(got), len(want))
	}
	f64 := func(name string, g, w float64, i int) {
		t.Helper()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: path %d %s = %v (bits %x), want %v (bits %x)",
				label, i, name, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Bounces != w.Bounces {
			t.Errorf("%s: path %d kind/bounces = %v/%d, want %v/%d",
				label, i, g.Kind, g.Bounces, w.Kind, w.Bounces)
		}
		if len(g.Points) != len(w.Points) {
			t.Fatalf("%s: path %d point count = %d, want %d", label, i, len(g.Points), len(w.Points))
		}
		for k := range w.Points {
			f64(fmt.Sprintf("Points[%d].X", k), g.Points[k].X, w.Points[k].X, i)
			f64(fmt.Sprintf("Points[%d].Y", k), g.Points[k].Y, w.Points[k].Y, i)
		}
		f64("AoDDeg", g.AoDDeg, w.AoDDeg, i)
		f64("AoADeg", g.AoADeg, w.AoADeg, i)
		f64("LengthM", g.LengthM, w.LengthM, i)
		f64("ReflLossDB", g.ReflLossDB, w.ReflLossDB, i)
		f64("BlockLossDB", g.BlockLossDB, w.BlockLossDB, i)
	}
}

// TestTraceGolden drives the refactored tracer and the frozen reference
// over seeded configurations and demands bit-identical paths from both
// the allocating wrappers and the scratch-buffer entry points. The same
// scratch buffer is reused across every case, so slot/Points reuse bugs
// cannot hide.
func TestTraceGolden(t *testing.T) {
	freqs := []float64{units.ISM24GHz, units.Band60GHz}
	var buf []Path
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rm := goldenRoom(rng)
		freq := freqs[rng.Intn(len(freqs))]
		bounces := rng.Intn(2)
		tr := NewTracer(rm, freq, bounces)
		for c := 0; c < 8; c++ {
			tx := geom.V(rng.Float64()*rm.WidthM, rng.Float64()*rm.DepthM)
			rx := geom.V(rng.Float64()*rm.WidthM, rng.Float64()*rm.DepthM)
			hTx := 1 + rng.Float64()
			hRx := 1 + rng.Float64()
			label := fmt.Sprintf("seed=%d case=%d bounces=%d", seed, c, bounces)

			want := referenceTraceH(tr, tx, rx, hTx, hRx)
			pathsBitIdentical(t, label+" TraceHInto(nil)", tr.TraceHInto(nil, tx, rx, hTx, hRx), want)
			buf = tr.TraceHInto(buf[:0], tx, rx, hTx, hRx)
			pathsBitIdentical(t, label+" TraceHInto", buf, want)
		}
	}
}

// TestTracerConcurrentReaders pins the Tracer's concurrency contract: a
// trace writes no tracer state, so goroutines sharing one tracer, each
// with its own buffer, trace exactly what a lone trace does (run under
// -race to check the "writes nothing" half).
func TestTracerConcurrentReaders(t *testing.T) {
	rm := room.NewOffice5x5()
	rm.AddObstacle(room.Body(geom.V(2.5, 2.5)))
	tr := NewTracer(rm, units.ISM24GHz, 1)
	tx, rx := geom.V(0.5, 0.5), geom.V(4.2, 3.7)
	want := tr.Trace(tx, rx)
	got := make([][]Path, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got[g] = tr.TraceHInto(got[g][:0], tx, rx, DefaultEndpointHeightM, DefaultEndpointHeightM)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		pathsBitIdentical(t, fmt.Sprintf("goroutine %d", g), got[g], want)
	}
}

// TestTraceIntoZeroAllocs is the tentpole guard: once the scratch buffer
// has warmed up, a steady-state trace performs zero heap allocations.
func TestTraceIntoZeroAllocs(t *testing.T) {
	rm := room.NewOffice5x5()
	rm.AddObstacle(room.Hand(geom.V(2.2, 2.0)))
	rm.AddObstacle(room.Body(geom.V(3.1, 3.4)))
	tr := NewTracer(rm, units.ISM24GHz, 1)
	tx, rx := geom.V(0.5, 0.5), geom.V(4.2, 3.7)
	var buf []Path
	// Warm-up: grows the slice and every Points backing array.
	buf = tr.TraceHInto(buf[:0], tx, rx, HeightAPM, HeightHeadsetM)
	if len(buf) < 3 {
		t.Fatalf("warm-up traced %d paths, want several", len(buf))
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = tr.TraceHInto(buf[:0], tx, rx, HeightAPM, HeightHeadsetM)
	})
	if allocs != 0 {
		t.Fatalf("steady-state TraceHInto allocates %.1f objects/op, want 0", allocs)
	}
}
