package channel

import (
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/units"
)

// PathCache adds temporal coherence to a Tracer: headsets move
// centimetres per tick and most legs of the traced scene do not change at
// all between queries, so the cache keeps the last traced path set per
// slot and revalidates it against the geometry instead of re-tracing
// from scratch.
//
// A slot is one logical leg the caller traces repeatedly (the AP→headset
// path set, an AP→reflector feed, a reflector→headset hop). TraceHInto
// traces a slot to the tracer's reflection order; DirectHInto traces it to
// order 0, the direct path alone, for legs whose callers read nothing
// else. The order is part of the slot key, so a slot queried at a new
// order is re-traced. Each query is answered in one of three tiers:
//
//   - full hit: endpoints, heights, trace order and every obstacle are
//     unchanged (detected via the room's obstacle-mutation epoch: one
//     integer compare when nothing moved) — the cached path set is
//     emitted as-is;
//   - revalidation: only obstacles changed (their per-obstacle epoch
//     stamps postdate the slot's snapshot) — the cached path geometry
//     (bounce points, lengths, angles, reflection losses) is still exact,
//     so only the moved obstacles' per-leg knife-edge contributions are
//     recomputed and the blockage sums rebuilt;
//   - full re-trace: an endpoint, height, the trace order, or the
//     obstacle count changed — the cached set is discarded and the
//     tracer runs from scratch.
//
// The tracer's room walls and carrier are fixed at construction, so they
// are not part of the key.
//
// Emissions are bit-identical to Tracer.TraceHInto (Tracer.DirectHInto
// for direct-only queries). The cache stores paths in generation order
// and re-runs the tracer's stable loss sort on every emission, composing
// each path's total loss from cached spreading and absorption terms in
// the exact operation order of Path.PropagationLossDB; revalidated
// blockage sums are rebuilt left-associatively in room-obstacle order,
// exactly as legBlockageDB accumulates them. The golden tests in
// pathcache_test.go enforce equality against fresh traces across moving
// geometry.
//
// Like the Tracer scratch buffers it wraps, a PathCache is single-owner
// scratch: it must not be shared between goroutines. Steady-state
// queries of every tier are allocation-free once a slot has warmed up.
type PathCache struct {
	t      *Tracer
	slots  []pathSlot
	genBuf []Path
	stats  PathCacheStats
}

// PathCacheStats counts how queries were answered, for tests and
// diagnostics.
type PathCacheStats struct {
	// Hits are full cache hits (nothing changed).
	Hits int

	// Revalidations are queries answered by recomputing only the moved
	// obstacles' blockage contributions.
	Revalidations int

	// Misses are full re-traces (first use, moved endpoint, obstacle-set
	// change, or a not-yet-recorded slot).
	Misses int
}

// legGeom is one straight leg of a cached path: its endpoints and the
// interpolated ray heights, the inputs obstacle blockage depends on.
type legGeom struct {
	a, b   geom.Vec
	hA, hB float64
}

// cachedPath is one path recorded in generation order, with the loss
// decomposition needed to revalidate blockage and re-sort without
// re-tracing.
type cachedPath struct {
	kind           PathKind
	bounces        int
	aodDeg, aoaDeg float64
	lengthM        float64
	reflLossDB     float64
	blockLossDB    float64
	fsplDB         float64
	atmosDB        float64
	npts           int
	pts            [3]geom.Vec
	nlegs          int
	legs           [2]legGeom
	contribOff     int
}

// pathSlot is the cached state of one logical leg.
type pathSlot struct {
	valid bool

	// Key: the endpoints, their heights and the reflection order traced
	// (0 for direct-only).
	tx, rx   geom.Vec
	hTx, hRx float64
	order    int

	// Obstacle count the cached contributions were computed against, and
	// the room mutation epoch they were taken at. Change detection is
	// epoch-driven: the room stamps each obstacle with the epoch of its
	// last mutation, so "what moved since this snapshot?" is an integer
	// compare per obstacle — and a single compare when nothing in the
	// room moved at all — instead of a struct compare per obstacle per
	// query.
	nObs    int
	epoch   uint64
	changed []bool

	// Paths in generation order, plus the flat per-(path, leg, obstacle)
	// blockage contribution table (leg-major within a path) recorded
	// once the leg proves temporally stable.
	paths      []cachedPath
	hasContrib bool
	contrib    []float64
}

// NewPathCache returns a cache over the tracer. Slots are created on
// first use; slot indices are small dense integers chosen by the caller.
func NewPathCache(t *Tracer) *PathCache {
	return &PathCache{t: t}
}

// Stats returns the query-tier counters.
func (c *PathCache) Stats() PathCacheStats { return c.stats }

// TraceHInto answers a trace query through the cache, with the exact
// semantics (and bit-identical results) of Tracer.TraceHInto: traced
// paths are appended to dst reusing its capacity, sorted ascending by
// total propagation loss, and alias dst until the next trace into it.
func (c *PathCache) TraceHInto(slot int, dst []Path, tx, rx geom.Vec, hTx, hRx float64) []Path {
	return c.query(slot, dst, tx, rx, hTx, hRx, c.t.maxBounces)
}

// DirectHInto answers a direct-only query through the cache, with the
// semantics (and bit-identical result) of Tracer.DirectHInto: the one
// direct path is appended to dst and aliases it until the next trace.
func (c *PathCache) DirectHInto(slot int, dst []Path, tx, rx geom.Vec, hTx, hRx float64) []Path {
	return c.query(slot, dst, tx, rx, hTx, hRx, 0)
}

// query serves one slot at the given reflection order through the hit,
// revalidation, and re-trace tiers.
func (c *PathCache) query(slot int, dst []Path, tx, rx geom.Vec, hTx, hRx float64, order int) []Path {
	for slot >= len(c.slots) {
		c.slots = append(c.slots, pathSlot{})
	}
	s := &c.slots[slot]
	rm := c.t.room
	obs := rm.Obstacles()
	keyOK := s.valid && s.tx == tx && s.rx == rx && s.hTx == hTx && s.hRx == hRx &&
		s.order == order && s.nObs == len(obs)
	if !keyOK {
		c.stats.Misses++
		return c.fullTrace(s, dst, tx, rx, hTx, hRx, order, false)
	}
	roomEpoch := rm.Epoch()
	if roomEpoch == s.epoch {
		c.stats.Hits++
		return c.emit(s, dst)
	}
	// Something in the room mutated since the snapshot; obstacle i is
	// affected iff its own stamp postdates the snapshot. At an unchanged
	// obstacle count a mutation moved or re-added at least one obstacle,
	// so some stamp does (ClearObstacles on an empty room aside, where
	// revalidating emits the same paths).
	obsEpochs := rm.ObstacleEpochs()
	for i := range obs {
		s.changed[i] = obsEpochs[i] > s.epoch
	}
	if !s.hasContrib {
		// The leg's endpoints repeated while its obstacles moved: it is
		// temporally stable, so this full re-trace also records the
		// per-obstacle contribution table that lets the next moved-
		// obstacle query revalidate instead.
		c.stats.Misses++
		return c.fullTrace(s, dst, tx, rx, hTx, hRx, order, true)
	}
	c.stats.Revalidations++
	c.revalidate(s, obs)
	s.epoch = roomEpoch
	return c.emit(s, dst)
}

// fullTrace runs the tracer from scratch to the given order, refreshes
// the slot's key, snapshot, and path records (optionally with the
// blockage contribution table), and emits the result.
func (c *PathCache) fullTrace(s *pathSlot, dst []Path, tx, rx geom.Vec, hTx, hRx float64, order int, record bool) []Path {
	t := c.t
	c.genBuf = t.traceGen(c.genBuf[:0], tx, rx, hTx, hRx, order)
	gen := c.genBuf

	obs := t.room.Obstacles()
	s.valid = true
	s.tx, s.rx, s.hTx, s.hRx = tx, rx, hTx, hRx
	s.order = order
	s.nObs = len(obs)
	s.epoch = t.room.Epoch()
	if cap(s.changed) < len(obs) {
		s.changed = make([]bool, len(obs))
	}
	s.changed = s.changed[:len(obs)]

	if cap(s.paths) < len(gen) {
		s.paths = make([]cachedPath, len(gen))
	}
	s.paths = s.paths[:len(gen)]
	s.contrib = s.contrib[:0]
	s.hasContrib = false
	freq := t.freqHz
	for i := range gen {
		p := &gen[i]
		cp := &s.paths[i]
		*cp = cachedPath{
			kind:        p.Kind,
			bounces:     p.Bounces,
			aodDeg:      p.AoDDeg,
			aoaDeg:      p.AoADeg,
			lengthM:     p.LengthM,
			reflLossDB:  p.ReflLossDB,
			blockLossDB: p.BlockLossDB,
			fsplDB:      units.FSPL(p.LengthM, freq),
			atmosDB:     AtmosphericLossDB(p.LengthM, freq),
			npts:        len(p.Points),
		}
		copy(cp.pts[:], p.Points)
		cp.legs, cp.nlegs = pathLegs(p, hTx, hRx)
	}

	if record {
		c.recordContribs(s, obs)
	}
	return c.emit(s, dst)
}

// recordContribs fills the per-(path, leg, obstacle) contribution table
// and verifies it recomposes each path's recorded blockage exactly; a
// mismatch (which would indicate the leg derivation drifted from the
// tracer) leaves the slot permanently on the full-trace path rather than
// ever emitting a divergent revalidation.
func (c *PathCache) recordContribs(s *pathSlot, obs []room.Obstacle) {
	lambda := c.t.lambda
	nObs := len(obs)
	s.contrib = s.contrib[:0]
	for pi := range s.paths {
		cp := &s.paths[pi]
		cp.contribOff = len(s.contrib)
		var block float64
		for li := 0; li < cp.nlegs; li++ {
			lg := &cp.legs[li]
			seg := geom.Seg(lg.a, lg.b)
			legSum := 0.0
			for oi := 0; oi < nObs; oi++ {
				v := obstacleLossDB(seg, obs[oi], lambda, lg.hA, lg.hB)
				s.contrib = append(s.contrib, v)
				legSum += v
			}
			if li == 0 {
				block = legSum
			} else {
				block += legSum
			}
		}
		if block != cp.blockLossDB {
			s.contrib = s.contrib[:0]
			s.hasContrib = false
			return
		}
	}
	s.hasContrib = true
}

// revalidate recomputes the contributions of the changed obstacles only
// and rebuilds each path's blockage sum left-associatively in
// room-obstacle order, exactly as legBlockageDB accumulates a fresh
// trace.
func (c *PathCache) revalidate(s *pathSlot, obs []room.Obstacle) {
	lambda := c.t.lambda
	nObs := len(obs)
	for pi := range s.paths {
		cp := &s.paths[pi]
		var block float64
		for li := 0; li < cp.nlegs; li++ {
			lg := &cp.legs[li]
			seg := geom.Seg(lg.a, lg.b)
			row := s.contrib[cp.contribOff+li*nObs : cp.contribOff+(li+1)*nObs]
			legSum := 0.0
			for oi := 0; oi < nObs; oi++ {
				if s.changed[oi] {
					row[oi] = obstacleLossDB(seg, obs[oi], lambda, lg.hA, lg.hB)
				}
				legSum += row[oi]
			}
			if li == 0 {
				block = legSum
			} else {
				block += legSum
			}
		}
		cp.blockLossDB = block
	}
}

// emit appends the slot's paths to dst in generation order and applies
// the tracer's stable loss sort using the cached loss decomposition.
func (c *PathCache) emit(s *pathSlot, dst []Path) []Path {
	base := len(dst)
	for pi := range s.paths {
		cp := &s.paths[pi]
		dst = extendPaths(dst)
		p := &dst[len(dst)-1]
		pts := append(p.Points[:0], cp.pts[:cp.npts]...)
		*p = Path{
			Kind:        cp.kind,
			Points:      pts,
			Bounces:     cp.bounces,
			AoDDeg:      cp.aodDeg,
			AoADeg:      cp.aoaDeg,
			LengthM:     cp.lengthM,
			ReflLossDB:  cp.reflLossDB,
			BlockLossDB: cp.blockLossDB,
		}
	}
	c.sortEmitted(s, dst[base:])
	return dst
}

// sortEmitted mirrors Tracer.sortByLoss, composing each path's total
// loss from the cached spreading/absorption terms in the exact operation
// order of Path.PropagationLossDB.
func (c *PathCache) sortEmitted(s *pathSlot, paths []Path) {
	var lossArr [128]float64
	var loss []float64
	if len(paths) <= len(lossArr) {
		loss = lossArr[:len(paths)]
	} else {
		loss = make([]float64, len(paths))
	}
	for i := range paths {
		cp := &s.paths[i]
		loss[i] = cp.fsplDB + cp.atmosDB + cp.reflLossDB + cp.blockLossDB
	}
	for i := 1; i < len(paths); i++ {
		for j := i; j > 0 && loss[j] < loss[j-1]; j-- {
			paths[j], paths[j-1] = paths[j-1], paths[j]
			loss[j], loss[j-1] = loss[j-1], loss[j]
		}
	}
}

// pathLegs derives a path's straight legs — endpoints plus interpolated
// ray heights — from its points, using the identical expressions the
// tracer's builders evaluate (l1 = tx.Dist(hit), hHit = hTx +
// (hRx−hTx)·l1/total with total the recorded LengthM), so the recomputed
// heights are bitwise the ones the original blockage was computed with.
func pathLegs(p *Path, hTx, hRx float64) (legs [2]legGeom, n int) {
	if p.Bounces == 0 {
		legs[0] = legGeom{a: p.Points[0], b: p.Points[1], hA: hTx, hB: hRx}
		return legs, 1
	}
	tx, hit, rx := p.Points[0], p.Points[1], p.Points[2]
	l1 := tx.Dist(hit)
	hHit := hTx + (hRx-hTx)*l1/p.LengthM
	legs[0] = legGeom{a: tx, b: hit, hA: hTx, hB: hHit}
	legs[1] = legGeom{a: hit, b: rx, hA: hHit, hB: hRx}
	return legs, 2
}
