// Package channel implements the mmWave propagation model: a ray tracer
// over the room geometry (direct path plus first-order specular wall
// reflections via the image method), knife-edge diffraction losses for
// obstacles, and the link-budget arithmetic that converts a traced path
// into received power and SNR.
//
// The model captures the three facts the paper's measurements hinge on
// (§3): a clear line-of-sight mmWave link has ample SNR; blocking it with
// a hand/head/body costs 14-30 dB; and falling back to wall reflections
// costs ~16 dB because "walls are not perfect reflectors" and reflected
// paths are longer.
//
// # Hot-path API
//
// Tracing runs on every simulation timestep of every session, so the
// tracer is built for allocation-free steady state: NewTracer precomputes
// the per-wall mirror-image transforms and material losses once, and the
// TraceHInto entry point writes into a caller-retained []Path scratch
// buffer, reusing both the slice and the per-path Points backing arrays
// on every call. Trace remains as a thin allocating wrapper for callers
// that do not keep a buffer. Both produce bit-identical Path
// values (the golden tests in golden_test.go enforce this against a
// frozen reference implementation).
//
// Callers that read only the line-of-sight path — each hop of a
// reflector relay, the alignment sweep's AP↔reflector leg — use
// DirectHInto instead: it runs the direct builder alone, skipping every
// wall bounce, the bounce legs' blockage, and the loss sort, and returns
// the same Path bit for bit as the Kind == Direct entry of a full trace.
//
// # Temporal coherence
//
// Simulation steps move endpoints and obstacles millimetres at a time,
// so last tick's path set is almost always structurally valid.
// PathCache exploits that: callers give each recurring trace (a link
// leg) a stable slot, and every query is served from one of three
// tiers — a hit when nothing relevant moved, a revalidation when only
// obstacles moved (each cached path's per-obstacle blockage legs are
// re-checked and re-summed in room-obstacle order), or a full re-trace
// when endpoints or the obstacle set changed. The revalidation tier
// recomputes exactly the float expressions a fresh trace would, in the
// same order, so all three tiers return bit-identical paths (pinned by
// a 400-step motion fuzz in pathcache_test.go) and all three run
// allocation-free in steady state.
package channel

import (
	"math"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/units"
)

// PathKind distinguishes direct from wall-reflected rays.
type PathKind int

const (
	// Direct is the straight-line path.
	Direct PathKind = iota
	// Reflected is a single-bounce specular wall-reflection path.
	Reflected
)

// Path is one propagation ray from a transmitter to a receiver.
type Path struct {
	// Kind is Direct or Reflected.
	Kind PathKind

	// Points traces the ray: transmitter, bounce points (if any),
	// receiver. For paths produced by TraceHInto the backing array
	// belongs to the scratch buffer and is overwritten by the next
	// trace into the same buffer.
	Points []geom.Vec

	// Bounces is the number of wall reflections (0 for direct).
	Bounces int

	// AoDDeg is the angle of departure at the transmitter (world deg).
	AoDDeg float64

	// AoADeg is the angle of arrival at the receiver, i.e. the direction
	// the receiver must point its beam (world deg).
	AoADeg float64

	// LengthM is the total unfolded path length.
	LengthM float64

	// ReflLossDB is the total specular reflection loss over all bounces.
	ReflLossDB float64

	// BlockLossDB is the total obstacle diffraction/shadowing loss over
	// all legs.
	BlockLossDB float64
}

// PropagationLossDB returns the path's total propagation loss at the given
// carrier frequency: free-space spreading over the unfolded length plus
// atmospheric absorption, reflection, and blockage losses.
func (p Path) PropagationLossDB(freqHz float64) float64 {
	return units.FSPL(p.LengthM, freqHz) + AtmosphericLossDB(p.LengthM, freqHz) +
		p.ReflLossDB + p.BlockLossDB
}

// AtmosphericLossDB returns gaseous absorption over a path. It matters
// only near the 60 GHz oxygen resonance (~15 dB/km), where 802.11ad
// operates; at 24 GHz it is negligible (~0.1 dB/km). Indoor distances
// make both small, but the model keeps the physics honest when
// experiments switch carriers.
func AtmosphericLossDB(distanceM, freqHz float64) float64 {
	var dBPerKm float64
	switch {
	case freqHz >= 57e9 && freqHz <= 64e9:
		dBPerKm = 15 // oxygen absorption band
	case freqHz >= 20e9:
		dBPerKm = 0.1
	default:
		dBPerKm = 0.01
	}
	return dBPerKm * distanceM / 1000
}

// TransmissionLossDB returns the through-wall penetration loss of a
// partition built from mat at mmWave — the per-wall attenuation a
// signal leaking into an adjacent bay pays, complementing the
// per-bounce reflection loss (Material.ReflLossDB) the tracer charges
// inside a room. The two are calibrated together: a strong specular
// reflector (metal, low ReflLossDB) passes almost nothing through,
// while a lossy reflector like drywall is also the most transparent —
// consistent with published 60 GHz penetration measurements (drywall
// ≈6–10 dB, glass a few dB, concrete and metal effectively opaque).
func TransmissionLossDB(mat room.Material) float64 {
	switch mat.Name {
	case "drywall":
		return 8
	case "glass":
		return 4
	case "wood", "whiteboard":
		return 7
	case "concrete":
		return 30
	case "metal":
		return 40
	}
	// Unknown materials: anti-correlate with the reflection loss so the
	// pair stays physically coherent (better reflectors transmit less).
	return 2 + 2*(16-mat.ReflLossDB)
}

// Standard mounting heights in the testbed. The floor plan is 2-D, but
// blockage is computed in 2.5-D: a ray between elevated endpoints can
// pass over a person's head, which is what lets the wall-mounted
// reflector keep a clear view of the AP while players mill about below.
const (
	// HeightAPM is the AP's mount height (tripod next to the PC).
	HeightAPM = 1.5

	// HeightReflectorM is the reflector's wall-mount height.
	HeightReflectorM = 2.3

	// HeightHeadsetM is the headset height on a standing player.
	HeightHeadsetM = 1.7

	// DefaultEndpointHeightM is used when callers do not specify.
	DefaultEndpointHeightM = HeightHeadsetM
)

// wallGeom is the per-wall precompute: the segment, the mirror-image
// transform terms (direction and squared length), the unit normal, and
// the material loss — everything the image method re-derived from scratch
// on every trace before this cache existed. The arithmetic downstream
// uses these cached values in exactly the operation order of
// geom.MirrorPoint / geom.SpecularPoint, so traced paths stay
// bit-identical.
type wallGeom struct {
	seg        geom.Segment
	d          geom.Vec // seg.B − seg.A
	len2       float64  // d·d (0 for a degenerate wall)
	n          geom.Vec // unit normal (zero vector for a degenerate wall)
	reflLossDB float64
}

// mirror returns p reflected across the wall's infinite line — the image
// source of the image method — using the precomputed transform.
func (w *wallGeom) mirror(p geom.Vec) geom.Vec {
	if w.len2 == 0 {
		return p
	}
	t := p.Sub(w.seg.A).Dot(w.d) / w.len2
	foot := w.seg.A.Add(w.d.Scale(t))
	return foot.Add(foot.Sub(p))
}

// specular computes the point on the wall at which a ray from tx reflects
// specularly to reach rx, exactly as geom.SpecularPoint but with the
// wall's normal and mirror transform precomputed.
func (w *wallGeom) specular(tx, rx geom.Vec) (geom.Vec, bool) {
	dTx := tx.Sub(w.seg.A).Dot(w.n)
	dRx := rx.Sub(w.seg.A).Dot(w.n)
	// Both endpoints must be strictly on the same side of the wall for a
	// physical reflection off the wall's face.
	if dTx*dRx <= 1e-15 {
		return geom.Vec{}, false
	}
	img := w.mirror(tx)
	hit, ok := w.seg.Intersect(geom.Seg(img, rx))
	if !ok {
		return geom.Vec{}, false
	}
	return hit, true
}

// Tracer finds propagation paths between points in a room.
//
// The room, carrier and reflection order are fixed by NewTracer, and a
// room's walls by its constructor, so a Tracer holds no state a trace
// writes: it is safe for concurrent readers. Obstacles are the one part
// of the traced world that moves; each trace reads them from the room.
type Tracer struct {
	room *room.Room

	// freqHz is the carrier frequency and lambda its wavelength (used by
	// diffraction math).
	freqHz float64
	lambda float64

	// maxBounces is the reflection order: 0 = direct only, 1 = direct +
	// single bounce.
	maxBounces int

	// walls holds the per-wall precompute, in room wall order.
	walls []wallGeom
}

// NewTracer returns a Tracer for the room at the given carrier with the
// given maximum reflection order (clamped to [0, 1]). The per-wall
// mirror-image transforms and material losses are precomputed here.
func NewTracer(rm *room.Room, freqHz float64, maxBounces int) *Tracer {
	ws := rm.Walls()
	t := &Tracer{
		room:       rm,
		freqHz:     freqHz,
		lambda:     units.Wavelength(freqHz),
		maxBounces: min(max(maxBounces, 0), 1),
		walls:      make([]wallGeom, len(ws)),
	}
	for i, w := range ws {
		d := w.Seg.B.Sub(w.Seg.A)
		t.walls[i] = wallGeom{
			seg:        w.Seg,
			d:          d,
			len2:       d.Dot(d),
			n:          w.Seg.Normal(),
			reflLossDB: w.Mat.ReflLossDB,
		}
	}
	return t
}

// Trace returns all propagation paths from tx to rx at the default
// (headset) endpoint heights, up to the configured reflection order:
// always the direct path (with whatever blockage loss it suffers), plus
// valid specular reflections. Paths are returned in ascending order of
// total propagation loss.
//
// Trace allocates a fresh slice per call; steady-state loops should hold
// a scratch buffer and call TraceHInto instead.
func (t *Tracer) Trace(tx, rx geom.Vec) []Path {
	return t.TraceHInto(nil, tx, rx, DefaultEndpointHeightM, DefaultEndpointHeightM)
}

// TraceHInto appends the traced paths to dst and returns the extended
// slice, reusing dst's capacity — including the Points backing array of
// every Path already within that capacity. The idiom is
//
//	buf = tracer.TraceHInto(buf[:0], tx, rx, hTx, hRx)
//
// which performs zero heap allocations once buf has warmed up. The
// returned paths (and their Points) alias the buffer: they are valid
// until the next trace into it, so callers that retain a Path across
// traces must copy the Points they need. Paths appended by one call are
// sorted ascending by total propagation loss among themselves.
func (t *Tracer) TraceHInto(dst []Path, tx, rx geom.Vec, hTx, hRx float64) []Path {
	base := len(dst)
	dst = t.traceGen(dst, tx, rx, hTx, hRx, t.maxBounces)
	t.sortByLoss(dst[base:])
	return dst
}

// DirectHInto appends only the direct path from tx (at height hTx) to rx
// (at height hRx), blockage included, with the buffer semantics of
// TraceHInto. It runs the same builder TraceHInto does on the same
// inputs, so the result is bit-identical to the Kind == Direct path of a
// full trace at either reflection order — for callers such as a relay
// hop that read nothing else, at a fraction of the cost.
func (t *Tracer) DirectHInto(dst []Path, tx, rx geom.Vec, hTx, hRx float64) []Path {
	return t.direct(dst, tx, rx, hTx, hRx)
}

// traceGen appends the paths up to the given reflection order in
// generation order (direct, then single bounces in wall order) without
// the final loss sort. PathCache records paths in this order so that its
// revalidated emissions re-run the identical stable sort the public
// entry points apply — ties resolve exactly as a fresh trace would.
func (t *Tracer) traceGen(dst []Path, tx, rx geom.Vec, hTx, hRx float64, order int) []Path {
	dst = t.direct(dst, tx, rx, hTx, hRx)
	if order >= 1 {
		dst = t.singleBounce(dst, tx, rx, hTx, hRx)
	}
	return dst
}

// sortByLoss orders paths ascending by total propagation loss. The loss
// of each path is computed once into a (stack-resident) scratch array and
// the insertion sort compares the cached values — the comparisons, and
// therefore the final order, are identical to recomputing
// PropagationLossDB at every step as the pre-cache implementation did.
func (t *Tracer) sortByLoss(paths []Path) {
	var lossArr [128]float64
	var loss []float64
	if len(paths) <= len(lossArr) {
		loss = lossArr[:len(paths)]
	} else {
		loss = make([]float64, len(paths)) // >127 walls; never on the stock rooms
	}
	for i := range paths {
		loss[i] = paths[i].PropagationLossDB(t.freqHz)
	}
	// Insertion sort; path counts are small.
	for i := 1; i < len(paths); i++ {
		for j := i; j > 0 && loss[j] < loss[j-1]; j-- {
			paths[j], paths[j-1] = paths[j-1], paths[j]
			loss[j], loss[j-1] = loss[j-1], loss[j]
		}
	}
}

// extendPaths grows dst by one element, reusing the slot (and its Points
// backing array) already present within dst's capacity when possible.
func extendPaths(dst []Path) []Path {
	if n := len(dst); n < cap(dst) {
		return dst[:n+1]
	}
	return append(dst, Path{})
}

// direct appends the straight-line path, accumulating obstacle losses.
func (t *Tracer) direct(dst []Path, tx, rx geom.Vec, hTx, hRx float64) []Path {
	dst = extendPaths(dst)
	p := &dst[len(dst)-1]
	pts := append(p.Points[:0], tx, rx)
	*p = Path{
		Kind:        Direct,
		Points:      pts,
		Bounces:     0,
		AoDDeg:      units.NormalizeDeg(geom.DirectionDeg(tx, rx)),
		AoADeg:      units.NormalizeDeg(geom.DirectionDeg(rx, tx)),
		LengthM:     tx.Dist(rx),
		BlockLossDB: t.legBlockageDB(tx, rx, hTx, hRx),
	}
	return dst
}

// singleBounce appends one-reflection paths off every wall. Bounce points
// are assumed at the interpolated ray height (walls span floor to
// ceiling).
func (t *Tracer) singleBounce(dst []Path, tx, rx geom.Vec, hTx, hRx float64) []Path {
	for wi := range t.walls {
		w := &t.walls[wi]
		hit, ok := w.specular(tx, rx)
		if !ok {
			continue
		}
		l1 := tx.Dist(hit)
		total := l1 + hit.Dist(rx)
		hHit := hTx + (hRx-hTx)*l1/total
		dst = extendPaths(dst)
		p := &dst[len(dst)-1]
		pts := append(p.Points[:0], tx, hit, rx)
		*p = Path{
			Kind:        Reflected,
			Points:      pts,
			Bounces:     1,
			AoDDeg:      units.NormalizeDeg(geom.DirectionDeg(tx, hit)),
			AoADeg:      units.NormalizeDeg(geom.DirectionDeg(rx, hit)),
			LengthM:     total,
			ReflLossDB:  w.reflLossDB,
			BlockLossDB: t.legBlockageDB(tx, hit, hTx, hHit) + t.legBlockageDB(hit, rx, hHit, hRx),
		}
	}
	return dst
}

// legBlockageDB sums the knife-edge diffraction losses of all obstacles
// crossing or grazing the leg a→b with endpoint heights hA→hB.
func (t *Tracer) legBlockageDB(a, b geom.Vec, hA, hB float64) float64 {
	seg := geom.Seg(a, b)
	total := 0.0
	for _, o := range t.room.Obstacles() {
		total += obstacleLossDB(seg, o, t.lambda, hA, hB)
	}
	return total
}

// obstacleLossDB computes the shadowing loss a single cylindrical
// obstacle imposes on the leg. Horizontally the beam diffracts around
// both edges of the cylinder (double knife edge); vertically it can
// diffract over the obstacle's top when the ray runs above it. The beam
// takes the easiest escape, so the contribution is the minimum of the
// two, capped at the obstacle's material-dependent maximum.
//
// Most obstacles sit far from most legs; farFieldClear proves those
// contribute exactly +0 before any closest-point geometry is computed.
func obstacleLossDB(seg geom.Segment, o room.Obstacle, lambda float64, hA, hB float64) float64 {
	if farFieldClear(seg, o, lambda, hA, hB) {
		return 0
	}
	closest := seg.ClosestPoint(o.Shape.C)
	dc := closest.Dist(o.Shape.C)
	d1 := seg.A.Dist(closest)
	d2 := seg.B.Dist(closest)
	if d1 < 1e-6 || d2 < 1e-6 {
		// The obstacle sits on top of an endpoint (e.g. the player's own
		// head next to the headset): treat centre-overlap as full shadow,
		// otherwise clear.
		if dc < o.Shape.R {
			return o.MaxLossDB
		}
		return 0
	}
	// Fresnel geometry factor.
	f := math.Sqrt(2 * (d1 + d2) / (lambda * d1 * d2))

	// Horizontal diffraction around the cylinder.
	var horiz float64
	if dc >= o.Shape.R {
		// Grazing/clear: single knife edge with clearance.
		horiz = knifeEdgeJ((o.Shape.R - dc) * f)
	} else {
		// Path cuts through the disc: both edges.
		horiz = knifeEdgeJ((o.Shape.R-dc)*f) + knifeEdgeJ((o.Shape.R+dc)*f)
	}

	// Vertical diffraction over the top: ray height at the obstacle.
	rayH := hA + (hB-hA)*d1/(d1+d2)
	vert := knifeEdgeJ((o.HeightM - rayH) * f)

	return min(horiz, vert, o.MaxLossDB)
}

// farFieldClear reports whether obstacle o lies so far from the leg that
// obstacleLossDB returns exactly +0. It costs one cross product and one
// square root.
//
// Wherever the closest point falls inside a leg of length L, d1+d2 = L
// and d1·d2 ≤ L²/4, so the Fresnel factor is at least f_min = √(8/(λL)).
// The centre's distance dc to the closest point is at least its distance
// g to the leg's line. So when g − R ≥ 0.78/f_min, the clearance
// (R − dc)·f is at most −0.78 and knifeEdgeJ returns its literal 0. The
// vertical term is ≥ 0 and not NaN, so the minimum is +0 because
// MaxLossDB > 0. When the closest point is an endpoint, dc ≥ g > R
// takes the clear return, also +0.
//
// The argument survives rounding. The input bounds keep every
// intermediate of both computations finite and normal, so the vertical
// term can never be NaN. They also keep each computed distance within a
// few ulps of scale, the coordinate sum, of its true value. The gap must
// clear the margin by 1e-9·scale on top of a 1e-6 relative slack, far
// more than those errors. Inputs outside the bounds take the full
// computation.
func farFieldClear(seg geom.Segment, o room.Obstacle, lambda, hA, hB float64) bool {
	a, b, c := seg.A, seg.B, o.Shape.C
	scale := math.Abs(a.X) + math.Abs(a.Y) + math.Abs(b.X) + math.Abs(b.Y) + math.Abs(c.X) + math.Abs(c.Y)
	if !(scale <= 1e9 && lambda >= 1e-200 && lambda <= 1e6 && o.MaxLossDB > 0 &&
		finite(hA) && finite(hB) && finite(o.HeightM)) {
		return false
	}
	d := b.Sub(a)
	l2 := d.Dot(d)
	if !(l2 > 1e-12) {
		return false
	}
	l := math.Sqrt(l2)
	gap := math.Abs(c.Sub(a).Cross(d))/l - o.Shape.R - 1e-9*scale
	// gap ≥ 0.78·√(λL/8), squared, with the relative slack.
	return gap > 0 && 8*gap*gap > 0.78*0.78*(1+1e-6)*lambda*l
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// knifeEdgeJ is the ITU-R P.526 single knife-edge diffraction loss
// approximation, valid for v > −0.78; smaller v means full clearance and
// zero loss.
func knifeEdgeJ(v float64) float64 {
	if v <= -0.78 {
		return 0
	}
	return 6.9 + 20*math.Log10(math.Sqrt((v-0.1)*(v-0.1)+1)+v-0.1)
}
