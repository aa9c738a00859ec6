// Package room models the physical environment of the MoVR experiments: a
// floor plan of walls with mmWave reflection properties, plus the
// obstacles — hands, heads, bodies, furniture — whose blockage the paper
// studies (§3).
//
// The paper's testbed is "a 5m×5m office" with "standard furniture"; the
// NewOffice5x5 constructor reproduces it. Walls are line segments with a
// material that determines how much a specularly reflected mmWave beam is
// attenuated ("walls are not perfect reflectors and therefore scatter and
// attenuate the signal significantly", §3). Obstacles are vertical
// cylinders (discs in the 2-D plan) with a maximum shadowing loss
// calibrated to the paper's measurements.
package room

import (
	"fmt"

	"github.com/movr-sim/movr/internal/geom"
)

// Material describes how a wall surface interacts with an incident mmWave
// beam.
type Material struct {
	// Name identifies the material in reports.
	Name string

	// ReflLossDB is the power lost on a specular bounce, in dB.
	ReflLossDB float64
}

// Common wall materials with mmWave specular reflection losses drawn from
// 60 GHz indoor measurement literature (rough painted surfaces; includes
// scattering loss, which is why even "metal" office furniture is several
// dB down from an ideal mirror).
var (
	Drywall    = Material{Name: "drywall", ReflLossDB: 14}
	Concrete   = Material{Name: "concrete", ReflLossDB: 15}
	Glass      = Material{Name: "glass", ReflLossDB: 12}
	Whiteboard = Material{Name: "whiteboard", ReflLossDB: 12}
	Metal      = Material{Name: "metal", ReflLossDB: 8}
	Wood       = Material{Name: "wood", ReflLossDB: 14}
)

// Wall is a flat reflecting surface in the floor plan.
type Wall struct {
	Seg geom.Segment
	Mat Material
}

// Obstacle is a cylindrical blocker standing between transmitters and
// receivers. MaxLossDB is the deep-shadow attenuation when a beam passes
// through the obstacle's centre; partial grazing produces less loss via
// knife-edge diffraction (computed in package channel). HeightM is the
// obstacle's top: rays between elevated endpoints (a wall-mounted
// reflector, a tripod AP) can pass over people.
type Obstacle struct {
	Name      string
	Shape     geom.Circle
	MaxLossDB float64
	HeightM   float64
}

// Blocker presets calibrated to the paper's §3 measurements: a hand drops
// SNR "by more than 14 dB"; head and body blockage are progressively
// worse (Fig 3 bar ordering). Heights are above-floor tops: a raised
// hand reaches just above the face; a standing adult tops out ~1.9 m.
const (
	HandRadiusM = 0.05
	HeadRadiusM = 0.09
	BodyRadiusM = 0.20

	HandLossDB = 16
	HeadLossDB = 22
	BodyLossDB = 30

	HandHeightM = 1.9
	HeadHeightM = 1.85
	BodyHeightM = 1.9
)

// Hand returns a raised-hand blocker at pos.
func Hand(pos geom.Vec) Obstacle {
	return Obstacle{Name: "hand", Shape: geom.Circle{C: pos, R: HandRadiusM},
		MaxLossDB: HandLossDB, HeightM: HandHeightM}
}

// Head returns a head-sized blocker at pos.
func Head(pos geom.Vec) Obstacle {
	return Obstacle{Name: "head", Shape: geom.Circle{C: pos, R: HeadRadiusM},
		MaxLossDB: HeadLossDB, HeightM: HeadHeightM}
}

// Body returns a torso-sized blocker at pos (another person walking
// through the room, per the paper's third blockage scenario).
func Body(pos geom.Vec) Obstacle {
	return Obstacle{Name: "body", Shape: geom.Circle{C: pos, R: BodyRadiusM},
		MaxLossDB: BodyLossDB, HeightM: BodyHeightM}
}

// Furniture returns a furniture-sized blocker (e.g. a cabinet) at pos.
func Furniture(pos geom.Vec, radiusM float64) Obstacle {
	return Obstacle{Name: "furniture", Shape: geom.Circle{C: pos, R: radiusM},
		MaxLossDB: 35, HeightM: 1.2}
}

// Column returns a floor-to-ceiling structural column: it blocks links
// at any mounting height.
func Column(pos geom.Vec, radiusM float64) Obstacle {
	return Obstacle{Name: "column", Shape: geom.Circle{C: pos, R: radiusM},
		MaxLossDB: 40, HeightM: 3.0}
}

// Room is a floor plan: its bounding dimensions, reflecting walls, and
// current obstacles. The zero value is an empty, unbounded room; use New
// or NewOffice5x5 for a realistic environment.
type Room struct {
	// WidthM and DepthM are the bounding dimensions, for placement
	// helpers and validation.
	WidthM, DepthM float64

	walls     []Wall
	obstacles []Obstacle

	// epoch counts obstacle mutations; obsEpochs[i] is the epoch at
	// which obstacle i last changed. Together they let caches decide
	// "has anything moved since my snapshot?" with one comparison and
	// "which ones?" without comparing obstacle values.
	epoch     uint64
	obsEpochs []uint64
}

// New returns a rectangular room of the given dimensions whose four
// perimeter walls all use the given material, followed by the interior
// walls in the order given. The room spans [0, width] × [0, depth]. A
// room's walls are fixed here: a tracer precomputes them once.
func New(widthM, depthM float64, mat Material, interior ...Wall) (*Room, error) {
	if widthM <= 0 || depthM <= 0 {
		return nil, fmt.Errorf("room: dimensions %vx%v must be positive", widthM, depthM)
	}
	r := &Room{WidthM: widthM, DepthM: depthM}
	corners := []geom.Vec{
		geom.V(0, 0), geom.V(widthM, 0), geom.V(widthM, depthM), geom.V(0, depthM),
	}
	for i := range corners {
		r.walls = append(r.walls, Wall{
			Seg: geom.Seg(corners[i], corners[(i+1)%4]),
			Mat: mat,
		})
	}
	r.walls = append(r.walls, interior...)
	return r, nil
}

// NewOffice5x5 reproduces the paper's 5 m × 5 m office testbed: drywall
// perimeter with a whiteboard on the north wall, a metal cabinet along the
// east wall, and a wooden desk return — "standard furniture" that gives
// the ray tracer a realistic mix of reflectors.
func NewOffice5x5() *Room {
	r, err := New(5, 5, Drywall,
		// Whiteboard: a better reflector on part of the north wall.
		Wall{Seg: geom.Seg(geom.V(1.2, 5), geom.V(3.8, 5)), Mat: Whiteboard},
		// Metal cabinet face along the east wall.
		Wall{Seg: geom.Seg(geom.V(5, 0.8), geom.V(5, 1.9)), Mat: Metal},
		// Wooden desk return jutting into the room near the south wall.
		Wall{Seg: geom.Seg(geom.V(1.0, 0.75), geom.V(2.4, 0.75)), Mat: Wood},
	)
	if err != nil {
		panic(err) // fixed literal dimensions; cannot fail
	}
	return r
}

// NewLivingRoom builds a larger 6 m × 4 m domestic room: drywall with a
// window wall (glass), a TV cabinet (wood), and a sofa as standing
// furniture — the consumer deployment the paper's introduction targets.
func NewLivingRoom() *Room {
	r, err := New(6, 4, Drywall,
		// Window along most of the north wall.
		Wall{Seg: geom.Seg(geom.V(1.0, 4), geom.V(5.0, 4)), Mat: Glass},
		// TV cabinet on the south wall.
		Wall{Seg: geom.Seg(geom.V(2.2, 0.4), geom.V(3.8, 0.4)), Mat: Wood},
	)
	if err != nil {
		panic(err) // fixed literal dimensions; cannot fail
	}
	// Sofa: a long low obstacle mid-room.
	r.AddObstacle(Obstacle{Name: "sofa", Shape: geom.Circle{C: geom.V(3.0, 1.5), R: 0.5},
		MaxLossDB: 30, HeightM: 0.8})
	return r
}

// Walls returns the room's reflecting surfaces. The returned slice is
// shared; callers must not modify it.
func (r *Room) Walls() []Wall { return r.walls }

// AddObstacle places an obstacle in the room and returns its index, which
// can be passed to MoveObstacle.
func (r *Room) AddObstacle(o Obstacle) int {
	r.obstacles = append(r.obstacles, o)
	r.epoch++
	r.obsEpochs = append(r.obsEpochs, r.epoch)
	return len(r.obstacles) - 1
}

// ClearObstacles removes all obstacles.
func (r *Room) ClearObstacles() {
	r.obstacles = r.obstacles[:0]
	r.obsEpochs = r.obsEpochs[:0]
	r.epoch++
}

// Obstacles returns the current obstacles. The returned slice is shared;
// callers must not modify it.
func (r *Room) Obstacles() []Obstacle { return r.obstacles }

// MoveObstacle repositions the obstacle at index i, preserving its size
// and loss. Out-of-range indices are a no-op, as is a move to the
// obstacle's current position (a parked obstacle stays "unchanged" for
// epoch-tracking caches).
func (r *Room) MoveObstacle(i int, pos geom.Vec) {
	if i < 0 || i >= len(r.obstacles) {
		return
	}
	if r.obstacles[i].Shape.C == pos {
		return
	}
	r.obstacles[i].Shape.C = pos
	r.epoch++
	r.obsEpochs[i] = r.epoch
}

// Epoch returns a counter that increases on every obstacle mutation.
// A cache that snapshots the obstacle set can compare epochs instead of
// obstacle values: an unchanged epoch guarantees an unchanged set.
func (r *Room) Epoch() uint64 { return r.epoch }

// ObstacleEpochs returns, per obstacle, the epoch at which it last
// changed: obstacle i is unchanged since a snapshot taken at epoch e iff
// ObstacleEpochs()[i] <= e. The returned slice is shared; callers must
// not modify it.
func (r *Room) ObstacleEpochs() []uint64 { return r.obsEpochs }

// LOSClear reports whether the straight path a→b is free of obstacles.
// Walls are intentionally not considered: perimeter walls cannot stand
// between two in-room points, and interior reflectors (whiteboard,
// cabinet faces) are modelled as reflecting surfaces only.
func (r *Room) LOSClear(a, b geom.Vec) bool {
	seg := geom.Seg(a, b)
	for _, o := range r.obstacles {
		if o.Shape.IntersectsSegment(seg) {
			return false
		}
	}
	return true
}
