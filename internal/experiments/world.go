// Package experiments reproduces every table and figure in the paper's
// evaluation (§3 Fig 3, §4.2 Fig 7, §5.1 Fig 8, §5.2 Fig 9) plus the §6
// discussion analyses (battery life, latency budget) and an end-to-end
// VR streaming session that exercises the paper's proposed future work
// (pose-driven beam tracking).
//
// Every experiment takes a seed and is bit-for-bit reproducible. Results
// are returned as data and rendered as text tables/plots by render.go.
package experiments

import (
	"math/rand"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/phy"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/units"
)

// World is the standard experimental testbed: the paper's 5 m × 5 m
// office with an AP in the south-west corner.
type World struct {
	Room   *room.Room
	Budget channel.Budget
	Tracer *channel.Tracer
	AP     *radio.AP
}

// NewWorld builds the testbed with reflections traced to the given
// order (0 = direct only, 1 adds single wall bounces; see
// channel.NewTracer), at the paper's 24 GHz prototype carrier.
func NewWorld(maxBounces int) *World {
	return NewWorldWithBudget(maxBounces, channel.DefaultBudget())
}

// APPos is the AP's standard position in every generated world: tucked
// into the south-west corner.
var APPos = geom.V(0.4, 0.4)

// NewWorldWithBudget builds the testbed with an explicit link budget —
// e.g. channel.Budget60GHz() to study the 802.11ad band the paper's
// rate tables come from.
func NewWorldWithBudget(maxBounces int, b channel.Budget) *World {
	rm := room.NewOffice5x5()
	return &World{
		Room:   rm,
		Budget: b,
		Tracer: channel.NewTracer(rm, b.FreqHz, maxBounces),
		AP:     radio.NewAP(APPos, antenna.Default(45), b),
	}
}

// NewSizedWorld builds a bare rectangular drywall room of the given
// footprint with the AP in the south-west corner — the generic testbed
// the fleet scenarios (arcades, homes) deploy into when the paper's
// office does not fit.
func NewSizedWorld(widthM, depthM float64, maxBounces int) (*World, error) {
	rm, err := room.New(widthM, depthM, room.Drywall)
	if err != nil {
		return nil, err
	}
	b := channel.DefaultBudget()
	return &World{
		Room:   rm,
		Budget: b,
		Tracer: channel.NewTracer(rm, b.FreqHz, maxBounces),
		AP:     radio.NewAP(APPos, antenna.Default(45), b),
	}, nil
}

// NewHeadsetAt places a headset radio at pos facing yawDeg.
func (w *World) NewHeadsetAt(pos geom.Vec, yawDeg float64) *radio.Headset {
	return radio.NewHeadset(pos, antenna.Default(yawDeg), w.Budget)
}

// RandomHeadsetPlacement draws a headset position with line of sight to
// the AP (the §3 procedure: "place the headset in a random location that
// has a line-of-sight to the transmitter") at least minDist from it,
// plus a uniformly random facing.
func (w *World) RandomHeadsetPlacement(rng *rand.Rand, minDist float64) (geom.Vec, float64) {
	for {
		p := geom.V(0.5+rng.Float64()*4.0, 0.5+rng.Float64()*4.0)
		if p.Dist(w.AP.Pos) < minDist {
			continue
		}
		if !w.Room.LOSClear(w.AP.Pos, p) {
			continue
		}
		return p, rng.Float64() * 360
	}
}

// FaceEachOther steers AP and headset at each other with the headset
// physically oriented toward the AP — the measurement posture for LOS
// readings (the §3/§5.2 rigs used positioners).
func (w *World) FaceEachOther(hs *radio.Headset) {
	hs.SetYaw(geom.DirectionDeg(hs.Pos, w.AP.Pos))
	w.AP.SteerToward(hs.Pos)
	hs.SteerToward(w.AP.Pos)
}

// AlignedLOSSNR returns the SNR with both ends aligned on the direct
// path.
func (w *World) AlignedLOSSNR(hs *radio.Headset) float64 {
	w.FaceEachOther(hs)
	return radio.LinkSNRdB(w.Tracer, &w.AP.Radio, &hs.Radio)
}

// AlignedLOSSNRBuf is AlignedLOSSNR with a caller-retained tracer scratch
// buffer (radio.LinkSNRdBBuf semantics), for measurement loops that read
// many placements without per-read allocations.
func (w *World) AlignedLOSSNRBuf(hs *radio.Headset, buf []channel.Path) (float64, []channel.Path) {
	w.FaceEachOther(hs)
	return radio.LinkSNRdBBuf(w.Tracer, &w.AP.Radio, &hs.Radio, buf)
}

// GbpsAt converts an SNR to the 802.11ad rate in Gb/s.
func GbpsAt(snrDB float64) float64 {
	return phy.RateBps(snrDB) / units.Gbps
}
