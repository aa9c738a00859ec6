// Package venue lifts the simulator's single-room assumption into a
// venue hierarchy: a rectangular grid of adjacent 60 GHz VR bays — the
// paper's arcade deployment story at building scale. Bays are regular
// coex rooms (one AP, a handful of players, a TDMA schedule), but their
// channels are no longer private: a bay's signal leaks through the
// partition walls into its neighbors, so co-channel bays interfere.
//
// The package models three things, all deterministic and cheap:
//
//   - geometry: Layout places bays on a row-major grid and prices the
//     leakage between any two of them (free-space spreading plus one
//     wall-penetration loss per partition crossed, reusing the channel
//     layer's per-material calibration — channel.TransmissionLossDB);
//   - channel assignment: AssignChannels colors the bay grid so
//     neighbors avoid co-channel interference — a greedy graph-coloring
//     assigner over the interference neighborhood, plus a fixed
//     round-robin mode that pins assignments for determinism studies
//     (and, with one channel, builds the worst co-channel case);
//   - interference: InterferenceTable folds the neighbors' transmit
//     activity into one per-window SINR penalty per bay, read entirely
//     from the neighbors' room-owned geometry snapshots (coex.Geometry:
//     who holds each window's slots, and where they stand) — so
//     cross-bay coupling costs one table per bay, not a tracer run, and
//     is bit-reproducible across runs and worker counts.
package venue

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/units"
)

// DefaultChannels is the number of 60 GHz channels available for bay
// assignment when none is configured — the three non-overlapping
// 802.11ad channels usable worldwide. MaxChannels is the band's full
// channelization.
const (
	DefaultChannels = 3
	MaxChannels     = 4
)

// AssignMode names a channel-assignment strategy. It is the shared
// vocabulary of the movrsim -assign flag and the movrd job API's assign
// field.
type AssignMode string

const (
	// AssignColoring greedily colors the bay grid so no two bays within
	// each other's interference neighborhood share a channel when the
	// channel budget allows — the default.
	AssignColoring AssignMode = "color"

	// AssignFixed pins bay b to channel b mod channels, whatever the
	// adjacency: a deterministic worst-ish case useful for pinning
	// interference studies (with channels=1 every bay is co-channel).
	AssignFixed AssignMode = "fixed"
)

// AssignModes lists the recognised modes in menu order.
func AssignModes() []AssignMode { return []AssignMode{AssignColoring, AssignFixed} }

// AssignModeNames renders the menu for usage strings: "color|fixed".
func AssignModeNames() string {
	names := make([]string, 0, 2)
	for _, m := range AssignModes() {
		names = append(names, string(m))
	}
	return strings.Join(names, "|")
}

// ParseAssignMode validates an assignment-mode name. The empty string is
// the default greedy coloring.
func ParseAssignMode(s string) (AssignMode, error) {
	if s == "" {
		return AssignColoring, nil
	}
	for _, m := range AssignModes() {
		if s == string(m) {
			return m, nil
		}
	}
	return "", fmt.Errorf("unknown assignment mode %q (%s)", s, AssignModeNames())
}

// Layout places a venue's bays on a row-major rectangular grid. Bay b
// sits at grid cell (b/Cols, b%Cols); the last row may be partial. Every
// bay has the same footprint, and adjacent bays share one partition wall
// of the layout's material.
type Layout struct {
	// Rows and Cols give the grid shape; Bays() ≤ Rows×Cols bays exist.
	Rows, Cols int

	// BayW and BayD are each bay's footprint in metres.
	BayW, BayD float64

	// Wall is the partition material between adjacent bays; its
	// through-wall penetration loss (channel.TransmissionLossDB) is
	// charged once per partition a leaking signal crosses.
	Wall room.Material

	nBays int
}

// Grid builds a near-square layout for the given bay count.
func Grid(bays int, bayW, bayD float64, wall room.Material) (Layout, error) {
	if bays <= 0 {
		return Layout{}, fmt.Errorf("venue: bay count %d must be positive", bays)
	}
	if bayW <= 0 || bayD <= 0 {
		return Layout{}, fmt.Errorf("venue: bay footprint %.1f×%.1f must be positive", bayW, bayD)
	}
	cols := int(math.Ceil(math.Sqrt(float64(bays))))
	rows := (bays + cols - 1) / cols
	return Layout{Rows: rows, Cols: cols, BayW: bayW, BayD: bayD, Wall: wall, nBays: bays}, nil
}

// Bays returns the number of bays in the venue.
func (l Layout) Bays() int { return l.nBays }

// cell returns bay b's grid coordinates.
func (l Layout) cell(b int) (row, col int) { return b / l.Cols, b % l.Cols }

// Origin returns bay b's south-west corner in venue coordinates; bay-
// local positions (player poses, the AP) offset from it.
func (l Layout) Origin(b int) geom.Vec {
	r, c := l.cell(b)
	return geom.V(float64(c)*l.BayW, float64(r)*l.BayD)
}

// Center returns bay b's floor-plan center in venue coordinates — the
// reference point interference is evaluated at.
func (l Layout) Center(b int) geom.Vec {
	return l.Origin(b).Add(geom.V(l.BayW/2, l.BayD/2))
}

// WallsBetween returns how many partition walls a straight leak from bay
// a into bay b must cross: the grid's Manhattan distance (orthogonal
// neighbors share one wall, diagonal neighbors two).
func (l Layout) WallsBetween(a, b int) int {
	ra, ca := l.cell(a)
	rb, cb := l.cell(b)
	dr, dc := ra-rb, ca-cb
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// InNeighborhood reports whether bays a and b sit within each other's
// interference neighborhood: the eight surrounding grid cells. Beyond
// that ring at least two partitions and a full bay of free-space
// spreading separate the APs, which puts the leakage below the noise
// floor for every realistic wall material.
func (l Layout) InNeighborhood(a, b int) bool {
	if a == b {
		return false
	}
	ra, ca := l.cell(a)
	rb, cb := l.cell(b)
	dr, dc := ra-rb, ca-cb
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr <= 1 && dc <= 1
}

// CoChannelNeighbors returns how many bays in b's interference
// neighborhood share its channel under the given assignment — the
// degree the acceptance tests sweep.
func (l Layout) CoChannelNeighbors(chans []int, b int) int {
	n := 0
	for nb := 0; nb < l.Bays(); nb++ {
		if l.InNeighborhood(b, nb) && chans[nb] == chans[b] {
			n++
		}
	}
	return n
}

// AssignChannels assigns each bay one of `channels` channels under the
// given mode and returns the per-bay channel indices. Coloring visits
// bays row-major and first-fits the lowest channel unused inside the
// bay's already-colored interference neighborhood; when the budget is
// too small to avoid every conflict (an 8-neighborhood grid needs four
// colors), it falls back to the channel least used among those
// neighbors, so the residual co-channel pressure spreads evenly instead
// of piling onto channel 0. Fixed mode pins bay b to channel b mod
// channels regardless of adjacency. Both are pure functions of the
// layout, so assignments never perturb determinism.
func AssignChannels(l Layout, channels int, mode AssignMode) ([]int, error) {
	if channels <= 0 {
		channels = DefaultChannels
	}
	if channels > MaxChannels {
		return nil, fmt.Errorf("venue: %d channels exceeds the %d-channel 60 GHz band", channels, MaxChannels)
	}
	mode, err := ParseAssignMode(string(mode))
	if err != nil {
		return nil, err
	}
	chans := make([]int, l.Bays())
	if mode == AssignFixed {
		for b := range chans {
			chans[b] = b % channels
		}
		return chans, nil
	}
	used := make([]int, channels)
	for b := range chans {
		for ch := range used {
			used[ch] = 0
		}
		for nb := 0; nb < b; nb++ {
			if l.InNeighborhood(b, nb) {
				used[chans[nb]]++
			}
		}
		best := 0
		for ch := 1; ch < channels; ch++ {
			if used[ch] < used[best] {
				best = ch
			}
		}
		chans[b] = best
	}
	return chans, nil
}

// Params tunes the interference model. The zero value of every field is
// invalid; build from DefaultParams.
type Params struct {
	// Budget is the link budget the bays transmit under — the same one
	// the sessions' SNRs are computed against, so the penalty and the
	// signal share a noise floor.
	Budget channel.Budget

	// APLocal is each bay's AP position in bay-local coordinates, and
	// APOrientationDeg its array's mounting orientation (world frame;
	// bays are translated, never rotated, so local and venue angles
	// coincide).
	APLocal          geom.Vec
	APOrientationDeg float64
}

// DefaultParams returns the interference model matched to the session
// engine's worlds: its link budget, and the AP tucked into each bay's
// south-west corner facing the room diagonal (experiments.NewSizedWorld
// builds exactly this; the fleet generator passes the shared position
// in rather than this package importing the experiments layer).
func DefaultParams(apLocal geom.Vec) Params {
	return Params{
		Budget:           channel.DefaultBudget(),
		APLocal:          apLocal,
		APOrientationDeg: 45,
	}
}

// InterferenceTable computes bay's per-window external SINR penalty in
// dB: pen[w] is how far the bay's SNR drops during scheduling window w
// because co-channel neighbors are on the air. geos holds every bay's
// room-owned geometry snapshot and chans the channel assignment.
//
// The model, per co-channel neighbor within the interference
// neighborhood and per window: the neighbor's AP serves the players its
// snapshot says hold slots, steering its beam at each one's snapshot
// pose in turn; the victim bay (evaluated at its floor-plan center)
// receives that transmission through the neighbor AP's pattern gain
// toward it — mainlobe when the served player happens to line up with
// the victim, sidelobe otherwise — and 0 dBi at the victim (the
// headset's beam points at its own AP, not at the neighbor's),
// attenuated by free-space spreading, atmospheric absorption, and one
// wall-penetration loss per partition crossed. Slot powers are weighted by their fraction of the window and
// summed across neighbors; the penalty is the bay-wide SINR degradation
// 10·log10(1 + I/N) against the budget's noise floor. The budget's
// implementation loss is deliberately not charged: it prices decoding
// the signal, and interference degrades the victim whether or not
// anyone decodes it.
//
// Everything is read from snapshots and static geometry — no rng, no
// tracer — so the table is a pure function of the venue configuration.
func InterferenceTable(l Layout, chans []int, bay int, geos []*coex.Geometry, p Params) []float64 {
	g := geos[bay]
	pen := make([]float64, g.Windows())
	victim := l.Center(bay)
	noiseMW := units.DBmToMilliwatts(p.Budget.NoiseFloorDBm())
	wallLoss := channel.TransmissionLossDB(l.Wall)

	acc := make([]float64, len(pen)) // interference power per window, mW
	arr := antenna.Default(p.APOrientationDeg)
	for nb := 0; nb < l.Bays(); nb++ {
		if !l.InNeighborhood(bay, nb) || chans[nb] != chans[bay] {
			continue
		}
		ng := geos[nb]
		origin := l.Origin(nb)
		apPos := origin.Add(p.APLocal)
		d := apPos.Dist(victim)
		baseLossDB := units.FSPL(d, p.Budget.FreqHz) +
			channel.AtmosphericLossDB(d, p.Budget.FreqHz) +
			float64(l.WallsBetween(bay, nb))*wallLoss
		victimDeg := geom.DirectionDeg(apPos, victim)
		period := ng.Period()

		nWins := int64(len(acc))
		if ng.Windows() < nWins {
			nWins = ng.Windows()
		}
		for w := int64(0); w < nWins; w++ {
			row, onGrid := ng.PosesAtTick(period * time.Duration(w))
			for i := 0; i < ng.Players(); i++ {
				s, e, active := ng.SlotAt(w, i)
				if !active || e <= s {
					continue
				}
				// Steer the neighbor's AP at the served player's
				// snapshot pose; off-grid misses (a period that is not
				// a step multiple) fall back to the bay center.
				target := origin.Add(geom.V(l.BayW/2, l.BayD/2))
				if onGrid {
					target = origin.Add(row[i])
				}
				arr.SteerTo(geom.DirectionDeg(apPos, target))
				iDBm := p.Budget.TXPowerDBm + arr.GainDBi(victimDeg) - baseLossDB
				acc[w] += units.DBmToMilliwatts(iDBm) * (float64(e-s) / float64(period))
			}
		}
	}
	for w := range pen {
		pen[w] = units.LinearToDB(1 + acc[w]/noiseMW)
	}
	return pen
}
