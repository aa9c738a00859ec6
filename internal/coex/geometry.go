package coex

import (
	"fmt"
	"time"

	"github.com/movr-sim/movr/internal/geom"
)

// Geometry is the room's schedule table: every player's pose sampled on
// the world-tick grid, and the complete TDMA window schedule (uplink
// reservation plus every player's downlink sub-slot) over the room's
// horizon. It is built once per room — BuildGeometry runs the trace
// lookups and the window layout — and then shared read-only by all
// co-located sessions, so N sessions in a bay evaluate the airtime
// policy once per window instead of N times. It is the only source
// their schedulers read.
type Geometry struct {
	// players is the number of players the table covers; period the
	// scheduling window with defaults resolved; entitled each player's
	// weight fraction of the room.
	players  int
	period   time.Duration
	entitled []float64

	// Pose table: players' positions on the [0, horizon] grid of step
	// multiples, player-major within each tick.
	step    time.Duration
	horizon time.Duration
	nTicks  int
	poses   []geom.Vec

	// Window schedule table: for each window, every player's downlink
	// sub-slot (active=false when the player's airtime was reclaimed or
	// sized to nothing). All three per-player arrays are window-major.
	nWins  int64
	active []bool
	starts []time.Duration
	ends   []time.Duration
}

// BuildGeometry precomputes the room's table for rm as seen from the
// AP at ap: poses on the step grid and window schedules out to horizon.
// step is the world-tick cadence the sessions advance geometry at, and
// horizon the session duration; both must be positive. rm.Self and
// rm.Geometry are ignored (a table is always built from the traces,
// never from another table).
func BuildGeometry(rm Room, ap geom.Vec, step, horizon time.Duration) (*Geometry, error) {
	if step <= 0 {
		return nil, fmt.Errorf("coex: geometry step %v must be positive", step)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("coex: geometry horizon %v must be positive", horizon)
	}
	l, err := newLayout(rm, ap)
	if err != nil {
		return nil, err
	}

	n := len(l.players)
	g := &Geometry{
		players:  n,
		period:   l.period,
		entitled: make([]float64, n),
		step:     step,
		horizon:  horizon,
		nTicks:   int(horizon/step) + 1,
	}
	var sumW float64
	for _, w := range l.weights {
		sumW += w
	}
	for i := range g.entitled {
		g.entitled[i] = 1 / float64(n)
		if l.weights != nil {
			g.entitled[i] = l.weights[i] / sumW
		}
	}

	g.poses = make([]geom.Vec, g.nTicks*n)
	for k := 0; k < g.nTicks; k++ {
		t := step * time.Duration(k)
		for i, tr := range l.players {
			g.poses[k*n+i] = tr.At(t).Pos
		}
	}

	g.nWins = int64(horizon/l.period) + 1
	g.active = make([]bool, int(g.nWins)*n)
	g.starts = make([]time.Duration, int(g.nWins)*n)
	g.ends = make([]time.Duration, int(g.nWins)*n)
	for w := int64(0); w < g.nWins; w++ {
		base := int(w) * n
		l.layoutWindow(w, g.active[base:base+n], g.starts[base:base+n], g.ends[base:base+n])
	}
	return g, nil
}

// Players returns the number of players the table covers.
func (g *Geometry) Players() int { return g.players }

// Windows returns the number of scheduling windows in the table.
func (g *Geometry) Windows() int64 { return g.nWins }

// Step returns the pose-table tick cadence.
func (g *Geometry) Step() time.Duration { return g.step }

// Horizon returns the last virtual time the table covers: poses are
// tabled through it, and every window starting at or before it.
func (g *Geometry) Horizon() time.Duration { return g.horizon }

// Period returns the scheduling window length the table was built with
// (defaults resolved).
func (g *Geometry) Period() time.Duration { return g.period }

// SlotAt returns player i's downlink sub-slot of window win in absolute
// virtual time, and whether the player holds one (active=false when its
// airtime was reclaimed or sized to nothing, or the query is out of the
// table's range). Schedulers read their own slot through it, and the
// venue layer reads neighboring bays' transmit activity: which player
// the bay's AP serves when, without re-running the airtime policy.
func (g *Geometry) SlotAt(win int64, i int) (start, end time.Duration, active bool) {
	if win < 0 || win >= g.nWins || i < 0 || i >= g.players {
		return 0, 0, false
	}
	k := int(win)*g.players + i
	return g.starts[k], g.ends[k], g.active[k]
}

// PosesAtTick returns the full pose row — every player's position — for
// one tick, without copying: index the row by player number. The second
// return is false when t is off the table's tick grid or beyond its
// horizon; the table only answers queries it recorded exactly. The
// returned slice aliases the table; callers must not modify it.
func (g *Geometry) PosesAtTick(t time.Duration) ([]geom.Vec, bool) {
	if t < 0 || t%g.step != 0 {
		return nil, false
	}
	k := int(t / g.step)
	if k >= g.nTicks {
		return nil, false
	}
	return g.poses[k*g.players : (k+1)*g.players], true
}
