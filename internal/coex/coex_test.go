package coex

import (
	"math"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/vr"
)

// standing returns a one-pose trace: a player standing at pos for the
// whole session.
func standing(pos geom.Vec) vr.Trace {
	return vr.Trace{{T: 0, Pos: pos}}
}

var apPos = geom.V(0.4, 0.4)

// testHorizon is how far the test rooms' schedule tables reach.
const testHorizon = 5 * time.Second

// roomSchedulers builds rm's schedule table over testHorizon, poses on a
// 10 ms grid, and returns one scheduler per player reading it — every
// session of the room sharing the one table.
func roomSchedulers(t *testing.T, rm Room) []*Scheduler {
	t.Helper()
	geo, err := BuildGeometry(rm, apPos, 10*time.Millisecond, testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	rm.Geometry = geo
	scheds := make([]*Scheduler, geo.Players())
	for self := range scheds {
		rm.Self = self
		if scheds[self], err = NewScheduler(rm); err != nil {
			t.Fatal(err)
		}
	}
	return scheds
}

// mustScheduler returns rm.Self's scheduler over rm's table.
func mustScheduler(t *testing.T, rm Room) *Scheduler {
	t.Helper()
	return roomSchedulers(t, rm)[rm.Self]
}

// shareIntegral samples Share over [0, dur) at sub-slot resolution and
// returns the average — the session's effective airtime fraction.
func shareIntegral(s *Scheduler, dur time.Duration) float64 {
	const step = time.Millisecond
	sum, n := 0.0, 0
	for t := time.Duration(0); t < dur; t += step {
		sum += s.Share(t)
		n++
	}
	return sum / float64(n)
}

func TestSinglePlayerOwnsTheMedium(t *testing.T) {
	s := mustScheduler(t, Room{Players: []vr.Trace{standing(geom.V(4, 4))}})
	for _, at := range []time.Duration{0, 7 * time.Millisecond, 50 * time.Millisecond, time.Second} {
		if got := s.Share(at); got != 1 {
			t.Errorf("Share(%v) = %v, want 1", at, got)
		}
	}
}

func TestTwoClearPlayersSplitEvenly(t *testing.T) {
	// Both players have clear line of sight from the AP: each gets half
	// of every window, so the average share is 1/2 and at any instant
	// exactly one of the two holds the medium.
	scheds := roomSchedulers(t, Room{Players: []vr.Trace{standing(geom.V(6, 2)), standing(geom.V(2, 6))}})
	a, b := scheds[0], scheds[1]

	if got := shareIntegral(a, time.Second); math.Abs(got-0.5) > 0.01 {
		t.Errorf("player 0 average share = %v, want 0.5", got)
	}
	for ms := 0; ms < 200; ms++ {
		at := time.Duration(ms) * time.Millisecond
		if a.Share(at)+b.Share(at) != 1 {
			t.Fatalf("at %v the medium is held by %v+%v players", at, a.Share(at), b.Share(at))
		}
	}
}

func TestRoundRobinRotates(t *testing.T) {
	// With two active players the slot order flips every window, so each
	// player's slot sweeps both halves of the cadence.
	players := []vr.Trace{standing(geom.V(6, 2)), standing(geom.V(2, 6))}
	s := mustScheduler(t, Room{Players: players, Self: 0, Period: 50 * time.Millisecond})
	// Window 0 starts at player 0: first half of [0, 50 ms).
	if s.Share(10*time.Millisecond) != 1 || s.Share(40*time.Millisecond) != 0 {
		t.Error("window 0 should give player 0 the first sub-slot")
	}
	// Window 1 rotates: player 0 gets the second half of [50, 100 ms).
	if s.Share(60*time.Millisecond) != 0 || s.Share(90*time.Millisecond) != 1 {
		t.Error("window 1 should give player 0 the second sub-slot")
	}
}

func TestIdleReclaim(t *testing.T) {
	// Player 1 stands directly between the AP and player 0: player 0's
	// direct path is body-blocked, so its slots are reclaimed and player
	// 1 holds the whole medium.
	blockedPos := geom.V(4.4, 4.4)
	onTheLine := geom.V(2.4, 2.4)
	scheds := roomSchedulers(t, Room{Players: []vr.Trace{standing(blockedPos), standing(onTheLine)}})
	blocked, clear := scheds[0], scheds[1]

	if got := shareIntegral(blocked, time.Second); got != 0 {
		t.Errorf("blocked player share = %v, want 0 (slots reclaimed)", got)
	}
	if got := shareIntegral(clear, time.Second); got != 1 {
		t.Errorf("clear player share = %v, want 1 (reclaimed the whole window)", got)
	}
}

func TestAllBlockedFallsBackToEvenSplit(t *testing.T) {
	// Two players standing shoulder to shoulder: each one's body disc
	// shadows the other's sightline from the AP, so both are blocked;
	// with nothing to reclaim the schedule degrades to the plain even
	// split.
	players := []vr.Trace{standing(geom.V(2.4, 2.4)), standing(geom.V(2.55, 2.35))}
	s := mustScheduler(t, Room{Players: players, Self: 0})
	if got := shareIntegral(s, time.Second); math.Abs(got-0.5) > 0.01 {
		t.Errorf("mutually blocked share = %v, want 0.5", got)
	}
}

func TestSlotsCoverTheWholeWindow(t *testing.T) {
	// Three active players: sub-slot boundaries are fractions of the
	// window, so every instant belongs to exactly one player even when
	// the period does not divide evenly.
	players := []vr.Trace{standing(geom.V(6, 2)), standing(geom.V(2, 6)), standing(geom.V(7, 7))}
	scheds := roomSchedulers(t, Room{Players: players})
	for us := 0; us < 150_000; us += 61 {
		at := time.Duration(us) * time.Microsecond
		total := 0.0
		for _, s := range scheds {
			total += s.Share(at)
		}
		if total != 1 {
			t.Fatalf("at %v the medium is held by %v players", at, total)
		}
	}
}

func TestWrapGatesTheRate(t *testing.T) {
	players := []vr.Trace{standing(geom.V(6, 2)), standing(geom.V(2, 6))}
	s := mustScheduler(t, Room{Players: players, Self: 0, Period: 50 * time.Millisecond})
	rate := s.Wrap(func(time.Duration) float64 { return 4e9 })
	if got := rate(10 * time.Millisecond); got != 4e9 {
		t.Errorf("in-slot rate = %v, want full rate", got)
	}
	if got := rate(40 * time.Millisecond); got != 0 {
		t.Errorf("out-of-slot rate = %v, want 0", got)
	}
}

// TestNewSchedulerValidation: invalid rooms fail when their table is
// built, and a scheduler needs a table and a Self inside it.
func TestNewSchedulerValidation(t *testing.T) {
	ok := []vr.Trace{standing(geom.V(1, 1))}
	cases := []Room{
		{},                                // no players
		{Players: []vr.Trace{nil}},        // empty trace
		{Players: []vr.Trace{ok[0], nil}}, // empty peer trace
	}
	for i, rm := range cases {
		if _, err := BuildGeometry(rm, apPos, 10*time.Millisecond, time.Second); err == nil {
			t.Errorf("case %d: BuildGeometry accepted an invalid room", i)
		}
	}
	for _, grid := range [][2]time.Duration{{0, time.Second}, {10 * time.Millisecond, 0}} {
		if _, err := BuildGeometry(Room{Players: ok}, apPos, grid[0], grid[1]); err == nil {
			t.Errorf("BuildGeometry accepted step %v, horizon %v", grid[0], grid[1])
		}
	}

	if _, err := NewScheduler(Room{Players: ok}); err == nil {
		t.Error("NewScheduler accepted a room without a geometry")
	}
	geo, err := BuildGeometry(Room{Players: ok}, apPos, 10*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, self := range []int{-1, 1} {
		if _, err := NewScheduler(Room{Players: ok, Self: self, Geometry: geo}); err == nil {
			t.Errorf("NewScheduler accepted self %d of a 1-player table", self)
		}
	}
}
