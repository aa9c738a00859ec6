package coex

import (
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/vr"
)

// walkers generates n seeded walking traces in a 5×5 room for dur.
func walkers(t *testing.T, n int, dur time.Duration) []vr.Trace {
	t.Helper()
	traces := make([]vr.Trace, n)
	for i := range traces {
		cfg := vr.DefaultTraceConfig(5, 5, int64(100+i))
		cfg.Duration = dur
		tr, err := vr.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = tr
	}
	return traces
}

// TestSchedulerReadsTheTable pins the one schedule source: under every
// policy, with uplink reservations and weights in play, each player's
// Share is 1 exactly inside its slot of the room's table, and past the
// table's horizon no player holds a slot.
func TestSchedulerReadsTheTable(t *testing.T) {
	const dur = 2 * time.Second
	players := walkers(t, 3, dur)
	for _, policy := range []PolicyName{PolicyRR, PolicyPF, PolicyEDF} {
		rm := Room{
			Players:    players,
			Period:     50 * time.Millisecond,
			Policy:     policy,
			Weights:    []float64{1, 2, 1},
			UplinkSlot: 300 * time.Microsecond,
		}
		geo, err := BuildGeometry(rm, apPos, 10*time.Millisecond, dur)
		if err != nil {
			t.Fatal(err)
		}
		rm.Geometry = geo
		for self := range players {
			rm.Self = self
			s, err := NewScheduler(rm)
			if err != nil {
				t.Fatal(err)
			}
			// 313 µs strides sample uplink heads, slot interiors and
			// boundaries at every phase; the sweep runs two periods past
			// the horizon.
			for at := time.Duration(0); at < dur+100*time.Millisecond; at += 313 * time.Microsecond {
				start, end, active := geo.SlotAt(int64(at/rm.Period), self)
				want := 0.0
				if active && at >= start && at < end {
					want = 1
				}
				if at >= geo.Period()*time.Duration(geo.Windows()) && want != 0 {
					t.Fatalf("%s self=%d: the table holds a slot at %v, past its horizon", policy, self, at)
				}
				if got := s.Share(at); got != want {
					t.Fatalf("%s self=%d Share(%v) = %v, table says %v", policy, self, at, got, want)
				}
			}
		}
	}
}

// TestGeometryPoseGrid pins the pose table's answer-only-what-is-exact
// contract: on-grid rows within the horizon equal the trace lookups,
// while off-grid, out-of-horizon and negative-time queries miss.
func TestGeometryPoseGrid(t *testing.T) {
	const dur = time.Second
	const step = 10 * time.Millisecond
	players := walkers(t, 2, dur)
	geo, err := BuildGeometry(Room{Players: players}, apPos, step, dur)
	if err != nil {
		t.Fatal(err)
	}
	for at := time.Duration(0); at <= dur; at += step {
		row, ok := geo.PosesAtTick(at)
		if !ok || len(row) != len(players) {
			t.Fatalf("PosesAtTick(%v) = %v, %v on the grid", at, row, ok)
		}
		for i, tr := range players {
			if want := tr.At(at).Pos; row[i] != want {
				t.Fatalf("player %d at %v: table %v, trace says %v", i, at, row[i], want)
			}
		}
	}
	for _, bad := range []time.Duration{3 * time.Millisecond, -step, dur + step} {
		if _, ok := geo.PosesAtTick(bad); ok {
			t.Errorf("PosesAtTick(%v) answered off the grid or horizon", bad)
		}
	}
	if geo.Horizon() != dur || geo.Step() != step {
		t.Errorf("table reports horizon %v step %v, built with %v and %v", geo.Horizon(), geo.Step(), dur, step)
	}
}

// TestGeometryShareZeroAllocs guards the read path: consuming a
// precomputed schedule allocates nothing, window transitions included.
func TestGeometryShareZeroAllocs(t *testing.T) {
	const dur = time.Second
	players := walkers(t, 3, dur)
	rm := Room{Players: players, Period: 50 * time.Millisecond}
	geo, err := BuildGeometry(rm, apPos, 10*time.Millisecond, dur)
	if err != nil {
		t.Fatal(err)
	}
	rm.Geometry = geo
	s, err := NewScheduler(rm)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Duration(0)
	allocs := testing.AllocsPerRun(500, func() {
		s.Share(at)
		at += 7 * time.Millisecond
		if at > dur {
			at = 0
		}
	})
	if allocs != 0 {
		t.Fatalf("snapshot Share allocates %.1f objects/op, want 0", allocs)
	}
}
