package linkmgr

// Allocation guards for the tracking hot path: a steady-state controller
// step — direct evaluation, reflector evaluation with gain control, MCS
// selection — must perform zero heap allocations once the manager's
// tracer scratch has warmed up. This is the per-step budget every fleet
// session and movrd job pays at the tracking cadence.

import (
	"testing"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/room"
)

// allocTestManager wires the standard office testbed with one aligned
// reflector — the configuration every session steps through.
func allocTestManager(tb testing.TB) *Manager {
	tb.Helper()
	rm := room.NewOffice5x5()
	rm.AddObstacle(room.Body(geom.V(2.4, 2.6)))
	budget := channel.DefaultBudget()
	tr := channel.NewTracer(rm, budget.FreqHz, 1)
	ap := radio.NewAP(geom.V(0.4, 0.4), antenna.Default(45), budget)
	hs := radio.NewHeadset(geom.V(3.4, 2.4), antenna.Default(60), budget)
	m := New(tr, ap, hs)
	dev := reflector.Default(geom.V(4.6, 4.6), 225)
	idx := m.AddReflector(dev)
	if err := m.AlignFromGeometry(idx); err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestStepZeroAllocs guards the pose-tracking step.
func TestStepZeroAllocs(t *testing.T) {
	m := allocTestManager(t)
	// Warm-up grows the scratch buffer (and any lazy state downstream).
	m.Step(geom.V(3.4, 2.4), 60)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		m.Step(geom.V(3.4, 2.4), float64(40+i%40))
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f objects/op, want 0", allocs)
	}
}

// TestReassessZeroAllocs guards the passive data-plane re-read that runs
// at the (faster) world-tick cadence.
func TestReassessZeroAllocs(t *testing.T) {
	m := allocTestManager(t)
	m.Step(geom.V(3.4, 2.4), 60)
	m.Reassess()
	allocs := testing.AllocsPerRun(200, func() {
		m.Reassess()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reassess allocates %.1f objects/op, want 0", allocs)
	}
}
