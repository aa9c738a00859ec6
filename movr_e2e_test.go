package movr_test

// End-to-end integration tests: the full protocol pipeline (backscatter
// alignment → gain control → path selection → frame streaming) and
// failure injection, exercised through the public API.

import (
	"testing"
	"time"

	movr "github.com/movr-sim/movr"
	"github.com/movr-sim/movr/internal/sim"
	"github.com/movr-sim/movr/internal/stream"
)

// TestE2EFullPipeline runs the complete MoVR bring-up the paper
// describes: install a reflector, align it with the real backscatter
// sweep (not geometry), then stream VR frames through a blocked room.
func TestE2EFullPipeline(t *testing.T) {
	world := movr.NewWorld(1)
	dev := movr.DefaultReflector(movr.V(2.2, 5), 270)
	link := movr.NewControlLink(movr.NewController(dev), 0)

	// Step 1: the §4.1 alignment sweep finds the incidence angle.
	sweeper, err := movr.NewSweeper(world.AP, dev, link, world.Tracer, movr.DefaultAlignConfig())
	if err != nil {
		t.Fatal(err)
	}
	alignRes, err := sweeper.Hierarchical()
	if err != nil {
		t.Fatal(err)
	}

	// Step 2: hand the sweep result (NOT geometry) to the link manager.
	hs := world.NewHeadsetAt(movr.V(3.0, 3.4), 120) // facing the reflector side
	mgr := movr.NewLinkManager(world.Tracer, world.AP, hs)
	idx := mgr.AddReflector(dev)
	if err := mgr.SetAlignment(idx, alignRes.APBeamDeg, alignRes.ReflBeamDeg); err != nil {
		t.Fatal(err)
	}

	// Step 3: block the direct path and stream one second of VR.
	world.Room.AddObstacle(movr.Hand(movr.V(1.7, 1.9)))
	st := mgr.Best()
	if st.Choice.String() != "reflector" {
		t.Fatalf("pipeline chose %v (snr %.1f)", st.Choice, st.SNRdB)
	}
	if !st.MeetsRequirement {
		t.Fatalf("aligned reflector path fails VR: %v", st)
	}
	engine := sim.New()
	sess := stream.Begin(engine, stream.Config{
		Duration: time.Second,
	}, func(time.Duration) float64 { return st.RateBps })
	engine.Run(time.Second)
	if rep := sess.Report(); rep.Glitches != 0 {
		t.Errorf("streaming over the aligned path glitched: %+v", rep)
	}
}

// TestE2EReflectorBlockedMidSession injects a mid-session loss of the
// reflector path: a bystander steps between the headset and the
// reflector, and the manager must fall back to whatever the direct path
// offers. When the bystander walks out (parked outside the room, as a
// departed player's body is), service through the reflector resumes.
func TestE2EReflectorBlockedMidSession(t *testing.T) {
	world := movr.NewWorld(1)
	hs := world.NewHeadsetAt(movr.V(3.4, 2.4), 60) // facing reflector, AP behind
	dev := movr.DefaultReflector(movr.V(4.6, 4.6), 225)
	mgr := movr.NewLinkManager(world.Tracer, world.AP, hs)
	idx := mgr.AddReflector(dev)
	if err := mgr.AlignFromGeometry(idx); err != nil {
		t.Fatal(err)
	}
	before := mgr.Best()
	if before.Choice.String() != "reflector" {
		t.Fatalf("setup: want reflector, got %v", before)
	}

	// A bystander steps onto the headset→reflector leg, close enough to
	// the headset that the leg passes below the top of their body.
	bystander := world.Room.AddObstacle(movr.Body(movr.V(3.54, 2.66)))
	after := mgr.Best()
	// The headset faces away from the AP, so no path carries VR past the
	// body — and the manager must report that, not a stale happy state.
	if after.MeetsRequirement || after.SNRdB > before.SNRdB-10 {
		t.Fatalf("blocked reflector still carrying the link: before %v, after %v", before, after)
	}

	// The bystander leaves: service resumes.
	world.Room.MoveObstacle(bystander, movr.V(-10, -10))
	restored := mgr.Best()
	if restored.Choice.String() != "reflector" || !restored.MeetsRequirement {
		t.Errorf("service did not resume after the bystander left: %v", restored)
	}
}

// TestE2EWalkOutOfCoverage: the player walks behind every device; the
// manager reports the truth (requirement unmet) instead of a stale
// happy state.
func TestE2EWalkOutOfCoverage(t *testing.T) {
	world := movr.NewWorld(1)
	hs := world.NewHeadsetAt(movr.V(2.5, 2.5), 225)
	dev := movr.DefaultReflector(movr.V(4.6, 4.6), 225)
	mgr := movr.NewLinkManager(world.Tracer, world.AP, hs)
	idx := mgr.AddReflector(dev)
	if err := mgr.AlignFromGeometry(idx); err != nil {
		t.Fatal(err)
	}
	if st := mgr.Best(); !st.MeetsRequirement {
		t.Fatalf("setup should be covered: %v", st)
	}
	// Face a bare wall corner with both AP and reflector behind the
	// array's field of view, with the body shadowing behind.
	st := mgr.Step(movr.V(0.6, 4.4), 135)
	world.Room.AddObstacle(movr.Body(movr.V(1.0, 4.0)))
	st = mgr.Step(movr.V(0.6, 4.4), 135)
	if st.MeetsRequirement {
		t.Errorf("out-of-coverage pose reported as covered: %v", st)
	}
}
