package linkmgr

import (
	"math"
	"testing"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/units"
)

func TestReassessTracksGeometryWithoutSteering(t *testing.T) {
	_, m := world(geom.V(3.4, 2.4), 60)
	st := m.Best()
	if st.Choice != PathReflector {
		t.Fatalf("setup: want reflector, got %v", st)
	}
	apBeam := m.AP.Array.SteeringDeg()

	// With unchanged geometry, reassessment reads the same SNR and
	// moves no beam.
	re := m.Reassess()
	if math.Abs(re.SNRdB-st.SNRdB) > 0.5 {
		t.Errorf("reassess with unchanged geometry moved SNR %v -> %v", st.SNRdB, re.SNRdB)
	}
	if m.AP.Array.SteeringDeg() != apBeam {
		t.Error("Reassess must not steer the AP")
	}
}

func TestReassessSeesNewBlockage(t *testing.T) {
	rm, m := world(geom.V(3.4, 2.4), 60)
	st := m.Best()
	if st.Choice != PathReflector {
		t.Fatalf("setup: want reflector, got %v", st)
	}
	// Block the reflector→headset leg close to the headset (the ray is
	// near head height there).
	dev := m.Reflectors()[0].Dev
	blocker := dev.Pos().Lerp(m.Headset.Pos, 0.9)
	rm.AddObstacle(room.Body(blocker))
	re := m.Reassess()
	if re.SNRdB > st.SNRdB-8 {
		t.Errorf("reassess missed new blockage: %v -> %v", st.SNRdB, re.SNRdB)
	}
	// The decision label is unchanged — reassessment reports, it does
	// not re-decide.
	if re.ReflectorIdx != st.ReflectorIdx {
		t.Error("Reassess must not switch paths")
	}
}

func TestReassessDirectPath(t *testing.T) {
	_, m := world(geom.V(1.2, 1.2), 225)
	st := m.Best()
	if st.Choice != PathDirect {
		t.Fatalf("setup: want direct, got %v", st)
	}
	re := m.Reassess()
	if math.Abs(re.SNRdB-st.SNRdB) > 0.5 {
		t.Errorf("direct reassess: %v vs %v", re.SNRdB, st.SNRdB)
	}
}

func TestReassessBeforeAnyDecision(t *testing.T) {
	_, m := world(geom.V(2.5, 2.5), 225)
	// No Best() yet: Reassess defaults to the direct path and must not
	// panic.
	re := m.Reassess()
	if re.Choice == PathReflector {
		t.Errorf("undecided manager should reassess direct, got %v", re)
	}
}

func TestBestFrozenUsesStaleBeams(t *testing.T) {
	_, m := world(geom.V(3.4, 2.4), 60)
	if st := m.Best(); st.Choice != PathReflector {
		t.Fatalf("setup: want reflector, got %v", st)
	}
	// The player moves across the room; frozen beams should serve the
	// new pose worse than re-tracked beams.
	m.Headset.MoveTo(geom.V(1.2, 3.8))
	m.Headset.SetYaw(10)
	frozen := m.BestFrozen()
	tracked := m.Best()
	if frozen.SNRdB > tracked.SNRdB+1e-9 {
		t.Errorf("frozen %v should not beat tracked %v", frozen.SNRdB, tracked.SNRdB)
	}
}

func TestEvaluateReflectorAppliesConfiguration(t *testing.T) {
	_, m := world(geom.V(3.4, 2.4), 60)
	dev := m.Reflectors()[0].Dev
	before := dev.TXBeamDeg()
	m.Headset.MoveTo(geom.V(2.0, 3.9))
	m.EvaluateReflector(0)
	after := dev.TXBeamDeg()
	if before == after {
		t.Error("EvaluateReflector should re-point the TX beam at the new pose")
	}
	wantDir := geom.DirectionDeg(dev.Pos(), m.Headset.Pos)
	if math.Abs(units.AngleDiffDeg(after, wantDir)) > 1 {
		t.Errorf("TX beam %v, want toward headset %v", after, wantDir)
	}
}
