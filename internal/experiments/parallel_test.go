package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/fleet/pool"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
)

// TestHeatmapParallelDeterminism: the coverage map is identical on a
// runner of 1 slot and one of 8 (and race-clean under `go test -race`).
func TestHeatmapParallelDeterminism(t *testing.T) {
	base := HeatmapConfig{GridStep: 1.0, Yaws: []float64{0, 120, 240}, WithReflector: true}

	serial := base
	serial.Runner = pool.NewRunner(1)
	parallel := base
	parallel.Runner = pool.NewRunner(8)

	a, err := Heatmap(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Heatmap(context.Background(), parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("heatmap differs between runners of 1 and 8 slots")
	}
}

// TestFig9ParallelDeterminism: trials measure the same poses and produce
// the same CDFs on a runner of 1 slot and one of 8.
func TestFig9ParallelDeterminism(t *testing.T) {
	base := Fig9Config{Runs: 6, NLOSStepDeg: 10, Seed: 2}

	serial := base
	serial.Runner = pool.NewRunner(1)
	parallel := base
	parallel.Runner = pool.NewRunner(8)

	a, err := Fig9(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig9(context.Background(), parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Fig 9 differs between runners of 1 and 8 slots")
	}
}

// TestAblationParallelDeterminism: an ablation table is identical on a
// runner of 1 slot and one of 4, so movrsim -workers does not move it.
func TestAblationParallelDeterminism(t *testing.T) {
	a := AblationGainBackoff(1, pool.NewRunner(1))
	b := AblationGainBackoff(1, pool.NewRunner(4))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("gain back-off ablation differs between runners of 1 and 4 slots:\n%+v\n%+v", a, b)
	}
}

// TestRunSessionVariant exercises the fleet-facing session entry point:
// custom rooms, mounts and blockers work; impossible rooms error instead
// of panicking; reflector variants hand off.
func TestRunSessionVariant(t *testing.T) {
	cfg := SessionConfig{
		Duration:     2 * time.Second,
		Seed:         4,
		ReEvalPeriod: 100 * time.Millisecond,
		RoomW:        6,
		RoomD:        4,
		Mounts:       []Mount{{Pos: geom.V(5.6, 3.6), FacingDeg: 225}},
		Blockers:     []room.Obstacle{room.Body(geom.V(3, 2))},
	}
	out, err := RunSessionVariant(cfg, VariantMoVRTracking)
	if err != nil {
		t.Fatal(err)
	}
	if out.Report.Frames == 0 {
		t.Fatal("no frames streamed")
	}
	if out.Handoffs < 0 {
		t.Fatalf("handoffs = %d", out.Handoffs)
	}

	// Direct-only never has a reflector to hand off to.
	direct, err := RunSessionVariant(cfg, VariantDirectOnly)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Handoffs != 0 {
		t.Errorf("direct-only handoffs = %d, want 0", direct.Handoffs)
	}

	// A room too small to walk in is an error, not a panic.
	bad := cfg
	bad.RoomW, bad.RoomD = 0.9, 0.9
	if _, err := RunSessionVariant(bad, VariantMoVRTracking); err == nil {
		t.Error("sub-metre room should fail")
	}
}

// TestSessionExplicitFootprint: an explicit footprint — even 5 × 5 —
// builds a bare drywall room, while the zero-value default keeps the
// furnished office testbed.
func TestSessionExplicitFootprint(t *testing.T) {
	office, err := sessionWorld(SessionConfig{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	bare, err := sessionWorld(SessionConfig{RoomW: 5, RoomD: 5}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bare.Room.Walls()); got != 4 {
		t.Errorf("explicit 5x5 room has %d walls, want 4 bare perimeter walls", got)
	}
	if got := len(office.Room.Walls()); got <= 4 {
		t.Errorf("default room has %d walls, want the furnished office", got)
	}
}
