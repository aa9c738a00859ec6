package fleet_test

import (
	"context"
	"fmt"
	"time"

	"github.com/movr-sim/movr/internal/fleet"
)

// ExampleCoex builds one shared-medium arcade bay — four headsets
// contending for a single 60 GHz channel, each co-player's body a
// moving obstacle on everyone else's mmWave paths — runs it, and reads
// the per-player delivered-rate reports. The generator precomputes the
// bay's room-owned geometry snapshot (window schedule + peer poses)
// once and shares it across all four sessions, and the whole pipeline
// is deterministic: this exact output is pinned on every run.
func ExampleCoex() {
	specs, err := fleet.Coex(1, 4, fleet.ScenarioConfig{
		Seed:     7,
		Duration: 2 * time.Second,
	})
	if err != nil {
		fmt.Println("generate failed:", err)
		return
	}
	res, err := fleet.Run(context.Background(), specs, fleet.Config{Workers: 2})
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	for _, s := range res.Sessions {
		fmt.Printf("%s delivered %3d/%d frames (%5.1f%%)\n",
			s.ID, s.Report.Delivered, s.Report.Frames, 100*s.DeliveredFrac)
	}
	fmt.Printf("bay mean delivered rate: %.4f\n", res.Agg.DeliveredFrac.Mean)
	// Output:
	// coex/r0/h0 delivered   0/180 frames (  0.0%)
	// coex/r0/h1 delivered  35/180 frames ( 19.4%)
	// coex/r0/h2 delivered   0/180 frames (  0.0%)
	// coex/r0/h3 delivered  35/180 frames ( 19.4%)
	// bay mean delivered rate: 0.0972
}
