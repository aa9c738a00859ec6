package coex_test

import (
	"fmt"
	"time"

	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/vr"
)

// ExampleBuildGeometry builds a two-player shared room, precomputes its
// schedule table, and reads one session's airtime shares from it. The
// table is built once per room and shared by every co-located session;
// it is their only schedule source, and it answers pose queries only on
// its tick grid.
func ExampleBuildGeometry() {
	players := make([]vr.Trace, 2)
	for i := range players {
		cfg := vr.DefaultTraceConfig(5, 5, int64(100+i))
		cfg.Duration = 500 * time.Millisecond
		tr, err := vr.Generate(cfg)
		if err != nil {
			fmt.Println("trace:", err)
			return
		}
		players[i] = tr
	}
	rm := coex.Room{Players: players, Policy: coex.PolicyPF}
	ap := geom.V(0.4, 0.4)

	const step = 10 * time.Millisecond
	geo, err := coex.BuildGeometry(rm, ap, step, 500*time.Millisecond)
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	fmt.Printf("snapshot: %d players, %d windows, %v pose grid\n",
		geo.Players(), geo.Windows(), geo.Step())

	rm.Geometry = geo
	s, err := coex.NewScheduler(rm)
	if err != nil {
		fmt.Println("scheduler:", err)
		return
	}
	for _, t := range []time.Duration{0, 30 * time.Millisecond, 60 * time.Millisecond} {
		fmt.Printf("share(%v) = %.2f\n", t, s.Share(t))
	}
	if _, ok := geo.PosesAtTick(15 * time.Millisecond); !ok {
		fmt.Println("PosesAtTick(15ms): off the 10ms grid")
	}
	// Output:
	// snapshot: 2 players, 11 windows, 10ms pose grid
	// share(0s) = 1.00
	// share(30ms) = 0.00
	// share(60ms) = 0.00
	// PosesAtTick(15ms): off the 10ms grid
}
