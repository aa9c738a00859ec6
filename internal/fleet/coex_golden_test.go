package fleet

import (
	"context"
	"testing"

	"github.com/movr-sim/movr/internal/coex"
)

// Golden coexistence results: the shared-room pipeline — trace
// generation, room-owned geometry snapshot, TDMA scheduling, peer-body
// blockage, streaming — is deterministic end to end, so the pinned
// seed-7 bay must reproduce these exact frame counts on every run and
// after every refactor. The values were frozen from the pre-snapshot
// implementation; the room-owned Geometry and the temporally coherent
// path cache must not move them by a single frame.

// coexGolden pins per-session (frames, delivered) under each policy.
var coexGolden = map[coex.PolicyName]struct {
	mean      float64
	delivered [4]int
}{
	coex.PolicyRR:  {mean: 0.097222222222222224, delivered: [4]int{0, 35, 0, 35}},
	coex.PolicyPF:  {mean: 0.14999999999999999, delivered: [4]int{0, 108, 0, 0}},
	coex.PolicyEDF: {mean: 0.12916666666666665, delivered: [4]int{0, 41, 0, 52}},
}

func TestCoexGoldenSeed7Frozen(t *testing.T) {
	for policy, want := range coexGolden {
		cfg := coexTestCfg()
		if policy != coex.PolicyRR {
			cfg.CoexPolicy = policy
		}
		res, err := Run(context.Background(), mustCoex(t, 1, 4, cfg), Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Agg.DeliveredFrac.Mean; got != want.mean {
			t.Errorf("%s: mean delivered %.17g, golden %.17g", policy, got, want.mean)
		}
		if len(res.Sessions) != 4 {
			t.Fatalf("%s: %d sessions, want 4", policy, len(res.Sessions))
		}
		for i, r := range res.Sessions {
			if r.Report.Frames != 180 {
				t.Errorf("%s session %s: %d frames, golden 180", policy, r.ID, r.Report.Frames)
			}
			if r.Report.Delivered != want.delivered[i] {
				t.Errorf("%s session %s: %d delivered, golden %d", policy, r.ID, r.Report.Delivered, want.delivered[i])
			}
		}
	}
}
