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

// TestCoexGeometryOnOffByteIdentical is the tentpole's end-to-end
// equivalence pin: a bay whose sessions read the room-owned geometry
// snapshot must produce byte-identical streaming reports to the same
// bay with the snapshot stripped (live per-session evaluation) — every
// field of every session's report, not just the aggregate.
func TestCoexGeometryOnOffByteIdentical(t *testing.T) {
	cfg := coexTestCfg()
	withGeo := mustCoex(t, 1, 4, cfg)

	without := make([]Spec, len(withGeo))
	for i, sp := range withGeo {
		rm := *sp.Session.Coex
		if rm.Geometry == nil {
			t.Fatalf("session %q: fleet generator attached no room geometry", sp.ID)
		}
		rm.Geometry = nil
		sp.Session.Coex = &rm
		without[i] = sp
	}

	resGeo, err := Run(context.Background(), withGeo, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	resLive, err := Run(context.Background(), without, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resGeo.Sessions) != len(resLive.Sessions) {
		t.Fatalf("%d vs %d sessions", len(resGeo.Sessions), len(resLive.Sessions))
	}
	for i := range resGeo.Sessions {
		g, l := resGeo.Sessions[i], resLive.Sessions[i]
		if g.ID != l.ID {
			t.Fatalf("session order diverged: %q vs %q", g.ID, l.ID)
		}
		if g.Report != l.Report {
			t.Errorf("session %q: snapshot report %+v != live report %+v", g.ID, g.Report, l.Report)
		}
		if g.Handoffs != l.Handoffs {
			t.Errorf("session %q: snapshot handoffs %d != live %d", g.ID, g.Handoffs, l.Handoffs)
		}
	}
}
