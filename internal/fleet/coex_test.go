package fleet

import (
	"context"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/coex"
)

// coexTestCfg is the seeded configuration every coexistence test runs
// under; 2 s at the 50 ms cadence is long enough for rotation and
// blockage diversity while staying fast.
func coexTestCfg() ScenarioConfig {
	return ScenarioConfig{Seed: 7, Duration: 2 * time.Second}
}

func mustCoex(t *testing.T, rooms, headsetsPerRoom int, cfg ScenarioConfig) []Spec {
	t.Helper()
	specs, err := Coex(rooms, headsetsPerRoom, cfg)
	if err != nil {
		t.Fatalf("Coex(%d, %d): %v", rooms, headsetsPerRoom, err)
	}
	return specs
}

func meanDelivered(t *testing.T, specs []Spec) float64 {
	t.Helper()
	res, err := Run(context.Background(), specs, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Agg.DeliveredFrac.Mean
}

// TestCoexContentionMonotone is the headline property of the coex
// workload: sharing one 60 GHz medium hurts, and hurts more the more
// players share it. With the same seed and duration, mean per-player
// delivered rate is strictly ordered
//
//	coex 4 players < coex 2 players < independent arcade sessions
//
// — the independent arcade baseline gives every player the full channel
// (contention-free), so it upper-bounds both shared rooms.
func TestCoexContentionMonotone(t *testing.T) {
	cfg := coexTestCfg()
	arcade := meanDelivered(t, Arcade(1, 4, cfg))
	coex2 := meanDelivered(t, mustCoex(t, 1, 2, cfg))
	coex4 := meanDelivered(t, mustCoex(t, 1, 4, cfg))

	t.Logf("mean delivered: arcade=%.4f coex2=%.4f coex4=%.4f", arcade, coex2, coex4)
	if !(coex4 < coex2) {
		t.Errorf("4-player bay (%.4f) should deliver strictly less than 2-player bay (%.4f)", coex4, coex2)
	}
	if !(coex2 < arcade) {
		t.Errorf("2-player shared bay (%.4f) should deliver strictly less than independent arcade (%.4f)", coex2, arcade)
	}
}

// TestCoexPolicyAcceptance is the airtime-policy acceptance property:
// under 4-player contention on the pinned seed, the proportional-fair
// and deadline-aware policies each deliver a mean per-player rate at
// least as high as the round-robin default — pf by steering airtime to
// the players whose tracked geometry can use it, edf by refusing to
// split airtime across display frame deadlines (a slot boundary in the
// middle of a frame interval wastes the air on both sides of it).
func TestCoexPolicyAcceptance(t *testing.T) {
	cfg := coexTestCfg()
	rr := meanDelivered(t, mustCoex(t, 1, 4, cfg))

	pfCfg := cfg
	pfCfg.CoexPolicy = coex.PolicyPF
	pf := meanDelivered(t, mustCoex(t, 1, 4, pfCfg))

	edfCfg := cfg
	edfCfg.CoexPolicy = coex.PolicyEDF
	edf := meanDelivered(t, mustCoex(t, 1, 4, edfCfg))

	t.Logf("mean delivered under 4-player contention: rr=%.4f pf=%.4f edf=%.4f", rr, pf, edf)
	if pf < rr {
		t.Errorf("proportional-fair mean delivered %.4f fell below round-robin %.4f", pf, rr)
	}
	if edf < rr {
		t.Errorf("deadline-aware mean delivered %.4f fell below round-robin %.4f", edf, rr)
	}
}

// TestCoexPolicyKindsThreadThePolicy pins the policy plumbing: the
// coexpf/coexedf kinds (and the explicit CoexPolicy knob) arrive in
// every generated session's coex room, along with the uplink knob,
// while the plain coex kind stays on the round-robin default.
func TestCoexPolicyKindsThreadThePolicy(t *testing.T) {
	cfg := coexTestCfg()
	cfg.CoexUplink = 300 * time.Microsecond
	for kind, want := range map[Kind]coex.PolicyName{
		KindCoex:    "",
		KindCoexPF:  coex.PolicyPF,
		KindCoexEDF: coex.PolicyEDF,
	} {
		specs := mustSpecs(t, kind, 4, cfg)
		for _, sp := range specs {
			rm := sp.Session.Coex
			if rm == nil {
				t.Fatalf("%s session %q has no coex room", kind, sp.ID)
			}
			if rm.Policy != want {
				t.Errorf("%s session %q: policy %q, want %q", kind, sp.ID, rm.Policy, want)
			}
			if rm.UplinkSlot != cfg.CoexUplink {
				t.Errorf("%s session %q: uplink %v, want %v", kind, sp.ID, rm.UplinkSlot, cfg.CoexUplink)
			}
		}
	}
	if !IsCoexKind(KindCoex) || !IsCoexKind(KindCoexPF) || !IsCoexKind(KindCoexEDF) {
		t.Error("IsCoexKind must cover the whole coex family")
	}
	if IsCoexKind(KindMixed) || IsCoexKind(KindArcade) {
		t.Error("IsCoexKind must reject non-coex kinds")
	}
}

// TestLegacyKindsCarryNoCoex guards the byte-identity of the historical
// scenarios: the coex machinery must be dormant for every pre-existing
// kind, so their generated sessions — and therefore their aggregates —
// are untouched by this subsystem.
func TestLegacyKindsCarryNoCoex(t *testing.T) {
	cfg := coexTestCfg()
	for _, kind := range []Kind{KindMixed, KindArcade, KindHome, KindDense} {
		specs := mustSpecs(t, kind, 8, cfg)
		for _, sp := range specs {
			if sp.Session.Coex != nil {
				t.Errorf("%s session %q carries a coex config", kind, sp.ID)
			}
		}
	}
}

// TestCoexRoomsShareTraces pins the invariant the per-session schedulers
// rely on: every session in a bay is built over the identical player
// list, with itself at its own slot.
func TestCoexRoomsShareTraces(t *testing.T) {
	specs := mustCoex(t, 2, 3, coexTestCfg())
	if len(specs) != 6 {
		t.Fatalf("generated %d specs, want 6", len(specs))
	}
	for r := 0; r < 2; r++ {
		first := specs[r*3].Session.Coex
		for h := 0; h < 3; h++ {
			c := specs[r*3+h].Session.Coex
			if c == nil {
				t.Fatalf("room %d session %d has no coex config", r, h)
			}
			if c.Self != h {
				t.Errorf("room %d session %d: Self = %d", r, h, c.Self)
			}
			if len(c.Players) != 3 {
				t.Fatalf("room %d session %d: %d players", r, h, len(c.Players))
			}
			for p := range c.Players {
				if &c.Players[p][0] != &first.Players[p][0] {
					t.Errorf("room %d session %d: player %d trace not shared with the room", r, h, p)
				}
			}
		}
	}
	// Rooms must not share traces with each other.
	if &specs[0].Session.Coex.Players[0][0] == &specs[3].Session.Coex.Players[0][0] {
		t.Error("distinct rooms share a player trace")
	}
}
