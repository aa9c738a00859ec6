package fleet

import (
	"context"
	"testing"

	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/venue"
)

func mustVenue(t *testing.T, bays, headsetsPerRoom int, cfg ScenarioConfig) []Spec {
	t.Helper()
	specs, err := Venue(bays, headsetsPerRoom, cfg)
	if err != nil {
		t.Fatalf("Venue(%d, %d): %v", bays, headsetsPerRoom, err)
	}
	return specs
}

// TestVenueOneBayByteIdenticalToCoex is the venue layer's bit-identity
// guard: a 1-bay venue has no neighbors, so its sessions must reproduce
// the equivalent single-room coex run byte for byte — every field of
// every streaming report, under every policy. This pins the venue
// generator to the exact rng draw order and rate path of the coex
// scenario it generalizes.
func TestVenueOneBayByteIdenticalToCoex(t *testing.T) {
	for _, policy := range []coex.PolicyName{"", coex.PolicyPF, coex.PolicyEDF} {
		cfg := coexTestCfg()
		cfg.CoexPolicy = policy
		coexSpecs := mustCoex(t, 1, 4, cfg)
		venueSpecs := mustVenue(t, 1, 4, cfg)
		if len(venueSpecs) != len(coexSpecs) {
			t.Fatalf("policy %q: venue generated %d sessions, coex %d", policy, len(venueSpecs), len(coexSpecs))
		}
		for i := range venueSpecs {
			if len(venueSpecs[i].Session.Coex.ExtSINRPenaltyDB) != 0 {
				t.Fatalf("policy %q: 1-bay venue session %q carries an interference table", policy, venueSpecs[i].ID)
			}
		}
		resCoex, err := Run(context.Background(), coexSpecs, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		resVenue, err := Run(context.Background(), venueSpecs, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := range resCoex.Sessions {
			c, v := resCoex.Sessions[i], resVenue.Sessions[i]
			if v.Report != c.Report {
				t.Errorf("policy %q session %d: venue report %+v != coex report %+v", policy, i, v.Report, c.Report)
			}
			if v.Handoffs != c.Handoffs {
				t.Errorf("policy %q session %d: venue handoffs %d != coex %d", policy, i, v.Handoffs, c.Handoffs)
			}
		}
		if resVenue.Agg.DeliveredFrac.Mean != resCoex.Agg.DeliveredFrac.Mean {
			t.Errorf("policy %q: venue mean %v != coex mean %v", policy,
				resVenue.Agg.DeliveredFrac.Mean, resCoex.Agg.DeliveredFrac.Mean)
		}
	}
}

// bayMeanDelivered runs the specs and averages delivered fraction over
// the sessions of one bay (IDs "venue/b<bay>/h*").
func bayMeanDelivered(t *testing.T, specs []Spec, bay int) float64 {
	t.Helper()
	res, err := Run(context.Background(), specs, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prefix := "venue/b"
	sum, n := 0.0, 0
	for i, sp := range specs {
		if len(sp.ID) > len(prefix) && sp.ID[len(prefix)] == byte('0'+bay) {
			r := res.Sessions[i].Report
			sum += float64(r.Delivered) / float64(r.Frames)
			n++
		}
	}
	if n == 0 {
		t.Fatalf("no sessions found for bay %d", bay)
	}
	return sum / float64(n)
}

// TestVenueInterferenceMonotone is the venue acceptance property: the
// more co-channel neighbors a bay has, the less it delivers. The victim
// is bay 1, whose strongest interferer is bay 0 — bay 0's AP steers its
// mainlobe east at its own players and the spillover crosses the shared
// partition into bay 1. Bays are built in index order from one seeded
// rng, so bay 1's traces and schedule are identical in every
// configuration below; only its co-channel neighborhood moves:
//
//	2 bays, fixed 2 channels → 0 co-channel neighbors
//	2 bays, fixed 1 channel  → 1 co-channel neighbor (bay 0)
//	5 bays, fixed 1 channel  → 4 co-channel neighbors (bays 0, 2, 3, 4)
//
// and because interference power is additive over neighbors, mean
// delivered must strictly decrease down that list. Greedy coloring on
// the default 3-channel budget must then recover most of the
// single-channel loss venue-wide.
func TestVenueInterferenceMonotone(t *testing.T) {
	run := func(bays, channels int, mode venue.AssignMode) []Spec {
		cfg := coexTestCfg()
		cfg.VenueChannels = channels
		cfg.VenueAssign = mode
		return mustVenue(t, bays, 4, cfg)
	}
	clear := bayMeanDelivered(t, run(2, 2, venue.AssignFixed), 1)
	one := bayMeanDelivered(t, run(2, 1, venue.AssignFixed), 1)
	four := bayMeanDelivered(t, run(5, 1, venue.AssignFixed), 1)

	t.Logf("bay 1 mean delivered: 0 neighbors=%.4f, 1 neighbor=%.4f, 4 neighbors=%.4f", clear, one, four)
	if !(one < clear) {
		t.Errorf("one co-channel neighbor (%.4f) should deliver strictly less than none (%.4f)", one, clear)
	}
	if !(four < one) {
		t.Errorf("four co-channel neighbors (%.4f) should deliver strictly less than one (%.4f)", four, one)
	}

	// Channel assignment as the remedy: venue-wide, greedy coloring on
	// three channels must claw back at least half of what a single
	// shared channel costs against the interference-free baseline.
	offCfg := coexTestCfg()
	offCfg.VenueInterferenceOff = true
	baseline := meanDelivered(t, mustVenue(t, 5, 4, offCfg))
	worst := meanDelivered(t, run(5, 1, venue.AssignFixed))
	colored := meanDelivered(t, run(5, 3, venue.AssignColoring))

	t.Logf("venue mean delivered: baseline=%.4f colored=%.4f worst=%.4f", baseline, colored, worst)
	if !(worst < baseline) {
		t.Fatalf("single-channel venue (%.4f) should deliver less than interference-free (%.4f)", worst, baseline)
	}
	if colored > baseline {
		t.Errorf("coloring (%.4f) cannot beat the interference-free baseline (%.4f)", colored, baseline)
	}
	if recovered := (colored - worst) / (baseline - worst); recovered < 0.5 {
		t.Errorf("coloring recovered only %.0f%% of the single-channel loss", 100*recovered)
	}
}

// TestVenueInterferenceTables pins which sessions carry an interference
// input: co-channel neighbors get a table sized to the room's window
// horizon, conflict-free bays and interference-off venues get none.
func TestVenueInterferenceTables(t *testing.T) {
	cfg := coexTestCfg()
	cfg.VenueChannels = 1
	cfg.VenueAssign = venue.AssignFixed
	specs := mustVenue(t, 2, 2, cfg)
	if len(specs) != 4 {
		t.Fatalf("generated %d sessions, want 4", len(specs))
	}
	for _, sp := range specs {
		rm := sp.Session.Coex
		if rm == nil {
			t.Fatalf("session %q has no coex room", sp.ID)
		}
		if len(rm.ExtSINRPenaltyDB) == 0 {
			t.Errorf("session %q: co-channel bay carries no interference table", sp.ID)
		} else if int64(len(rm.ExtSINRPenaltyDB)) != rm.Geometry.Windows() {
			t.Errorf("session %q: table covers %d windows, snapshot %d",
				sp.ID, len(rm.ExtSINRPenaltyDB), rm.Geometry.Windows())
		}
	}

	off := cfg
	off.VenueInterferenceOff = true
	for _, sp := range mustVenue(t, 2, 2, off) {
		if len(sp.Session.Coex.ExtSINRPenaltyDB) != 0 {
			t.Errorf("interference-off session %q carries a table", sp.ID)
		}
	}
}

// TestVenueAdmission pins the capacity model and both overflow
// behaviors: the deadline-aware policy fits 4 players into the default
// 50 ms window (one 11.1 ms frame slot each), so a 6-player bay admits
// 4 and queues or rejects 2 — recorded on each bay's first session.
func TestVenueAdmission(t *testing.T) {
	if got := coex.MaxAdmissible(coex.PolicyEDF, 6, 0, 0, 0); got != 4 {
		t.Fatalf("MaxAdmissible(edf, 6) = %d, want 4", got)
	}
	if got := coex.MaxAdmissible(coex.PolicyRR, 6, 0, 0, 0); got != 6 {
		t.Fatalf("MaxAdmissible(rr, 6) = %d, want 6", got)
	}

	cfg := coexTestCfg()
	cfg.CoexPolicy = coex.PolicyEDF
	if got := VenueCapacity(6, cfg); got != 4 {
		t.Fatalf("VenueCapacity(6, edf) = %d, want 4", got)
	}

	for admission, wantQueued := range map[string]bool{AdmissionQueue: true, AdmissionReject: false} {
		c := cfg
		c.VenueAdmission = admission
		specs := mustVenue(t, 2, 6, c)
		if len(specs) != 8 {
			t.Fatalf("%s: generated %d sessions, want 2 bays × 4 admitted", admission, len(specs))
		}
		for i, sp := range specs {
			queued, rejected := sp.Session.AdmissionQueued, sp.Session.AdmissionRejected
			if i%4 == 0 {
				want := [2]int{2, 0}
				if !wantQueued {
					want = [2]int{0, 2}
				}
				if queued != want[0] || rejected != want[1] {
					t.Errorf("%s session %q: queued=%d rejected=%d, want %v", admission, sp.ID, queued, rejected, want)
				}
			} else if queued != 0 || rejected != 0 {
				t.Errorf("%s session %q: carries admission bookkeeping", admission, sp.ID)
			}
			if len(sp.Session.Coex.Players) != 4 {
				t.Errorf("%s session %q: %d players in the room, want the 4 admitted", admission, sp.ID, len(sp.Session.Coex.Players))
			}
		}
	}

	if _, err := Venue(2, 4, ScenarioConfig{Seed: 1, VenueAdmission: "waitlist"}); err == nil {
		t.Error("Venue accepted an unknown admission behavior")
	}
	if _, err := Venue(MaxVenueBays+1, 4, ScenarioConfig{Seed: 1}); err == nil {
		t.Error("Venue accepted a bay count beyond the maximum")
	}
}

// TestVenueWorkerCountInvariant extends the fleet determinism guarantee
// to the venue scenario: the same venue produces identical reports
// whatever the worker count, interference tables included.
func TestVenueWorkerCountInvariant(t *testing.T) {
	cfg := coexTestCfg()
	cfg.VenueChannels = 1
	cfg.VenueAssign = venue.AssignFixed
	specs := mustVenue(t, 2, 2, cfg)

	res1, err := Run(context.Background(), specs, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res4, err := Run(context.Background(), specs, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Sessions {
		if res1.Sessions[i].Report != res4.Sessions[i].Report {
			t.Errorf("session %q: reports diverge across worker counts", res1.Sessions[i].ID)
		}
	}
	if res1.Agg.DeliveredFrac.Mean != res4.Agg.DeliveredFrac.Mean {
		t.Error("aggregate mean diverges across worker counts")
	}
}

// TestVenueN pins the sizing rules the movrd spec layer and the CLI
// rely on: explicit VenueBays wins, otherwise enough default-size bays
// to hold n, always truncated to n sessions.
func TestVenueN(t *testing.T) {
	cfg := coexTestCfg()
	specs, err := VenueN(6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("VenueN(6) generated %d sessions", len(specs))
	}

	cfg.VenueBays = 3
	cfg.HeadsetsPerRoom = 2
	specs, err = VenueN(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("VenueN(100) with 3 bays × 2 players generated %d sessions, want all 6", len(specs))
	}
	if IsVenueKind(KindCoex) || !IsVenueKind(KindVenue) {
		t.Error("IsVenueKind must single out the venue kind")
	}
	if !IsCoexKind(KindVenue) {
		t.Error("venue sessions contend for shared air — IsCoexKind must include the kind")
	}
}
