package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/movr-sim/movr/internal/coex"
)

var updateGoldens = flag.Bool("update", false, "rewrite the fleet result goldens under testdata/")

// goldenCases are the frozen fleet runs: every scenario kind at seed 7
// and 2 s, the coex and venue families under every airtime policy (the
// venue both at its default channel budget and squeezed onto one channel,
// so every bay has co-channel neighbours), and a coex spec set whose last
// bay is truncated.
var goldenCases = []struct {
	name     string
	kind     Kind
	sessions int
	policy   coex.PolicyName
	channels int
}{
	{"mixed", KindMixed, 8, "", 0},
	{"arcade", KindArcade, 8, "", 0},
	{"home", KindHome, 8, "", 0},
	{"dense", KindDense, 8, "", 0},
	{"coex-rr", KindCoex, 8, "", 0},
	{"coex-pf", KindCoexPF, 8, "", 0},
	{"coex-edf", KindCoexEDF, 8, "", 0},
	{"coex-truncated", KindCoex, 10, "", 0},
	{"venue-rr", KindVenue, 16, "", 0},
	{"venue-pf", KindVenue, 16, coex.PolicyPF, 0},
	{"venue-edf", KindVenue, 16, coex.PolicyEDF, 0},
	{"venue1ch-rr", KindVenue, 16, "", 1},
	{"venue1ch-pf", KindVenue, 16, coex.PolicyPF, 1},
	{"venue1ch-edf", KindVenue, 16, coex.PolicyEDF, 1},
}

// TestBayBatchByteIdentical is the execution contract as a golden test:
// for every case, at every worker count, the whole fleet Result — every
// SessionOutcome plus the aggregate — must encode to exactly the bytes
// frozen under testdata/. Regenerate with `go test ./internal/fleet/
// -run TestBayBatchByteIdentical -update` only for an intentional change
// to simulation results.
func TestBayBatchByteIdentical(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := coexTestCfg()
			cfg.CoexPolicy = tc.policy
			cfg.VenueChannels = tc.channels
			specs, err := tc.kind.Specs(tc.sessions, cfg)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden_"+tc.name+".json")
			for _, workers := range []int{1, 2, 8} {
				res, err := Run(context.Background(), specs, Config{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, '\n')
				if *updateGoldens && workers == 1 {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: result differs from %s:\n%s", workers, path, got)
				}
			}
		})
	}
}

// TestBayGroupsPartialBays pins the grouping rule: a maximal run of
// consecutive specs sharing one room geometry is a bay, so a bay
// truncated by a slice boundary, or a slice starting mid-bay, runs as a
// partial bay, while specs without a shared geometry run alone.
func TestBayGroupsPartialBays(t *testing.T) {
	specs := mustCoex(t, 2, 4, coexTestCfg())
	if n := len(specs); n != 8 {
		t.Fatalf("Coex(2, 4) generated %d specs, want 8", n)
	}
	for _, tc := range []struct {
		name string
		lo   int
		hi   int
		want []specGroup
	}{
		{"full bays", 0, 8, []specGroup{{0, 4}, {4, 8}}},
		{"truncated", 0, 6, []specGroup{{0, 4}, {4, 6}}},
		{"mid-bay start", 1, 5, []specGroup{{0, 3}, {3, 4}}},
	} {
		got := bayGroups(specs[tc.lo:tc.hi])
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: grouped as %v, want %v", tc.name, got, tc.want)
		}
	}

	// A room without a shared geometry is a bay of one.
	private := mustCoex(t, 1, 3, coexTestCfg())
	for i := range private {
		rm := *private[i].Session.Coex
		rm.Geometry = nil
		private[i].Session.Coex = &rm
	}
	if got := bayGroups(append(Homes(2, coexTestCfg()), private...)); len(got) != 5 {
		t.Errorf("homes and geometry-less rooms grouped as %v, want 5 bays of one", got)
	}
}
