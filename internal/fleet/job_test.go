package fleet

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/venue"
)

// testNames is a front-end with a default session count, for tests that
// resolve jobs without one of the real front-ends.
var testNames = func() Frontend {
	fe := goNames
	fe.DefaultSessions = 8
	return fe
}()

// TestResolveDefaults pins the resolved form of each family: the
// shorthand kinds fold into KindCoex with their policy, coex knobs
// default to a four-player round-robin bay, and a venue sizes itself to
// its whole bay grid and streams.
func TestResolveDefaults(t *testing.T) {
	cases := []struct {
		in   Job
		want Job
	}{
		{Job{}, Job{Kind: KindMixed, Sessions: 8, Agg: AggExact}},
		{Job{Kind: KindHome, Sessions: 3, Agg: AggStream}, Job{Kind: KindHome, Sessions: 3, Agg: AggStream}},
		{Job{Kind: KindCoexEDF}, Job{Kind: KindCoex, Sessions: 8, Agg: AggExact,
			Config: ScenarioConfig{HeadsetsPerRoom: 4, CoexPolicy: coex.PolicyEDF}}},
		{Job{Kind: KindCoexPF, Config: ScenarioConfig{CoexPolicy: coex.PolicyPF}}, Job{Kind: KindCoex, Sessions: 8, Agg: AggExact,
			Config: ScenarioConfig{HeadsetsPerRoom: 4, CoexPolicy: coex.PolicyPF}}},
		{Job{Kind: KindVenue}, Job{Kind: KindVenue, Sessions: 16, Agg: AggStream,
			Config: ScenarioConfig{HeadsetsPerRoom: 4, CoexPolicy: coex.PolicyRR, VenueBays: 4, VenueChannels: 3,
				VenueAssign: "color", VenueAdmission: AdmissionQueue}}},
		{Job{Kind: KindVenue, Sessions: 8, Shard: Shard{Index: 0, Count: 1}}, Job{Kind: KindVenue, Sessions: 8, Agg: AggStream,
			Config: ScenarioConfig{HeadsetsPerRoom: 4, CoexPolicy: coex.PolicyRR, VenueBays: 4, VenueChannels: 3,
				VenueAssign: "color", VenueAdmission: AdmissionQueue}}},
	}
	for _, tc := range cases {
		got, err := tc.in.Resolve(testNames)
		if err != nil {
			t.Fatalf("%+v: %v", tc.in, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Resolve(%+v)\n got %+v\nwant %+v", tc.in, got, tc.want)
		}
		again, err := got.Resolve(testNames)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Errorf("Resolve is not idempotent on %+v: %+v, %v", got, again, err)
		}
	}
}

// TestResolveRejects pins each rule's error, named in the front-end's
// spelling.
func TestResolveRejects(t *testing.T) {
	cases := []struct {
		job  Job
		want string
	}{
		{Job{Kind: "stadium"}, "unknown scenario"},
		{Job{Sessions: -1}, "Sessions -1 must be positive"},
		{Job{Kind: KindCoexPF, Config: ScenarioConfig{CoexPolicy: coex.PolicyEDF}}, `Kind "coexpf" conflicts with CoexPolicy "edf"`},
		{Job{Kind: KindCoex, Config: ScenarioConfig{HeadsetsPerRoom: 9}}, "HeadsetsPerRoom 9 exceeds the limit of 8"},
		{Job{Kind: KindCoex, Config: ScenarioConfig{CoexPolicy: "fifo"}}, "unknown airtime policy"},
		{Job{Kind: KindCoex, Config: ScenarioConfig{CoexUplink: -time.Millisecond}}, "CoexUplink -1ms must not be negative"},
		{Job{Kind: KindMixed, Config: ScenarioConfig{CoexUplink: time.Millisecond}}, "CoexUplink is only meaningful"},
		{Job{Kind: KindHome, Config: ScenarioConfig{CoexWeights: []float64{1}}}, "weights are only meaningful"},
		{Job{Kind: KindCoex, Config: ScenarioConfig{VenueBays: 2}}, "only meaningful for the \"venue\" scenario"},
		{Job{Kind: KindVenue, Config: ScenarioConfig{VenueBays: MaxVenueBays + 1}}, "VenueBays 65 exceeds the limit of 64"},
		{Job{Kind: KindVenue, Config: ScenarioConfig{VenueChannels: -1}}, "VenueChannels -1 must be positive"},
		{Job{Kind: KindVenue, Config: ScenarioConfig{VenueAssign: "roulette"}}, "unknown assignment mode"},
		{Job{Kind: KindVenue, Config: ScenarioConfig{VenueAdmission: "waitlist"}}, "unknown admission behavior"},
		{Job{Agg: "sketch"}, `unknown Agg "sketch"`},
		{Job{Shard: Shard{Index: 2, Count: 2}}, "shard index 2 outside [0,2)"},
		{Job{Sessions: 3, Shard: Shard{Index: 0, Count: 4}}, "shard count 4 exceeds Sessions 3"},
	}
	for _, tc := range cases {
		_, err := tc.job.Resolve(testNames)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Resolve(%+v) = %v, want an error containing %q", tc.job, err, tc.want)
		}
	}
}

// TestUplinkFillingWindowIsAnError: an uplink reservation that leaves a
// bay no downlink airtime is the generator's error, not a panic — for a
// coex bay of four players reserving 30 ms each of a 100 ms window, and
// for a venue whose 100 ms reservation leaves even its one admitted
// player nothing.
func TestUplinkFillingWindowIsAnError(t *testing.T) {
	for _, job := range []Job{
		{Kind: KindCoex, Sessions: 4, Config: ScenarioConfig{HeadsetsPerRoom: 4, CoexUplink: 30 * time.Millisecond}},
		{Kind: KindVenue, Config: ScenarioConfig{CoexUplink: 100 * time.Millisecond}},
	} {
		job.Config.Seed, job.Config.Duration, job.Config.ReEvalPeriod = 1, time.Second, 100*time.Millisecond
		resolved, err := job.Resolve(testNames)
		if err != nil {
			t.Fatalf("%s: %v", job.Kind, err)
		}
		_, _, err = resolved.Run(context.Background(), Config{Workers: 1}, nil)
		if err == nil || !strings.Contains(err.Error(), "uplink") {
			t.Errorf("%s with a %v uplink: error %v, want one naming the uplink", job.Kind, job.Config.CoexUplink, err)
		}
	}
}

// FuzzScenarioSpecs drives arbitrary knobs through the resolver and
// the generators: neither may panic, the resolver is idempotent, and an
// accepted job generates at most its session count. The cadence is
// held to [5 ms, 1 s] and the duration to (0, 300 ms], so one input
// stays cheap. The seed corpus under testdata/fuzz/FuzzScenarioSpecs
// holds the uplink edges (exactly filling the window, one nanosecond
// under it, a venue whose uplink admits one player, uplink on mixed), a
// coexpf + edf conflict and the largest venue, 64 bays × 8 players.
func FuzzScenarioSpecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind string, n, players int, policy string, uplink int64,
		bays, channels int, assign, admission string, cadence, duration int64) {
		period := time.Duration(cadence)
		if period < 5*time.Millisecond || period > time.Second {
			period = 5*time.Millisecond + time.Duration(uint64(cadence)%uint64(995*time.Millisecond))
		}
		length := time.Duration(duration % int64(300*time.Millisecond))
		if length <= 0 {
			length += 300 * time.Millisecond
		}
		job := Job{
			Kind:     Kind(kind),
			Sessions: n % 513,
			Config: ScenarioConfig{
				Seed:            1,
				Duration:        length,
				ReEvalPeriod:    period,
				HeadsetsPerRoom: players,
				CoexPolicy:      coex.PolicyName(policy),
				CoexUplink:      time.Duration(uplink),
				VenueBays:       bays,
				VenueChannels:   channels,
				VenueAssign:     venue.AssignMode(assign),
				VenueAdmission:  admission,
			},
		}
		resolved, err := job.Resolve(testNames)
		if err != nil {
			return
		}
		again, err := resolved.Resolve(testNames)
		if err != nil {
			t.Fatalf("resolved job %+v rejected: %v", resolved, err)
		}
		if !reflect.DeepEqual(again, resolved) {
			t.Fatalf("Resolve not idempotent: %+v then %+v", resolved, again)
		}
		specs, err := resolved.Kind.Specs(resolved.Sessions, resolved.Config)
		if err != nil {
			return
		}
		if len(specs) > resolved.Sessions {
			t.Fatalf("%s: %d specs for %d sessions", resolved.Kind, len(specs), resolved.Sessions)
		}
	})
}
