package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"github.com/movr-sim/movr/internal/fleet"
)

// fleetJobFromArgs parses args as movrsim's fleet flags and resolves the
// job they name, as a -fast run at seed 1.
func fleetJobFromArgs(t *testing.T, args ...string) (fleet.Job, error) {
	t.Helper()
	fs := flag.NewFlagSet("movrsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var ff fleetFlags
	ff.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return ff.job(1, true)
}

// TestFleetFlagRejections holds the CLI to the job API's rules: every
// rejection of the server's spec tests that has a flag spelling is a
// usage error here too, naming the flag.
func TestFleetFlagRejections(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		// The job API's TestNormalizeRejectsBadSpecs.
		{"bad scenario", []string{"-scenario", "stadium"}, "unknown scenario"},
		{"negative sessions", []string{"-sessions", "-1"}, "-sessions -1 must be positive"},
		// The job API's TestVenueSpecValidation.
		{"too many bays", []string{"-scenario", "venue", "-bays", "65"}, "-bays 65 exceeds the limit of 64"},
		{"negative bays", []string{"-scenario", "venue", "-bays", "-1"}, "-bays -1 must be positive"},
		{"too many channels", []string{"-scenario", "venue", "-channels", "5"}, "-channels 5 exceeds the limit of 4"},
		{"unknown assign", []string{"-scenario", "venue", "-assign", "roulette"}, "assignment mode"},
		{"unknown admission", []string{"-scenario", "venue", "-admission", "waitlist"}, "admission"},
		{"bays on coex", []string{"-scenario", "coex", "-bays", "2"}, "only meaningful"},
		{"admission on mixed", []string{"-admission", "queue"}, "only meaningful"},
		{"interference_off on home", []string{"-scenario", "home", "-interference-off"}, "only meaningful"},
		// The coex-family rules.
		{"players on mixed", []string{"-players", "2"}, `-players is only meaningful for the "coex" scenario family`},
		{"too many players", []string{"-scenario", "coex", "-players", "9"}, "-players 9 exceeds the limit of 8"},
		{"too many players per bay", []string{"-scenario", "venue", "-players-per-bay", "9"}, "-players-per-bay 9 exceeds"},
		{"policy on home", []string{"-scenario", "home", "-coex-policy", "pf"}, "-coex-policy is only meaningful"},
		{"shorthand conflict", []string{"-scenario", "coexpf", "-coex-policy", "edf"}, `-scenario "coexpf" conflicts with -coex-policy "edf"`},
		{"negative uplink", []string{"-scenario", "coex", "-uplink", "-1ms"}, "-uplink -1ms must not be negative"},
		{"uplink on dense", []string{"-scenario", "dense", "-uplink", "1ms"}, "-uplink is only meaningful"},
		// Flag spellings of their own.
		{"players alias conflict", []string{"-scenario", "venue", "-players", "3", "-players-per-bay", "4"}, "conflicts"},
		{"unknown agg", []string{"-agg", "sketch"}, `unknown -agg "sketch"`},
		{"bad shard syntax", []string{"-shard", "2"}, "must be I/N"},
		{"shard out of range", []string{"-shard", "2/2"}, "shard index 2 outside [0,2)"},
		{"more shards than sessions", []string{"-sessions", "2", "-shard", "0/3"}, "shard count 3 exceeds -sessions 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := fleetJobFromArgs(t, tc.args...)
			if err == nil {
				t.Fatalf("%v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestVenueFlagsResolveLikeTheJobAPI pins two places where the CLI used
// to part from movrd: a venue given -sessions but no -bays keeps the
// default four bays (it used to shrink the grid to fit the sessions),
// and a venue without -agg streams.
func TestVenueFlagsResolveLikeTheJobAPI(t *testing.T) {
	job, err := fleetJobFromArgs(t, "-scenario", "venue", "-sessions", "8")
	if err != nil {
		t.Fatal(err)
	}
	if job.Config.VenueBays != 4 || job.Sessions != 8 {
		t.Errorf("-sessions 8: bays=%d sessions=%d, want 4 bays running 8 sessions", job.Config.VenueBays, job.Sessions)
	}

	job, err = fleetJobFromArgs(t, "-scenario", "venue")
	if err != nil {
		t.Fatal(err)
	}
	if job.Agg != fleet.AggStream || job.Sessions != 16 {
		t.Errorf("venue defaults: agg=%q sessions=%d, want stream over the whole 4×4 grid", job.Agg, job.Sessions)
	}
	job, err = fleetJobFromArgs(t, "-scenario", "venue", "-agg", "exact")
	if err != nil {
		t.Fatal(err)
	}
	if job.Agg != fleet.AggExact {
		t.Errorf("-agg exact resolved to %q", job.Agg)
	}

	job, err = fleetJobFromArgs(t, "-scenario", "coexedf", "-players-per-bay", "3")
	if err != nil {
		t.Fatal(err)
	}
	if job.Kind != fleet.KindCoex || job.Config.CoexPolicy != "edf" || job.Config.HeadsetsPerRoom != 3 || job.Sessions != 24 {
		t.Errorf("coexedf -players-per-bay 3 resolved to %+v", job)
	}
}
