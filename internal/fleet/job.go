package fleet

import (
	"context"
	"fmt"

	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/obs"
	"github.com/movr-sim/movr/internal/venue"
)

// Aggregation paths of a fleet job: the exact collector keeps every
// per-session outcome, the stream collector folds them into fixed-bin
// sketches at constant memory.
const (
	AggExact  = "exact"
	AggStream = "stream"
)

// Job is one fleet run as a front-end states it: the scenario kind, the
// session count, the generator config and the run options. Resolve
// applies the job's rules and defaults; Run executes the resolved job.
// The movrsim CLI and the movrd job API both build a Job from their own
// knobs and go through these two calls, so neither keeps a copy of a
// rule.
type Job struct {
	Kind Kind

	// Sessions is the session count; 0 sizes a venue to its whole bay
	// grid and any other kind to the front-end's default.
	Sessions int

	Config ScenarioConfig

	// Agg is AggExact or AggStream; empty streams a venue and runs
	// every other kind exactly.
	Agg string

	// Trace records a per-session event trace during Run.
	Trace bool
}

// Frontend describes a caller of Resolve: its session count for a job
// that names none, and how it spells each knob, so an error names the
// flag or field the user actually set.
type Frontend struct {
	DefaultSessions int

	Scenario, Sessions, Players, Policy, Uplink        string
	Bays, Channels, Assign, InterferenceOff, Admission string
	Agg                                                string
}

// goNames spells the knobs by their Job and ScenarioConfig field names,
// for callers that set those fields directly.
var goNames = Frontend{
	Scenario: "Kind", Sessions: "Sessions", Players: "HeadsetsPerRoom",
	Policy: "CoexPolicy", Uplink: "CoexUplink", Bays: "VenueBays",
	Channels: "VenueChannels", Assign: "VenueAssign",
	InterferenceOff: "VenueInterferenceOff", Admission: "VenueAdmission",
	Agg: "Agg",
}

// forcedPolicy maps the policy-suffixed kinds to the policy they are
// shorthand for.
var forcedPolicy = map[Kind]coex.PolicyName{
	KindCoexPF:  coex.PolicyPF,
	KindCoexEDF: coex.PolicyEDF,
}

// Resolve validates the job and fills in every default, so that equal
// jobs resolve to equal values whatever their spelling. It folds the
// coexpf and coexedf shorthands into KindCoex with an explicit policy,
// holds the coex-family knobs (players, policy, uplink) and
// the venue-only knobs (bays, channels, assignment, interference,
// admission) to their kinds and bounds, sizes the session count and
// picks the aggregation path. Resolving a resolved job changes nothing.
func (j Job) Resolve(fe Frontend) (Job, error) {
	if j.Kind == "" {
		j.Kind = KindMixed
	}
	if _, err := ParseKind(string(j.Kind)); err != nil {
		return Job{}, err
	}
	if forced, ok := forcedPolicy[j.Kind]; ok {
		if j.Config.CoexPolicy != "" && j.Config.CoexPolicy != forced {
			return Job{}, fmt.Errorf("%s %q conflicts with %s %q", fe.Scenario, j.Kind, fe.Policy, j.Config.CoexPolicy)
		}
		j.Kind, j.Config.CoexPolicy = KindCoex, forced
	}
	cfg, err := j.Config.resolve(j.Kind, fe)
	if err != nil {
		return Job{}, err
	}
	j.Config = cfg
	if j.Sessions == 0 && IsVenueKind(j.Kind) {
		j.Sessions = cfg.VenueBays * cfg.HeadsetsPerRoom
	}
	switch {
	case j.Sessions == 0:
		j.Sessions = fe.DefaultSessions
	case j.Sessions < 0:
		return Job{}, fmt.Errorf("%s %d must be positive", fe.Sessions, j.Sessions)
	}
	switch j.Agg {
	case "":
		j.Agg = AggExact
		if IsVenueKind(j.Kind) {
			// Hundreds of venue sessions fold at constant memory.
			j.Agg = AggStream
		}
	case AggExact, AggStream:
	default:
		return Job{}, fmt.Errorf("unknown %s %q (%s|%s)", fe.Agg, j.Agg, AggExact, AggStream)
	}
	return j, nil
}

// resolve applies the scenario config's rules for kind, which must
// already be folded (no coexpf or coexedf).
func (cfg ScenarioConfig) resolve(kind Kind, fe Frontend) (ScenarioConfig, error) {
	if IsCoexKind(kind) {
		switch {
		case cfg.HeadsetsPerRoom == 0:
			cfg.HeadsetsPerRoom = DefaultCoexHeadsets
		case cfg.HeadsetsPerRoom < 0:
			return cfg, fmt.Errorf("%s %d must be positive", fe.Players, cfg.HeadsetsPerRoom)
		case cfg.HeadsetsPerRoom > MaxCoexHeadsets:
			return cfg, fmt.Errorf("%s %d exceeds the limit of %d", fe.Players, cfg.HeadsetsPerRoom, MaxCoexHeadsets)
		}
		policy, err := coex.ParsePolicy(string(cfg.CoexPolicy))
		if err != nil {
			return cfg, err
		}
		cfg.CoexPolicy = policy
		if cfg.CoexUplink < 0 {
			return cfg, fmt.Errorf("%s %v must not be negative", fe.Uplink, cfg.CoexUplink)
		}
	} else {
		family := fmt.Sprintf("only meaningful for the %q scenario family", KindCoex)
		switch {
		case cfg.HeadsetsPerRoom != 0:
			return cfg, fmt.Errorf("%s is %s", fe.Players, family)
		case cfg.CoexPolicy != "":
			return cfg, fmt.Errorf("%s is %s", fe.Policy, family)
		case cfg.CoexUplink != 0:
			return cfg, fmt.Errorf("%s is %s", fe.Uplink, family)
		}
	}
	if !IsVenueKind(kind) {
		if cfg.VenueBays != 0 || cfg.VenueChannels != 0 || cfg.VenueAssign != "" || cfg.VenueInterferenceOff || cfg.VenueAdmission != "" {
			return cfg, fmt.Errorf("%s/%s/%s/%s/%s are only meaningful for the %q scenario",
				fe.Bays, fe.Channels, fe.Assign, fe.InterferenceOff, fe.Admission, KindVenue)
		}
		return cfg, nil
	}
	switch {
	case cfg.VenueBays == 0:
		cfg.VenueBays = DefaultVenueBays
	case cfg.VenueBays < 0:
		return cfg, fmt.Errorf("%s %d must be positive", fe.Bays, cfg.VenueBays)
	case cfg.VenueBays > MaxVenueBays:
		return cfg, fmt.Errorf("%s %d exceeds the limit of %d", fe.Bays, cfg.VenueBays, MaxVenueBays)
	}
	switch {
	case cfg.VenueChannels == 0:
		cfg.VenueChannels = venue.DefaultChannels
	case cfg.VenueChannels < 0:
		return cfg, fmt.Errorf("%s %d must be positive", fe.Channels, cfg.VenueChannels)
	case cfg.VenueChannels > venue.MaxChannels:
		return cfg, fmt.Errorf("%s %d exceeds the limit of %d", fe.Channels, cfg.VenueChannels, venue.MaxChannels)
	}
	mode, err := venue.ParseAssignMode(string(cfg.VenueAssign))
	if err != nil {
		return cfg, err
	}
	cfg.VenueAssign = mode
	if cfg.VenueAdmission, err = ParseAdmission(cfg.VenueAdmission); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// Run executes a resolved job by the one recipe both front-ends share:
// generate the specs, let expand widen them (nil keeps them as they
// are), size the stream collector from that set, attach trace recorders
// when j.Trace is set, and run. The trace is nil unless j.Trace is set.
func (j Job) Run(ctx context.Context, cfg Config, expand func([]Spec) []Spec) (Result, *obs.Trace, error) {
	specs, err := j.Kind.Specs(j.Sessions, j.Config)
	if err != nil {
		return Result{}, nil, err
	}
	if expand != nil {
		specs = expand(specs)
	}
	var col Collector
	if j.Agg == AggStream {
		col = StreamCollectorFor(specs)
	}
	var recs []*obs.Recorder
	if j.Trace {
		recs = AttachTraceRecorders(specs, 0)
	}
	res, err := RunCollect(ctx, specs, cfg, col)
	if err != nil || !j.Trace {
		return res, nil, err
	}
	tr := CollectTrace(specs, recs)
	return res, &tr, nil
}
