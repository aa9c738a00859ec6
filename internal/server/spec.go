// Package server exposes the whole simulator as a long-lived HTTP/JSON
// service — the movrd daemon's engine. It has four layers:
//
//   - an API layer: POST /v1/jobs accepts a scenario spec (a fleet
//     scenario, a Fig 9 study, or a coverage map), GET /v1/jobs/{id}
//     reports status and result, GET /v1/jobs/{id}/events streams
//     per-session progress as SSE, plus /healthz and /metrics;
//   - a job scheduler that multiplexes every concurrent API job onto one
//     shared bounded session pool (internal/fleet/pool.Runner), with
//     per-job cancellation, a bounded queue, and 429 backpressure;
//   - a deterministic result cache keyed by a canonical hash of the job
//     spec — fleet results are byte-identical for a given seed set, so a
//     cache hit returns the exact bytes a fresh run would produce;
//   - a metrics layer (Prometheus text format on /metrics) built on
//     internal/metrics.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/experiments"
	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/venue"
)

// Service limits: jobs are interactive API calls, not batch runs, so
// the spec is bounded before it reaches the engine.
const (
	maxFleetSessions  = 256     // sessions × variants, the real work bound
	maxFleetDuration  = 120_000 // ms
	minFleetReEvalMS  = 5       // finer cadence multiplies tick work ~linearly
	maxFig9Runs       = 500
	minFig9StepDeg    = 0.5 // OptNLOS sweeps both beams: work ~ (360/step)²
	minMapGridStep    = 0.1
	defaultSessions   = 8
	defaultDurationMS = 2000
	defaultReEvalMS   = 50
)

// specVersion is the job-API spec version this server speaks.
const specVersion = 1

// JobSpec is the wire format of POST /v1/jobs: a kind plus the matching
// sub-spec. Exactly one sub-spec may be set, and it must match Kind
// (a nil sub-spec of the right kind means "all defaults").
type JobSpec struct {
	// V is the spec version; 0 and 1 both mean v1 (the only version),
	// and normalize to the omitted field — so every spec hash from
	// before the version field stays unchanged. Unknown versions are
	// rejected as invalid.
	V int `json:"v,omitempty"`

	// Kind selects the experiment: "fleet", "fig9" or "map".
	Kind string `json:"kind"`

	Fleet *FleetJobSpec `json:"fleet,omitempty"`
	Fig9  *Fig9JobSpec  `json:"fig9,omitempty"`
	Map   *MapJobSpec   `json:"map,omitempty"`
}

// ShardSpec selects one contiguous session-range shard of a fleet job:
// the expanded session list is split into Count equal(±1) contiguous
// ranges and only range Index runs. The shard coordinates participate
// in the canonical hash — each shard is its own cacheable job — and
// shard 0/1 (the whole job) normalizes to the omitted field, so
// unsharded specs keep their pre-shard hashes.
type ShardSpec = fleet.Shard

// FleetJobSpec parameterizes a multi-session fleet run.
type FleetJobSpec struct {
	// Scenario is the generator kind: mixed|arcade|home|dense|coex|
	// coexpf|coexedf|venue (default mixed). The coexpf/coexedf
	// shorthands normalize to scenario "coex" with the matching
	// coex_policy.
	Scenario string `json:"scenario,omitempty"`

	// Sessions is the session count (default 8, max 256).
	Sessions int `json:"sessions,omitempty"`

	// Seed drives the whole scenario deterministically.
	Seed int64 `json:"seed"`

	// DurationMS is the per-session play length in milliseconds
	// (default 2000, max 120000).
	DurationMS int `json:"duration_ms,omitempty"`

	// ReEvalMS is the tracking cadence in milliseconds (default 50).
	ReEvalMS int `json:"reeval_ms,omitempty"`

	// Variants lists the system variants to run, each applied to the
	// full spec set: direct|static|reactive|tracking. Default tracking.
	Variants []string `json:"variants,omitempty"`

	// HeadsetsPerRoom sets how many players share each coex bay's
	// 60 GHz medium (coex-family scenarios only; default 4, max 8). It
	// must be zero for every other scenario, and is omitted from the
	// canonical encoding when zero — so specs from before the coex
	// scenario keep their hashes and cached results stay valid.
	HeadsetsPerRoom int `json:"headsets_per_room,omitempty"`

	// CoexPolicy selects the airtime policy of every coex bay's TDMA
	// scheduler: rr|pf|edf (coex-family scenarios only). Normalization
	// folds the round-robin default to the empty string — so pre-policy
	// coex specs keep their hashes — and folds the coexpf/coexedf
	// scenario shorthands into scenario "coex" with the matching
	// policy, so the two spellings share one cache entry.
	CoexPolicy string `json:"coex_policy,omitempty"`

	// Bays sets how many bays the venue scenario lays out on its grid
	// (venue scenario only; default 4, max 64). Like every venue field
	// it must be zero for every other scenario and is omitted from the
	// canonical encoding when unset — so pre-venue specs keep their
	// hashes and cached results stay valid.
	Bays int `json:"bays,omitempty"`

	// Channels is the venue's channel budget for bay assignment (venue
	// scenario only; default 3, max 4).
	Channels int `json:"channels,omitempty"`

	// Assign selects the venue's channel-assignment strategy:
	// color|fixed (venue scenario only; default color).
	Assign string `json:"assign,omitempty"`

	// InterferenceOff disables cross-bay interference (venue scenario
	// only), leaving the venue a replication of independent coex bays.
	InterferenceOff bool `json:"interference_off,omitempty"`

	// Admission selects what happens to players beyond a bay's TDMA
	// admission capacity: queue|reject (venue scenario only; default
	// queue). In reject mode the daemon refuses an over-capacity
	// submission outright with an admission_denied error instead of
	// running the truncated venue.
	Admission string `json:"admission,omitempty"`

	// Trace records a per-session structured event trace during the run
	// and exposes it at GET /v1/jobs/{id}/trace as Chrome trace-event
	// JSON (Perfetto-loadable). Traced jobs bypass the result cache —
	// the trace is part of the product, and the cache stores only
	// result bytes. False is omitted from the canonical encoding, so
	// pre-trace specs keep their hashes.
	Trace bool `json:"trace,omitempty"`

	// Agg selects the aggregation path: "exact" (default — every
	// per-session outcome retained in the result) or "stream"
	// (constant-memory mergeable sketches; the result carries the
	// aggregate plus sketch state and no per-session list). Exact is
	// canonically spelled as the omitted field, so pre-streaming specs
	// keep their hashes.
	Agg string `json:"agg,omitempty"`

	// Shard, when set, runs only one contiguous session-range shard of
	// the job (see ShardSpec). Shard count may not exceed Sessions, so
	// every shard is non-empty.
	Shard *ShardSpec `json:"shard,omitempty"`
}

// Fig9JobSpec parameterizes the §5.2 SNR-improvement study.
type Fig9JobSpec struct {
	// Runs is the number of random headset placements (default 20,
	// max 500).
	Runs int `json:"runs,omitempty"`

	// NLOSStepDeg is the Opt-NLOS sweep granularity (default 2,
	// min 0.5 — sweep work grows quadratically as the step shrinks).
	NLOSStepDeg float64 `json:"nlos_step_deg,omitempty"`

	// Seed fixes the placements.
	Seed int64 `json:"seed"`
}

// MapJobSpec parameterizes a coverage heatmap.
type MapJobSpec struct {
	// GridStep is the sampling pitch in metres (default 0.5, min 0.1).
	GridStep float64 `json:"grid_step,omitempty"`

	// WithReflector toggles the MoVR reflector install.
	WithReflector bool `json:"with_reflector"`
}

// variantNames maps the wire vocabulary to the session variants.
var variantNames = map[string]experiments.SessionVariant{
	"direct":   experiments.VariantDirectOnly,
	"static":   experiments.VariantMoVRStatic,
	"reactive": experiments.VariantMoVRReactive,
	"tracking": experiments.VariantMoVRTracking,
}

// Normalize validates the spec and fills every defaultable field with
// its explicit value, so that logically identical specs normalize to
// the same value — the property the canonical Hash (and therefore the
// result cache) keys on.
func (s JobSpec) Normalize() (JobSpec, error) {
	if s.V != 0 && s.V != specVersion {
		return JobSpec{}, fmt.Errorf("spec: unknown spec version %d (this server speaks v%d)", s.V, specVersion)
	}
	set := 0
	for _, sub := range []bool{s.Fleet != nil, s.Fig9 != nil, s.Map != nil} {
		if sub {
			set++
		}
	}
	if set > 1 {
		return JobSpec{}, fmt.Errorf("spec: more than one experiment sub-spec set")
	}
	switch s.Kind {
	case "fleet":
		if s.Fig9 != nil || s.Map != nil {
			return JobSpec{}, fmt.Errorf("spec: kind %q with mismatched sub-spec", s.Kind)
		}
		f := FleetJobSpec{}
		if s.Fleet != nil {
			f = *s.Fleet
		}
		nf, err := f.normalize()
		if err != nil {
			return JobSpec{}, err
		}
		return JobSpec{Kind: "fleet", Fleet: &nf}, nil
	case "fig9":
		if s.Fleet != nil || s.Map != nil {
			return JobSpec{}, fmt.Errorf("spec: kind %q with mismatched sub-spec", s.Kind)
		}
		f := Fig9JobSpec{}
		if s.Fig9 != nil {
			f = *s.Fig9
		}
		nf, err := f.normalize()
		if err != nil {
			return JobSpec{}, err
		}
		return JobSpec{Kind: "fig9", Fig9: &nf}, nil
	case "map":
		if s.Fleet != nil || s.Fig9 != nil {
			return JobSpec{}, fmt.Errorf("spec: kind %q with mismatched sub-spec", s.Kind)
		}
		m := MapJobSpec{}
		if s.Map != nil {
			m = *s.Map
		}
		nm, err := m.normalize()
		if err != nil {
			return JobSpec{}, err
		}
		return JobSpec{Kind: "map", Map: &nm}, nil
	case "":
		return JobSpec{}, fmt.Errorf("spec: missing kind (fleet|fig9|map)")
	default:
		return JobSpec{}, fmt.Errorf("spec: unknown kind %q (fleet|fig9|map)", s.Kind)
	}
}

// wireNames spells the fleet knobs by their JSON fields, so a rejected
// spec names the field at fault.
var wireNames = fleet.Frontend{
	DefaultSessions: defaultSessions,

	Scenario: "scenario", Sessions: "sessions", Players: "headsets_per_room",
	Policy: "coex_policy", Uplink: "uplink", Bays: "bays", Channels: "channels",
	Assign: "assign", InterferenceOff: "interference_off", Admission: "admission",
	Agg: "agg",
}

// normalize resolves the spec through the fleet job rules, applies the
// service limits and writes the resolved fields back in their canonical
// spelling.
func (f FleetJobSpec) normalize() (FleetJobSpec, error) {
	job, err := f.job().Resolve(wireNames)
	if err != nil {
		return FleetJobSpec{}, fmt.Errorf("spec: %w", err)
	}
	if job.Sessions > maxFleetSessions {
		return FleetJobSpec{}, fmt.Errorf("spec: sessions %d exceeds the limit of %d", job.Sessions, maxFleetSessions)
	}
	switch {
	case f.DurationMS == 0:
		f.DurationMS = defaultDurationMS
	case f.DurationMS < 0:
		return FleetJobSpec{}, fmt.Errorf("spec: duration_ms %d must be positive", f.DurationMS)
	case f.DurationMS > maxFleetDuration:
		return FleetJobSpec{}, fmt.Errorf("spec: duration_ms %d exceeds the limit of %d", f.DurationMS, maxFleetDuration)
	}
	switch {
	case f.ReEvalMS == 0:
		f.ReEvalMS = defaultReEvalMS
	case f.ReEvalMS < 0:
		return FleetJobSpec{}, fmt.Errorf("spec: reeval_ms %d must be positive", f.ReEvalMS)
	case f.ReEvalMS < minFleetReEvalMS:
		return FleetJobSpec{}, fmt.Errorf("spec: reeval_ms %d below the minimum of %d", f.ReEvalMS, minFleetReEvalMS)
	}
	if len(f.Variants) == 0 {
		f.Variants = []string{"tracking"}
	}
	seen := map[string]bool{}
	norm := make([]string, 0, len(f.Variants))
	for _, v := range f.Variants {
		if _, ok := variantNames[v]; !ok {
			return FleetJobSpec{}, fmt.Errorf("spec: unknown variant %q (direct|static|reactive|tracking)", v)
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		norm = append(norm, v)
	}
	f.Variants = norm
	// The session limit bounds actual work: the scenario set runs once
	// per variant.
	if total := job.Sessions * len(f.Variants); total > maxFleetSessions {
		return FleetJobSpec{}, fmt.Errorf("spec: sessions %d × %d variants = %d exceeds the limit of %d",
			job.Sessions, len(f.Variants), total, maxFleetSessions)
	}
	// Each default a field held before it existed is spelled as the
	// omitted field — round-robin policy, exact aggregation off the
	// venue, the whole job — so older specs keep their hashes. The
	// venue streams by default, so its explicit exact stays.
	c := job.Config
	f.Scenario, f.Sessions, f.HeadsetsPerRoom = string(job.Kind), job.Sessions, c.HeadsetsPerRoom
	f.CoexPolicy = string(c.CoexPolicy)
	if c.CoexPolicy == coex.PolicyRR {
		f.CoexPolicy = ""
	}
	f.Bays, f.Channels, f.Assign, f.Admission = c.VenueBays, c.VenueChannels, string(c.VenueAssign), c.VenueAdmission
	f.Agg = job.Agg
	if job.Agg == fleet.AggExact && !fleet.IsVenueKind(job.Kind) {
		f.Agg = ""
	}
	f.Shard = nil
	if job.Shard != (fleet.Shard{}) {
		// A fresh copy, so the normalized spec never aliases the
		// caller's.
		sh := job.Shard
		f.Shard = &sh
	}
	return f, nil
}

func (f Fig9JobSpec) normalize() (Fig9JobSpec, error) {
	switch {
	case f.Runs == 0:
		f.Runs = 20
	case f.Runs < 0:
		return Fig9JobSpec{}, fmt.Errorf("spec: runs %d must be positive", f.Runs)
	case f.Runs > maxFig9Runs:
		return Fig9JobSpec{}, fmt.Errorf("spec: runs %d exceeds the limit of %d", f.Runs, maxFig9Runs)
	}
	switch {
	case f.NLOSStepDeg == 0:
		f.NLOSStepDeg = 2
	case f.NLOSStepDeg < 0:
		return Fig9JobSpec{}, fmt.Errorf("spec: nlos_step_deg must be positive")
	case f.NLOSStepDeg < minFig9StepDeg:
		return Fig9JobSpec{}, fmt.Errorf("spec: nlos_step_deg %g below the minimum of %g", f.NLOSStepDeg, minFig9StepDeg)
	}
	return f, nil
}

func (m MapJobSpec) normalize() (MapJobSpec, error) {
	switch {
	case m.GridStep == 0:
		m.GridStep = 0.5
	case m.GridStep < minMapGridStep:
		return MapJobSpec{}, fmt.Errorf("spec: grid_step %g below the minimum of %g", m.GridStep, minMapGridStep)
	}
	return m, nil
}

// Hash returns the canonical spec hash — SHA-256 over the JSON encoding
// of the normalized spec (struct field order is fixed, so the encoding
// is canonical). Two submissions normalize to equal specs iff they hash
// equal; the result cache keys on it.
func (s JobSpec) Hash() (string, error) {
	norm, err := s.Normalize()
	if err != nil {
		return "", err
	}
	return hashNormalized(norm)
}

// hashNormalized is the one place the canonical encoding is defined;
// Hash and the scheduler's Submit both key through it.
func hashNormalized(norm JobSpec) (string, error) {
	raw, err := json.Marshal(norm)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// job maps the spec onto the fleet job it describes.
func (f FleetJobSpec) job() fleet.Job {
	j := fleet.Job{
		Kind:     fleet.Kind(f.Scenario),
		Sessions: f.Sessions,
		Agg:      f.Agg,
		Trace:    f.Trace,
		Config: fleet.ScenarioConfig{
			Seed:                 f.Seed,
			Duration:             time.Duration(f.DurationMS) * time.Millisecond,
			ReEvalPeriod:         time.Duration(f.ReEvalMS) * time.Millisecond,
			HeadsetsPerRoom:      f.HeadsetsPerRoom,
			CoexPolicy:           coex.PolicyName(f.CoexPolicy),
			VenueBays:            f.Bays,
			VenueChannels:        f.Channels,
			VenueAssign:          venue.AssignMode(f.Assign),
			VenueInterferenceOff: f.InterferenceOff,
			VenueAdmission:       f.Admission,
		},
	}
	if f.Shard != nil {
		j.Shard = *f.Shard
	}
	return j
}
