package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"github.com/movr-sim/movr/internal/experiments"
	"github.com/movr-sim/movr/internal/fleet"
	"github.com/movr-sim/movr/internal/fleet/pool"
)

// TraceArtifact is a completed job's flight-data recording: the
// Chrome trace-event document (Perfetto-loadable) the trace endpoint
// serves, plus the count summary the job view reports. Deterministic —
// a given spec produces byte-identical Chrome bytes on every run.
type TraceArtifact struct {
	Chrome   []byte
	Sessions int
	Events   int
	Dropped  uint64
}

// payload is the deterministic result document of a completed job: the
// structured result of the experiment that ran, plus the same text
// rendering the movrsim CLI prints. Serialized once and cached as raw
// bytes, so a cache hit is bit-for-bit the fresh run.
type payload struct {
	Kind   string                     `json:"kind"`
	Fleet  *fleet.Result              `json:"fleet,omitempty"`
	Fig9   *experiments.Fig9Result    `json:"fig9,omitempty"`
	Map    *experiments.HeatmapResult `json:"map,omitempty"`
	Render string                     `json:"render"`
}

// execute runs a normalized spec to completion and returns the result
// bytes plus — for fleet jobs with the trace flag — the recorded trace
// artifact. Every kind's units of work — fleet sessions, fig9 trials,
// map cells — execute on the shared runner, so concurrent jobs together
// never exceed its capacity; fleet jobs additionally report per-session
// completions through onSession. ctx cancels a job between work units.
func execute(ctx context.Context, spec JobSpec, runner *pool.Runner, onSession func(done, total int, o fleet.SessionOutcome)) ([]byte, *TraceArtifact, error) {
	var p payload
	var trace *TraceArtifact
	switch spec.Kind {
	case "fleet":
		res, title, tr, err := executeFleet(ctx, *spec.Fleet, runner, onSession)
		if err != nil {
			return nil, nil, err
		}
		trace = tr
		p = payload{Kind: "fleet", Fleet: &res, Render: res.Render(title)}
	case "fig9":
		f := *spec.Fig9
		cfg := experiments.Fig9Config{
			Runs:        f.Runs,
			NLOSStepDeg: f.NLOSStepDeg,
			Seed:        f.Seed,
			Runner:      runner,
		}
		res, err := experiments.Fig9(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		p = payload{Kind: "fig9", Fig9: &res, Render: res.Render()}
	case "map":
		m := *spec.Map
		cfg := experiments.DefaultHeatmapConfig(m.WithReflector)
		cfg.GridStep = m.GridStep
		cfg.Runner = runner
		res, err := experiments.Heatmap(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		title := "VR coverage — bare AP"
		if m.WithReflector {
			title = "VR coverage — AP + MoVR reflector"
		}
		p = payload{Kind: "map", Map: &res, Render: res.Render(title)}
	default:
		return nil, nil, fmt.Errorf("execute: unknown kind %q", spec.Kind)
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, nil, fmt.Errorf("execute: encode result: %w", err)
	}
	return raw, trace, nil
}

// executeFleet runs the fleet job the spec describes — the full
// scenario set once per requested variant, IDs suffixed "@variant" — on
// the shared pool.
func executeFleet(ctx context.Context, f FleetJobSpec, runner *pool.Runner, onSession func(done, total int, o fleet.SessionOutcome)) (fleet.Result, string, *TraceArtifact, error) {
	expand := func(base []fleet.Spec) []fleet.Spec {
		specs := make([]fleet.Spec, 0, len(base)*len(f.Variants))
		for _, name := range f.Variants {
			variant := variantNames[name]
			for _, sp := range base {
				sp.ID = sp.ID + "@" + name
				sp.Variant = variant
				specs = append(specs, sp)
			}
		}
		return specs
	}
	res, tr, err := f.job().Run(ctx, fleet.Config{Runner: runner, OnSession: onSession}, expand)
	if err != nil {
		return fleet.Result{}, "", nil, err
	}
	var trace *TraceArtifact
	if tr != nil {
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			return fleet.Result{}, "", nil, fmt.Errorf("encode trace: %w", err)
		}
		trace = &TraceArtifact{Chrome: buf.Bytes(), Sessions: len(tr.Sessions)}
		for _, st := range tr.Sessions {
			trace.Events += len(st.Events)
			trace.Dropped += st.Dropped
		}
	}
	title := fleet.Kind(f.Scenario).Title()
	if f.CoexPolicy != "" {
		title += " [policy=" + f.CoexPolicy + "]"
	}
	if f.Scenario == string(fleet.KindVenue) {
		title += fmt.Sprintf(" [bays=%d channels=%d assign=%s]", f.Bays, f.Channels, f.Assign)
	}
	if len(f.Variants) > 1 {
		title += " [" + strings.Join(f.Variants, "+") + "]"
	}
	return res, title, trace, nil
}
