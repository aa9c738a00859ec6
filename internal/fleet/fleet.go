// Package fleet is the concurrent multi-session simulation engine: it
// runs N independent VR sessions — distinct rooms, seeds, reflector
// deployments, and motion traces — across a bounded worker pool and
// aggregates their streaming reports into fleet-level statistics
// (delivered-rate percentiles, blockage-outage time, reflector-handoff
// counts).
//
// Determinism is a hard guarantee: every session is seeded and fully
// self-contained (its own world, devices, and trace), outcomes land in
// spec order whatever worker computed them, and aggregation walks that
// order — so the same spec set yields byte-identical results for any
// worker count. This is the load-bearing property that lets the test
// suite compare a 1-worker run against an 8-worker run bit for bit.
//
// The scenario generators in scenario.go build spec sets for deployments
// beyond the paper's single office: arcades with many headsets per room,
// homes with one headset per room across many rooms, and dense-blocker
// stress rooms.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/movr-sim/movr/internal/experiments"
	"github.com/movr-sim/movr/internal/fleet/pool"
	"github.com/movr-sim/movr/internal/stats"
	"github.com/movr-sim/movr/internal/stream"
)

// Spec describes one independent VR session in the fleet.
type Spec struct {
	// ID labels the session in reports (e.g. "arcade/r0/h2").
	ID string

	// Variant is the system variant under test; empty means the paper's
	// §6 pose-tracking proposal.
	Variant experiments.SessionVariant

	// Session is the full per-session configuration: room footprint,
	// reflector mounts, blockers, motion seed, duration.
	Session experiments.SessionConfig
}

// Config tunes a fleet run.
type Config struct {
	// Workers bounds the session parallelism (<= 0 means GOMAXPROCS).
	// The worker count never changes results, only wall-clock time.
	Workers int

	// Runner, when non-nil, executes sessions on a shared persistent
	// pool instead of an ephemeral one, so many concurrent fleet runs
	// together never exceed the Runner's capacity — the movrd job
	// scheduler multiplexes every API job onto a single Runner. Workers
	// is ignored when Runner is set. Results are identical either way.
	Runner *pool.Runner

	// OnSession, when non-nil, is invoked once per session as it
	// completes, from the worker goroutine that ran it — the hook the
	// movrd event stream and progress bars build on. Sessions complete
	// in arbitrary order, so the callback must be safe for concurrent
	// use; done is the number of sessions finished so far (including
	// this one) and total is len(specs). The callback never changes
	// results.
	OnSession func(done, total int, outcome SessionOutcome)
}

// SessionOutcome is one session's result.
type SessionOutcome struct {
	ID      string
	Seed    int64
	Variant experiments.SessionVariant

	// Report is the session's frame-delivery report.
	Report stream.Report

	// Handoffs counts serving-path switches during the session.
	Handoffs int

	// DeliveredFrac is Report.Delivered / Report.Frames.
	DeliveredFrac float64
}

// Quantiles summarizes one per-session metric across the fleet.
type Quantiles struct {
	P50, P95, P99, Mean, Min, Max float64
}

// quantilesOf computes the summary; stats.Percentile sorts a copy, so
// the input order — and therefore the worker count — cannot matter.
func quantilesOf(xs []float64) Quantiles {
	return Quantiles{
		P50:  stats.Percentile(xs, 50),
		P95:  stats.Percentile(xs, 95),
		P99:  stats.Percentile(xs, 99),
		Mean: stats.Mean(xs),
		Min:  stats.Min(xs),
		Max:  stats.Max(xs),
	}
}

// Aggregate is the fleet-level statistic set.
type Aggregate struct {
	Sessions int

	// Frames, Delivered and Glitches are fleet-wide totals.
	Frames, Delivered, Glitches int

	// DeliveredFrac summarizes per-session delivered-frame fractions.
	DeliveredFrac Quantiles

	// GlitchFrac summarizes per-session glitch fractions.
	GlitchFrac Quantiles

	// OutageSeconds summarizes per-session total blockage-outage time.
	OutageSeconds Quantiles

	// WorstOutage is the longest single outage across every session.
	WorstOutage time.Duration

	// Handoffs summarizes per-session reflector-handoff counts;
	// TotalHandoffs is the fleet-wide sum.
	Handoffs      Quantiles
	TotalHandoffs int
}

// Result is a completed fleet run.
type Result struct {
	// Sessions holds per-session outcomes in spec order. Streaming-
	// collector runs keep only constant-size sketch state and leave
	// Sessions nil (folded away in JSON).
	Sessions []SessionOutcome `json:",omitempty"`

	// Agg is the fleet-level aggregate over Sessions.
	Agg Aggregate

	// Stream is the sketch state of a streaming-collector run, from
	// which Agg derives. Nil on the exact path.
	Stream *StreamState `json:",omitempty"`
}

// Run simulates every spec across the worker pool and aggregates the
// outcomes through the exact collector — every outcome retained in
// spec order. The same specs produce byte-identical Results for any
// cfg.Workers; the first failing session cancels the rest and is
// returned as the error.
func Run(ctx context.Context, specs []Spec, cfg Config) (Result, error) {
	return RunCollect(ctx, specs, cfg, NewExactCollector(len(specs)))
}

// RunCollect simulates every spec across the worker pool, feeding each
// outcome to col as it completes, and returns col's Result. With an
// ExactCollector this is exactly Run; with a StreamCollector no outcome
// is retained, and the collector's state stays constant-size whatever
// len(specs). A nil col defaults to the exact collector.
func RunCollect(ctx context.Context, specs []Spec, cfg Config, col Collector) (Result, error) {
	if len(specs) == 0 {
		return Result{}, fmt.Errorf("fleet: no sessions to run")
	}
	if col == nil {
		col = NewExactCollector(len(specs))
	}
	// The pool's unit of work is a bay run in lockstep; a session on its
	// own is a bay of one. Each bay runs its subslice of one player slice
	// built for the whole run, and outcomes land per session in spec
	// order.
	players := make([]experiments.BayPlayer, len(specs))
	for i, sp := range specs {
		players[i] = experiments.BayPlayer{Cfg: sp.Session, Variant: specVariant(sp)}
	}
	var completed atomic.Int64
	emit := func(i int, out experiments.VariantOutcome) {
		sp := specs[i]
		o := SessionOutcome{
			ID:       sp.ID,
			Seed:     sp.Session.Seed,
			Variant:  players[i].Variant,
			Report:   out.Report,
			Handoffs: out.Handoffs,
		}
		if out.Report.Frames > 0 {
			o.DeliveredFrac = float64(out.Report.Delivered) / float64(out.Report.Frames)
		}
		col.Add(i, o)
		if cfg.OnSession != nil {
			cfg.OnSession(int(completed.Add(1)), len(specs), o)
		}
	}
	groups := bayGroups(specs)
	run := func(_ context.Context, gi int) error {
		g := groups[gi]
		outs, err := experiments.RunBayLockstep(players[g.lo:g.hi])
		if err != nil {
			var be *experiments.BayPlayerError
			if errors.As(err, &be) {
				return fmt.Errorf("session %q: %w", specs[g.lo+be.Player].ID, be.Err)
			}
			return err
		}
		for j, out := range outs {
			emit(g.lo+j, out)
		}
		return nil
	}
	var err error
	if cfg.Runner != nil {
		err = cfg.Runner.ForEach(ctx, len(groups), run)
	} else {
		err = pool.ForEach(ctx, len(groups), cfg.Workers, run)
	}
	if err != nil {
		return Result{}, err
	}
	return col.Result(), nil
}

// specVariant resolves a spec's variant; empty means the paper's §6
// pose-tracking proposal.
func specVariant(sp Spec) experiments.SessionVariant {
	if sp.Variant == "" {
		return experiments.VariantMoVRTracking
	}
	return sp.Variant
}

// specGroup is a contiguous run of specs executed together as one bay.
type specGroup struct{ lo, hi int }

// BayLen reports how many specs at the head of specs form one bay: the
// maximal run of consecutive specs whose Coex rooms share one non-nil
// Geometry pointer, the way the scenario generators build bays — a bay
// truncated by the end of the spec set included. Anything else is a
// bay of one, as is an empty set.
func BayLen(specs []Spec) int {
	if len(specs) == 0 {
		return 1
	}
	c := specs[0].Session.Coex
	if c == nil || c.Geometry == nil {
		return 1
	}
	k := 1
	for k < len(specs) {
		ck := specs[k].Session.Coex
		if ck == nil || ck.Geometry != c.Geometry {
			break
		}
		k++
	}
	return k
}

// bayGroups partitions specs into contiguous bays.
func bayGroups(specs []Spec) []specGroup {
	groups := make([]specGroup, 0, len(specs))
	for i := 0; i < len(specs); {
		n := BayLen(specs[i:])
		groups = append(groups, specGroup{i, i + n})
		i += n
	}
	return groups
}

// aggregate folds per-session outcomes (in spec order) into the fleet
// statistics.
func aggregate(outcomes []SessionOutcome) Aggregate {
	agg := Aggregate{Sessions: len(outcomes)}
	delivered := make([]float64, len(outcomes))
	glitch := make([]float64, len(outcomes))
	outage := make([]float64, len(outcomes))
	handoffs := make([]float64, len(outcomes))
	for i, o := range outcomes {
		agg.Frames += o.Report.Frames
		agg.Delivered += o.Report.Delivered
		agg.Glitches += o.Report.Glitches
		agg.TotalHandoffs += o.Handoffs
		if o.Report.LongestOutage > agg.WorstOutage {
			agg.WorstOutage = o.Report.LongestOutage
		}
		delivered[i] = o.DeliveredFrac
		glitch[i] = o.Report.GlitchFrac
		outage[i] = o.Report.TotalOutage.Seconds()
		handoffs[i] = float64(o.Handoffs)
	}
	agg.DeliveredFrac = quantilesOf(delivered)
	agg.GlitchFrac = quantilesOf(glitch)
	agg.OutageSeconds = quantilesOf(outage)
	agg.Handoffs = quantilesOf(handoffs)
	return agg
}

// Render prints the fleet summary as a text table.
func (r Result) Render(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %d sessions, %d frames (%d delivered, %d glitched)\n\n",
		title, r.Agg.Sessions, r.Agg.Frames, r.Agg.Delivered, r.Agg.Glitches)
	row := func(name string, q Quantiles, fmtv func(float64) string) []string {
		return []string{name, fmtv(q.P50), fmtv(q.P95), fmtv(q.P99), fmtv(q.Mean), fmtv(q.Min), fmtv(q.Max)}
	}
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
	secs := func(v float64) string { return fmt.Sprintf("%.2fs", v) }
	count := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	b.WriteString(experiments.Table(
		[]string{"per-session metric", "p50", "p95", "p99", "mean", "min", "max"},
		[][]string{
			row("delivered rate", r.Agg.DeliveredFrac, pct),
			row("glitch rate", r.Agg.GlitchFrac, pct),
			row("blockage outage", r.Agg.OutageSeconds, secs),
			row("reflector handoffs", r.Agg.Handoffs, count),
		},
	))
	fmt.Fprintf(&b, "\nworst single outage %v; %d handoffs fleet-wide\n",
		r.Agg.WorstOutage.Truncate(time.Millisecond), r.Agg.TotalHandoffs)
	return b.String()
}
