// Bay lockstep execution: a bay (one shared room of K players) is the
// unit of execution, and a session on its own is a bay of one. One
// engine steps the room-tick once — fetch the pose row from the room's
// schedule table once — then evaluates every player's link/stream state
// against that stepped world in player-index order.
//
// Determinism contract: a player's result does not depend on which bay
// it runs in. Per-player event ordering is fixed (initial
// apply-then-control, control ticks before coincident world ticks,
// frames on the display grid), and players share no mutable state —
// each has a private world, link manager, and scheduler; the room's
// table is read-only — so cross-player interleaving at equal timestamps
// cannot influence any player's results. The fleet goldens pin this
// across scenario kinds, policies, and worker counts.

package experiments

import (
	"fmt"
	"time"

	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/sim"
	"github.com/movr-sim/movr/internal/stream"
)

// BayPlayer describes one player of a bay run: its session and the
// system variant it streams through. RunBayLockstep only reads it.
type BayPlayer struct {
	Cfg     SessionConfig
	Variant SessionVariant
}

// BayPlayerError attributes a bay-run failure to one player.
type BayPlayerError struct {
	Player int
	Err    error
}

func (e *BayPlayerError) Error() string { return fmt.Sprintf("bay player %d: %v", e.Player, e.Err) }
func (e *BayPlayerError) Unwrap() error { return e.Err }

// RunBayLockstep runs a bay of co-located sessions in lockstep on one
// shared engine — the only session driver. A single player is a bay of
// one and may describe any room; two or more players must share one
// room's Geometry, session duration, and re-evaluation period (the
// fleet grouper guarantees this; ad-hoc callers get a BayPlayerError).
// Outcomes are returned in player order, each exactly the outcome the
// player gets in a bay of its own.
func RunBayLockstep(players []BayPlayer) ([]VariantOutcome, error) {
	if len(players) == 0 {
		return nil, nil
	}
	engine := sim.New()
	states := make([]playerState, len(players))
	var geo *coex.Geometry
	for i := range players {
		cfg := players[i].Cfg.withDefaults()
		trace, err := sessionTrace(cfg)
		if err != nil {
			return nil, &BayPlayerError{i, err}
		}
		if i == 0 {
			if geo, err = roomGeometry(cfg); err != nil {
				return nil, &BayPlayerError{0, err}
			}
		} else if geo == nil || cfg.Coex == nil || cfg.Coex.Geometry != geo ||
			cfg.Duration != states[0].cfg.Duration || cfg.ReEvalPeriod != states[0].cfg.ReEvalPeriod {
			return nil, &BayPlayerError{i, fmt.Errorf("bay players disagree on geometry/duration/period")}
		}
		if err := states[i].init(cfg, trace, geo, players[i].Variant, engine); err != nil {
			return nil, &BayPlayerError{i, err}
		}
	}
	duration, period := states[0].cfg.Duration, states[0].cfg.ReEvalPeriod

	// Initial state, then both cadences: per player, apply-then-control
	// at t=0, then control ticks before coincident world ticks, batched
	// across the bay.
	row := poseRow(geo, 0)
	for i := range states {
		states[i].applyWorld(states[i].trace.At(0), row)
	}
	for i := range states {
		states[i].controlTick(states[i].trace.At(0))
	}
	engine.Every(0, WorldTick, func() {
		now := engine.Now()
		row := poseRow(geo, now)
		for i := range states {
			states[i].applyWorld(states[i].trace.At(now), row)
		}
	})
	engine.Every(0, period, func() {
		now := engine.Now()
		for i := range states {
			states[i].controlTick(states[i].trace.At(now))
		}
	})

	for i := range states {
		ps := &states[i]
		ps.sess = stream.Begin(engine, stream.Config{
			Duration: ps.cfg.Duration,
			Obs:      ps.rec,
		}, ps.rateFn())
	}
	engine.Run(duration)

	outs := make([]VariantOutcome, len(states))
	for i := range states {
		ps := &states[i]
		rep := ps.sess.Report()
		ps.finish(rep)
		outs[i] = VariantOutcome{Report: rep, Handoffs: ps.handoffs}
	}
	return outs, nil
}

// poseRow returns the room table's pose row at world tick t; nil for a
// private room, whose players have no peers to place. roomGeometry
// guarantees the table answers every tick of the session.
func poseRow(geo *coex.Geometry, t time.Duration) []geom.Vec {
	if geo == nil {
		return nil
	}
	row, _ := geo.PosesAtTick(t)
	return row
}

// roomGeometry resolves the schedule table a bay reads: nil for a
// private room; otherwise the shared room's Geometry, after the O(1)
// guards that it answers every query the session makes — poses on the
// WorldTick grid, windows and poses out to the session duration. A
// shared room without a Geometry is an error: the fleet and venue
// generators build every bay's table up front (BuildCoexGeometry).
func roomGeometry(cfg SessionConfig) (*coex.Geometry, error) {
	rm := cfg.Coex
	if rm == nil {
		return nil, nil
	}
	if rm.Geometry == nil {
		return nil, fmt.Errorf("coex: shared room has no schedule table (build one with BuildCoexGeometry)")
	}
	if step := rm.Geometry.Step(); step != WorldTick {
		return nil, fmt.Errorf("coex: geometry tick %v is not the world tick %v", step, WorldTick)
	}
	if h := rm.Geometry.Horizon(); h < cfg.Duration {
		return nil, fmt.Errorf("coex: geometry horizon %v is shorter than the %v session", h, cfg.Duration)
	}
	return rm.Geometry, nil
}
