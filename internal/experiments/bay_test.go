package experiments

import (
	"errors"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/vr"
)

// sharedBay builds k sessions of one 8 m × 8 m shared room the way the
// fleet generator does: every player's trace generated up front, one
// geometry snapshot built from them, and each session pointing at it.
func sharedBay(t *testing.T, k int, dur time.Duration) []SessionConfig {
	t.Helper()
	const w, d = 8, 8
	seeds := make([]int64, k)
	traces := make([]vr.Trace, k)
	for i := range traces {
		seeds[i] = int64(31 + 17*i)
		trCfg := vr.DefaultTraceConfig(w, d, seeds[i])
		trCfg.Duration = dur
		tr, err := vr.Generate(trCfg)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = tr
	}
	geo, err := BuildCoexGeometry(coex.Room{Players: traces}, dur)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]SessionConfig, k)
	for i := range cfgs {
		cfgs[i] = SessionConfig{
			Duration: dur,
			Seed:     seeds[i],
			RoomW:    w,
			RoomD:    d,
			Mounts:   []Mount{{Pos: geom.V(w-0.4, d-0.4), FacingDeg: 225}},
			Coex:     &coex.Room{Players: traces, Self: i, Geometry: geo},
		}
	}
	return cfgs
}

// TestBayPlayersKeepTheirOwnVenuePenalty: players of one bay may carry
// different external-interference tables, and each must be charged its
// own — running in a bay must not change any player's outcome from
// running alone.
func TestBayPlayersKeepTheirOwnVenuePenalty(t *testing.T) {
	cfgs := sharedBay(t, 2, time.Second)
	wins := cfgs[0].Coex.Geometry.Windows()
	for i, penDB := range []float64{0, 30} {
		rm := *cfgs[i].Coex
		rm.ExtSINRPenaltyDB = make([]float64, wins)
		for w := range rm.ExtSINRPenaltyDB {
			rm.ExtSINRPenaltyDB[w] = penDB
		}
		cfgs[i].Coex = &rm
	}
	players := make([]BayPlayer, len(cfgs))
	for i, cfg := range cfgs {
		players[i] = BayPlayer{Cfg: cfg, Variant: VariantMoVRTracking}
	}
	outs, err := RunBayLockstep(players)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		alone, err := RunSessionVariant(cfg, VariantMoVRTracking)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i] != alone {
			t.Errorf("player %d: in the bay %+v, alone %+v", i, outs[i], alone)
		}
	}
}

// TestBayGuardsRejectForeignTables pins the O(1) guards a bay checks
// before reading a shared schedule table — the room has one, its tick is
// the world tick, its horizon covers the session, Self indexes one of
// its players — and the per-player check that the streamed motion is
// the table's trace at Self. Players of one bay must share one table.
func TestBayGuardsRejectForeignTables(t *testing.T) {
	const dur = time.Second
	base := sharedBay(t, 2, dur)
	traces := base[0].Coex.Players
	withRoom := func(edit func(rm *coex.Room)) SessionConfig {
		cfg := base[0]
		rm := *cfg.Coex
		edit(&rm)
		cfg.Coex = &rm
		return cfg
	}
	offGrid, err := coex.BuildGeometry(coex.Room{Players: traces}, APPos, WorldTick/2, dur)
	if err != nil {
		t.Fatal(err)
	}
	short, err := BuildCoexGeometry(coex.Room{Players: traces}, dur/2)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]SessionConfig{
		"no table": withRoom(func(rm *coex.Room) { rm.Geometry = nil }),
		"tick":     withRoom(func(rm *coex.Room) { rm.Geometry = offGrid }),
		"horizon":  withRoom(func(rm *coex.Room) { rm.Geometry = short }),
		"self":     withRoom(func(rm *coex.Room) { rm.Self = 2 }),
		"trace":    withRoom(func(rm *coex.Room) { rm.Players = []vr.Trace{traces[1], traces[1]} }),
	} {
		if _, err := RunSessionVariant(cfg, VariantMoVRTracking); err == nil {
			t.Errorf("%s: a session accepted a table that does not describe it", name)
		}
	}

	other := withRoom(func(rm *coex.Room) { rm.Geometry = short })
	other.Coex.Self = 1
	_, err = RunBayLockstep([]BayPlayer{{Cfg: base[0]}, {Cfg: other}})
	var be *BayPlayerError
	if !errors.As(err, &be) || be.Player != 1 {
		t.Errorf("bay of players on different tables: err = %v, want player 1 rejected", err)
	}
}
