package experiments

import (
	"fmt"
	"slices"
	"time"

	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/linkmgr"
	"github.com/movr-sim/movr/internal/obs"
	"github.com/movr-sim/movr/internal/phy"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/sim"
	"github.com/movr-sim/movr/internal/stream"
	"github.com/movr-sim/movr/internal/vr"
)

// playerState is one session's complete simulation state, split into a
// step-world half (applyWorld) and an evaluate-player half
// (controlTick) so RunBayLockstep can step a bay's K players on one
// shared engine with the per-player event ordering of a bay of one.
type playerState struct {
	cfg     SessionConfig
	variant SessionVariant
	trace   vr.Trace
	engine  *sim.Engine

	w   *World
	hs  *radio.Headset
	mgr *linkmgr.Manager

	// bodies holds the obstacle index of every room player's body by
	// player number, -1 at Self; nil in a private room.
	bodies  []int
	sched   *coex.Scheduler
	handIdx int

	rec  *obs.Recorder
	sess *stream.Session // the frame stream, begun by RunBayLockstep

	currentRate float64
	req         phy.VRRequirement

	// Reactive-policy state: consecutive failing evaluations, and the
	// deadline of an in-flight alignment sweep.
	failStreak     int
	realignUntil   time.Duration
	realignPending bool

	// Handoff accounting: a handoff is a change of the serving path
	// between two usable configurations (direct ↔ reflector-i or
	// reflector-i ↔ reflector-j). Dropping to or recovering from
	// PathNone is an outage, not a handoff.
	handoffs   int
	havePath   bool
	lastChoice linkmgr.PathChoice
	lastRefl   int
}

// init wires a session's world, link manager, shared-medium scheduler,
// and recorder onto the given engine. geo is the room's schedule table
// resolved by roomGeometry (nil for a private room).
func (ps *playerState) init(cfg SessionConfig, trace vr.Trace, geo *coex.Geometry, variant SessionVariant, engine *sim.Engine) error {
	w, err := sessionWorld(cfg)
	if err != nil {
		return err
	}
	start := trace.At(0)
	hs := w.NewHeadsetAt(start.Pos, start.YawDeg)
	mgr := linkmgr.New(w.Tracer, w.AP, hs)

	*ps = playerState{
		cfg:          cfg,
		variant:      variant,
		trace:        trace,
		engine:       engine,
		w:            w,
		hs:           hs,
		mgr:          mgr,
		req:          mgr.Req,
		realignUntil: -1,
		lastChoice:   linkmgr.PathNone,
		lastRefl:     -1,
	}

	if variant != VariantDirectOnly {
		mounts := cfg.Mounts
		if mounts == nil {
			mounts = DefaultMounts(cfg.RoomW, cfg.RoomD)
		}
		for _, mount := range mounts {
			dev := reflector.Default(mount.Pos, mount.FacingDeg)
			idx := mgr.AddAlignedReflector(dev)
			// Point the reflector at the session-start pose; the static
			// variant never moves it again.
			mgr.EvaluateReflector(idx)
		}
	}

	// Static scenery blockers (furniture, bystanders, other players)
	// stand for the whole session.
	for _, b := range cfg.Blockers {
		w.Room.AddObstacle(b)
	}

	// Shared-medium rooms: every other player is a dynamic obstacle at
	// its pose in the room's table, and the stream's rate is gated by
	// this session's TDMA airtime share of the room's one 60 GHz channel.
	if rm := cfg.Coex; rm != nil {
		sr := *rm
		sr.Geometry = geo
		ps.sched, err = coex.NewScheduler(sr)
		if err != nil {
			return err
		}
		// The table was laid out from Players, so it describes this
		// session only if the motion being streamed is the trace at Self.
		if rm.Self >= len(rm.Players) || !slices.Equal(trace, rm.Players[rm.Self]) {
			return fmt.Errorf("coex: session trace differs from the room's player %d", rm.Self)
		}
		row, _ := geo.PosesAtTick(0)
		ps.bodies = make([]int, len(row))
		for i, pos := range row {
			ps.bodies[i] = -1
			if i != rm.Self {
				ps.bodies[i] = w.Room.AddObstacle(room.Body(pos))
			}
		}
	}

	// The hand blocker follows the trace; one obstacle slot is reused.
	ps.handIdx = w.Room.AddObstacle(room.Hand(geom.V(-10, -10))) // parked off-room

	// Event recording: stamp in the session engine's sim time and open
	// the session span. All recorder methods are nil-safe, but the wiring
	// stays behind a nil check: the engine.Now method value would
	// allocate a closure per session even on untraced runs.
	var rec *obs.Recorder
	if cfg.ObsFor != nil {
		rec = cfg.ObsFor(variant)
	}
	ps.rec = rec
	if rec != nil {
		rec.SetClock(engine.Now)
		rec.EmitAt(0, obs.KindSessionStart, 0, 0, 0, 0)
		if cfg.AdmissionQueued > 0 {
			rec.EmitAt(0, obs.KindAdmissionQueued, int32(cfg.AdmissionQueued), 0, 0, 0)
		}
		if cfg.AdmissionRejected > 0 {
			rec.EmitAt(0, obs.KindAdmissionRejected, int32(cfg.AdmissionRejected), 0, 0, 0)
		}
		mgr.Obs = rec
		if ps.sched != nil {
			ps.sched.SetRecorder(rec)
		}
	}
	return nil
}

// rateOf folds the bay's external-interference penalty (cross-bay
// leakage, set by the venue layer as Coex.ExtSINRPenaltyDB) into a
// link state's deliverable rate: the serving path's SNR drops by the
// current window's penalty and the MCS is re-picked at the degraded
// SINR. The zero-penalty path returns the state's own rate — the
// same phy.RateBps derivation — so interference-free bays (and every
// pre-venue caller, where the input is nil) are bit-identical to the
// historical code.
func (ps *playerState) rateOf(st linkmgr.LinkState) float64 {
	if ps.sched == nil || st.RateBps <= 0 {
		return st.RateBps
	}
	pen := ps.sched.ExtPenaltyDB(ps.engine.Now())
	if pen <= 0 {
		return st.RateBps
	}
	return phy.RateBps(st.SNRdB - pen)
}

// notePath updates the handoff accounting with a controller decision.
func (ps *playerState) notePath(st linkmgr.LinkState) {
	if st.Choice == linkmgr.PathNone {
		return
	}
	switched := st.Choice != ps.lastChoice ||
		(st.Choice == linkmgr.PathReflector && st.ReflectorIdx != ps.lastRefl)
	if ps.havePath && switched {
		ps.handoffs++
	}
	ps.havePath = true
	ps.lastChoice = st.Choice
	ps.lastRefl = st.ReflectorIdx
}

// applyWorld is the step-world half of the session tick: the physical
// geometry (pose, raised hand, peer bodies at row, the room table's
// pose row for this tick) evolves at the trace rate regardless of how
// often the controller acts. The delivered rate is re-read passively —
// whatever configuration is applied, through whatever the geometry now
// is.
func (ps *playerState) applyWorld(p vr.Pose, row []geom.Vec) {
	for i, idx := range ps.bodies {
		if idx >= 0 {
			ps.w.Room.MoveObstacle(idx, row[i])
		}
	}
	if p.HandRaised {
		ps.w.Room.MoveObstacle(ps.handIdx, p.HandPos())
	} else {
		ps.w.Room.MoveObstacle(ps.handIdx, geom.V(-10, -10))
	}
	ps.hs.MoveTo(p.Pos)
	ps.hs.SetYaw(p.YawDeg)
	if ps.realignPending && ps.engine.Now() < ps.realignUntil {
		ps.currentRate = 0 // alignment sweep holds the link down
		return
	}
	ps.currentRate = ps.rateOf(ps.mgr.Reassess())
}

// controlTick is the evaluate-player half of the session tick: the
// variant's policy acts at ReEvalPeriod.
func (ps *playerState) controlTick(p vr.Pose) {
	var st linkmgr.LinkState
	switch ps.variant {
	case VariantDirectOnly, VariantMoVRTracking:
		st = ps.mgr.Step(p.Pos, p.YawDeg)
	case VariantMoVRStatic:
		st = ps.mgr.BestFrozen()
	case VariantMoVRReactive:
		now := ps.engine.Now()
		if ps.realignPending && now < ps.realignUntil {
			return // sweep in progress
		}
		if ps.realignPending {
			// Sweep done: beams re-pointed for the current pose.
			ps.realignPending = false
			for i := range ps.mgr.Reflectors() {
				ps.mgr.EvaluateReflector(i)
			}
		}
		st = ps.mgr.BestFrozen()
		if !ps.req.MetByRate(st.RateBps) {
			ps.failStreak++
			if ps.failStreak >= 2 {
				ps.failStreak = 0
				ps.realignPending = true
				ps.realignUntil = now + realignSweepCost
			}
		} else {
			ps.failStreak = 0
		}
	}
	ps.notePath(st)
	ps.currentRate = ps.rateOf(st)
}

// rateFn returns the stream's rate function: the player's current link
// rate, gated by its coex airtime share when the medium is shared.
func (ps *playerState) rateFn() stream.RateFunc {
	fn := stream.RateFunc(func(now time.Duration) float64 { return ps.currentRate })
	if ps.sched != nil {
		fn = ps.sched.Wrap(fn)
	}
	return fn
}

// finish closes the session span on the recorder.
func (ps *playerState) finish(rep stream.Report) {
	ps.rec.EmitAt(ps.cfg.Duration, obs.KindSessionEnd, int32(rep.Delivered), int32(rep.Frames), 0, 0)
}
