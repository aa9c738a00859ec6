package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/movr-sim/movr/internal/coex"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/obs"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/stream"
	"github.com/movr-sim/movr/internal/vr"
)

// Mount describes one reflector installation point: a wall/corner
// position and the direction the device faces into the room.
type Mount struct {
	Pos       geom.Vec
	FacingDeg float64
}

// DefaultMounts returns the standard two-reflector install for a room of
// the given footprint: one in the corner opposite the AP and one mid-way
// along the west wall, so some reflector is in the headset's field for
// most head orientations ("One or more MoVR reflectors can be installed
// in a room", §4). For the 5 m × 5 m office this reproduces the
// historical fixed install.
func DefaultMounts(roomW, roomD float64) []Mount {
	return []Mount{
		{Pos: geom.V(roomW-0.4, roomD-0.4), FacingDeg: 225}, // far corner
		{Pos: geom.V(0, roomD/2), FacingDeg: 0},             // west wall
	}
}

// SessionConfig parameterizes the end-to-end VR streaming session — the
// paper's §6 future work ("designing a fast beam-tracking algorithm that
// leverages [tracking] information and evaluating the end-to-end
// performance of this system"). The zero value of every optional field
// reproduces the historical single-room setup, so existing callers are
// unaffected; the fleet engine uses the extra fields to simulate diverse
// deployments (arcades, homes, cluttered rooms).
type SessionConfig struct {
	// Duration is the play-session length.
	Duration time.Duration

	// Seed drives the motion trace.
	Seed int64

	// ReEvalPeriod is how often the link controller re-evaluates paths
	// from pose (tracking mode).
	ReEvalPeriod time.Duration

	// RoomW and RoomD override the room footprint in metres. Zero keeps
	// the paper's 5 m × 5 m office testbed (with its furniture walls);
	// an explicit footprint — even 5 × 5 — builds a bare drywall room.
	RoomW, RoomD float64

	// Mounts overrides the reflector installation. Nil keeps the
	// default two-reflector install for the room size; an explicit
	// empty slice installs no reflectors.
	Mounts []Mount

	// Blockers are extra static obstacles standing in the room for the
	// whole session — furniture, bystanders, other players.
	Blockers []room.Obstacle

	// Coex, when non-nil, makes the room's 60 GHz medium genuinely
	// shared: the other players in Coex.Players walk their own motion
	// traces as dynamic body obstacles in this session's world, and the
	// session's link rate is gated by its TDMA airtime share — slots at
	// Coex.Period sized by Coex.Policy (round-robin, proportional-fair
	// or deadline-aware; idle slots reclaimed), weighted by
	// Coex.Weights, behind the optional Coex.UplinkSlot pose-report
	// reservation. Nil keeps the historical behavior — the session has
	// the medium to itself. Peer poses and slots are read from the
	// room's schedule table, Coex.Geometry, which must be set (build it
	// with BuildCoexGeometry), and Coex.Players[Coex.Self] must be this
	// session's own motion, or the session fails.
	Coex *coex.Room

	// AdmissionQueued and AdmissionRejected record how many players the
	// venue admission controller held back from this session's bay
	// (queued for a later slot vs. turned away). They are bookkeeping
	// only — the held-back players never enter the world — but the
	// counts are emitted on the session's event stream so venue traces
	// show where capacity ran out. The fleet generator sets them on one
	// session per bay.
	AdmissionQueued   int
	AdmissionRejected int

	// ObsFor, when non-nil, resolves the recorder of each variant the
	// session runs; a nil recorder disables recording for that variant.
	// A recorder receives the session's event stream: link transitions
	// and reassessments from the controller, per-window slot grants from
	// the coex scheduler, and per-frame delivery from the stream. Events
	// are stamped in sim time from the session's own engine, so traces
	// are byte-identical across runs. Recording never feeds back into
	// the simulation. A recorder is single-writer: give each concurrent
	// run its own.
	ObsFor func(SessionVariant) *obs.Recorder

	// sizedRoom records (via withDefaults) that the footprint was set
	// explicitly rather than defaulted, so an explicit 5 × 5 room is
	// still built as bare drywall, not the furnished office.
	sizedRoom bool
}

// withDefaults fills the zero-valued knobs.
func (cfg SessionConfig) withDefaults() SessionConfig {
	if cfg.Duration <= 0 {
		cfg.Duration = 30 * time.Second
	}
	if cfg.ReEvalPeriod <= 0 {
		cfg.ReEvalPeriod = 50 * time.Millisecond
	}
	cfg.sizedRoom = cfg.RoomW > 0 && cfg.RoomD > 0
	if !cfg.sizedRoom {
		cfg.RoomW, cfg.RoomD = 5, 5
	}
	return cfg
}

// DefaultSessionConfig returns a 30 s session with 50 ms tracking
// cadence.
func DefaultSessionConfig() SessionConfig {
	return SessionConfig{
		Duration:     30 * time.Second,
		Seed:         1,
		ReEvalPeriod: 50 * time.Millisecond,
	}
}

// SessionVariant identifies a system configuration under test.
type SessionVariant string

// The four variants the session experiment compares.
const (
	VariantDirectOnly   SessionVariant = "direct only (no MoVR)"
	VariantMoVRStatic   SessionVariant = "MoVR, static beams"
	VariantMoVRReactive SessionVariant = "MoVR + SNR-triggered realign"
	VariantMoVRTracking SessionVariant = "MoVR + pose tracking"
)

// SessionVariants lists the variants in comparison order.
var SessionVariants = []SessionVariant{
	VariantDirectOnly, VariantMoVRStatic, VariantMoVRReactive, VariantMoVRTracking,
}

// realignSweepCost is the link downtime of one hierarchical alignment
// sweep (measured by the latency experiment: ~300 ms of control traffic
// and tone transmission, during which the data stream is off the air).
const realignSweepCost = 300 * time.Millisecond

// WorldTick is the cadence the physical geometry (poses, raised hands,
// peer bodies) advances at during a session, independent of the
// controller's ReEvalPeriod. A room's schedule table (coex.Geometry)
// must be sampled on this grid; sessions reject a table on any other.
const WorldTick = 10 * time.Millisecond

// BuildCoexGeometry precomputes a shared room's schedule table exactly
// as the session engine will query it: poses on the WorldTick grid from
// the standard AP position, window schedules out to the session
// duration. A zero rm.Period resolves to the default tracking cadence.
// The returned table is shared read-only by every co-located session
// (set it as the room's Geometry field).
func BuildCoexGeometry(rm coex.Room, duration time.Duration) (*coex.Geometry, error) {
	if rm.Period <= 0 {
		rm.Period = DefaultSessionConfig().ReEvalPeriod
	}
	if duration <= 0 {
		duration = DefaultSessionConfig().Duration
	}
	return coex.BuildGeometry(rm, APPos, WorldTick, duration)
}

// SessionResult aggregates streaming reports per variant.
type SessionResult struct {
	Config  SessionConfig
	Trace   vr.Stats
	Reports map[SessionVariant]stream.Report

	// Handoffs counts serving-path switches per variant (direct ↔
	// reflector or reflector ↔ reflector); outage transitions are not
	// handoffs.
	Handoffs map[SessionVariant]int
}

// VariantOutcome is the result of running one system variant of a
// session: the streaming report plus the controller's handoff count.
type VariantOutcome struct {
	Report   stream.Report
	Handoffs int
}

// RunSessionVariant runs a single system variant of the configured
// session end to end. Unlike Session it reports configuration problems
// (an unstreamable room, a trace that cannot be generated) as errors
// instead of panicking, which lets the fleet engine propagate them from
// worker goroutines.
//
// The session runs as a bay of one.
func RunSessionVariant(cfg SessionConfig, variant SessionVariant) (VariantOutcome, error) {
	outs, err := RunBayLockstep([]BayPlayer{{Cfg: cfg, Variant: variant}})
	if err != nil {
		return VariantOutcome{}, errors.Unwrap(err) // the lone player's *BayPlayerError
	}
	return outs[0], nil
}

// Session runs the same seeded motion trace (walking, head rotation,
// hand raises) through four system variants and reports frame delivery:
//
//   - direct only: the player's own motion and hand block the stream.
//   - MoVR with beams frozen at session start: helps until the player
//     moves away from the initial geometry.
//   - MoVR with SNR-triggered re-alignment (§4.1: "the headset tracks
//     the SNR and can trigger a new measurement if the SNR begins to
//     degrade"): beams stay frozen until the link fails, then a
//     ~300 ms alignment sweep re-points them — during which the stream
//     is down.
//   - MoVR with pose-driven tracking (the paper's §6 proposal): the
//     link manager re-steers every ReEvalPeriod from VR tracking data,
//     with no sweeps in the loop.
//
// Session panics on an unstreamable configuration (e.g. a room too
// small for motion); callers wiring user-supplied geometry should use
// RunSessionVariant, which reports such problems as errors.
func Session(cfg SessionConfig) SessionResult {
	run := cfg // RunSessionVariant applies the defaults itself
	cfg = cfg.withDefaults()
	trace, err := sessionTrace(cfg)
	if err != nil {
		panic(err) // unstreamable config; see doc comment
	}

	res := SessionResult{
		Config:   cfg,
		Trace:    vr.Summarize(trace),
		Reports:  map[SessionVariant]stream.Report{},
		Handoffs: map[SessionVariant]int{},
	}
	for _, variant := range SessionVariants {
		out, err := RunSessionVariant(run, variant)
		if err != nil {
			panic(err) // unstreamable config; see doc comment
		}
		res.Reports[variant] = out.Report
		res.Handoffs[variant] = out.Handoffs
	}
	return res
}

// sessionTrace builds the seeded motion trace for a session config.
func sessionTrace(cfg SessionConfig) (vr.Trace, error) {
	trCfg := vr.DefaultTraceConfig(cfg.RoomW, cfg.RoomD, cfg.Seed)
	trCfg.Duration = cfg.Duration
	return vr.Generate(trCfg)
}

// sessionWorld builds the session's world: the stock office testbed for
// the default footprint, a bare drywall room otherwise.
func sessionWorld(cfg SessionConfig) (*World, error) {
	if !cfg.sizedRoom {
		return NewWorld(1), nil
	}
	return NewSizedWorld(cfg.RoomW, cfg.RoomD, 1)
}

// Render prints the session comparison.
func (r SessionResult) Render() string {
	var b strings.Builder
	b.WriteString("End-to-end VR session (paper §6 future work: pose-driven beam tracking)\n\n")
	fmt.Fprintf(&b, "Motion: %.1f m walked, hand raised %.0f%% of time, yaw range %.0f°\n\n",
		r.Trace.DistanceM, 100*r.Trace.HandUpFrac, r.Trace.YawRangeDeg)
	var rows [][]string
	for _, v := range SessionVariants {
		rep := r.Reports[v]
		rows = append(rows, []string{
			string(v),
			fmt.Sprintf("%d", rep.Frames),
			fmt.Sprintf("%.1f%%", 100*rep.GlitchFrac),
			rep.LongestOutage.Truncate(time.Millisecond).String(),
			rep.P99Latency.Truncate(100 * time.Microsecond).String(),
		})
	}
	b.WriteString(Table(
		[]string{"variant", "frames", "glitch rate", "worst outage", "p99 latency"},
		rows,
	))
	return b.String()
}
