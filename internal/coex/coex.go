// Package coex models shared-medium coexistence in multi-headset rooms:
// several untethered VR headsets contending for one 60 GHz channel — the
// VR-arcade deployment the paper's introduction targets. Two effects make
// a shared bay strictly harder than N copies of a private room:
//
//   - airtime: the medium is one channel, so each player only transmits
//     during its TDMA slots. The scheduler here splits every scheduling
//     window (the 50 ms tracking cadence) across the room's players
//     according to one of its airtime policies — round-robin by default,
//     with proportional-fair and deadline-aware alternatives — and
//     reclaims the slots of players whose direct path from the AP is
//     body-blocked: a blocked player cannot use the air, so its share is
//     lent to the others (the idle-reclaim policy). Each window may also
//     reserve a pose-report uplink sub-slot per active player (the
//     paper's 50 ms tracking cadence runs over the same medium), which
//     is subtracted from the downlink airtime before any video bits fly;
//   - blockage: every other player's body is a moving obstacle on this
//     player's mmWave paths. The experiments layer feeds the same peer
//     traces used for scheduling into the ray tracer's world as dynamic
//     body obstacles.
//
// The window layout is deterministic and purely geometric: every
// quantity a policy may consult — the active set, link quality, deadline
// grid — is a pure function of the window index and the players' motion
// traces, so the room's schedule does not depend on which session asks
// or in what order.
//
// # The room's schedule table
//
// The schedule and the peer poses belong to the room rather than to any
// one session, so they are computed once per room: BuildGeometry runs
// the window layout — the active set, the uplink reservation and the
// airtime policy — over the room's horizon and records a Geometry,
// every player's pose on a fixed tick grid plus every player's slot
// boundaries in every window. That table is the only schedule source:
// a Scheduler reads one session's slots from it and never lays out a
// window itself, and the session engine reads peer poses from the same
// table by player number. The contract:
//
//   - layoutWindow runs only inside BuildGeometry, and co-located
//     sessions share the one table, so they agree on every slot;
//   - a window past the table's horizon holds no slot for anyone;
//   - the table answers pose queries only on its tick grid;
//   - NewScheduler trusts the table to describe its room. The session
//     engine refuses a shared room that carries none, and checks the
//     table with O(1) guards: its tick is the world tick, its horizon
//     covers the session, and Self is in range.
package coex

import (
	"fmt"
	"math"
	"time"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/obs"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/stream"
	"github.com/movr-sim/movr/internal/vr"
)

// DefaultPeriod is the TDMA scheduling window when none is configured —
// the paper's 50 ms tracking cadence, so the schedule and the beam
// controller re-plan on the same clock.
const DefaultPeriod = 50 * time.Millisecond

// Room describes one shared-medium room from a single session's point of
// view: every player sharing the channel (including this one) and which
// of them this session is.
type Room struct {
	// Players holds the motion trace of every headset sharing the
	// room's medium, in TDMA slot order. BuildGeometry lays the room's
	// schedule out from them.
	Players []vr.Trace

	// Self is this session's index in Players.
	Self int

	// Period is the TDMA scheduling window. Zero means DefaultPeriod.
	Period time.Duration

	// Policy selects the airtime policy that sizes the per-player
	// sub-slots of every window. Empty means PolicyRR, the historical
	// round-robin even split.
	Policy PolicyName

	// Weights are per-player airtime weights applied by every policy
	// (a weight-2 player receives twice the share of a weight-1 player,
	// all else equal). Nil means equal weights; otherwise the length
	// must match Players and every weight must be positive and finite.
	Weights []float64

	// UplinkSlot reserves a pose-report uplink sub-slot of this length
	// per active player at the head of every scheduling window — the
	// tracking report the paper's 50 ms cadence carries back to the VR
	// PC over the same medium. The reservation is subtracted from the
	// window's downlink airtime: no session's Share is ever 1 inside
	// it. Zero disables the reservation (the historical behavior).
	// UplinkSlot × len(Players) must stay below Period.
	UplinkSlot time.Duration

	// ExtSINRPenaltyDB, when non-empty, is the bay's external-
	// interference input: the SINR penalty (dB ≥ 0) that co-channel
	// transmitters in neighboring bays impose, indexed by scheduling
	// window (out-of-range windows carry no penalty). The venue layer
	// computes the table per bay from the neighbors' geometry snapshots;
	// a plain table rather than a callback keeps rooms comparable and
	// spec generation trivially deterministic. It reaches only the
	// session's link budget, via Scheduler.ExtPenaltyDB: no airtime
	// policy sees it, so a Geometry built before the venue computes the
	// penalties stays valid. Empty means no external interference — the
	// historical single-room behavior.
	ExtSINRPenaltyDB []float64

	// Geometry is the room's schedule table — peer poses and the full
	// window schedule over the room's horizon, built once with
	// BuildGeometry and shared read-only by every co-located session.
	// NewScheduler requires it and reads every window from it; the
	// other fields describe the room the table is built from.
	Geometry *Geometry
}

// Scheduler serves one session's airtime share of the room's medium
// over virtual time, read from the room's Geometry. It caches the most
// recent scheduling window, so the mostly-monotonic time queries of a
// streaming run cost one table read per window. A Scheduler is stateful
// scratch and must not be shared between sessions; build one per
// streamed session.
type Scheduler struct {
	geo    *Geometry
	self   int
	period time.Duration
	ext    []float64

	// Cached window: the sub-slot [slotStart, slotEnd) assigned to Self
	// inside window winIdx (selfActive=false when Self's slots were
	// reclaimed or sized to nothing, or the window is past the table).
	winIdx             int64
	selfActive         bool
	slotStart, slotEnd time.Duration

	// obs, when non-nil, receives a slot_grant or slot_reclaim event
	// plus an airtime event per scheduling window; entitled is Self's
	// weight fraction of the room, precomputed so window emission stays
	// allocation- and division-free. Recording never feeds back into
	// the schedule.
	obs      *obs.Recorder
	entitled float64
}

// NewScheduler builds the session's scheduler over the room's Geometry,
// which it requires. Self must index one of the table's players.
func NewScheduler(rm Room) (*Scheduler, error) {
	g := rm.Geometry
	if g == nil {
		return nil, fmt.Errorf("coex: room has no geometry (build one with BuildGeometry)")
	}
	if rm.Self < 0 || rm.Self >= g.Players() {
		return nil, fmt.Errorf("coex: self index %d out of range [0,%d)", rm.Self, g.Players())
	}
	return &Scheduler{
		geo:      g,
		self:     rm.Self,
		period:   g.period,
		ext:      rm.ExtSINRPenaltyDB,
		winIdx:   -1,
		entitled: g.entitled[rm.Self],
	}, nil
}

// SetRecorder attaches an event recorder to the scheduler. Each
// scheduling window then emits a slot_grant (or slot_reclaim, when
// blockage cost Self its slot) plus an airtime received-vs-entitled
// event, stamped at the window start. A nil recorder disables emission.
func (s *Scheduler) SetRecorder(r *obs.Recorder) { s.obs = r }

// Share returns this session's airtime multiplier at virtual time t: 1
// inside its own TDMA sub-slot, 0 outside — including the window-head
// pose-uplink reservation, during which no session's downlink is on the
// air. Slot order rotates window to window, so a player's slot sweeps
// every phase of the frame cadence over a session, and the sub-slots of
// body-blocked players are redistributed to the active ones.
func (s *Scheduler) Share(t time.Duration) float64 {
	if t < 0 {
		t = 0
	}
	if win := int64(t / s.period); win != s.winIdx {
		s.computeWindow(win)
	}
	if s.selfActive && t >= s.slotStart && t < s.slotEnd {
		return 1
	}
	return 0
}

// Wrap composes the schedule into a link-rate function: the wrapped rate
// is the underlying link rate during this session's slots and zero while
// another player holds the medium (or the pose uplink does).
func (s *Scheduler) Wrap(rate stream.RateFunc) stream.RateFunc {
	return func(now time.Duration) float64 {
		return rate(now) * s.Share(now)
	}
}

// ExtPenaltyDB returns the external (cross-bay) SINR penalty in dB at
// virtual time t: the room's interference table indexed by t's
// scheduling window, 0 when the room carries none or the window is
// past the table. It is a pure per-window lookup — it neither touches
// nor advances the cached window, so calling it never perturbs
// schedule evaluation order.
func (s *Scheduler) ExtPenaltyDB(t time.Duration) float64 {
	if t < 0 {
		t = 0
	}
	if win := int64(t / s.period); win < int64(len(s.ext)) {
		return s.ext[win]
	}
	return 0
}

// computeWindow reads Self's slot of window win from the room's table
// and records it. Slots start at or after the window's uplink
// reservation ends, so the slot bounds alone gate Share. Streaming runs
// query time monotonically, so each window is computed — and therefore
// emitted — exactly once, in order.
func (s *Scheduler) computeWindow(win int64) {
	s.winIdx = win
	s.slotStart, s.slotEnd, s.selfActive = s.geo.SlotAt(win, s.self)
	if s.obs == nil {
		return
	}
	start := s.period * time.Duration(win)
	received := 0.0
	if s.selfActive {
		s.obs.EmitAt(start, obs.KindSlotGrant, int32(win), 0, s.slotStart.Seconds(), s.slotEnd.Seconds())
		received = float64(s.slotEnd-s.slotStart) / float64(s.period)
	} else {
		s.obs.EmitAt(start, obs.KindSlotReclaim, int32(win), 0, 0, 0)
	}
	s.obs.EmitAt(start, obs.KindAirtime, int32(win), 0, received, s.entitled)
	if len(s.ext) > 0 {
		s.obs.EmitAt(start, obs.KindBayInterference, int32(win), 0, s.ExtPenaltyDB(start), 0)
	}
}

// layout is the window-layout engine BuildGeometry runs over a room's
// horizon: the room's resolved configuration, its airtime policy, and
// reusable per-window scratch (layoutWindow is allocation-free) —
// player poses and the active set at the window start, the policy's
// share vector, a second pose buffer for quality lookbacks so policies
// can evaluate past windows without clobbering the current one, and the
// integer slot widths of the window being laid out.
type layout struct {
	players []vr.Trace
	period  time.Duration
	ap      geom.Vec
	weights []float64
	uplink  time.Duration
	policy  airtimePolicy

	poses     []geom.Vec
	activeSet []bool
	shares    []float64
	lbPoses   []geom.Vec
	win       window
	wis       []int64
}

// newLayout validates the room and resolves its defaults. ap is the
// transmitter position the idle-reclaim LOS test sights from (the
// room's AP).
func newLayout(rm Room, ap geom.Vec) (*layout, error) {
	if len(rm.Players) == 0 {
		return nil, fmt.Errorf("coex: room has no players")
	}
	for i, tr := range rm.Players {
		if len(tr) == 0 {
			return nil, fmt.Errorf("coex: player %d has an empty trace", i)
		}
	}
	period := rm.Period
	if period <= 0 {
		period = DefaultPeriod
	}
	if rm.Weights != nil {
		if len(rm.Weights) != len(rm.Players) {
			return nil, fmt.Errorf("coex: %d weights for %d players", len(rm.Weights), len(rm.Players))
		}
		for i, w := range rm.Weights {
			if !(w > 0) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("coex: player %d weight %v must be positive and finite", i, w)
			}
		}
	}
	if rm.UplinkSlot < 0 {
		return nil, fmt.Errorf("coex: uplink slot %v must not be negative", rm.UplinkSlot)
	}
	if res := rm.UplinkSlot * time.Duration(len(rm.Players)); res >= period {
		return nil, fmt.Errorf("coex: uplink reservation %v (%d players × %v) leaves no downlink airtime in a %v window",
			res, len(rm.Players), rm.UplinkSlot, period)
	}
	n := len(rm.Players)
	policy, err := newPolicy(rm.Policy, n)
	if err != nil {
		return nil, err
	}
	l := &layout{
		players:   rm.Players,
		period:    period,
		ap:        ap,
		weights:   rm.Weights,
		uplink:    rm.UplinkSlot,
		policy:    policy,
		poses:     make([]geom.Vec, n),
		activeSet: make([]bool, n),
		shares:    make([]float64, n),
		lbPoses:   make([]geom.Vec, n),
		wis:       make([]int64, n),
	}
	l.win.lay = l
	return l, nil
}

// shareScale returns the integer weight scale policy share fractions
// are quantized to before the sub-slot boundaries are computed. Integer
// boundary arithmetic keeps the partition exact — the last slot ends on
// the next window to the nanosecond — and makes equal shares reproduce
// the historical round-robin boundaries bit for bit (the scale factor
// cancels). The scale is the downlink span itself (in nanoseconds)
// whenever that cannot overflow the boundary products, so a policy that
// returns slot widths — the deadline-aware policy, whose boundaries
// must land exactly on the frame grid — round-trips them untouched.
func shareScale(down time.Duration) int64 {
	scale := int64(down)
	if lim := (int64(1) << 62) / scale; scale > lim {
		scale = lim
	}
	return scale
}

// layoutWindow evaluates the active set at the start of window win,
// reserves the pose-uplink sub-slots, and asks the policy to size the
// active players' shares of the remaining downlink span. Sub-slots are
// laid out contiguously in cyclic player order from the window's
// rotation offset; blocked players get nothing — their airtime is
// reclaimed. When every player is blocked there is nothing to reclaim
// and the active set falls back to everyone.
//
// The full layout — every player's sub-slot, not just Self's — is
// written into active/starts/ends (each len(players); a player with no
// slot gets active=false and zero boundaries) and the end of the
// window's uplink reservation is returned. BuildGeometry records every
// window's sub-slots in the room's table.
func (l *layout) layoutWindow(win int64, active []bool, starts, ends []time.Duration) time.Duration {
	start := l.period * time.Duration(win)

	n := len(l.players)
	for i, tr := range l.players {
		l.poses[i] = tr.At(start).Pos
	}
	nActive := 0
	for i := range l.players {
		l.activeSet[i] = l.losClear(l.poses, i)
		if l.activeSet[i] {
			nActive++
		}
	}
	if nActive == 0 {
		for i := range l.activeSet {
			l.activeSet[i] = true
		}
		nActive = n
	}

	// The pose-uplink reservation at the window head: one sub-slot per
	// active player (blocked players report nothing worth airtime), all
	// downlink slots shifted past it.
	up := l.uplink * time.Duration(nActive)
	upEnd := start + up
	down := l.period - up

	w := &l.win
	w.Index, w.DownStart, w.Downlink = win, upEnd, down
	w.Active, w.NActive, w.Weights = l.activeSet, nActive, l.weights

	for i := range l.shares {
		l.shares[i] = 0
	}
	l.policy.Shares(w, l.shares)
	sum := 0.0
	for _, sh := range l.shares {
		sum += sh
	}

	// Lay the sub-slots out in cyclic order from the rotation offset,
	// boundaries computed from the window span so the slots partition
	// [upEnd, start+period) exactly — the same full-coverage rule
	// stream.Session uses for its frame slices.
	off := int(win % int64(n))
	scale := float64(shareScale(down))
	var cum int64
	for o := 0; o < n; o++ {
		i := (off + o) % n
		var wi int64
		if l.shares[i] > 0 {
			wi = int64(math.Round(scale * l.shares[i] / sum))
			if wi == 0 {
				wi = 1
			}
		}
		l.wis[i] = wi
		cum += wi
	}
	var c int64
	for o := 0; o < n; o++ {
		i := (off + o) % n
		wi := l.wis[i]
		if wi == 0 || cum == 0 {
			active[i], starts[i], ends[i] = false, 0, 0
			continue
		}
		active[i] = true
		starts[i] = upEnd + down*time.Duration(c)/time.Duration(cum)
		ends[i] = upEnd + down*time.Duration(c+wi)/time.Duration(cum)
		c += wi
	}
	return upEnd
}

// losClear reports whether player i's direct path from the AP is clear
// of every other player's body disc — the idle-reclaim activity test.
// It deliberately ignores walls and furniture: the question is whether
// the *other players* have shadowed this one, which is the signal the
// room's scheduler can read from tracking data alone.
func (l *layout) losClear(poses []geom.Vec, i int) bool {
	seg := geom.Seg(l.ap, poses[i])
	for j := range poses {
		if j == i {
			continue
		}
		body := geom.Circle{C: poses[j], R: room.BodyRadiusM}
		if body.IntersectsSegment(seg) {
			return false
		}
	}
	return true
}

// lbQuality returns player i's geometric link quality over the poses
// currently in the lookback scratch: an AP-proximity factor 1/(1+d²)
// discounted hard when the player's direct path is body-blocked — the
// only link-state signal a purely tracking-driven scheduler can read.
func (l *layout) lbQuality(i int) float64 {
	d := l.ap.Dist(l.lbPoses[i])
	q := 1 / (1 + d*d)
	if !l.losClear(l.lbPoses, i) {
		q *= blockedQuality
	}
	return q
}

// recentQualityInto fills q with every player's mean geometric link
// quality over the trailing qualityLookback windows ending at win — the
// bulk form the proportional-fair policy runs every window: each
// lookback window's poses are evaluated once for all players.
func (l *layout) recentQualityInto(win int64, q []float64) {
	lo := win - qualityLookback + 1
	if lo < 0 {
		lo = 0
	}
	for i := range q {
		q[i] = 0
	}
	for k := lo; k <= win; k++ {
		start := l.period * time.Duration(k)
		for j, tr := range l.players {
			l.lbPoses[j] = tr.At(start).Pos
		}
		for i := range q {
			q[i] += l.lbQuality(i)
		}
	}
	n := float64(win - lo + 1)
	for i := range q {
		q[i] /= n
	}
}
