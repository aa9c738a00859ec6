// Package obs is the simulator's structured event recorder — the
// observability layer that explains results instead of just scoring
// them. The link controller records handoffs and path invalidations,
// the coex scheduler records per-window slot grants and blockage
// reclaims, the stream records frame deadline hits and misses, and the
// session harness records lifecycle spans; exporters render the whole
// thing as Chrome trace-event JSON loadable in Perfetto.
//
// Three properties are load-bearing:
//
//   - Determinism: events carry sim-time, never wall time, and are
//     recorded in simulation callback order, so the same seed produces
//     a byte-identical trace file on every run and at every worker
//     count. Recording never feeds back into the simulation — a traced
//     run produces exactly the reports an untraced run does.
//   - Zero cost when off: every Recorder method is nil-receiver safe,
//     so instrumented hot paths pay one pointer test when tracing is
//     disabled. AllocsPerRun guards pin this at 0 allocs/op.
//   - Allocation-free when on: events are fixed-size values (no
//     pointers, no strings) recorded into a pre-allocated ring, so the
//     steady-state recording path performs zero heap allocations too.
//
// The ring buffer bounds memory per session: when full, the newest
// event overwrites the oldest and the drop is counted, so a trace
// always holds the most recent window of activity plus an exact
// account of what it lost.
package obs

import (
	"math"
	"time"
)

// Kind identifies what an Event describes. The A/B/X/Y payload fields
// are interpreted per kind — see the constant docs.
type Kind uint8

// Event kinds. The zero Kind is invalid, so a zeroed Event is
// recognizably empty.
const (
	// KindSessionStart opens a session's lifecycle span. No payload.
	KindSessionStart Kind = iota + 1

	// KindSessionEnd closes the span. A = frames delivered, B = frames
	// total.
	KindSessionEnd

	// KindLinkUp is the controller establishing (or recovering) a
	// usable path. A = path code (0 direct, 1+i reflector i),
	// X = SNR dB.
	KindLinkUp

	// KindLinkDown is a path invalidation: the serving configuration
	// stopped sustaining any MCS. X = SNR dB at the failure.
	KindLinkDown

	// KindHandoff is a switch between two usable paths. A = previous
	// path code, B = new path code, X = SNR dB on the new path.
	KindHandoff

	// KindReassess is a passive SNR re-read of the serving path (the
	// world-tick measurement between controller actions). A = path
	// code, X = SNR dB, Y = PHY rate bps.
	KindReassess

	// KindSlotGrant is one scheduling window's TDMA sub-slot for this
	// session. T is the window start; A = window index, X/Y = slot
	// start/end in seconds of virtual time.
	KindSlotGrant

	// KindSlotReclaim marks a window in which this session was
	// body-blocked and its airtime was reclaimed for the active
	// players. A = window index.
	KindSlotReclaim

	// KindAirtime is the policy's share decision for one window:
	// A = window index, X = received downlink fraction of the window,
	// Y = entitled fraction (this player's weight share).
	KindAirtime

	// KindFrameOK is a frame delivered within its deadline.
	// A = frame index, X = delivery latency in seconds.
	KindFrameOK

	// KindFrameMiss is a frame that missed its deadline (a glitch).
	// A = frame index, X = fraction of the frame's bits that did
	// arrive before the deadline — the partial-delivery context.
	KindFrameMiss

	// KindBayInterference is one scheduling window's external (cross-
	// bay) SINR penalty, emitted by a coex scheduler whose room carries
	// a venue interference input. A = window index, X = penalty in dB.
	KindBayInterference

	// KindAdmissionQueued records that venue admission control deferred
	// players from this session's bay: they wait outside instead of
	// starving the admitted players' airtime. A = queued player count.
	KindAdmissionQueued

	// KindAdmissionRejected records that venue admission control turned
	// players of this session's bay away outright. A = rejected player
	// count.
	KindAdmissionRejected

	kindMax // sentinel; keep last
)

// Event is one recorded occurrence. It is a fixed-size value — no
// pointers, no strings — so recording one into the ring allocates
// nothing. T is virtual (simulation) time; A/B/X/Y are payload fields
// whose meaning the Kind defines.
type Event struct {
	T    time.Duration `json:"t"`
	Kind Kind          `json:"k"`
	A    int32         `json:"a,omitempty"`
	B    int32         `json:"b,omitempty"`
	X    float64       `json:"x,omitempty"`
	Y    float64       `json:"y,omitempty"`
}

// DefaultCapacity is the ring size NewRecorder uses for capacity <= 0:
// at ~40 bytes per event, about 1.3 MB per session — comfortably more
// than a 30 s session emits at the default cadences.
const DefaultCapacity = 32768

// Recorder is a per-session ring buffer of events. A nil *Recorder is
// valid and records nothing at (almost) zero cost — instrument hot
// paths unconditionally and leave the field nil to disable tracing.
// A Recorder is not safe for concurrent use; sessions are simulated
// single-threaded, so each session owns its own.
type Recorder struct {
	clock   func() time.Duration
	buf     []Event
	start   int // index of the oldest event
	n       int // live events
	dropped uint64
}

// NewRecorder builds a recorder with the given ring capacity
// (DefaultCapacity when <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// SetClock installs the virtual-time source Emit stamps events with —
// normally the session engine's Now. Nil-receiver safe.
func (r *Recorder) SetClock(clock func() time.Duration) {
	if r == nil {
		return
	}
	r.clock = clock
}

// Emit records an event stamped with the recorder clock (T=0 with no
// clock installed). Nil-receiver safe and allocation-free.
func (r *Recorder) Emit(k Kind, a, b int32, x, y float64) {
	if r == nil {
		return
	}
	t := time.Duration(0)
	if r.clock != nil {
		t = r.clock()
	}
	r.EmitAt(t, k, a, b, x, y)
}

// EmitAt records an event at an explicit virtual time — for emitters
// whose event time is not "now" (a window start, a frame start).
// Non-finite payload values are sanitized (NaN → 0, ±Inf → ±MaxFloat64)
// so every recorded event is JSON-encodable. Nil-receiver safe and
// allocation-free.
func (r *Recorder) EmitAt(t time.Duration, k Kind, a, b int32, x, y float64) {
	if r == nil {
		return
	}
	ev := Event{T: t, Kind: k, A: a, B: b, X: sanitize(x), Y: sanitize(y)}
	if r.n == len(r.buf) {
		// Full: the newest event overwrites the oldest, which counts
		// as dropped.
		r.buf[r.start] = ev
		r.start++
		if r.start == len(r.buf) {
			r.start = 0
		}
		r.dropped++
		return
	}
	i := r.start + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = ev
	r.n++
}

// sanitize maps non-finite floats to JSON-encodable stand-ins.
func sanitize(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// Len reports the number of live events in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped reports how many events the ring overwrote.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the recorded events in emission order (nil when none).
func (r *Recorder) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]Event, r.n)
	head := copy(out, r.buf[r.start:min(r.start+r.n, len(r.buf))])
	copy(out[head:], r.buf[:r.n-head])
	return out
}

// SessionTrace is one session's recorded events plus its identity and
// drop accounting — the unit the exporters serialize.
type SessionTrace struct {
	// ID labels the session (a fleet spec ID like "coex/r0/h0", or a
	// variant name for single-session runs).
	ID string `json:"id"`

	// Dropped counts events the ring overwrote.
	Dropped uint64 `json:"dropped,omitempty"`

	// Events are the recorded events in emission order.
	Events []Event `json:"events"`
}

// Trace is a full multi-session event capture, sessions in spec order.
type Trace struct {
	Sessions []SessionTrace `json:"sessions"`
}

// Collect drains a recorder into a SessionTrace under the given ID.
func Collect(id string, r *Recorder) SessionTrace {
	return SessionTrace{ID: id, Dropped: r.Dropped(), Events: r.Events()}
}
