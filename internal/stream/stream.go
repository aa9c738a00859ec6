// Package stream simulates the VR video stream over the wireless link:
// uncompressed frames arrive at the display rate and must cross the link
// before the next frame lands ("the headset updates the display every
// 10ms"; VR data "cannot tolerate any degradation in SNR and data rate",
// paper §1/§2).
//
// A frame whose transmission cannot finish within its display interval
// is a glitch — the user-visible artifact the paper's Figure 1 cable
// avoids and MoVR must match.
package stream

import (
	"sort"
	"time"

	"github.com/movr-sim/movr/internal/obs"
	"github.com/movr-sim/movr/internal/sim"
	"github.com/movr-sim/movr/internal/stats"
	"github.com/movr-sim/movr/internal/vr"
)

// RateFunc reports the link's current PHY rate in bits per second at a
// virtual time.
type RateFunc func(now time.Duration) float64

// Report summarizes a streaming session.
type Report struct {
	// Frames is the number of frames generated.
	Frames int

	// Delivered counts frames that arrived within their deadline.
	Delivered int

	// Glitches counts frames that missed the deadline (late or
	// undeliverable).
	Glitches int

	// LongestOutage is the longest run of consecutive glitched frames,
	// in time.
	LongestOutage time.Duration

	// TotalOutage is the total time the display showed stale frames —
	// the sum of every glitched frame interval.
	TotalOutage time.Duration

	// MeanLatency is the mean delivery latency of delivered frames.
	MeanLatency time.Duration

	// P99Latency is the 99th-percentile delivery latency of delivered
	// frames.
	P99Latency time.Duration

	// GlitchFrac is Glitches/Frames.
	GlitchFrac float64
}

// Config describes the stream. Frames come from the HTC Vive display,
// the headset the paper streams to; coex's EDF deadlines sit on the
// same frame grid.
type Config struct {
	// Duration is the session length.
	Duration time.Duration

	// Obs, when non-nil, receives a frame_ok or frame_miss event per
	// frame. Recording is observation only: it never feeds back into
	// delivery, so traced and untraced runs produce identical Reports.
	Obs *obs.Recorder
}

// Session simulates frame delivery: each frame interval a frame of
// vr.HTCVive().FrameBits() bits is offered to the link; the link drains
// it at rate(t), re-sampled every slice of the frame interval to track
// SNR changes. A frame that fails to finish within one frame interval is a
// glitch (the display shows a stale frame) and is then abandoned —
// matching a real-time uncompressed pipeline with no retransmission
// budget. Its frame events are scheduled on a caller-driven engine, so
// several sessions can share one engine (the bay-batched fleet runner).
type Session struct {
	engine *sim.Engine
	cfg    Config
	rate   RateFunc

	interval  time.Duration
	frameBits float64
	slackBits float64
	frames    int

	next   int    // index of the next frame to generate
	tick   func() // frameTick bound once, reused by the chain
	rep    Report
	outage time.Duration

	// latencies holds each delivered frame's latency in whole
	// nanoseconds; Report sorts it in place.
	latencies []float64
}

// Begin schedules the session's frames on engine, one per HTC Vive
// frame interval that fits in cfg.Duration, and returns the session.
// Frames form a lazy chain — each frame event schedules the next — so
// only one frame event per session is ever queued. The caller runs the
// engine to (at least) cfg.Duration, then calls Report.
func Begin(engine *sim.Engine, cfg Config, rate RateFunc) *Session {
	s := &Session{engine: engine, cfg: cfg, rate: rate}
	display := vr.HTCVive()
	s.interval = display.FrameInterval()
	s.frameBits = display.FrameBits()

	// slackBits absorbs float-rounding drift in the per-slice drain sums,
	// so a link at exactly the display's rate (frame bits per frame
	// interval) — which finishes each frame at
	// the very last instant of its interval — counts as delivered. It is
	// ~10⁻⁵ of one bit for the HTC Vive frame, far below any physical
	// meaning.
	s.slackBits = s.frameBits * 1e-12

	s.frames = int(cfg.Duration / s.interval)
	s.latencies = make([]float64, 0, s.frames)
	s.tick = s.frameTick
	if s.frames > 0 {
		engine.At(0, s.tick)
	}
	return s
}

const slices = 10 // rate re-sampling granularity within a frame

// frameTick generates and drains one frame, then schedules the next.
func (s *Session) frameTick() {
	i := s.next
	s.next++
	if s.next < s.frames {
		s.engine.At(time.Duration(s.next)*s.interval, s.tick)
	}
	start := time.Duration(i) * s.interval
	s.rep.Frames++
	remaining := s.frameBits
	elapsed := time.Duration(0)
	for sl := 0; sl < slices; sl++ {
		// Slice boundaries are fractions of the interval, so the
		// last slice ends exactly on the frame deadline. (A fixed
		// width interval/slices floors to whole nanoseconds and
		// leaves the interval's tail uncovered, glitching links
		// that are exactly fast enough.)
		next := s.interval * time.Duration(sl+1) / slices
		r := s.rate(s.engine.Now() + elapsed)
		remaining -= r * (next - elapsed).Seconds()
		elapsed = next
		if remaining <= s.slackBits {
			// Frame done within this slice; refine the finish
			// time by backing out the overshoot.
			if over := -remaining; over > 0 && r > 0 {
				elapsed -= time.Duration(over / r * float64(time.Second))
			}
			break
		}
	}
	if remaining <= s.slackBits && elapsed <= s.interval {
		s.rep.Delivered++
		s.latencies = append(s.latencies, float64(elapsed))
		s.outage = 0
		s.cfg.Obs.EmitAt(start, obs.KindFrameOK, int32(i), 0, elapsed.Seconds(), 0)
	} else {
		s.rep.Glitches++
		s.outage += s.interval
		if s.outage > s.rep.LongestOutage {
			s.rep.LongestOutage = s.outage
		}
		frac := 1 - remaining/s.frameBits
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		s.cfg.Obs.EmitAt(start, obs.KindFrameMiss, int32(i), 0, frac, 0)
	}
}

// Report finalizes the session's metrics. Call it after the engine has
// run to the session horizon; calling it again returns the same Report.
//
// P99Latency is stats.PercentileSorted over the latencies, sorted in
// place, so stream reports and fleet aggregates share one definition of
// a percentile. The latencies are whole nanoseconds and their sum stays
// far below 2⁵³, so the float sum is exact in any order and MeanLatency
// is the integer mean.
func (s *Session) Report() Report {
	rep := s.rep
	rep.TotalOutage = time.Duration(rep.Glitches) * s.interval
	if n := len(s.latencies); n > 0 {
		var sum float64
		for _, l := range s.latencies {
			sum += l
		}
		rep.MeanLatency = time.Duration(sum) / time.Duration(n)
		sort.Float64s(s.latencies)
		rep.P99Latency = time.Duration(stats.PercentileSorted(s.latencies, 99))
	}
	if rep.Frames > 0 {
		rep.GlitchFrac = float64(rep.Glitches) / float64(rep.Frames)
	}
	return rep
}
