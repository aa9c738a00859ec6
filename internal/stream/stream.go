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

// Config describes the stream.
type Config struct {
	// Display is the headset display generating frames.
	Display vr.DisplaySpec

	// Duration is the session length.
	Duration time.Duration

	// Obs, when non-nil, receives a frame_ok or frame_miss event per
	// frame. Recording is observation only: it never feeds back into
	// delivery, so traced and untraced runs produce identical Reports.
	Obs *obs.Recorder

	// LatencyScratch, when it has capacity for every frame of the
	// session, seeds the delivered-frame latency buffer so callers can
	// reuse one allocation across sessions. The session owns the buffer
	// until Report; reclaim it afterwards with LatencyBuffer.
	LatencyScratch []time.Duration
}

// Session simulates frame delivery: each frame interval a frame of
// Display.FrameBits() bits is offered to the link; the link drains it at
// rate(t), re-sampled every slice of the frame interval to track SNR
// changes. A frame that fails to finish within one frame interval is a
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

	next      int    // index of the next frame to generate
	tick      func() // frameTick bound once, reused by the chain
	rep       Report
	latencies []time.Duration
	outage    time.Duration
}

// Begin schedules the session's frames on engine and returns the
// session. Frames form a lazy chain — each frame event schedules the
// next — so only one frame event per session is ever queued. The caller
// runs the engine to (at least) cfg.Duration, then calls
// Report.
func Begin(engine *sim.Engine, cfg Config, rate RateFunc) *Session {
	s := &Session{engine: engine, cfg: cfg, rate: rate}
	s.interval = cfg.Display.FrameInterval()
	s.frameBits = cfg.Display.FrameBits()

	// slackBits absorbs float-rounding drift in the per-slice drain sums,
	// so a link at exactly the display's rate (frame bits per frame
	// interval) — which finishes each frame at
	// the very last instant of its interval — counts as delivered. It is
	// ~10⁻⁵ of one bit for the HTC Vive frame, far below any physical
	// meaning.
	s.slackBits = s.frameBits * 1e-12

	s.frames = int(cfg.Duration / s.interval)
	if cap(cfg.LatencyScratch) >= s.frames {
		s.latencies = cfg.LatencyScratch[:0]
	} else {
		s.latencies = make([]time.Duration, 0, s.frames)
	}
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
		s.latencies = append(s.latencies, elapsed)
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

// Report finalizes the session's metrics. Call it once, after the engine
// has run to the session horizon.
func (s *Session) Report() Report {
	rep := s.rep
	rep.TotalOutage = time.Duration(rep.Glitches) * s.interval
	if len(s.latencies) > 0 {
		var sum time.Duration
		xs := make([]float64, len(s.latencies))
		for i, l := range s.latencies {
			sum += l
			xs[i] = float64(l)
		}
		rep.MeanLatency = sum / time.Duration(len(s.latencies))
		rep.P99Latency = time.Duration(percentile(xs, 99))
	}
	if rep.Frames > 0 {
		rep.GlitchFrac = float64(rep.Glitches) / float64(rep.Frames)
	}
	return rep
}

// LatencyBuffer returns the session's internal latency buffer for reuse
// as a later session's Config.LatencyScratch. Only meaningful after
// Report.
func (s *Session) LatencyBuffer() []time.Duration { return s.latencies }

// percentile delegates to stats.Percentile (linear interpolation between
// order statistics) so stream reports and fleet aggregates can never
// disagree on what a percentile is. An earlier local copy truncated the
// rank to an integer index, biasing P99Latency low.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}
