// Package vr models the virtual-reality side of the system: the headset's
// display requirements and the player's motion — walking, head rotation,
// and the hand gestures whose blockage the paper measures.
//
// Traces are generated deterministically from a seed so every experiment
// is reproducible.
package vr

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/units"
)

// DisplaySpec describes the headset display pipeline.
type DisplaySpec struct {
	// Width and Height are the combined panel resolution in pixels.
	Width, Height int

	// RefreshHz is the refresh rate.
	RefreshHz float64

	// BitsPerPixel is the uncompressed colour depth.
	BitsPerPixel int
}

// HTCVive returns the display of the paper's testbed headset: dual
// 1080×1200 panels (2160×1200 combined) at 90 Hz.
func HTCVive() DisplaySpec {
	return DisplaySpec{Width: 2160, Height: 1200, RefreshHz: 90, BitsPerPixel: 24}
}

// RawRateBps returns the uncompressed pixel rate in bits per second —
// the "multiple Gbps" the paper's introduction cites.
func (d DisplaySpec) RawRateBps() float64 {
	return float64(d.Width) * float64(d.Height) * float64(d.BitsPerPixel) * d.RefreshHz
}

// FrameBits returns the size of one uncompressed frame in bits.
func (d DisplaySpec) FrameBits() float64 {
	return float64(d.Width) * float64(d.Height) * float64(d.BitsPerPixel)
}

// FrameInterval returns the display update period (the paper's 10 ms
// deadline at 90-100 Hz).
func (d DisplaySpec) FrameInterval() time.Duration {
	return time.Duration(float64(time.Second) / d.RefreshHz)
}

// String describes the display.
func (d DisplaySpec) String() string {
	return fmt.Sprintf("%dx%d@%.0fHz (%.1f Gbps raw)", d.Width, d.Height, d.RefreshHz, d.RawRateBps()/units.Gbps)
}

// Pose is one sample of the player's tracked state.
type Pose struct {
	// T is the trace timestamp.
	T time.Duration

	// Pos is the headset position in the floor plan.
	Pos geom.Vec

	// YawDeg is the direction the player faces.
	YawDeg float64

	// HandRaised reports whether the player's hand is up in front of
	// the headset (the paper's hand-blockage scenario).
	HandRaised bool
}

// HandPos returns the position of the raised hand: in front of the face,
// along the gaze direction.
func (p Pose) HandPos() geom.Vec { return geom.FromPolar(p.Pos, p.YawDeg, 0.35) }

// Trace is a time-ordered sequence of poses.
type Trace []Pose

// Duration returns the trace length in time.
func (t Trace) Duration() time.Duration {
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1].T
}

// At returns the pose active at time d (the latest sample at or before
// d); it returns the first pose for times before the trace starts.
func (t Trace) At(d time.Duration) Pose {
	if len(t) == 0 {
		return Pose{}
	}
	lo, hi := 0, len(t)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t[mid].T <= d {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return t[lo]
}

// TraceConfig drives the synthetic motion generator.
type TraceConfig struct {
	// Duration is the total trace length.
	Duration time.Duration

	// Step is the sampling interval.
	Step time.Duration

	// RoomW and RoomD bound the walkable area (a margin is applied).
	RoomW, RoomD float64

	// WalkSpeedMps is the average walking speed.
	WalkSpeedMps float64

	// YawRateDps is the RMS head-rotation rate in degrees per second.
	YawRateDps float64

	// YawDriftDps is a slow persistent rotation (sign chosen from the
	// seed) so the player sweeps the full circle over a session, as
	// room-scale VR players do.
	YawDriftDps float64

	// HandRaiseRate is the average number of hand-raise events per
	// second of play.
	HandRaiseRate float64

	// HandRaiseDur is how long a raised hand stays up.
	HandRaiseDur time.Duration

	// Seed makes the trace reproducible.
	Seed int64
}

// DefaultTraceConfig returns a lively room-scale VR session: 60 s at
// 100 Hz sampling, ~0.5 m/s wandering, brisk head motion, a hand raise
// every few seconds.
func DefaultTraceConfig(roomW, roomD float64, seed int64) TraceConfig {
	return TraceConfig{
		Duration:      60 * time.Second,
		Step:          10 * time.Millisecond,
		RoomW:         roomW,
		RoomD:         roomD,
		WalkSpeedMps:  0.5,
		YawRateDps:    60,
		YawDriftDps:   25,
		HandRaiseRate: 0.25,
		HandRaiseDur:  800 * time.Millisecond,
		Seed:          seed,
	}
}

// Generate synthesizes a motion trace: a smooth random walk with
// reflective room boundaries, an Ornstein-Uhlenbeck-style heading
// process, and Poisson hand-raise events.
func Generate(cfg TraceConfig) (Trace, error) {
	if cfg.Duration <= 0 || cfg.Step <= 0 {
		return nil, fmt.Errorf("vr: Duration %v and Step %v must be positive", cfg.Duration, cfg.Step)
	}
	if cfg.RoomW <= 1 || cfg.RoomD <= 1 {
		return nil, fmt.Errorf("vr: room %vx%v too small for motion", cfg.RoomW, cfg.RoomD)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := int(cfg.Duration/cfg.Step) + 1
	dt := cfg.Step.Seconds()
	margin := 0.5

	pos := geom.V(
		margin+rng.Float64()*(cfg.RoomW-2*margin),
		margin+rng.Float64()*(cfg.RoomD-2*margin),
	)
	heading := rng.Float64() * 360
	yaw := rng.Float64() * 360
	yawVel := 0.0
	drift := cfg.YawDriftDps
	if rng.Intn(2) == 0 {
		drift = -drift
	}
	handUntil := time.Duration(-1)

	trace := make(Trace, 0, n)
	for i := 0; i < n; i++ {
		t := time.Duration(i) * cfg.Step
		// Walk: heading drifts, speed jitters around the mean.
		heading += rng.NormFloat64() * 25 * dt * 10
		speed := cfg.WalkSpeedMps * (0.6 + 0.8*rng.Float64())
		step := geom.FromPolar(geom.V(0, 0), heading, speed*dt)
		pos = pos.Add(step)
		// Reflect off the walkable-area boundary.
		if pos.X < margin {
			pos.X = 2*margin - pos.X
			heading = 180 - heading
		}
		if pos.X > cfg.RoomW-margin {
			pos.X = 2*(cfg.RoomW-margin) - pos.X
			heading = 180 - heading
		}
		if pos.Y < margin {
			pos.Y = 2*margin - pos.Y
			heading = -heading
		}
		if pos.Y > cfg.RoomD-margin {
			pos.Y = 2*(cfg.RoomD-margin) - pos.Y
			heading = -heading
		}
		// Head yaw: mean-reverting angular velocity (players scan the
		// scene) on top of a slow persistent drift (they also turn all
		// the way around over a session).
		yawVel += (-1.5*yawVel + rng.NormFloat64()*cfg.YawRateDps*3) * dt
		yaw = units.NormalizeDeg(yaw + (yawVel+drift)*dt)
		// Hand raises: Poisson arrivals with fixed hold time.
		if handUntil < t && rng.Float64() < cfg.HandRaiseRate*dt {
			handUntil = t + cfg.HandRaiseDur
		}
		trace = append(trace, Pose{
			T:          t,
			Pos:        pos,
			YawDeg:     yaw,
			HandRaised: t < handUntil,
		})
	}
	return trace, nil
}

// Stats summarizes a trace for sanity checks and reports.
type Stats struct {
	Samples      int
	DistanceM    float64
	MeanSpeedMps float64
	HandUpFrac   float64
	YawRangeDeg  float64
}

// Summarize computes trace statistics.
func Summarize(t Trace) Stats {
	s := Stats{Samples: len(t)}
	if len(t) < 2 {
		return s
	}
	handUp := 0
	minYaw, maxYaw := math.Inf(1), math.Inf(-1)
	for i, p := range t {
		if i > 0 {
			s.DistanceM += p.Pos.Dist(t[i-1].Pos)
		}
		if p.HandRaised {
			handUp++
		}
		if p.YawDeg < minYaw {
			minYaw = p.YawDeg
		}
		if p.YawDeg > maxYaw {
			maxYaw = p.YawDeg
		}
	}
	s.MeanSpeedMps = s.DistanceM / t.Duration().Seconds()
	s.HandUpFrac = float64(handUp) / float64(len(t))
	s.YawRangeDeg = maxYaw - minYaw
	return s
}
