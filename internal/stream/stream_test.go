package stream

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/sim"
	"github.com/movr-sim/movr/internal/stats"
	"github.com/movr-sim/movr/internal/units"
	"github.com/movr-sim/movr/internal/vr"
)

func cfg(d time.Duration) Config {
	return Config{Display: vr.HTCVive(), Duration: d}
}

// run streams one session on its own engine: Begin, then the engine
// run to the session horizon, then Report.
func run(cfg Config, rate RateFunc) Report {
	engine := sim.New()
	s := Begin(engine, cfg, rate)
	engine.Run(cfg.Duration)
	return s.Report()
}

// ConstantRate returns a RateFunc pinned at rateBps.
func ConstantRate(rateBps float64) RateFunc {
	return func(time.Duration) float64 { return rateBps }
}

func TestPerfectLinkDeliversEverything(t *testing.T) {
	rep := run(cfg(time.Second), ConstantRate(7*units.Gbps))
	if rep.Frames != 90 {
		t.Errorf("frames = %d, want 90 (90 Hz for 1 s)", rep.Frames)
	}
	if rep.Glitches != 0 || rep.Delivered != rep.Frames {
		t.Errorf("perfect link glitched: %+v", rep)
	}
	if rep.MeanLatency <= 0 || rep.MeanLatency > vr.HTCVive().FrameInterval() {
		t.Errorf("mean latency = %v", rep.MeanLatency)
	}
	if rep.GlitchFrac != 0 {
		t.Error("glitch fraction should be 0")
	}
}

func TestInsufficientRateGlitchesEverything(t *testing.T) {
	// 1 Gbps cannot carry a 5.6 Gbps stream: every frame misses.
	rep := run(cfg(time.Second), ConstantRate(1*units.Gbps))
	if rep.Delivered != 0 {
		t.Errorf("delivered %d frames on a starved link", rep.Delivered)
	}
	if rep.GlitchFrac != 1 {
		t.Errorf("glitch fraction = %v", rep.GlitchFrac)
	}
	if rep.LongestOutage < 900*time.Millisecond {
		t.Errorf("longest outage = %v, want ~full session", rep.LongestOutage)
	}
}

func TestDeadLinkNoDivision(t *testing.T) {
	rep := run(cfg(100*time.Millisecond), ConstantRate(0))
	if rep.Delivered != 0 || rep.Glitches != rep.Frames {
		t.Errorf("dead link report: %+v", rep)
	}
}

func TestTransientBlockageGlitchesOnlyDuring(t *testing.T) {
	// Link drops below the requirement for 200 ms mid-session — the
	// paper's "glitch in the data stream" from a hand wave (§1).
	rate := func(now time.Duration) float64 {
		if now >= 400*time.Millisecond && now < 600*time.Millisecond {
			return 2 * units.Gbps // blocked: below requirement
		}
		return 7 * units.Gbps
	}
	rep := run(cfg(time.Second), rate)
	if rep.Glitches == 0 {
		t.Fatal("expected glitches during blockage")
	}
	// ~18 frames fall in the 200 ms window.
	if rep.Glitches < 15 || rep.Glitches > 22 {
		t.Errorf("glitches = %d, want ~18", rep.Glitches)
	}
	if rep.LongestOutage < 150*time.Millisecond || rep.LongestOutage > 260*time.Millisecond {
		t.Errorf("longest outage = %v, want ~200ms", rep.LongestOutage)
	}
	if rep.GlitchFrac > 0.3 {
		t.Errorf("glitch fraction = %v, most frames should deliver", rep.GlitchFrac)
	}
}

func TestRequiredRate(t *testing.T) {
	// Required rate equals the raw pixel rate for uncompressed frames.
	d := vr.HTCVive()
	req := RequiredRateBps(d)
	if math.Abs(req-d.RawRateBps()) > 0.01*d.RawRateBps() {
		t.Errorf("required = %v, raw = %v", req, d.RawRateBps())
	}
	// A link at exactly the required rate delivers every frame.
	rep := run(cfg(500*time.Millisecond), ConstantRate(req*1.001))
	if rep.Glitches != 0 {
		t.Errorf("at-requirement link glitched: %+v", rep)
	}
}

func TestMarginallyFastLinkLatency(t *testing.T) {
	// Slightly above requirement: everything delivers, with latency
	// near (but below) the full interval.
	d := vr.HTCVive()
	rep := run(cfg(time.Second), ConstantRate(RequiredRateBps(d)*1.05))
	if rep.Glitches != 0 {
		t.Fatalf("glitches = %d", rep.Glitches)
	}
	if rep.P99Latency > d.FrameInterval() {
		t.Errorf("p99 latency %v exceeds interval", rep.P99Latency)
	}
	if rep.MeanLatency < d.FrameInterval()/2 {
		t.Errorf("mean latency %v implausibly low for marginal link", rep.MeanLatency)
	}
}

func TestExactRequiredRateDeliversEveryFrame(t *testing.T) {
	// Regression: a link at *exactly* RequiredRateBps finishes each frame
	// at the last instant of its interval. The drain loop used to cover
	// only slices*(interval/slices) — flooring to whole nanoseconds left
	// the interval's tail unscanned, so exactly-fast-enough links could
	// glitch every frame.
	d := vr.HTCVive()
	rep := run(cfg(2*time.Second), ConstantRate(RequiredRateBps(d)))
	if rep.Delivered != rep.Frames || rep.Glitches != 0 {
		t.Errorf("at-required-rate link: delivered %d of %d frames (%d glitches)",
			rep.Delivered, rep.Frames, rep.Glitches)
	}
	// Delivery takes the whole interval: latency must not exceed it.
	if rep.P99Latency > d.FrameInterval() {
		t.Errorf("p99 latency %v exceeds the frame interval %v", rep.P99Latency, d.FrameInterval())
	}
}

func TestPercentileMatchesStats(t *testing.T) {
	// stream's percentile must agree with stats.Percentile, which the
	// fleet aggregates use — a truncating local copy once biased
	// P99Latency low.
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 10, 99, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1e7
		}
		for _, p := range []float64{0, 1, 25, 50, 90, 99, 99.9, 100} {
			got := percentile(xs, p)
			want := stats.Percentile(xs, p)
			if got != want {
				t.Fatalf("percentile(n=%d, p=%v) = %v, stats.Percentile = %v", n, p, got, want)
			}
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// RequiredRateBps returns the minimum constant link rate that delivers
// every frame of the display within its interval — the paper's
// "multiple Gbps" requirement, derived rather than asserted.
func RequiredRateBps(d vr.DisplaySpec) float64 {
	return d.FrameBits() / d.FrameInterval().Seconds()
}
