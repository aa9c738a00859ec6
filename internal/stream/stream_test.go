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
	return Config{Duration: d}
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

// piecewiseRate returns a seeded RateFunc that holds a random rate, from
// starved to twice the stream's requirement, for random spans of 5 to
// 60 ms across d.
func piecewiseRate(seed int64, d time.Duration) RateFunc {
	rng := rand.New(rand.NewSource(seed))
	req := RequiredRateBps(vr.HTCVive())
	var ends []time.Duration
	var rates []float64
	for t := time.Duration(0); t < d; {
		t += time.Duration(5+rng.Intn(56)) * time.Millisecond
		ends = append(ends, t)
		rates = append(rates, req*2*rng.Float64())
	}
	return func(now time.Duration) float64 {
		for i, end := range ends {
			if now < end {
				return rates[i]
			}
		}
		return rates[len(rates)-1]
	}
}

func TestReportLatenciesMatchStats(t *testing.T) {
	// Report sorts the session's latencies in place and reads P99 with
	// stats.PercentileSorted; it must agree with stats.Percentile, which
	// the fleet aggregates use, and with the integer mean of the
	// delivered frames' latencies.
	const d = 2 * time.Second
	delivered := 0
	for seed := int64(1); seed <= 20; seed++ {
		engine := sim.New()
		s := Begin(engine, cfg(d), piecewiseRate(seed, d))
		engine.Run(d)
		lat := append([]float64(nil), s.latencies...)
		rep := s.Report()
		if len(lat) != rep.Delivered {
			t.Fatalf("seed %d: %d latencies for %d delivered frames", seed, len(lat), rep.Delivered)
		}
		var wantP99, wantMean time.Duration
		if n := len(lat); n > 0 {
			var sum time.Duration
			for _, l := range lat {
				sum += time.Duration(l)
			}
			wantMean = sum / time.Duration(n)
			wantP99 = time.Duration(stats.Percentile(lat, 99))
		}
		if rep.P99Latency != wantP99 || rep.MeanLatency != wantMean {
			t.Errorf("seed %d: P99/mean = %v/%v, stats.Percentile/integer mean = %v/%v",
				seed, rep.P99Latency, rep.MeanLatency, wantP99, wantMean)
		}
		if again := s.Report(); again != rep {
			t.Errorf("seed %d: second Report %+v differs from first %+v", seed, again, rep)
		}
		if rep.Delivered > 0 && rep.Glitches > 0 {
			delivered++
		}
	}
	if delivered < 10 {
		t.Errorf("only %d of 20 seeded sessions both delivered and glitched", delivered)
	}
}

// RequiredRateBps returns the minimum constant link rate that delivers
// every frame of the display within its interval — the paper's
// "multiple Gbps" requirement, derived rather than asserted.
func RequiredRateBps(d vr.DisplaySpec) float64 {
	return d.FrameBits() / d.FrameInterval().Seconds()
}
