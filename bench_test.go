package movr_test

// Benchmark harness: one benchmark per paper table/figure (the entry
// points movrsim regenerates them with), plus ablations and
// micro-benchmarks of the hot substrate paths.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks execute reduced-size experiment configurations
// per iteration so `go test -bench` stays fast; use cmd/movrsim for the
// full paper-scale runs.

import (
	"context"
	"testing"
	"time"

	movr "github.com/movr-sim/movr"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/gainctl"
)

// BenchmarkFig3Blockage regenerates Fig 3 (blockage impact on SNR and
// data rate, §3).
func BenchmarkFig3Blockage(b *testing.B) {
	cfg := movr.DefaultFig3Config()
	cfg.Runs = 4
	cfg.NLOSStepDeg = 6
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r := movr.RunFig3(cfg)
		if len(r.Rows) != 5 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig7Leakage regenerates Fig 7 (TX→RX leakage vs beam angles,
// §4.2).
func BenchmarkFig7Leakage(b *testing.B) {
	cfg := movr.DefaultFig7Config()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r := movr.RunFig7(cfg)
		if len(r.TXAngles) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig8Alignment regenerates Fig 8 (beam alignment accuracy,
// §5.1) with the hierarchical sweep.
func BenchmarkFig8Alignment(b *testing.B) {
	cfg := movr.DefaultFig8Config()
	cfg.Runs = 3
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r := movr.RunFig8(cfg)
		if len(r.Errors) != cfg.Runs {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig8ExhaustiveSweep measures the paper's reference exhaustive
// alignment (the §6 "most time consuming process") on one wall-mounted
// reflector.
func BenchmarkFig8ExhaustiveSweep(b *testing.B) {
	world := movr.NewWorld(0)
	device := movr.DefaultReflector(movr.V(2.2, 5), 270)
	for i := 0; i < b.N; i++ {
		cfg := movr.DefaultAlignConfig()
		cfg.Seed = int64(i + 1)
		link := movr.NewControlLink(movr.NewController(device), 0)
		sw, err := movr.NewSweeper(world.AP, device, link, world.Tracer, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sw.Exhaustive(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9SNR regenerates Fig 9 (SNR improvement CDFs, §5.2).
func BenchmarkFig9SNR(b *testing.B) {
	cfg := movr.DefaultFig9Config()
	cfg.Runs = 4
	cfg.NLOSStepDeg = 6
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := movr.RunFig9(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.MoVRImp) != cfg.Runs {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkBatteryLife regenerates the §6 battery analysis.
func BenchmarkBatteryLife(b *testing.B) {
	cfg := movr.DefaultBatteryConfig()
	for i := 0; i < b.N; i++ {
		r := movr.RunBattery(cfg)
		if r.TypicalHours <= 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkLatencyBudget regenerates the §6 latency budget (includes two
// live alignment sweeps).
func BenchmarkLatencyBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := movr.RunLatency(movr.LatencyConfig{Seed: int64(i + 1)})
		if len(r.Rows) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkVRSession regenerates the end-to-end streaming comparison
// (§6 future work) on a short session.
func BenchmarkVRSession(b *testing.B) {
	cfg := movr.DefaultSessionConfig()
	cfg.Duration = 3 * time.Second
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r := movr.RunSession(cfg)
		if len(r.Reports) != 4 { // direct, static, reactive, tracking
			b.Fatal("bad result")
		}
	}
}

// BenchmarkAblationGainBackoff sweeps the §4.2 back-off design choice.
func BenchmarkAblationGainBackoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := movr.RunAblationGainBackoff(int64(i+1), nil)
		if len(rows) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkAblationPhaseBits sweeps phase-shifter resolution.
func BenchmarkAblationPhaseBits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := movr.RunAblationPhaseBits(int64(i+1), nil)
		if len(rows) == 0 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkAblationSweepStep sweeps alignment granularity.
func BenchmarkAblationSweepStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := movr.RunAblationSweepStep(int64(i+1), nil)
		if len(rows) == 0 {
			b.Fatal("bad result")
		}
	}
}

// --- Micro-benchmarks of the hot substrate paths ---

// BenchmarkArrayGain measures one realized-gain evaluation of the phased
// array (the innermost loop of every sweep).
func BenchmarkArrayGain(b *testing.B) {
	arr := movr.DefaultArray(0)
	arr.SteerTo(20)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += arr.GainDBi(float64(i % 180))
	}
	_ = sink
}

// BenchmarkTracer measures a full path trace in the office (direct +
// first-order reflections).
func BenchmarkTracer(b *testing.B) {
	world := movr.NewWorld(1)
	tx, rx := movr.V(0.5, 0.5), movr.V(4.2, 3.7)
	world.Room.AddObstacle(movr.Hand(movr.V(2.2, 2.0)))
	for i := 0; i < b.N; i++ {
		paths := world.Tracer.Trace(tx, rx)
		if len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkTracerInto measures the same trace through the scratch-buffer
// API — the steady-state hot path, which performs zero heap allocations
// once the buffer has warmed up (compare allocs/op with BenchmarkTracer).
func BenchmarkTracerInto(b *testing.B) {
	world := movr.NewWorld(1)
	tx, rx := movr.V(0.5, 0.5), movr.V(4.2, 3.7)
	world.Room.AddObstacle(movr.Hand(movr.V(2.2, 2.0)))
	var buf []channel.Path
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = world.Tracer.TraceHInto(buf[:0], tx, rx, channel.DefaultEndpointHeightM, channel.DefaultEndpointHeightM)
		if len(buf) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkAlignmentMeasurement measures one backscatter sideband
// measurement (synthesize + FFT + integrate).
func BenchmarkAlignmentMeasurement(b *testing.B) {
	world := movr.NewWorld(0)
	dev := movr.DefaultReflector(movr.V(2.5, 5), 270)
	link := movr.NewControlLink(movr.NewController(dev), 0)
	sw, err := movr.NewSweeper(world.AP, dev, link, world.Tracer, movr.DefaultAlignConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.MeasureSidebandPower(45, 250); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGainControl measures one full §4.2 adaptive gain-control run
// (gain ramp with feedback-loop simulation per step).
func BenchmarkGainControl(b *testing.B) {
	dev := movr.DefaultReflector(movr.V(2.5, 5), 270)
	dev.SetBothBeams(270)
	cfg := gainctl.DefaultConfig()
	for i := 0; i < b.N; i++ {
		res := gainctl.Optimize(dev, -55, cfg)
		if res.Steps == 0 {
			b.Fatal("no steps")
		}
	}
}

// BenchmarkLinkManagerStep measures one pose-tracking control step
// (direct + reflector evaluation including gain control).
func BenchmarkLinkManagerStep(b *testing.B) {
	world := movr.NewWorld(1)
	hs := world.NewHeadsetAt(movr.V(3.4, 2.4), 60)
	mgr := movr.NewLinkManager(world.Tracer, world.AP, hs)
	dev := movr.DefaultReflector(movr.V(4.6, 4.6), 225)
	idx := mgr.AddReflector(dev)
	if err := mgr.AlignFromGeometry(idx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := mgr.Step(movr.V(3.4, 2.4), float64(40+i%40))
		if st.SNRdB == 0 {
			b.Fatal("no state")
		}
	}
}

// BenchmarkOptNLOSSweep measures the Opt-NLOS exhaustive beam sweep at
// the default experiment resolution.
func BenchmarkOptNLOSSweep(b *testing.B) {
	world := movr.NewWorld(1)
	hs := world.NewHeadsetAt(movr.V(3.8, 2.6), 215)
	for i := 0; i < b.N; i++ {
		res := movr.OptNLOS(world.Tracer, &world.AP.Radio, &hs.Radio, 4)
		if res.Combos == 0 {
			b.Fatal("no combos")
		}
	}
}
