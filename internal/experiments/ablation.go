package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/movr-sim/movr/internal/align"
	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/control"
	"github.com/movr-sim/movr/internal/fleet/pool"
	"github.com/movr-sim/movr/internal/gainctl"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/stats"
)

// ablate fans a sweep's points across runner; nil means a one-shot
// runner of GOMAXPROCS slots. Each point computes one row
// independently; rows come back in sweep order, so the tables are
// identical to a serial run on any runner. Sweep points cannot fail —
// only a worker panic surfaces, re-raised here as an error naming the
// failing point (the pool recovers the original panic, so its value and
// stack are folded into the message).
func ablate[T any](runner *pool.Runner, n int, point func(i int) T) []T {
	if runner == nil {
		runner = pool.NewRunner(0)
	}
	rows, err := pool.Map(context.Background(), runner, n, func(_ context.Context, i int) (T, error) {
		return point(i), nil
	})
	if err != nil {
		panic(err)
	}
	return rows
}

// GainBackoffRow is one point of the gain-control margin ablation.
type GainBackoffRow struct {
	BackoffSteps int
	// MeanGainDB is the achieved amplifier gain (higher = more SNR).
	MeanGainDB float64
	// MeanMarginDB is the stability margin left.
	MeanMarginDB float64
	// UnstableFrac is how often ±jitter beam drift destabilizes the
	// loop before the next gain-control run.
	UnstableFrac float64
}

// AblationGainBackoff quantifies the §4.2 design choice "keeps the
// amplification gain just below this point": a small back-off maximizes
// gain but risks instability when beam tracking moves the leakage; a
// large back-off is safe but wastes SNR. The sweep runs on runner (nil
// means a one-shot GOMAXPROCS runner), as every ablation does.
func AblationGainBackoff(seed int64, runner *pool.Runner) []GainBackoffRow {
	backoffs := []int{1, 2, 4, 8, 16}
	const trials = 40

	// Pre-draw each trial's randomness serially, in the historical
	// backoff-major order, so the parallel sweep below measures exactly
	// the devices and drifts a serial run would.
	type draw struct {
		devSeed        int64
		beamDeg, drift float64
	}
	rng := rand.New(rand.NewSource(seed))
	draws := make([][]draw, len(backoffs))
	for bi := range backoffs {
		draws[bi] = make([]draw, trials)
		for i := range draws[bi] {
			draws[bi][i] = draw{
				devSeed: rng.Int63n(1 << 30),
				beamDeg: 270 + rng.Float64()*60 - 30,
				drift:   rng.Float64()*10 - 5,
			}
		}
	}

	return ablate(runner, len(backoffs), func(bi int) GainBackoffRow {
		cfg := gainctl.DefaultConfig()
		cfg.BackoffSteps = backoffs[bi]
		var gains, margins []float64
		unstable := 0
		for i := 0; i < trials; i++ {
			d := draws[bi][i]
			devCfg := reflector.DefaultConfig(geom.V(2.5, 5), 270)
			devCfg.BaseIsolationDB = 42 // isolation regime where the knee binds
			devCfg.MinLeakageDB = 25
			devCfg.Seed = d.devSeed
			dev, err := reflector.New(devCfg)
			if err != nil {
				panic(err)
			}
			dev.SetBothBeams(d.beamDeg)
			res := gainctl.Optimize(dev, -60, cfg)
			gains = append(gains, res.GainDB)
			margins = append(margins, res.MarginDB)
			// Beam drift before the next optimization pass.
			dev.SetTXBeam(d.beamDeg + d.drift)
			if !dev.Stable() {
				unstable++
			}
		}
		return GainBackoffRow{
			BackoffSteps: backoffs[bi],
			MeanGainDB:   stats.Mean(gains),
			MeanMarginDB: stats.Mean(margins),
			UnstableFrac: float64(unstable) / trials,
		}
	})
}

// PhaseBitsRow is one point of the phase-shifter resolution ablation.
type PhaseBitsRow struct {
	Bits int
	// SteeredGainDBi is the realized gain at a 37° steer.
	SteeredGainDBi float64
	// AlignErrDeg is the mean Fig 8-style alignment error.
	AlignErrDeg float64
}

// AblationPhaseBits quantifies how much phase-shifter resolution the
// arrays need: coarse quantization costs steered gain and alignment
// accuracy.
func AblationPhaseBits(seed int64, runner *pool.Runner) []PhaseBitsRow {
	allBits := []int{1, 2, 3, 4, 6, 8}
	return ablate(runner, len(allBits), func(i int) PhaseBitsRow {
		bits := allBits[i]
		aCfg := antenna.DefaultConfig(0)
		aCfg.PhaseShifterBits = bits
		arr, err := antenna.New(aCfg)
		if err != nil {
			panic(err)
		}
		arr.SteerTo(37)
		gain := arr.GainDBi(37)

		// Mini Fig 8 with this resolution on the reflector arrays.
		var errs []float64
		rng := rand.New(rand.NewSource(seed))
		for run := 0; run < 6; run++ {
			w := NewWorld(0)
			devCfg := reflector.DefaultConfig(geom.V(1+rng.Float64()*3, 5), 270)
			devCfg.RXArray.PhaseShifterBits = bits
			devCfg.TXArray.PhaseShifterBits = bits
			devCfg.Seed = rng.Int63n(1 << 30)
			dev, err := reflector.New(devCfg)
			if err != nil {
				panic(err)
			}
			link := control.NewLink(reflector.NewController(dev), control.DefaultRTT)
			sCfg := align.DefaultConfig()
			sCfg.Seed = seed + int64(run)
			sw, err := align.NewSweeper(w.AP, dev, link, w.Tracer, sCfg)
			if err != nil {
				panic(err)
			}
			r, err := sw.Hierarchical()
			if err != nil {
				continue
			}
			errs = append(errs, align.ErrorDeg(r.ReflBeamDeg, align.GroundTruthDeg(dev, w.AP)))
		}
		return PhaseBitsRow{
			Bits:           bits,
			SteeredGainDBi: gain,
			AlignErrDeg:    stats.Mean(errs),
		}
	})
}

// SweepStepRow is one point of the alignment-granularity ablation.
type SweepStepRow struct {
	CoarseStepDeg float64
	MeanErrDeg    float64
	MeanTime      time.Duration
	Measurements  int
}

// AblationSweepStep trades alignment time against accuracy by varying
// the hierarchical sweep's coarse step.
func AblationSweepStep(seed int64, runner *pool.Runner) []SweepStepRow {
	steps := []float64{3, 5, 7, 10, 15}
	return ablate(runner, len(steps), func(i int) SweepStepRow {
		step := steps[i]
		var errs []float64
		var total time.Duration
		meas := 0
		const runs = 6
		rng := rand.New(rand.NewSource(seed))
		for run := 0; run < runs; run++ {
			w := NewWorld(0)
			devCfg := reflector.DefaultConfig(geom.V(1+rng.Float64()*3, 5), 270)
			devCfg.Seed = rng.Int63n(1 << 30)
			dev, err := reflector.New(devCfg)
			if err != nil {
				panic(err)
			}
			link := control.NewLink(reflector.NewController(dev), control.DefaultRTT)
			sCfg := align.DefaultConfig()
			sCfg.CoarseStepDeg = step
			sCfg.Seed = seed + int64(run)
			sw, err := align.NewSweeper(w.AP, dev, link, w.Tracer, sCfg)
			if err != nil {
				panic(err)
			}
			r, err := sw.Hierarchical()
			if err != nil {
				continue
			}
			errs = append(errs, align.ErrorDeg(r.ReflBeamDeg, align.GroundTruthDeg(dev, w.AP)))
			total += r.TotalTime()
			meas += r.Measurements
		}
		return SweepStepRow{
			CoarseStepDeg: step,
			MeanErrDeg:    stats.Mean(errs),
			MeanTime:      total / runs,
			Measurements:  meas / runs,
		}
	})
}

// TrackingPeriodRow is one point of the pose-tracking cadence ablation.
type TrackingPeriodRow struct {
	Period     time.Duration
	GlitchFrac float64
}

// AblationTrackingPeriod sweeps the pose-driven re-steering cadence of
// the §6 tracking proposal: how often must the link manager act on VR
// pose for the stream to survive player motion?
func AblationTrackingPeriod(seed int64, runner *pool.Runner) []TrackingPeriodRow {
	periods := []time.Duration{
		20 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		250 * time.Millisecond,
		500 * time.Millisecond,
	}
	return ablate(runner, len(periods), func(i int) TrackingPeriodRow {
		out, err := RunSessionVariant(SessionConfig{
			Duration:     10 * time.Second,
			Seed:         seed,
			ReEvalPeriod: periods[i],
		}, VariantMoVRTracking)
		if err != nil {
			panic(err) // config is structurally valid
		}
		return TrackingPeriodRow{Period: periods[i], GlitchFrac: out.Report.GlitchFrac}
	})
}

// RenderTrackingAblation prints the cadence table.
func RenderTrackingAblation(rows []TrackingPeriodRow) string {
	var b strings.Builder
	b.WriteString("Ablation — pose-tracking cadence (§6 future work)\n")
	var t [][]string
	for _, r := range rows {
		t = append(t, []string{r.Period.String(), fmt.Sprintf("%.1f%%", 100*r.GlitchFrac)})
	}
	b.WriteString(Table([]string{"re-steer period", "glitch rate"}, t))
	return b.String()
}

// RenderAblations prints all three ablation tables.
func RenderAblations(backoff []GainBackoffRow, bits []PhaseBitsRow, steps []SweepStepRow) string {
	var b strings.Builder
	b.WriteString("Ablation — gain-control back-off (§4.2 \"just below this point\")\n")
	var rows [][]string
	for _, r := range backoff {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.BackoffSteps),
			fmt.Sprintf("%.1f", r.MeanGainDB),
			fmt.Sprintf("%.1f", r.MeanMarginDB),
			fmt.Sprintf("%.0f%%", 100*r.UnstableFrac),
		})
	}
	b.WriteString(Table([]string{"backoff steps", "mean gain (dB)", "mean margin (dB)", "unstable after drift"}, rows))

	b.WriteString("\nAblation — phase-shifter resolution\n")
	rows = rows[:0]
	for _, r := range bits {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Bits),
			fmt.Sprintf("%.1f", r.SteeredGainDBi),
			fmt.Sprintf("%.1f", r.AlignErrDeg),
		})
	}
	b.WriteString(Table([]string{"bits", "gain at 37° steer (dBi)", "mean align err (deg)"}, rows))

	b.WriteString("\nAblation — alignment sweep granularity\n")
	rows = rows[:0]
	for _, r := range steps {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f°", r.CoarseStepDeg),
			fmt.Sprintf("%.1f", r.MeanErrDeg),
			r.MeanTime.Truncate(time.Millisecond).String(),
			fmt.Sprintf("%d", r.Measurements),
		})
	}
	b.WriteString(Table([]string{"coarse step", "mean err (deg)", "mean time", "measurements"}, rows))
	return b.String()
}
