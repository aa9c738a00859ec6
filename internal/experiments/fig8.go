package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/movr-sim/movr/internal/align"
	"github.com/movr-sim/movr/internal/control"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/stats"
	"github.com/movr-sim/movr/internal/units"
)

// Fig8Config parameterizes the beam-alignment accuracy study.
type Fig8Config struct {
	// Runs is the number of random reflector placements (paper: 100).
	Runs int

	// Seed fixes placements and measurement noise.
	Seed int64
}

// DefaultFig8Config mirrors the paper: 100 runs, 1° sweeps.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{Runs: 100, Seed: 1}
}

// Fig8Result holds estimated-vs-actual incidence angles, in the paper's
// array-relative convention (boresight = 90°, plotted range 40-140°).
type Fig8Result struct {
	ActualDeg    []float64
	EstimatedDeg []float64
	Errors       []float64
	MeanErrDeg   float64
	MaxErrDeg    float64
	P95ErrDeg    float64
}

// Fig8 reproduces the §5.1 experiment: place the MoVR reflector at a
// random location and orientation, run the backscatter alignment sweep,
// and compare the estimated angle of incidence against the geometric
// ground truth. The paper reports errors within 2° of the actual angle.
func Fig8(cfg Fig8Config) Fig8Result {
	if cfg.Runs <= 0 {
		cfg.Runs = 100
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := Fig8Result{}

	for run := 0; run < cfg.Runs; run++ {
		w := NewWorld(0)
		dev, mount := randomReflectorPlacement(w, rng)
		truthWorld := align.GroundTruthDeg(dev, w.AP)
		// Keep placements whose incidence angle lands in the paper's
		// plotted 40-140° (relative) band.
		rel := units.AngleDiffDeg(truthWorld, mount)
		if rel < -50 || rel > 50 {
			run--
			continue
		}
		link := control.NewLink(reflector.NewController(dev), control.DefaultRTT)
		aCfg := align.DefaultConfig()
		aCfg.Seed = cfg.Seed + int64(run)*7919
		sw, err := align.NewSweeper(w.AP, dev, link, w.Tracer, aCfg)
		if err != nil {
			panic(err) // default config cannot fail validation
		}
		result, err := sw.Hierarchical()
		if err != nil {
			// A lost control link aborts this run; record nothing.
			continue
		}
		estRel := units.AngleDiffDeg(result.ReflBeamDeg, mount)
		res.ActualDeg = append(res.ActualDeg, rel+90)
		res.EstimatedDeg = append(res.EstimatedDeg, estRel+90)
		res.Errors = append(res.Errors, align.ErrorDeg(result.ReflBeamDeg, truthWorld))
	}

	res.MeanErrDeg = stats.Mean(res.Errors)
	res.MaxErrDeg = stats.Max(res.Errors)
	res.P95ErrDeg = stats.Percentile(res.Errors, 95)
	return res
}

// randomReflectorPlacement puts a reflector at a random position on a
// random wall, with its mount direction perturbed ±25° off the wall
// normal, ensuring the AP is on its front side.
func randomReflectorPlacement(w *World, rng *rand.Rand) (*reflector.Reflector, float64) {
	for {
		wallPick := rng.Intn(4)
		t := 0.5 + rng.Float64()*4.0
		var pos geom.Vec
		var normal float64
		switch wallPick {
		case 0: // north wall, facing south
			pos, normal = geom.V(t, 5), 270
		case 1: // east wall, facing west
			pos, normal = geom.V(5, t), 180
		case 2: // west wall, facing east
			pos, normal = geom.V(0, t), 0
		default: // south wall, facing north
			pos, normal = geom.V(t, 0), 90
		}
		mount := units.NormalizeDeg(normal + (rng.Float64()*50 - 25))
		cfg := reflector.DefaultConfig(pos, mount)
		cfg.Seed = rng.Int63n(1 << 30)
		dev, err := reflector.New(cfg)
		if err != nil {
			continue
		}
		// The AP must be within the device's forward hemisphere.
		rel := units.AngleDiffDeg(geom.DirectionDeg(pos, w.AP.Pos), mount)
		if rel < -70 || rel > 70 {
			continue
		}
		if pos.Dist(w.AP.Pos) < 1 {
			continue
		}
		return dev, mount
	}
}

// Render prints the estimated-vs-actual scatter and error summary.
func (r Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8 — Beam alignment accuracy\n\n")
	b.WriteString(ScatterPlot("Estimated vs actual incidence angle (deg, boresight=90)",
		r.ActualDeg, r.EstimatedDeg, true, 60, 20))
	b.WriteByte('\n')
	b.WriteString(Table(
		[]string{"runs", "mean err (deg)", "p95 err (deg)", "max err (deg)"},
		[][]string{{
			fmt.Sprintf("%d", len(r.Errors)),
			fmt.Sprintf("%.2f", r.MeanErrDeg),
			fmt.Sprintf("%.2f", r.P95ErrDeg),
			fmt.Sprintf("%.2f", r.MaxErrDeg),
		}},
	))
	return b.String()
}
