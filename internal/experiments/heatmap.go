package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/movr-sim/movr/internal/fleet/pool"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/linkmgr"
	"github.com/movr-sim/movr/internal/phy"
	"github.com/movr-sim/movr/internal/reflector"
)

// HeatmapConfig parameterizes the coverage map.
type HeatmapConfig struct {
	// GridStep is the sampling pitch in metres.
	GridStep float64

	// Yaws is the set of head orientations probed per cell; a cell
	// counts as covered at the fraction of yaws whose best path meets
	// the VR requirement.
	Yaws []float64

	// WithReflector toggles the MoVR reflector install.
	WithReflector bool

	// Runner executes the grid cells; nil means a one-shot runner of
	// GOMAXPROCS slots. A shared runner is how the movrd scheduler keeps
	// concurrent API jobs inside one capacity bound. Results are
	// identical for every runner and capacity.
	Runner *pool.Runner
}

// DefaultHeatmapConfig probes a 0.5 m grid over 8 orientations.
func DefaultHeatmapConfig(withReflector bool) HeatmapConfig {
	yaws := make([]float64, 8)
	for i := range yaws {
		yaws[i] = float64(i) * 45
	}
	return HeatmapConfig{GridStep: 0.5, Yaws: yaws, WithReflector: withReflector}
}

// HeatmapResult is a grid of coverage fractions in [0, 1].
type HeatmapResult struct {
	Xs, Ys []float64
	// Cover[iy][ix] is the fraction of orientations covered at the
	// cell.
	Cover [][]float64

	// YawCount is the number of orientations probed per cell.
	YawCount int

	MeanCoverage float64
}

// Heatmap maps VR-grade coverage across the office: for every grid cell
// and head orientation, can some path (direct or reflector) sustain the
// required rate? It visualizes the claim behind Fig 5's cartoon — the
// reflector fills the shadowed orientations. ctx aborts the sweep
// between cells (the movrd job API's DELETE), reported as the context
// error.
func Heatmap(ctx context.Context, cfg HeatmapConfig) (HeatmapResult, error) {
	if cfg.GridStep <= 0 {
		cfg.GridStep = 0.5
	}
	if len(cfg.Yaws) == 0 {
		cfg.Yaws = []float64{0, 90, 180, 270}
	}
	req := phy.HTCViveRequirement()
	res := HeatmapResult{YawCount: len(cfg.Yaws)}
	for x := 0.5; x <= 4.5+1e-9; x += cfg.GridStep {
		res.Xs = append(res.Xs, x)
	}
	for y := 0.5; y <= 4.5+1e-9; y += cfg.GridStep {
		res.Ys = append(res.Ys, y)
	}
	res.Cover = make([][]float64, len(res.Ys))
	for iy := range res.Cover {
		res.Cover[iy] = make([]float64, len(res.Xs))
	}

	// Cells are independent — each builds its own world — so they fan
	// out across the fleet worker pool and write into their own grid
	// slot; aggregation below is order-independent arithmetic over the
	// fixed grid, so results are identical for any worker count.
	cells := len(res.Xs) * len(res.Ys)
	runCell := func(_ context.Context, cell int) error {
		iy, ix := cell/len(res.Xs), cell%len(res.Xs)
		x, y := res.Xs[ix], res.Ys[iy]
		// One world and link manager per cell; each yaw probe re-steers
		// through the tracking step, reusing the manager's tracer
		// scratch. Every evaluation re-derives beams and gain from the
		// current pose alone, so per-cell reuse is result-identical to
		// the historical world-per-yaw construction.
		w := NewWorld(1)
		hs := w.NewHeadsetAt(geom.V(x, y), cfg.Yaws[0])
		mgr := linkmgr.New(w.Tracer, w.AP, hs)
		if cfg.WithReflector {
			dev := reflector.Default(geom.V(4.6, 4.6), 225)
			mgr.AddAlignedReflector(dev)
		}
		covered := 0
		for _, yaw := range cfg.Yaws {
			if st := mgr.Step(geom.V(x, y), yaw); req.MetByRate(st.RateBps) {
				covered++
			}
		}
		res.Cover[iy][ix] = float64(covered) / float64(len(cfg.Yaws))
		return nil
	}
	runner := cfg.Runner
	if runner == nil {
		runner = pool.NewRunner(0)
	}
	if err := runner.ForEach(ctx, cells, runCell); err != nil {
		return HeatmapResult{}, err
	}

	total := 0.0
	for _, row := range res.Cover {
		for _, frac := range row {
			total += frac
		}
	}
	res.MeanCoverage = total / float64(cells)
	return res, nil
}

// Render draws the coverage map as ASCII shades: '#' full coverage, '.'
// none.
func (r HeatmapResult) Render(title string) string {
	shades := []byte(".:-=+*%#")
	var b strings.Builder
	fmt.Fprintf(&b, "%s (mean %.0f%% of orientations covered)\n", title, 100*r.MeanCoverage)
	b.WriteString("  AP at south-west corner; reflector (if any) at north-east.\n")
	// Render north (max y) at the top.
	for iy := len(r.Ys) - 1; iy >= 0; iy-- {
		b.WriteString("  |")
		for ix := range r.Xs {
			v := r.Cover[iy][ix]
			idx := int(v * float64(len(shades)-1))
			b.WriteByte(shades[idx])
		}
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, "  shades: '.'=0%% ... '#'=100%% of %d orientations\n", r.YawCount)
	return b.String()
}
