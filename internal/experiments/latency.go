package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/movr-sim/movr/internal/align"
	"github.com/movr-sim/movr/internal/control"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/vr"
)

// LatencyConfig parameterizes the §6 latency-budget analysis.
type LatencyConfig struct {
	// Seed drives the measured alignment runs.
	Seed int64
}

// LatencyRow is one component of the control-path budget.
type LatencyRow struct {
	Component string
	Time      time.Duration
	// WithinFrame reports whether the component fits inside one display
	// update (the 10 ms deadline).
	WithinFrame bool
}

// LatencyResult is the full budget table.
type LatencyResult struct {
	FrameBudget time.Duration
	Rows        []LatencyRow

	// ExhaustiveAlign and HierarchicalAlign are the measured sweep
	// costs, reported separately because they are the slow path the
	// paper calls out.
	ExhaustiveAlign   time.Duration
	HierarchicalAlign time.Duration
}

// Latency reproduces the §6 argument: every steady-state component of
// MoVR's design is far faster than the 10 ms display update; only the
// full beam-alignment sweep is slow, which is why the paper proposes
// pose-assisted tracking (implemented in linkmgr) to take it off the
// critical path. Alignment costs are measured by running the actual
// protocol, not asserted.
func Latency(cfg LatencyConfig) LatencyResult {
	frame := vr.HTCVive().FrameInterval()
	res := LatencyResult{FrameBudget: frame}

	// Constants from the hardware model.
	phaseShifterUpdate := 500 * time.Nanosecond // DAC + analog settle (§6: sub-µs)
	beamSwitch := time.Microsecond              // full array retarget
	gainStep := 2 * time.Microsecond            // DAC write
	controlRTT := control.DefaultRTT            // Bluetooth exchange
	poseRetarget := controlRTT + beamSwitch     // tracking-driven re-steer

	// Measure the alignment sweeps on the standard rig.
	w := NewWorld(0)
	dev := reflector.Default(geom.V(2.5, 5), 270)
	link := control.NewLink(reflector.NewController(dev), control.DefaultRTT)
	aCfg := align.DefaultConfig()
	aCfg.Seed = cfg.Seed
	sw, err := align.NewSweeper(w.AP, dev, link, w.Tracer, aCfg)
	if err != nil {
		panic(err) // default config cannot fail validation
	}
	if ex, err := sw.Exhaustive(); err == nil {
		res.ExhaustiveAlign = ex.TotalTime()
	}
	if hi, err := sw.Hierarchical(); err == nil {
		res.HierarchicalAlign = hi.TotalTime()
	}

	add := func(name string, d time.Duration) {
		res.Rows = append(res.Rows, LatencyRow{
			Component:   name,
			Time:        d,
			WithinFrame: d <= frame,
		})
	}
	add("phase shifter update", phaseShifterUpdate)
	add("beam switch (electronic)", beamSwitch)
	add("amplifier gain step", gainStep)
	add("control-link round trip", controlRTT)
	add("pose-assisted re-steer", poseRetarget)
	add("hierarchical alignment sweep", res.HierarchicalAlign)
	add("exhaustive alignment sweep", res.ExhaustiveAlign)
	return res
}

// Render prints the budget table.
func (r LatencyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§6 — Latency budget (frame deadline %v)\n\n", r.FrameBudget)
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Component, row.Time.String(), fmt.Sprintf("%v", row.WithinFrame)}
	}
	b.WriteString(Table([]string{"component", "time", "fits in frame"}, rows))
	b.WriteString("\nThe alignment sweep is the only component beyond the frame budget —\n")
	b.WriteString("MoVR runs it once at install/startup and uses pose tracking afterwards.\n")
	return b.String()
}
