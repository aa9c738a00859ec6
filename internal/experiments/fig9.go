package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"github.com/movr-sim/movr/internal/baseline"
	"github.com/movr-sim/movr/internal/fleet/pool"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/linkmgr"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/stats"
)

// Fig9Config parameterizes the SNR-performance study.
type Fig9Config struct {
	// Runs is the number of random headset placements (paper: 20).
	Runs int

	// NLOSStepDeg is the Opt-NLOS sweep granularity.
	NLOSStepDeg float64

	// Seed fixes placements.
	Seed int64

	// Runner executes the trials; nil means a one-shot runner of
	// GOMAXPROCS slots. A shared runner is how the movrd scheduler keeps
	// concurrent API jobs inside one capacity bound. Results are
	// identical for every runner and capacity.
	Runner *pool.Runner
}

// DefaultFig9Config mirrors the paper.
func DefaultFig9Config() Fig9Config {
	return Fig9Config{Runs: 20, NLOSStepDeg: 2, Seed: 1}
}

// Fig9Result holds per-scenario SNR improvements relative to LOS (dB).
type Fig9Result struct {
	// LOSImp is identically zero (the reference), kept for the CDF.
	LOSImp []float64

	// OptNLOSImp is the best-reflection improvement (negative).
	OptNLOSImp []float64

	// MoVRImp is the reflector-path improvement.
	MoVRImp []float64

	OptNLOSSummary stats.Summary
	MoVRSummary    stats.Summary
}

// Fig9 reproduces the §5.2 experiment: AP in one corner, MoVR reflector
// in the opposite corner, headset at random poses. For each pose it
// measures (1) clear LOS SNR, (2) the best Opt-NLOS SNR under blockage,
// and (3) the MoVR-delivered SNR under the same blockage, reporting each
// as improvement over LOS. ctx aborts the study between trials (the
// movrd job API's DELETE), reported as the context error.
func Fig9(ctx context.Context, cfg Fig9Config) (Fig9Result, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 20
	}
	if cfg.NLOSStepDeg <= 0 {
		cfg.NLOSStepDeg = 2
	}
	// Placements keep a play-area distance from the AP (standing on top
	// of the base station is not a VR pose); the paper's own §5.2 notes
	// the close-to-AP corner cases separately. The rejection sampling is
	// drawn serially from one stream against a clean world — the exact
	// historical draw sequence — so parallelizing the trials below
	// changes nothing about which poses are measured.
	rng := rand.New(rand.NewSource(cfg.Seed))
	placeWorld := NewWorld(1)
	places := make([]geom.Vec, cfg.Runs)
	for run := range places {
		places[run], _ = placeWorld.RandomHeadsetPlacement(rng, 1.5)
	}

	// Each trial builds its own world and writes into its own slot, so
	// the trials fan out across the fleet worker pool deterministically.
	type trial struct{ nlosImp, movrImp float64 }
	runTrial := func(_ context.Context, run int) (trial, error) {
		w := NewWorld(1)
		// Reflector in the corner opposite the AP (paper's placement).
		dev := reflector.Default(geom.V(4.6, 4.6), 225)

		hs := w.NewHeadsetAt(places[run], 0)

		// One scratch serves the trial's measurements (trial-local:
		// trials fan out across pool workers); the LOS read borrows its
		// trace buffer.
		var buf baseline.Scratch

		// Scenario LOS: clear room, aligned.
		var losSNR float64
		losSNR, buf.Paths = w.AlignedLOSSNRBuf(hs, buf.Paths)

		// Blockage for the other two scenarios: the player's hand in
		// front of the headset toward the AP.
		towardAP := geom.DirectionDeg(hs.Pos, w.AP.Pos)
		w.Room.AddObstacle(room.Hand(geom.FromPolar(hs.Pos, towardAP, 0.35)))

		// Scenario Opt-NLOS: sweep everything, direct path excluded.
		nlos := baseline.OptNLOSBuf(w.Tracer, &w.AP.Radio, &hs.Radio, cfg.NLOSStepDeg, &buf)

		// Scenario MoVR: same blockage, reflector path. The headset
		// turns toward the reflector (the measurement posture; in play
		// this is the head orientation that caused the blockage).
		hs.SetYaw(geom.DirectionDeg(hs.Pos, dev.Pos()))
		m := linkmgr.New(w.Tracer, w.AP, hs)
		idx := m.AddAlignedReflector(dev)
		movrSNR, ok := m.EvaluateReflector(idx)
		if !ok {
			// Unusable reflector path: record a deep negative.
			movrSNR = losSNR - 40
		}
		return trial{nlosImp: nlos.SNRdB - losSNR, movrImp: movrSNR - losSNR}, nil
	}
	runner := cfg.Runner
	if runner == nil {
		runner = pool.NewRunner(0)
	}
	trials, err := pool.Map(ctx, runner, cfg.Runs, runTrial)
	if err != nil {
		return Fig9Result{}, err
	}

	res := Fig9Result{}
	for range trials {
		res.LOSImp = append(res.LOSImp, 0)
	}
	for _, tr := range trials {
		res.OptNLOSImp = append(res.OptNLOSImp, tr.nlosImp)
		res.MoVRImp = append(res.MoVRImp, tr.movrImp)
	}

	res.OptNLOSSummary = stats.Summarize(res.OptNLOSImp)
	res.MoVRSummary = stats.Summarize(res.MoVRImp)
	return res, nil
}

// Render prints the CDF plot and summaries.
func (r Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9 — SNR improvement relative to LOS\n\n")
	b.WriteString(CDFPlot("CDF of SNR improvement vs LOS (dB)", map[string][]float64{
		"LOS":      r.LOSImp,
		"Opt.NLOS": r.OptNLOSImp,
		"MoVR":     r.MoVRImp,
	}, 60, 16))
	b.WriteByte('\n')
	b.WriteString(Table(
		[]string{"scenario", "mean (dB)", "min (dB)", "max (dB)"},
		[][]string{
			{"Opt. NLOS", fmt.Sprintf("%.1f", r.OptNLOSSummary.Mean),
				fmt.Sprintf("%.1f", r.OptNLOSSummary.Min), fmt.Sprintf("%.1f", r.OptNLOSSummary.Max)},
			{"MoVR", fmt.Sprintf("%.1f", r.MoVRSummary.Mean),
				fmt.Sprintf("%.1f", r.MoVRSummary.Min), fmt.Sprintf("%.1f", r.MoVRSummary.Max)},
		},
	))
	return b.String()
}
