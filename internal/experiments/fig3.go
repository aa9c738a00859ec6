package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/movr-sim/movr/internal/baseline"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/phy"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/stats"
	"github.com/movr-sim/movr/internal/units"
)

// Fig3Config parameterizes the §3 blockage study.
type Fig3Config struct {
	// Runs is the number of random headset placements per scenario.
	Runs int

	// NLOSStepDeg is the Opt-NLOS beam sweep granularity (paper: 1°).
	NLOSStepDeg float64

	// Seed fixes placements.
	Seed int64
}

// DefaultFig3Config returns the paper-scale configuration.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{Runs: 20, NLOSStepDeg: 2, Seed: 1}
}

// Fig3Scenario names the five bars of Fig 3.
type Fig3Scenario string

// The five scenarios, in the paper's bar order.
const (
	ScenarioLOS  Fig3Scenario = "LOS"
	ScenarioHand Fig3Scenario = "LOS blocked by hand"
	ScenarioHead Fig3Scenario = "LOS blocked by head"
	ScenarioBody Fig3Scenario = "LOS blocked by body"
	ScenarioNLOS Fig3Scenario = "NLOS"
)

// Fig3Row is one bar of both Fig 3 panels.
type Fig3Row struct {
	Scenario  Fig3Scenario
	SNRs      []float64
	RatesGbps []float64
	MeanSNRdB float64
	MeanGbps  float64
}

// Fig3Result holds the full reproduction of Fig 3.
type Fig3Result struct {
	Rows             []Fig3Row
	RequiredSNRdB    float64
	RequiredRateGbps float64
}

// Fig3 reproduces the §3 measurement: for random LOS placements of the
// headset in the office, measure SNR and 802.11ad rate for the clear
// line of sight, three blockage scenarios (hand, head, another person's
// body), and the best non-line-of-sight beam pair.
func Fig3(cfg Fig3Config) Fig3Result {
	if cfg.Runs <= 0 {
		cfg.Runs = 20
	}
	if cfg.NLOSStepDeg <= 0 {
		cfg.NLOSStepDeg = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	scenarios := []Fig3Scenario{ScenarioLOS, ScenarioHand, ScenarioHead, ScenarioBody, ScenarioNLOS}
	rows := make([]Fig3Row, len(scenarios))
	for i, s := range scenarios {
		rows[i].Scenario = s
	}

	// One Opt-NLOS scratch serves every SNR read and every sweep in the
	// serial run loop (its trace buffer is lent to the link reads) — the
	// measurement sweep allocates nothing per placement.
	var buf baseline.Scratch
	for run := 0; run < cfg.Runs; run++ {
		w := NewWorld(1)
		pos, _ := w.RandomHeadsetPlacement(rng, 1.5)
		hs := w.NewHeadsetAt(pos, 0)

		// Bar 1: clear LOS, both ends aligned.
		var losSNR float64
		losSNR, buf.Paths = w.AlignedLOSSNRBuf(hs, buf.Paths)
		record(&rows[0], losSNR)

		// Bars 2-4: blockage while the beams stay on the (now blocked)
		// direct path. The blockers sit where the paper puts them: the
		// player's own hand/head in front of the headset, or another
		// person mid-path.
		towardAP := geom.DirectionDeg(hs.Pos, w.AP.Pos)
		blockers := map[Fig3Scenario]room.Obstacle{
			ScenarioHand: room.Hand(geom.FromPolar(hs.Pos, towardAP, 0.35)),
			ScenarioHead: room.Head(geom.FromPolar(hs.Pos, towardAP, 0.18)),
			ScenarioBody: room.Body(hs.Pos.Lerp(w.AP.Pos, 0.5)),
		}
		for idx, s := range []Fig3Scenario{ScenarioHand, ScenarioHead, ScenarioBody} {
			w.Room.ClearObstacles()
			w.Room.AddObstacle(blockers[s])
			w.FaceEachOther(hs)
			var snr float64
			snr, buf.Paths = radio.LinkSNRdBBuf(w.Tracer, &w.AP.Radio, &hs.Radio, buf.Paths)
			record(&rows[idx+1], snr)
		}

		// Bar 5: Opt-NLOS — hand blockage present, direct path ignored,
		// both beams swept everywhere.
		w.Room.ClearObstacles()
		w.Room.AddObstacle(blockers[ScenarioHand])
		res := baseline.OptNLOSBuf(w.Tracer, &w.AP.Radio, &hs.Radio, cfg.NLOSStepDeg, &buf)
		record(&rows[4], res.SNRdB)
	}

	for i := range rows {
		rows[i].MeanSNRdB = stats.Mean(rows[i].SNRs)
		rows[i].MeanGbps = stats.Mean(rows[i].RatesGbps)
	}
	req := phy.HTCViveRequirement()
	return Fig3Result{
		Rows:             rows,
		RequiredSNRdB:    req.RequiredSNRdB(),
		RequiredRateGbps: req.RateBps / units.Gbps,
	}
}

func record(r *Fig3Row, snr float64) {
	r.SNRs = append(r.SNRs, snr)
	r.RatesGbps = append(r.RatesGbps, GbpsAt(snr))
}

// Render prints both panels of Fig 3 as bar charts plus a summary table.
func (r Fig3Result) Render() string {
	labels := make([]string, len(r.Rows))
	snrs := make([]float64, len(r.Rows))
	rates := make([]float64, len(r.Rows))
	tRows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		labels[i] = string(row.Scenario)
		snrs[i] = row.MeanSNRdB
		rates[i] = row.MeanGbps
		tRows[i] = []string{
			string(row.Scenario),
			fmt.Sprintf("%.1f", row.MeanSNRdB),
			fmt.Sprintf("%.2f", row.MeanGbps),
			fmt.Sprintf("%d", len(row.SNRs)),
		}
	}
	var b strings.Builder
	b.WriteString("Figure 3 — Blockage impact on SNR and data rate\n\n")
	b.WriteString(BarChart("SNR by scenario (dB)", labels, snrs, -10, 30,
		"required SNR", r.RequiredSNRdB, "dB"))
	b.WriteByte('\n')
	b.WriteString(BarChart("Data rate by scenario (Gb/s)", labels, rates, 0, 7,
		"required rate", r.RequiredRateGbps, "Gb/s"))
	b.WriteByte('\n')
	b.WriteString(Table(
		[]string{"scenario", "mean SNR (dB)", "mean rate (Gb/s)", "runs"},
		tRows,
	))
	return b.String()
}
