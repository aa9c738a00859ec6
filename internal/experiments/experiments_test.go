package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/stats"
)

// TestFig3ReproducesPaperShape checks the §3 result: LOS ≈ 25 dB mean at
// ~7 Gb/s; hand blockage costs >14 dB; scenarios are ordered LOS > hand
// > head > body; NLOS sits ~10-25 dB below LOS; every non-LOS scenario
// fails the VR requirement.
func TestFig3ReproducesPaperShape(t *testing.T) {
	cfg := DefaultFig3Config()
	cfg.Runs = 8
	cfg.NLOSStepDeg = 4
	r := Fig3(cfg)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[Fig3Scenario]Fig3Row{}
	for _, row := range r.Rows {
		byName[row.Scenario] = row
	}
	los := byName[ScenarioLOS]
	if los.MeanSNRdB < 20 || los.MeanSNRdB > 30 {
		t.Errorf("LOS mean SNR = %v, paper: ~25", los.MeanSNRdB)
	}
	if los.MeanGbps < 6 {
		t.Errorf("LOS mean rate = %v, paper: almost 7", los.MeanGbps)
	}
	hand := byName[ScenarioHand]
	if drop := los.MeanSNRdB - hand.MeanSNRdB; drop < 14 {
		t.Errorf("hand blockage drop = %v dB, paper: >14", drop)
	}
	if !(hand.MeanSNRdB > byName[ScenarioHead].MeanSNRdB &&
		byName[ScenarioHead].MeanSNRdB > byName[ScenarioBody].MeanSNRdB) {
		t.Error("blockage ordering violated")
	}
	nlosGap := los.MeanSNRdB - byName[ScenarioNLOS].MeanSNRdB
	if nlosGap < 8 || nlosGap > 28 {
		t.Errorf("NLOS gap = %v dB, paper: ~16", nlosGap)
	}
	// Every blocked/NLOS scenario fails VR (Fig 3 bottom).
	for _, s := range []Fig3Scenario{ScenarioHand, ScenarioHead, ScenarioBody, ScenarioNLOS} {
		if byName[s].MeanGbps >= r.RequiredRateGbps {
			t.Errorf("%s rate %v should fail requirement %v", s, byName[s].MeanGbps, r.RequiredRateGbps)
		}
	}
	if los.MeanGbps < r.RequiredRateGbps {
		t.Error("LOS should meet the requirement")
	}
	out := r.Render()
	for _, want := range []string{"Figure 3", "LOS", "NLOS", "required"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestFig7ReproducesPaperShape checks the leakage characterization:
// values in the tens of negative dB with ≥12 dB swings, different for
// the two RX angles.
func TestFig7ReproducesPaperShape(t *testing.T) {
	r := Fig7(DefaultFig7Config())
	if len(r.TXAngles) != 101 {
		t.Fatalf("TX angles = %d, want 101 (40..140)", len(r.TXAngles))
	}
	if len(r.LeakageDB) != 2 {
		t.Fatalf("series = %d", len(r.LeakageDB))
	}
	for key, vals := range r.LeakageDB {
		if len(vals) != len(r.TXAngles) {
			t.Fatalf("%s: %d values", key, len(vals))
		}
		for _, v := range vals {
			if v > -25 || v < -100 {
				t.Errorf("%s: leakage %v outside plausible band", key, v)
			}
		}
		if r.Swing(key) < 12 {
			t.Errorf("%s: swing %v dB, paper shows ~20", key, r.Swing(key))
		}
	}
	// The two RX angles give different curves.
	a := r.LeakageDB["Rx angle 50"]
	b := r.LeakageDB["Rx angle 65"]
	if stats.MeanAbsError(a, b) < 1 {
		t.Error("RX angle should change the leakage curve")
	}
	if !strings.Contains(r.Render(), "Figure 7") {
		t.Error("render missing title")
	}
}

// TestFig8ReproducesPaperShape checks alignment accuracy: errors within
// 2° (paper §5.1), estimates tracking ground truth.
func TestFig8ReproducesPaperShape(t *testing.T) {
	cfg := DefaultFig8Config()
	cfg.Runs = 12
	r := Fig8(cfg)
	if len(r.Errors) != cfg.Runs {
		t.Fatalf("errors = %d", len(r.Errors))
	}
	if r.MaxErrDeg > 2.5 {
		t.Errorf("max error = %v°, paper: within 2", r.MaxErrDeg)
	}
	if r.MeanErrDeg > 1.5 {
		t.Errorf("mean error = %v°", r.MeanErrDeg)
	}
	// The estimated-vs-actual fit should be essentially y = x.
	slope, intercept := stats.LinearFit(r.ActualDeg, r.EstimatedDeg)
	if math.Abs(slope-1) > 0.05 {
		t.Errorf("fit slope = %v", slope)
	}
	if math.Abs(intercept) > 5 {
		t.Errorf("fit intercept = %v", intercept)
	}
	if !strings.Contains(r.Render(), "Figure 8") {
		t.Error("render missing title")
	}
}

// TestFig9ReproducesPaperShape checks the headline result: Opt-NLOS mean
// ≈ −17 dB (as low as −27); MoVR mostly at or above LOS with a small
// negative tail.
func TestFig9ReproducesPaperShape(t *testing.T) {
	cfg := DefaultFig9Config()
	cfg.Runs = 20
	cfg.NLOSStepDeg = 4
	r, err := Fig9(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MoVRImp) != cfg.Runs || len(r.OptNLOSImp) != cfg.Runs {
		t.Fatal("missing runs")
	}
	if r.OptNLOSSummary.Mean > -10 || r.OptNLOSSummary.Mean < -26 {
		t.Errorf("Opt-NLOS mean improvement = %v, paper: ~-17", r.OptNLOSSummary.Mean)
	}
	if r.OptNLOSSummary.Min < -35 {
		t.Errorf("Opt-NLOS min = %v, paper: ~-27", r.OptNLOSSummary.Min)
	}
	// MoVR delivers at or above LOS for most poses ("for most cases,
	// the SNR delivered with MoVR is higher than the SNR delivered over
	// the line-of-sight path", §5.2).
	above := 0
	for _, v := range r.MoVRImp {
		if v >= 0 {
			above++
		}
	}
	if frac := float64(above) / float64(len(r.MoVRImp)); frac < 0.55 {
		t.Errorf("MoVR above LOS for only %.0f%% of poses", 100*frac)
	}
	if r.MoVRSummary.Mean < -1.5 || r.MoVRSummary.Mean > 8 {
		t.Errorf("MoVR mean improvement = %v, paper: around +a few dB", r.MoVRSummary.Mean)
	}
	// A negative tail exists (paper: −3 dB near the AP; our 2-D floor
	// plan adds rare player-on-the-feed-line poses) but stays bounded.
	if r.MoVRSummary.Min < -25 {
		t.Errorf("MoVR min improvement = %v, tail too deep", r.MoVRSummary.Min)
	}
	// MoVR must crush Opt-NLOS.
	if r.MoVRSummary.Mean < r.OptNLOSSummary.Mean+8 {
		t.Error("MoVR should dominate Opt-NLOS")
	}
	if !strings.Contains(r.Render(), "Figure 9") {
		t.Error("render missing title")
	}
}

func TestBatteryMatchesPaperClaim(t *testing.T) {
	r := Battery(DefaultBatteryConfig())
	// Paper: 5200 mAh at ≤1500 mA runs "4-5 hours". Worst case is
	// bounded below by capacity/max-draw ≈ 3.3-3.5 h; typical draw
	// lands in the claimed band.
	if r.WorstCaseHours < 3 || r.WorstCaseHours > 4 {
		t.Errorf("worst case = %v h", r.WorstCaseHours)
	}
	if r.TypicalHours < 4 || r.TypicalHours > 5 {
		t.Errorf("typical = %v h, paper: 4-5", r.TypicalHours)
	}
	if !r.MeetsPaperClaim {
		t.Error("claim should reproduce")
	}
	// Degenerate config falls back to defaults.
	r2 := Battery(BatteryConfig{})
	if r2.TypicalHours != r.TypicalHours {
		t.Error("default fallback broken")
	}
	if !strings.Contains(r.Render(), "runtime") {
		t.Error("render missing content")
	}
}

func TestLatencyBudget(t *testing.T) {
	r := Latency(LatencyConfig{Seed: 3})
	if r.FrameBudget < 10*time.Millisecond || r.FrameBudget > 12*time.Millisecond {
		t.Errorf("frame budget = %v", r.FrameBudget)
	}
	within := map[string]bool{}
	for _, row := range r.Rows {
		within[row.Component] = row.WithinFrame
	}
	// §6: steady-state components all fit in the frame budget.
	for _, c := range []string{"phase shifter update", "beam switch (electronic)",
		"amplifier gain step", "control-link round trip", "pose-assisted re-steer"} {
		if !within[c] {
			t.Errorf("%s should fit within a frame", c)
		}
	}
	// The sweeps do not — that is the paper's motivation for tracking.
	if within["exhaustive alignment sweep"] {
		t.Error("exhaustive sweep should exceed the frame budget")
	}
	if within["hierarchical alignment sweep"] {
		t.Error("hierarchical sweep should exceed the frame budget")
	}
	if r.ExhaustiveAlign <= r.HierarchicalAlign {
		t.Error("exhaustive should cost more than hierarchical")
	}
	if !strings.Contains(r.Render(), "Latency budget") {
		t.Error("render missing title")
	}
}

// TestSessionShowsMoVRValue runs the end-to-end extension: glitch rates
// must order direct ≥ static ≥ reactive ≥ tracking (within a small
// tolerance for the reactive policy's sweep downtime).
func TestSessionShowsMoVRValue(t *testing.T) {
	cfg := DefaultSessionConfig()
	cfg.Duration = 8 * time.Second
	cfg.Seed = 5
	r := Session(cfg)
	direct := r.Reports[VariantDirectOnly]
	static := r.Reports[VariantMoVRStatic]
	reactive := r.Reports[VariantMoVRReactive]
	tracking := r.Reports[VariantMoVRTracking]
	if direct.Frames == 0 {
		t.Fatal("no frames")
	}
	if tracking.GlitchFrac > direct.GlitchFrac {
		t.Errorf("tracking MoVR glitch %.2f worse than direct-only %.2f",
			tracking.GlitchFrac, direct.GlitchFrac)
	}
	if tracking.GlitchFrac > static.GlitchFrac {
		t.Errorf("tracking glitch %.2f worse than static %.2f",
			tracking.GlitchFrac, static.GlitchFrac)
	}
	// The §4.1 reactive policy sits between static and tracking: its
	// sweeps recover the link eventually but cost downtime.
	if reactive.GlitchFrac > static.GlitchFrac+0.05 {
		t.Errorf("reactive glitch %.2f should not exceed static %.2f",
			reactive.GlitchFrac, static.GlitchFrac)
	}
	if tracking.GlitchFrac > reactive.GlitchFrac+0.05 {
		t.Errorf("tracking glitch %.2f should not exceed reactive %.2f",
			tracking.GlitchFrac, reactive.GlitchFrac)
	}
	// Motion must actually occur.
	if r.Trace.DistanceM < 1 {
		t.Error("trace barely moved")
	}
	out := r.Render()
	if !strings.Contains(out, "VR session") || !strings.Contains(out, string(VariantMoVRReactive)) {
		t.Error("render missing content")
	}
}

// TestDeploymentComparison checks the §1 argument: reflectors extend
// coverage without cabling; multi-AP extends coverage with it.
func TestDeploymentComparison(t *testing.T) {
	r := Deployment()
	if len(r.Rows) != 5 || r.Poses == 0 {
		t.Fatalf("rows=%d poses=%d", len(r.Rows), r.Poses)
	}
	byName := map[string]DeploymentRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	oneAP := byName["1 AP (no MoVR)"]
	twoAP := byName["2 APs"]
	oneRefl := byName["1 AP + 1 reflector"]
	twoRefl := byName["1 AP + 2 reflectors"]
	// Adding either APs or reflectors must not reduce coverage.
	if twoAP.CoverageFrac < oneAP.CoverageFrac {
		t.Error("2 APs should not reduce coverage")
	}
	if oneRefl.CoverageFrac < oneAP.CoverageFrac {
		t.Error("a reflector should not reduce coverage")
	}
	if twoRefl.CoverageFrac < oneRefl.CoverageFrac {
		t.Error("a second reflector should not reduce coverage")
	}
	// Reflectors add coverage meaningfully.
	if twoRefl.CoverageFrac < oneAP.CoverageFrac+0.2 {
		t.Errorf("two reflectors raised coverage only %v -> %v",
			oneAP.CoverageFrac, twoRefl.CoverageFrac)
	}
	// Cost: reflectors need no extra cabling or transceivers.
	if oneRefl.CablingM != oneAP.CablingM || oneRefl.FullTransceivers != oneAP.FullTransceivers {
		t.Error("reflectors should cost no cabling/transceivers")
	}
	if twoAP.CablingM <= oneAP.CablingM || twoAP.FullTransceivers != oneAP.FullTransceivers+1 {
		t.Error("extra APs should cost cabling and a transceiver")
	}
	if !strings.Contains(r.Render(), "Deployment alternatives") {
		t.Error("render broken")
	}
}

// TestAblationTrackingPeriod: slower tracking cannot glitch less.
func TestAblationTrackingPeriod(t *testing.T) {
	rows := AblationTrackingPeriod(3, nil)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Allow small non-monotonicity from discrete frame boundaries, but
	// the slowest cadence must be clearly worse than the fastest.
	if rows[len(rows)-1].GlitchFrac+1e-9 < rows[0].GlitchFrac {
		t.Errorf("500ms tracking (%.2f) should not beat 20ms (%.2f)",
			rows[len(rows)-1].GlitchFrac, rows[0].GlitchFrac)
	}
	if !strings.Contains(RenderTrackingAblation(rows), "cadence") {
		t.Error("render broken")
	}
}

func TestAblations(t *testing.T) {
	backoff := AblationGainBackoff(1, nil)
	if len(backoff) != 5 {
		t.Fatalf("backoff rows = %d", len(backoff))
	}
	// Larger back-off: no more gain, no more drift-instability.
	first, last := backoff[0], backoff[len(backoff)-1]
	if last.MeanGainDB > first.MeanGainDB+1e-9 {
		t.Error("more backoff should not raise gain")
	}
	if last.UnstableFrac > first.UnstableFrac+1e-9 {
		t.Error("more backoff should not raise instability")
	}
	if first.MeanMarginDB >= last.MeanMarginDB {
		t.Error("margin should grow with backoff")
	}

	bits := AblationPhaseBits(2, nil)
	if len(bits) != 6 {
		t.Fatalf("bits rows = %d", len(bits))
	}
	// 8-bit must be at least as good as 1-bit on steered gain.
	if bits[0].SteeredGainDBi > bits[len(bits)-1].SteeredGainDBi {
		t.Error("coarse phases should not beat fine phases")
	}

	steps := AblationSweepStep(3, nil)
	if len(steps) != 5 {
		t.Fatalf("step rows = %d", len(steps))
	}
	// Coarser sweeps are faster.
	if steps[0].MeanTime < steps[len(steps)-1].MeanTime {
		t.Error("finer coarse step should cost more time")
	}

	out := RenderAblations(backoff, bits, steps)
	for _, want := range []string{"back-off", "phase-shifter", "granularity"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation render missing %q", want)
		}
	}
}

// TestBand60GHzNeedsBiggerArrays quantifies why the prototype runs at
// 24 GHz while products target 60 GHz: with the same 10-element arrays,
// the quadrupled carrier costs ~8 dB of link budget, pushing mid-room
// LOS below the paper's 25 dB regime — real 60 GHz radios buy it back
// with 32+ element arrays.
func TestBand60GHzNeedsBiggerArrays(t *testing.T) {
	w24 := NewWorld(0)
	w60 := NewWorldWithBudget(0, channel.Budget60GHz())
	pos := geom.V(3.4, 3.0)
	hs24 := w24.NewHeadsetAt(pos, 0)
	hs60 := w60.NewHeadsetAt(pos, 0)
	snr24 := w24.AlignedLOSSNR(hs24)
	snr60 := w60.AlignedLOSSNR(hs60)
	gap := snr24 - snr60
	if gap < 7.5 || gap > 9.5 {
		t.Errorf("24-vs-60 GHz LOS gap = %v dB, want ~8", gap)
	}
	// Same-size arrays at 60 GHz: marginal for VR at this range.
	if snr60 > snr24 {
		t.Error("60 GHz should not beat 24 GHz at equal aperture count")
	}
	// A 32-element 60 GHz array (≈10 dB vs 10 elements... 10log10(32/10)
	// = 5 dB per side) restores the budget.
	cfg := antenna.DefaultConfig(0)
	cfg.Elements = 32
	big, err := antenna.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gainBoost := 2 * (big.PeakGainDBi() - antenna.Default(0).PeakGainDBi())
	if snr60+gainBoost < snr24 {
		t.Errorf("32-element arrays (%+.1f dB) should recover the 60 GHz budget", gainBoost)
	}
}

func TestRenderHelpers(t *testing.T) {
	tbl := Table([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(tbl, "333") || !strings.Contains(tbl, "--") {
		t.Errorf("table = %q", tbl)
	}
	bc := BarChart("t", []string{"x"}, []float64{5}, 0, 10, "ref", 7, "dB")
	if !strings.Contains(bc, "#") || !strings.Contains(bc, "ref") {
		t.Errorf("bar chart = %q", bc)
	}
	cdf := CDFPlot("t", map[string][]float64{"s": {1, 2, 3}}, 40, 8)
	if !strings.Contains(cdf, "s (n=3)") {
		t.Errorf("cdf plot = %q", cdf)
	}
	if !strings.Contains(CDFPlot("t", map[string][]float64{}, 0, 0), "no data") {
		t.Error("empty cdf should say no data")
	}
	sc := ScatterPlot("t", []float64{1, 2}, []float64{1, 2}, true, 30, 8)
	if !strings.Contains(sc, "*") {
		t.Errorf("scatter = %q", sc)
	}
	if !strings.Contains(ScatterPlot("t", nil, nil, false, 0, 0), "no data") {
		t.Error("empty scatter should say no data")
	}
	lp := LinePlot("t", []float64{1, 2, 3}, map[string][]float64{"s": {1, 2, 3}}, 30, 8)
	if !strings.Contains(lp, "s") {
		t.Errorf("line plot = %q", lp)
	}
	if GbpsAt(25) < 6 {
		t.Error("GbpsAt(25) should be ~6.76")
	}
}
