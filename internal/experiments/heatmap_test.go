package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestHeatmapReflectorExtendsCoverage(t *testing.T) {
	// Coarse grid and orientation set keep the test quick.
	cfg := HeatmapConfig{GridStep: 1.0, Yaws: []float64{0, 90, 180, 270}}
	without, err := Heatmap(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WithReflector = true
	with, err := Heatmap(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if with.MeanCoverage <= without.MeanCoverage {
		t.Errorf("reflector coverage %v should beat bare AP %v",
			with.MeanCoverage, without.MeanCoverage)
	}
	// With one AP alone, adversarial orientations leave big gaps.
	if without.MeanCoverage > 0.8 {
		t.Errorf("bare-AP coverage %v implausibly high", without.MeanCoverage)
	}
	// With a reflector, most cells cover most orientations.
	if with.MeanCoverage < 0.6 {
		t.Errorf("reflector coverage %v too low", with.MeanCoverage)
	}
	out := with.Render("coverage with MoVR")
	if !strings.Contains(out, "#") || !strings.Contains(out, "orientations") {
		t.Errorf("render = %q", out)
	}
	// Shape integrity.
	if len(with.Cover) != len(with.Ys) || len(with.Cover[0]) != len(with.Xs) {
		t.Error("grid shape mismatch")
	}
}

func TestHeatmapDefaults(t *testing.T) {
	cfg := HeatmapConfig{} // degenerate: defaults kick in
	cfg.GridStep = 2.0     // keep it fast
	r, err := Heatmap(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Xs) == 0 || len(r.Ys) == 0 {
		t.Fatal("empty grid")
	}
	if r.MeanCoverage < 0 || r.MeanCoverage > 1 {
		t.Errorf("mean coverage = %v", r.MeanCoverage)
	}
}
