package movr_test

import (
	"math"
	"strings"
	"testing"

	movr "github.com/movr-sim/movr"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/vr"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow end
// to end through the public facade.
func TestPublicAPIQuickstart(t *testing.T) {
	world := movr.NewWorld(1)
	hs := world.NewHeadsetAt(movr.V(3.4, 2.4), 60)
	dev := movr.DefaultReflector(movr.V(4.6, 4.6), 225)
	mgr := movr.NewLinkManager(world.Tracer, world.AP, hs)
	idx := mgr.AddReflector(dev)
	if err := mgr.AlignFromGeometry(idx); err != nil {
		t.Fatal(err)
	}
	st := mgr.Best()
	if !st.MeetsRequirement {
		t.Errorf("quickstart link state should meet VR: %v", st)
	}
	// Blockage handling through the facade.
	world.Room.AddObstacle(movr.Hand(movr.V(2.0, 1.5)))
	st = mgr.Best()
	if !st.MeetsRequirement {
		t.Errorf("MoVR should rescue blockage: %v", st)
	}
}

// TestPublicAPIExperiments smoke-tests every experiment runner through
// the facade at reduced scale.
func TestPublicAPIExperiments(t *testing.T) {
	f3 := movr.DefaultFig3Config()
	f3.Runs = 2
	f3.NLOSStepDeg = 10
	if r := movr.RunFig3(f3); !strings.Contains(r.Render(), "Figure 3") {
		t.Error("Fig3 render broken")
	}
	if r := movr.RunFig7(movr.DefaultFig7Config()); !strings.Contains(r.Render(), "Figure 7") {
		t.Error("Fig7 render broken")
	}
	f8 := movr.DefaultFig8Config()
	f8.Runs = 2
	if r := movr.RunFig8(f8); !strings.Contains(r.Render(), "Figure 8") {
		t.Error("Fig8 render broken")
	}
	f9 := movr.DefaultFig9Config()
	f9.Runs = 2
	f9.NLOSStepDeg = 10
	if r := movr.RunFig9(f9); !strings.Contains(r.Render(), "Figure 9") {
		t.Error("Fig9 render broken")
	}
	if r := movr.RunBattery(movr.DefaultBatteryConfig()); !r.MeetsPaperClaim {
		t.Error("battery claim broken")
	}
}

// TestPublicAPIPrimitives checks the re-exported substrate helpers.
func TestPublicAPIPrimitives(t *testing.T) {
	if movr.HTCVive().RefreshHz != 90 {
		t.Error("display spec wrong")
	}
	if movr.HTCViveRequirement().RateBps < 2e9 {
		t.Error("requirement wrong")
	}
	if g := movr.GbpsAtSNR(25); g < 6 {
		t.Errorf("GbpsAtSNR(25) = %v", g)
	}
	arr := movr.DefaultArray(90)
	if bw := arr.BeamwidthDeg(); bw < 8 || bw > 12 {
		t.Errorf("beamwidth = %v", bw)
	}
	trace, err := vr.Generate(vr.DefaultTraceConfig(5, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if trace.Duration() <= 0 {
		t.Error("trace empty")
	}
	b := movr.DefaultBudget()
	if b.FreqHz != 24e9 {
		t.Errorf("default carrier = %v", b.FreqHz)
	}
}

// TestNewReflectorRejectsNonFiniteArray checks that a non-finite array
// config reaches the caller as an error instead of NaN or ±Inf gains.
func TestNewReflectorRejectsNonFiniteArray(t *testing.T) {
	for name, mutate := range map[string]func(*reflector.Config){
		"rx spacing NaN":  func(c *reflector.Config) { c.RXArray.SpacingWavelengths = math.NaN() },
		"tx element +Inf": func(c *reflector.Config) { c.TXArray.ElementGainDBi = math.Inf(1) },
		"rx backlobe NaN": func(c *reflector.Config) { c.RXArray.BacklobeDB = math.NaN() },
		"mount NaN":       func(c *reflector.Config) { c.MountDeg = math.NaN() },
	} {
		cfg := reflector.DefaultConfig(movr.V(4.6, 4.6), 225)
		mutate(&cfg)
		if _, err := reflector.New(cfg); err == nil {
			t.Errorf("%s: reflector.New accepted the config", name)
		}
	}
}
