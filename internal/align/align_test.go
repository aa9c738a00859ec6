package align

import (
	"math"
	"testing"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/control"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/room"
)

// rig builds an AP in the south-west corner and a reflector on the north
// wall, the standard alignment geometry.
func rig(reflPos geom.Vec, seed int64) (*Sweeper, *radio.AP, *reflector.Reflector) {
	return rigIn(room.NewOffice5x5(), reflPos, seed)
}

// rigIn is rig in a room the caller keeps, to place blockers in later.
func rigIn(rm *room.Room, reflPos geom.Vec, seed int64) (*Sweeper, *radio.AP, *reflector.Reflector) {
	b := channel.DefaultBudget()
	tr := channel.NewTracer(rm, b.FreqHz, 0)
	ap := radio.NewAP(geom.V(0.4, 0.4), antenna.Default(45), b)
	dev := reflector.Default(reflPos, 270)
	ctl := reflector.NewController(dev)
	link := control.NewLink(ctl, control.DefaultRTT)
	cfg := DefaultConfig()
	cfg.Seed = seed
	s, err := NewSweeper(ap, dev, link, tr, cfg)
	if err != nil {
		panic(err)
	}
	return s, ap, dev
}

func TestNewSweeperValidation(t *testing.T) {
	s, ap, dev := rig(geom.V(2.5, 5), 1)
	bad := []func(*Config){
		func(c *Config) { c.Samples = 100 },
		func(c *Config) { c.ModFreqHz = 0 },
		func(c *Config) { c.SampleRateHz = 0 },
		func(c *Config) { c.ModFreqHz = 1e6 }, // over Nyquist at 1.6 MHz
		func(c *Config) { c.APStepDeg = 0 },
		func(c *Config) { c.ReflStepDeg = -1 },
		func(c *Config) { c.CoarseStepDeg = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewSweeper(ap, dev, s.Link, s.Tracer, cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestSidebandDetectable(t *testing.T) {
	// When both beams point correctly, the f2 sideband power must stand
	// far above the measurement at a badly wrong beam pair.
	s, ap, dev := rig(geom.V(2.5, 5), 2)
	truthRefl := GroundTruthDeg(dev, ap)
	truthAP := geom.DirectionDeg(ap.Pos, dev.Pos())

	if err := s.prepare(); err != nil {
		t.Fatal(err)
	}
	good, err := s.MeasureSidebandPower(truthAP, truthRefl)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.MeasureSidebandPower(truthAP+50, truthRefl-50)
	if err != nil {
		t.Fatal(err)
	}
	if good < bad+20 {
		t.Errorf("aligned sideband %v dBm not well above misaligned %v dBm", good, bad)
	}
	// The good measurement must also clear the noise floor decisively.
	if good < ap.MeasNoiseFloorDBm()+10 {
		t.Errorf("sideband %v dBm too close to noise floor %v", good, ap.MeasNoiseFloorDBm())
	}
}

func TestHierarchicalFindsAngles(t *testing.T) {
	// Fig 8's claim: estimated angle within 2° of ground truth.
	for _, pos := range []geom.Vec{
		geom.V(2.5, 5), geom.V(1.3, 5), geom.V(3.8, 5),
	} {
		s, ap, dev := rig(pos, 3)
		res, err := s.Hierarchical()
		if err != nil {
			t.Fatal(err)
		}
		truth := GroundTruthDeg(dev, ap)
		if e := ErrorDeg(res.ReflBeamDeg, truth); e > 2 {
			t.Errorf("pos %v: reflector angle error %v°, want ≤2", pos, e)
		}
		truthAP := geom.DirectionDeg(ap.Pos, dev.Pos())
		if e := ErrorDeg(res.APBeamDeg, truthAP); e > 2 {
			t.Errorf("pos %v: AP angle error %v°, want ≤2", pos, e)
		}
		if res.Measurements == 0 || res.TotalTime() <= 0 {
			t.Error("missing accounting")
		}
	}
}

func TestExhaustiveMatchesHierarchical(t *testing.T) {
	// The exhaustive sweep is the paper's reference procedure; the
	// hierarchical one must agree within the fine step.
	s, _, _ := rig(geom.V(2.5, 5), 4)
	ex, err := s.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	s2, _, _ := rig(geom.V(2.5, 5), 4)
	hi, err := s2.Hierarchical()
	if err != nil {
		t.Fatal(err)
	}
	if ErrorDeg(ex.ReflBeamDeg, hi.ReflBeamDeg) > 3 {
		t.Errorf("exhaustive %v vs hierarchical %v", ex.ReflBeamDeg, hi.ReflBeamDeg)
	}
	// Exhaustive costs far more measurements.
	if ex.Measurements < 5*hi.Measurements {
		t.Errorf("exhaustive %d vs hierarchical %d measurements", ex.Measurements, hi.Measurements)
	}
}

func TestAlignmentTimeDominatedByExhaustive(t *testing.T) {
	// §6: "Finding the best beam alignment is the most time consuming
	// process in the design." The exhaustive sweep should cost seconds,
	// far beyond the 10 ms frame budget.
	s, _, _ := rig(geom.V(2.5, 5), 5)
	ex, err := s.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if ex.TotalTime().Seconds() < 1 {
		t.Errorf("exhaustive alignment = %v, expected seconds", ex.TotalTime())
	}
	s2, _, _ := rig(geom.V(2.5, 5), 5)
	hi, err := s2.Hierarchical()
	if err != nil {
		t.Fatal(err)
	}
	if hi.TotalTime() >= ex.TotalTime() {
		t.Error("hierarchical should be faster than exhaustive")
	}
}

func TestBlockageDegradesMeasurement(t *testing.T) {
	// A floor-to-ceiling column between AP and reflector weakens the
	// backscatter. (A person would not: the AP→reflector ray runs above
	// head height — that is the point of mounting reflectors high.)
	rm := room.NewOffice5x5()
	s, ap, dev := rigIn(rm, geom.V(2.5, 5), 6)
	if err := s.prepare(); err != nil {
		t.Fatal(err)
	}
	truthAP := geom.DirectionDeg(ap.Pos, dev.Pos())
	truthRefl := GroundTruthDeg(dev, ap)
	clear, err := s.MeasureSidebandPower(truthAP, truthRefl)
	if err != nil {
		t.Fatal(err)
	}
	mid := ap.Pos.Lerp(dev.Pos(), 0.5)
	rm.AddObstacle(room.Column(mid, 0.2))
	blocked, err := s.MeasureSidebandPower(truthAP, truthRefl)
	if err != nil {
		t.Fatal(err)
	}
	// Round trip passes the blocker twice: ≥ 2×body-loss weaker, less
	// sideband-vs-noise margin.
	if blocked > clear-30 {
		t.Errorf("blocked measurement %v dBm, clear %v dBm", blocked, clear)
	}
}

func TestErrorDeg(t *testing.T) {
	if got := ErrorDeg(359, 1); math.Abs(got-2) > 1e-9 {
		t.Errorf("wrap-around error = %v", got)
	}
	if got := ErrorDeg(10, 10); got != 0 {
		t.Errorf("zero error = %v", got)
	}
}

// TestReflectedPowerZeroAllocs guards the per-measurement trace: once the
// sweeper's path scratch has warmed up, computing the reflected tone's
// power — direct AP↔reflector leg, blockage included — allocates
// nothing, however many (θ1, θ2) pairs a sweep probes.
func TestReflectedPowerZeroAllocs(t *testing.T) {
	rm := room.NewOffice5x5()
	s, ap, dev := rigIn(rm, geom.V(2.5, 5), 1)
	rm.AddObstacle(room.Hand(geom.V(1.4, 2.6)))
	ap.SteerToward(dev.Pos())
	dev.SetRXBeam(GroundTruthDeg(dev, ap))
	dev.SetTXBeam(GroundTruthDeg(dev, ap))
	if p := s.reflectedPowerDBm(); math.IsInf(p, -1) {
		t.Fatalf("aligned reflected power is %v; rig geometry is wrong", p)
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.reflectedPowerDBm()
	})
	if allocs != 0 {
		t.Fatalf("steady-state reflectedPowerDBm allocates %.1f objects/op, want 0", allocs)
	}
}
