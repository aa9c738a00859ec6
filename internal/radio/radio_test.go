package radio

import (
	"math"
	"testing"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/units"
)

func testWorld() (*room.Room, *channel.Tracer, *Radio, *Radio) {
	rm := room.NewOffice5x5()
	b := channel.DefaultBudget()
	tr := channel.NewTracer(rm, b.FreqHz, 1)
	tx := New("tx", geom.V(0.5, 0.5), antenna.Default(45), b)
	rx := New("rx", geom.V(4.5, 4.5), antenna.Default(225), b)
	return rm, tr, tx, rx
}

func TestSteerToward(t *testing.T) {
	_, _, tx, rx := testWorld()
	applied := tx.SteerToward(rx.Pos)
	if math.Abs(units.AngleDiffDeg(applied, 45)) > 1e-9 {
		t.Errorf("steered to %v, want 45", applied)
	}
	if got := tx.Array.SteeringDeg(); math.Abs(units.AngleDiffDeg(got, 45)) > 1e-9 {
		t.Errorf("array steering = %v", got)
	}
}

func TestLinkSNRAlignedIsPaperLOS(t *testing.T) {
	_, tr, tx, rx := testWorld()
	snr := LinkSNRAligned(tr, tx, rx)
	// Corner-to-corner (5.66 m) LOS: low-to-mid 20s dB.
	if snr < 17 || snr > 30 {
		t.Errorf("LOS SNR = %v, want paper-like 20s", snr)
	}
	// Misaligning the RX beam must lose a lot of SNR.
	rx.SteerTo(rx.Array.OrientationDeg() + 50)
	mis := LinkSNRdB(tr, tx, rx)
	if mis > snr-8 {
		t.Errorf("misaligned SNR %v not much below aligned %v", mis, snr)
	}
}

func TestLinkSNRWithBlockage(t *testing.T) {
	rm, tr, tx, rx := testWorld()
	aligned := LinkSNRAligned(tr, tx, rx)
	rm.AddObstacle(room.Hand(geom.V(2.5, 2.5)))
	blocked := LinkSNRdB(tr, tx, rx)
	drop := aligned - blocked
	// Paper §3: hand blockage drops SNR by >14 dB. (With reflections in
	// the trace the combined drop can be a little smaller than the
	// direct-path-only drop; allow 12+.)
	if drop < 12 {
		t.Errorf("hand blockage dropped SNR by only %v dB", drop)
	}
}

func TestAPLeakageAndNoise(t *testing.T) {
	b := channel.DefaultBudget()
	ap := NewAP(geom.V(0.3, 0.3), antenna.Default(45), b)
	// Leakage = TX power - isolation.
	if got := ap.LeakagePowerDBm(); got != b.TXPowerDBm-DefaultSelfIsolationDB {
		t.Errorf("leakage = %v", got)
	}
	// 1 MHz measurement bandwidth: noise floor ≈ -174+60+7 = -107 dBm.
	if got := ap.MeasNoiseFloorDBm(); math.Abs(got-(-107)) > 1 {
		t.Errorf("measurement noise floor = %v, want ~-107", got)
	}
	// Leakage towers over the measurement noise floor — the §4.1 problem.
	if ap.LeakagePowerDBm() < ap.MeasNoiseFloorDBm()+50 {
		t.Error("leakage should dominate the measurement receiver")
	}
}

func TestHeadsetYaw(t *testing.T) {
	b := channel.DefaultBudget()
	hs := NewHeadset(geom.V(2, 2), antenna.Default(90), b)
	if hs.YawDeg != 90 {
		t.Errorf("initial yaw = %v", hs.YawDeg)
	}
	hs.SetYaw(-30)
	if hs.YawDeg != 330 {
		t.Errorf("yaw = %v, want normalized 330", hs.YawDeg)
	}
	if got := hs.Array.OrientationDeg(); got != 330 {
		t.Errorf("array orientation = %v, should follow yaw", got)
	}
	hs.MoveTo(geom.V(3, 3))
	if !hs.Pos.AlmostEqual(geom.V(3, 3), 1e-12) {
		t.Error("MoveTo failed")
	}
}

func TestHeadRotationKillsLink(t *testing.T) {
	// The paper's Fig 2 scenario: "user rotated her head" so the
	// headset's array faces away from the AP.
	rm := room.NewOffice5x5()
	b := channel.DefaultBudget()
	tr := channel.NewTracer(rm, b.FreqHz, 1)
	ap := NewAP(geom.V(0.3, 2.5), antenna.Default(0), b)
	hs := NewHeadset(geom.V(4, 2.5), antenna.Default(180), b)
	ap.SteerToward(hs.Pos)
	hs.SteerToward(ap.Pos)
	facing := LinkSNRdB(tr, &ap.Radio, &hs.Radio)

	// Turn the head 180°: boresight now away from AP; the AP direction
	// is in the array's backlobe.
	hs.SetYaw(0)
	hs.SteerToward(ap.Pos) // steering clamps to scan range; backlobe remains
	away := LinkSNRdB(tr, &ap.Radio, &hs.Radio)
	if away > facing-15 {
		t.Errorf("head rotation only cost %v dB", facing-away)
	}
}
