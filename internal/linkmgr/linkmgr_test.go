package linkmgr

import (
	"math"
	"strings"
	"testing"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/room"
)

// world builds the §5.2 testbed: AP in the south-west corner facing the
// room diagonal, reflector in the opposite corner facing back (the paper
// places them in opposite corners). Head yaw matters: the headset's
// array steers only ±75° of where the wearer faces, so each test picks a
// pose from which its relevant endpoint is visible — exactly the
// pose-dependence MoVR exists to solve.
func world(hsPos geom.Vec, yawDeg float64) (*room.Room, *Manager) {
	rm := room.NewOffice5x5()
	b := channel.DefaultBudget()
	tr := channel.NewTracer(rm, b.FreqHz, 1)
	ap := radio.NewAP(geom.V(0.4, 0.4), antenna.Default(45), b)
	hs := radio.NewHeadset(hsPos, antenna.Default(yawDeg), b)
	m := New(tr, ap, hs)
	m.AddAlignedReflector(reflector.Default(geom.V(4.6, 4.6), 225))
	return rm, m
}

func TestDirectChosenWhenClear(t *testing.T) {
	// Headset right next to the AP, facing it: the short direct path
	// beats any relay detour (and the reflector sits behind the head).
	_, m := world(geom.V(1.2, 1.2), 225)
	st := m.Best()
	if st.Choice != PathDirect {
		t.Fatalf("choice = %v (snr %v), want direct next to the AP", st.Choice, st.SNRdB)
	}
	if st.SNRdB < 28 {
		t.Errorf("close-range direct SNR = %v, want 30ish", st.SNRdB)
	}
	if !st.MeetsRequirement {
		t.Error("clear LOS should meet the VR requirement")
	}
	if st.MCSIndex < 0 {
		t.Error("no MCS selected")
	}
}

func TestReflectorRescuesBlockage(t *testing.T) {
	// Mid-room headset facing the reflector corner (head turned away
	// from the AP) and a hand blocking the direct path: both Fig 2
	// failure modes at once. The reflector must carry the stream.
	rm, m := world(geom.V(3.4, 2.4), 60)
	mid := m.AP.Pos.Lerp(m.Headset.Pos, 0.5)
	rm.AddObstacle(room.Hand(mid))

	st := m.Best()
	if st.Choice != PathReflector {
		t.Fatalf("choice = %v (snr %v), want reflector under blockage", st.Choice, st.SNRdB)
	}
	if !st.MeetsRequirement {
		t.Errorf("MoVR path should sustain VR rate, got %v", st)
	}
	direct := m.EvaluateDirect()
	if st.SNRdB < direct+5 {
		t.Errorf("reflector SNR %v not clearly above blocked direct %v", st.SNRdB, direct)
	}
	// The blocked direct path alone must fail the requirement — that is
	// the paper's premise (§3).
	if m.Req.MetBySNR(direct) {
		t.Errorf("blocked direct path at %v dB should fail the requirement", direct)
	}
}

func TestReflectorCanBeatLOS(t *testing.T) {
	// §5.2: MoVR can exceed the unblocked LOS SNR when the headset is
	// far from the AP — the amplifier more than repays the two-hop
	// spreading loss. Each path is measured with the head facing it.
	_, m := world(geom.V(3.4, 2.4), 214)
	direct := m.EvaluateDirect()
	m.Headset.SetYaw(60)
	snr, ok := m.EvaluateReflector(0)
	if !ok {
		t.Fatal("reflector path should be usable")
	}
	if snr < direct {
		t.Errorf("MoVR %v dB below LOS %v dB in favourable geometry", snr, direct)
	}
}

func TestHeadRotationHandled(t *testing.T) {
	// Fig 2's first scenario: the user rotates her head so the AP falls
	// behind the headset array; the reflector remains in view and the
	// controller must switch to it using pose alone.
	_, m := world(geom.V(3.4, 2.4), 214)
	if st := m.Best(); st.Choice != PathDirect {
		t.Fatalf("setup: facing the AP should pick direct, got %v", st)
	}
	st := m.Step(geom.V(3.4, 2.4), 60) // turn the head toward the far corner
	if st.Choice != PathReflector {
		t.Fatalf("choice = %v (snr %v), want reflector when head faces away from AP", st.Choice, st.SNRdB)
	}
	if !st.MeetsRequirement {
		t.Errorf("rotated-head state should still meet requirement: %v", st)
	}
}

func TestUnalignedReflectorUnusable(t *testing.T) {
	rm := room.NewOffice5x5()
	b := channel.DefaultBudget()
	tr := channel.NewTracer(rm, b.FreqHz, 1)
	ap := radio.NewAP(geom.V(0.4, 0.4), antenna.Default(45), b)
	hs := radio.NewHeadset(geom.V(3, 2.5), antenna.Default(180), b)
	m := New(tr, ap, hs)
	dev := reflector.Default(geom.V(4.6, 4.6), 225)
	m.AddReflector(dev)
	if _, ok := m.EvaluateReflector(0); ok {
		t.Error("unaligned reflector should be unusable")
	}
	if _, ok := m.EvaluateReflector(5); ok {
		t.Error("bad index should be unusable")
	}
	if err := m.SetAlignment(9, 0, 0); err == nil {
		t.Error("SetAlignment out of range should error")
	}
	if err := m.AlignFromGeometry(-1); err == nil {
		t.Error("AlignFromGeometry out of range should error")
	}
	if len(m.Reflectors()) != 1 {
		t.Error("Reflectors() wrong")
	}
}

// twoReflectorWorld is the office testbed with two aligned reflectors:
// near (index 0) in the opposite corner with clear legs, and far
// (index 1) on the north wall, its AP leg blocked by a bystander.
func twoReflectorWorld(t *testing.T) (m *Manager, near, far *reflector.Reflector) {
	t.Helper()
	rm := room.NewOffice5x5()
	b := channel.DefaultBudget()
	tr := channel.NewTracer(rm, b.FreqHz, 1)
	ap := radio.NewAP(geom.V(0.4, 0.4), antenna.Default(45), b)
	hs := radio.NewHeadset(geom.V(3.4, 2.4), antenna.Default(60), b)
	m = New(tr, ap, hs)

	near = reflector.Default(geom.V(4.6, 4.6), 225)
	far = reflector.Default(geom.V(2.5, 5), 270)
	for _, dev := range []*reflector.Reflector{near, far} {
		i := m.AddReflector(dev)
		if err := m.AlignFromGeometry(i); err != nil {
			t.Fatal(err)
		}
	}
	rm.AddObstacle(room.Body(ap.Pos.Lerp(far.Pos(), 0.5)))
	return m, near, far
}

func TestTwoReflectorsPickBetter(t *testing.T) {
	m, _, _ := twoReflectorWorld(t)
	st := m.Best()
	if st.Choice != PathReflector {
		t.Fatalf("choice = %v (snr %v)", st.Choice, st.SNRdB)
	}
	if st.ReflectorIdx != 0 {
		t.Errorf("picked reflector %d, want the clear one (0)", st.ReflectorIdx)
	}
}

func TestBestReappliesWinner(t *testing.T) {
	// After Best() returns direct, the AP must actually be steered at
	// the headset (not left pointing at the last-evaluated reflector).
	_, m := world(geom.V(1.2, 1.2), 225)
	st := m.Best()
	if st.Choice != PathDirect {
		t.Fatalf("setup: want direct, got %v", st.Choice)
	}
	wantAP := geom.DirectionDeg(m.AP.Pos, m.Headset.Pos)
	if math.Abs(m.AP.Array.SteeringDeg()-wantAP) > 1 {
		t.Errorf("AP beam %v, want %v (re-applied)", m.AP.Array.SteeringDeg(), wantAP)
	}

	// A reflector winner evaluated before another candidate: the later
	// candidate moves the AP and headset beams, so Best must re-aim them
	// at the winner while the winner's own beams and gain word stay as
	// its evaluation set them.
	m, near, _ := twoReflectorWorld(t)
	st = m.Best()
	if st.Choice != PathReflector || st.ReflectorIdx != 0 {
		t.Fatalf("setup: want reflector 0, got %v (idx %d)", st.Choice, st.ReflectorIdx)
	}
	e := m.Reflectors()[0]
	if got, want := m.AP.Array.SteeringDeg(), m.AP.SteerTo(e.APBeamDeg); got != want {
		t.Errorf("AP beam %v, want %v (the winner's AP beam)", got, want)
	}
	if got, want := m.Headset.Array.SteeringDeg(), m.Headset.SteerToward(near.Pos()); got != want {
		t.Errorf("headset beam %v, want %v (toward the winner)", got, want)
	}
	rx, tx, word := near.RXBeamDeg(), near.TXBeamDeg(), near.Amp().GainWord()
	snr, ok := m.EvaluateReflector(0)
	if !ok || snr != st.SNRdB {
		t.Errorf("re-evaluated winner SNR %v (ok=%v), Best reported %v", snr, ok, st.SNRdB)
	}
	if near.RXBeamDeg() != rx || near.TXBeamDeg() != tx || near.Amp().GainWord() != word {
		t.Errorf("winner beams/word rx %v tx %v word %d, re-evaluation sets rx %v tx %v word %d",
			rx, tx, word, near.RXBeamDeg(), near.TXBeamDeg(), near.Amp().GainWord())
	}
}

func TestDeadLinkState(t *testing.T) {
	rm, m := world(geom.V(3.4, 2.4), 200)
	// Entomb the headset in a ring of bodies — the state must degrade
	// gracefully rather than panic.
	for i := 0; i < 8; i++ {
		rm.AddObstacle(room.Body(geom.FromPolar(m.Headset.Pos, float64(i)*45, 0.4)))
	}
	st := m.Best()
	if st.MeetsRequirement {
		t.Errorf("entombed headset should not meet requirement: %v", st)
	}
	if st.RateBps > 0 && st.MCSIndex < 0 {
		t.Error("inconsistent rate/MCS")
	}
}

func TestStrings(t *testing.T) {
	if PathDirect.String() != "direct" || PathReflector.String() != "reflector" ||
		PathNone.String() != "none" || !strings.Contains(PathChoice(9).String(), "unknown") {
		t.Error("PathChoice strings wrong")
	}
	_, m := world(geom.V(1.2, 1.2), 225)
	st := m.Best()
	if !strings.Contains(st.String(), "snr=") {
		t.Errorf("LinkState.String = %q", st.String())
	}
}
