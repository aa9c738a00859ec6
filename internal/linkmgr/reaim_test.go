package linkmgr

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/room"
)

// bestReevaluating is Best as it was before the winner was re-aimed
// instead of re-evaluated, frozen here as the reference: after picking
// the winner it runs the winner's evaluation a second time to restore
// its beams and takes that SNR.
func bestReevaluating(m *Manager) LinkState {
	bestSNR := m.EvaluateDirect()
	choice := PathDirect
	reflIdx := -1
	for i := range m.entries {
		if snr, ok := m.EvaluateReflector(i); ok && snr > bestSNR {
			bestSNR, choice, reflIdx = snr, PathReflector, i
		}
	}
	switch choice {
	case PathDirect:
		bestSNR = m.EvaluateDirect()
	case PathReflector:
		if snr, ok := m.EvaluateReflector(reflIdx); ok {
			bestSNR = snr
		}
	}
	return m.stateFor(choice, reflIdx, bestSNR)
}

// bestFrozenReevaluating is the matching frozen reference for
// BestFrozen.
func bestFrozenReevaluating(m *Manager) LinkState {
	bestSNR := m.EvaluateDirect()
	choice := PathDirect
	reflIdx := -1
	for i := range m.entries {
		if snr, ok := m.EvaluateReflectorFrozen(i); ok && snr > bestSNR {
			bestSNR, choice, reflIdx = snr, PathReflector, i
		}
	}
	switch choice {
	case PathDirect:
		bestSNR = m.EvaluateDirect()
	case PathReflector:
		if snr, ok := m.EvaluateReflectorFrozen(reflIdx); ok {
			bestSNR = snr
		}
	}
	return m.stateFor(choice, reflIdx, bestSNR)
}

// reflectorMounts are wall positions (and boresights facing into the
// 5 m × 5 m office) a twin world draws its reflectors from.
var reflectorMounts = []struct {
	pos   geom.Vec
	mount float64
}{
	{geom.V(4.6, 4.6), 225},
	{geom.V(2.5, 5), 270},
	{geom.V(5, 2.0), 180},
	{geom.V(0.2, 4.4), 315},
}

// twinWorld builds one manager in the office testbed from rng: 0–3
// reflectors at distinct mounts (one in five left unaligned), a hand
// and a body blocker. Calling it twice with identically seeded rngs
// builds identical twins.
func twinWorld(rng *rand.Rand) (*room.Room, *Manager) {
	rm := room.NewOffice5x5()
	b := channel.DefaultBudget()
	tr := channel.NewTracer(rm, b.FreqHz, 1)
	ap := radio.NewAP(geom.V(0.4, 0.4), antenna.Default(45), b)
	hs := radio.NewHeadset(geom.V(2.5, 2.5), antenna.Default(0), b)
	m := New(tr, ap, hs)
	for _, k := range rng.Perm(len(reflectorMounts))[:rng.Intn(4)] {
		cfg := reflector.DefaultConfig(reflectorMounts[k].pos, reflectorMounts[k].mount)
		cfg.Seed = rng.Int63n(64) + 1
		dev, err := reflector.New(cfg)
		if err != nil {
			panic(err)
		}
		i := m.AddReflector(dev)
		if rng.Intn(5) != 0 {
			if err := m.AlignFromGeometry(i); err != nil {
				panic(err)
			}
		}
	}
	rm.AddObstacle(room.Hand(randomPoint(rng)))
	rm.AddObstacle(room.Body(randomPoint(rng)))
	return rm, m
}

func randomPoint(rng *rand.Rand) geom.Vec {
	return geom.V(0.8+3.4*rng.Float64(), 0.8+3.4*rng.Float64())
}

// linkSnapshot flattens everything a decision leaves behind into
// comparable bits: the LinkState, the AP and headset steering, and each
// reflector's RX/TX steering and gain word.
func linkSnapshot(m *Manager, st LinkState) []uint64 {
	b := math.Float64bits
	meets := uint64(0)
	if st.MeetsRequirement {
		meets = 1
	}
	s := []uint64{
		uint64(st.Choice), uint64(st.ReflectorIdx), b(st.SNRdB), b(st.RateBps),
		uint64(st.MCSIndex), meets,
		b(m.AP.Array.SteeringDeg()), b(m.Headset.Array.SteeringDeg()),
	}
	for _, e := range m.Reflectors() {
		s = append(s, b(e.Dev.RXBeamDeg()), b(e.Dev.TXBeamDeg()), uint64(e.Dev.Amp().GainWord()))
	}
	return s
}

// TestBestMatchesReevaluation runs Best and BestFrozen against the
// frozen re-evaluating references on twin managers over seeded worlds
// and pose walks — head yaw, moving hand and body blockers, 0–3
// reflectors — with passive Reassess reads in between. After every call
// the LinkState, every beam and every gain word must be identical, so
// re-aiming restores exactly what re-evaluating the winner did.
func TestBestMatchesReevaluation(t *testing.T) {
	type outcome struct {
		frozen bool
		choice PathChoice
	}
	seen := map[outcome]int{}
	for seed := int64(1); seed <= 40; seed++ {
		rmA, a := twinWorld(rand.New(rand.NewSource(seed)))
		rmB, b := twinWorld(rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed + 1000))
		pos := randomPoint(rng)
		for step := 0; step < 30; step++ {
			pos = geom.V(
				math.Max(0.5, math.Min(4.5, pos.X+0.3*rng.NormFloat64())),
				math.Max(0.5, math.Min(4.5, pos.Y+0.3*rng.NormFloat64())))
			yaw := 360 * rng.Float64()
			for _, m := range []*Manager{a, b} {
				m.Headset.MoveTo(pos)
				m.Headset.SetYaw(yaw)
			}
			if rng.Intn(3) == 0 {
				k, p := rng.Intn(2), randomPoint(rng)
				rmA.MoveObstacle(k, p)
				rmB.MoveObstacle(k, p)
			}
			var stA, stB LinkState
			frozen := rng.Intn(3) == 0
			if frozen {
				if n := len(a.entries); n > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(n)
					a.EvaluateReflector(i)
					b.EvaluateReflector(i)
				}
				stA, stB = a.BestFrozen(), bestFrozenReevaluating(b)
			} else {
				stA, stB = a.Best(), bestReevaluating(b)
			}
			seen[outcome{frozen, stA.Choice}]++
			if sa, sb := linkSnapshot(a, stA), linkSnapshot(b, stB); !slices.Equal(sa, sb) {
				t.Fatalf("seed %d step %d (frozen=%v): re-aimed %v, re-evaluated %v\n  snapshots %x\n        vs %x",
					seed, step, frozen, stA, stB, sa, sb)
			}
			if rng.Intn(2) == 0 {
				if ra, rb := a.Reassess(), b.Reassess(); !slices.Equal(linkSnapshot(a, ra), linkSnapshot(b, rb)) {
					t.Fatalf("seed %d step %d: Reassess after re-aim %v, after re-evaluation %v", seed, step, ra, rb)
				}
			}
		}
	}
	for _, o := range []outcome{{false, PathDirect}, {false, PathReflector}, {true, PathDirect}, {true, PathReflector}} {
		if seen[o] == 0 {
			t.Errorf("no step chose %v with frozen=%v; coverage %v", o.choice, o.frozen, seen)
		}
	}
}
