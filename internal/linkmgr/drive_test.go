package linkmgr

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/gainctl"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/relay"
	"github.com/movr-sim/movr/internal/units"
)

// inboundReference is the drive-level expression each relay evaluator
// computed inline before driveLevel memoized it: trace leg 1, then both
// array gains and the propagation loss, every time.
func inboundReference(m *Manager, i int) float64 {
	dev := m.entries[i].Dev
	leg1 := m.directLeg(slotLeg1(i), m.AP.Pos, dev.Pos(), m.AP.HeightM, dev.HeightM())
	return m.AP.Budget.TXPowerDBm + m.AP.GainDBi(leg1.AoDDeg) -
		leg1.PropagationLossDB(m.AP.Budget.FreqHz) + dev.RXGainDBi(leg1.AoADeg)
}

// hop2Reference finishes a reference relay evaluation: leg 2 and the
// amplify-and-forward combine, as all three evaluators share them.
func hop2Reference(m *Manager, i int, inbound float64) float64 {
	dev := m.entries[i].Dev
	leg2 := m.directLeg(slotLeg2(i), dev.Pos(), m.Headset.Pos, dev.HeightM(), m.Headset.HeightM)
	hop2Gain := dev.Amp().GainDB() + dev.TXGainDBi(leg2.AoDDeg) -
		leg2.PropagationLossDB(m.AP.Budget.FreqHz) +
		m.Headset.GainDBi(leg2.AoADeg) - m.AP.Budget.ImplLossDB
	hop1 := relay.HopBudget{
		SignalDBm: inbound,
		NoiseDBm:  units.ThermalNoiseDBm(m.AP.Budget.BandwidthHz, dev.NoiseFigureDB()),
	}
	return relay.EndToEnd(hop1, hop2Gain, m.Headset.Budget.NoiseFloorDBm())
}

// evaluateReflectorReference is EvaluateReflector with the frozen inline
// drive level.
func evaluateReflectorReference(m *Manager, i int) (float64, bool) {
	if i < 0 || i >= len(m.entries) {
		return math.Inf(-1), false
	}
	e := m.entries[i]
	if !e.Aligned {
		return math.Inf(-1), false
	}
	dev := e.Dev
	m.aim(PathReflector, i)
	dev.SetRXBeam(e.IncidenceDeg)
	dev.SetTXBeam(geom.DirectionDeg(dev.Pos(), m.Headset.Pos))
	inbound := inboundReference(m, i)
	if leak := dev.LeakageDB(); e.gainKeyOK && e.gainExt == inbound && e.gainLeak == leak {
		dev.Amp().SetGainWord(e.gainWord)
	} else {
		m.opt.Optimize(dev, inbound, gainctl.DefaultConfig())
		e.gainKeyOK, e.gainExt, e.gainLeak, e.gainWord = true, inbound, leak, dev.Amp().GainWord()
	}
	if !dev.Stable() || dev.SaturatedAt(inbound) {
		return math.Inf(-1), false
	}
	return hop2Reference(m, i, inbound), true
}

// evaluateReflectorFrozenReference is EvaluateReflectorFrozen with the
// frozen inline drive level.
func evaluateReflectorFrozenReference(m *Manager, i int) (float64, bool) {
	if i < 0 || i >= len(m.entries) {
		return math.Inf(-1), false
	}
	e := m.entries[i]
	if !e.Aligned {
		return math.Inf(-1), false
	}
	dev := e.Dev
	m.aim(PathReflector, i)
	inbound := inboundReference(m, i)
	if !dev.Stable() || dev.SaturatedAt(inbound) {
		return math.Inf(-1), false
	}
	return hop2Reference(m, i, inbound), true
}

// reflectorSNRAsIsReference is reflectorSNRAsIs with the frozen inline
// drive level.
func reflectorSNRAsIsReference(m *Manager, i int) float64 {
	dev := m.entries[i].Dev
	inbound := inboundReference(m, i)
	if !dev.Stable() || dev.SaturatedAt(inbound) {
		return math.Inf(-1)
	}
	return hop2Reference(m, i, inbound)
}

// bestReference is Best over the reference evaluator; frozen selects
// BestFrozen's.
func bestReference(m *Manager, frozen bool) LinkState {
	eval := evaluateReflectorReference
	if frozen {
		eval = evaluateReflectorFrozenReference
	}
	bestSNR := m.EvaluateDirect()
	choice := PathDirect
	reflIdx := -1
	for i := range m.entries {
		if snr, ok := eval(m, i); ok && snr > bestSNR {
			bestSNR, choice, reflIdx = snr, PathReflector, i
		}
	}
	m.aim(choice, reflIdx)
	return m.stateFor(choice, reflIdx, bestSNR)
}

// reassessReference is Reassess over the reference evaluator.
func reassessReference(m *Manager) LinkState {
	choice, idx := m.lastChoice, m.lastRefl
	var snr float64
	if choice == PathReflector && idx >= 0 && idx < len(m.entries) {
		snr = reflectorSNRAsIsReference(m, idx)
	} else {
		choice = PathDirect
		snr = m.directSNR()
	}
	st := m.stateFor(choice, idx, snr)
	m.lastChoice, m.lastRefl = choice, idx
	return st
}

// TestDriveLevelMemoMatchesReference runs Best, BestFrozen, EvaluateReflector
// and Reassess against the frozen inline drive level on twin managers
// over seeded worlds: 0–3 reflectors, head yaw, a body moved across each
// reflector's AP leg, reflectors re-aligned, the AP's TX power and
// carrier changed mid-run, and the AP's Array swapped mid-run for one of
// a different shape at the same orientation and steering. The reference
// never skips a gain control, so it also pins Best's deferred ones: some
// Best calls are followed directly by BestFrozen, after a TX power
// retune. After every call the LinkState, every beam and every
// gain word must be identical.
func TestDriveLevelMemoMatchesReference(t *testing.T) {
	seen := map[PathChoice]int{}
	swaps, retunes, realigns, crossings := 0, 0, 0, 0
	deferred, stale := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rmA, a := twinWorld(rand.New(rand.NewSource(seed)))
		rmB, b := twinWorld(rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed + 2000))
		pos := randomPoint(rng)
		txBase := a.AP.Budget.TXPowerDBm
		for step := 0; step < 40; step++ {
			pos = geom.V(
				math.Max(0.5, math.Min(4.5, pos.X+0.3*rng.NormFloat64())),
				math.Max(0.5, math.Min(4.5, pos.Y+0.3*rng.NormFloat64())))
			yaw := 360 * rng.Float64()
			for _, m := range []*Manager{a, b} {
				m.Headset.MoveTo(pos)
				m.Headset.SetYaw(yaw)
			}
			switch {
			case len(a.entries) > 0 && rng.Intn(3) == 0:
				// The body steps onto, beside or off reflector i's AP leg.
				dev := a.entries[rng.Intn(len(a.entries))].Dev
				leg := geom.Seg(a.AP.Pos, dev.Pos())
				p := leg.PointAt(0.2 + 0.6*rng.Float64()).Add(leg.Normal().Scale(0.6 * (rng.Float64() - 0.5)))
				rmA.MoveObstacle(1, p)
				rmB.MoveObstacle(1, p)
				crossings++
			case rng.Intn(4) == 0:
				k, p := rng.Intn(2), randomPoint(rng)
				rmA.MoveObstacle(k, p)
				rmB.MoveObstacle(k, p)
			}
			if step == 12 || step == 27 {
				d := 4 * (rng.Float64() - 0.5)
				a.AP.Budget.TXPowerDBm += d
				b.AP.Budget.TXPowerDBm += d
				retunes++
			}
			if step == 20 {
				f := a.AP.Budget.FreqHz * (1 + 0.01*rng.Float64())
				a.AP.Budget.FreqHz, b.AP.Budget.FreqHz = f, f
			}
			if n := len(a.entries); n > 0 && (step == 8 || step == 30) {
				// Re-align one reflector slightly off: its AP beam and RX
				// beam move.
				i := rng.Intn(n)
				e := a.entries[i]
				apBeam, inc := e.APBeamDeg+2*(rng.Float64()-0.5), e.IncidenceDeg+2*(rng.Float64()-0.5)
				for _, m := range []*Manager{a, b} {
					if err := m.SetAlignment(i, apBeam, inc); err != nil {
						t.Fatal(err)
					}
				}
				realigns++
			}
			if step == 17 || step == 33 {
				cfg := a.AP.Array.Config()
				cfg.Elements = 6 + rng.Intn(12)
				for _, m := range []*Manager{a, b} {
					arr, err := antenna.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					_, rel := m.AP.Array.Pointing()
					arr.SteerTo(cfg.OrientationDeg + rel)
					m.AP.Array = arr
				}
				swaps++
			}
			var stA, stB LinkState
			switch rng.Intn(3) {
			case 0:
				if n := len(a.entries); n > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(n)
					a.EvaluateReflector(i)
					evaluateReflectorReference(b, i)
				}
				stA, stB = a.BestFrozen(), bestReference(b, true)
			default:
				stA, stB = a.Best(), bestReference(b, false)
				if rng.Intn(2) == 0 {
					// BestFrozen straight after Best, with no Reflectors
					// read between them and TX power retuned: it must run
					// any gain control Best deferred itself, from the drive
					// level recorded at the skip.
					if stA != stB {
						t.Fatalf("seed %d step %d: Best %v, reference %v", seed, step, stA, stB)
					}
					for k, e := range a.entries {
						if e.pending {
							deferred++
							if e.Dev.Amp().GainWord() != b.entries[k].Dev.Amp().GainWord() {
								stale++
							}
						}
					}
					if rng.Intn(2) == 0 {
						p := txBase + 12*(rng.Float64()-0.5)
						a.AP.Budget.TXPowerDBm, b.AP.Budget.TXPowerDBm = p, p
						retunes++
					}
					stA, stB = a.BestFrozen(), bestReference(b, true)
					// Every reflector's frozen SNR, not only the winner's,
					// must read the deferred word; then restore the aim
					// BestFrozen left.
					for i := range a.entries {
						sa, okA := a.EvaluateReflectorFrozen(i)
						sb, okB := evaluateReflectorFrozenReference(b, i)
						if math.Float64bits(sa) != math.Float64bits(sb) || okA != okB {
							t.Fatalf("seed %d step %d: reflector %d frozen after Best %v/%v, reference %v/%v",
								seed, step, i, sa, okA, sb, okB)
						}
					}
					a.aim(stA.Choice, stA.ReflectorIdx)
					b.aim(stB.Choice, stB.ReflectorIdx)
				}
			}
			seen[stA.Choice]++
			if sa, sb := linkSnapshot(a, stA), linkSnapshot(b, stB); !slices.Equal(sa, sb) {
				t.Fatalf("seed %d step %d: memoized %v, reference %v\n  snapshots %x\n        vs %x",
					seed, step, stA, stB, sa, sb)
			}
			for r := rng.Intn(3); r > 0; r-- {
				if rng.Intn(2) == 0 {
					p := randomPoint(rng)
					rmA.MoveObstacle(1, p)
					rmB.MoveObstacle(1, p)
				}
				ra, rb := a.Reassess(), reassessReference(b)
				if sa, sb := linkSnapshot(a, ra), linkSnapshot(b, rb); !slices.Equal(sa, sb) {
					t.Fatalf("seed %d step %d: Reassess memoized %v, reference %v", seed, step, ra, rb)
				}
			}
		}
	}
	if seen[PathDirect] == 0 || seen[PathReflector] == 0 || swaps == 0 || retunes == 0 || realigns == 0 || crossings < 100 ||
		deferred < 20 || stale < 5 {
		t.Fatalf("coverage: choices %v, %d array swaps, %d TX power changes, %d re-alignments, %d leg crossings, "+
			"%d deferred gain controls read by BestFrozen (%d over a different stale word)",
			seen, swaps, retunes, realigns, crossings, deferred, stale)
	}
}
