// Package baseline implements the alternatives MoVR is compared against:
//
//   - Opt-NLOS: the paper's §3/§5.2 baseline — ignore the (blocked)
//     line-of-sight and exhaustively sweep both beams over every
//     combination, keeping the best wall-reflection SNR.
//   - Static WHDI: wireless-HDMI products "assume static links and
//     require line-of-sight... they cannot adapt their direction and will
//     be disconnected if the player moves" (§2).
//   - Multi-AP: several full mmWave APs for LOS diversity, "defeats the
//     purpose... requires enormous cabling complexity" (§1).
package baseline

import (
	"math"

	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/units"
)

// OptNLOSResult is the outcome of the exhaustive two-sided beam sweep.
type OptNLOSResult struct {
	// SNRdB is the best non-line-of-sight SNR found.
	SNRdB float64

	// TXBeamDeg and RXBeamDeg are the winning beam directions.
	TXBeamDeg, RXBeamDeg float64

	// Combos is the number of beam combinations swept, counting those
	// the sweep's ceiling ruled out without combining their paths.
	Combos int
}

// OptNLOS sweeps both beams over the full circle at stepDeg and returns
// the best SNR obtainable from wall reflections alone, excluding the
// direct path entirely ("We try every combination of beam angle for both
// transmitter and receiver antennas... We ignore the direction of the
// line-of-sight and note maximum SNR across all non-line-of-sight
// paths", §3). Like the paper's measurement rig, the sweep physically
// rotates the radios, so every direction is reachable at full array
// gain. The rotation happens on copies of the two arrays: both radios
// keep their orientation and steering bit for bit. Apply the winning
// beams from the result if you want to operate there.
func OptNLOS(tr *channel.Tracer, tx, rx *radio.Radio, stepDeg float64) OptNLOSResult {
	return OptNLOSBuf(tr, tx, rx, stepDeg, nil)
}

// Scratch is OptNLOSBuf's caller-retained working storage: a trace
// buffer and one slab holding the sweep's beam angles and its gain and
// loss tables. The zero value is ready to use.
type Scratch struct {
	// Paths is the sweep's trace buffer (channel.Tracer.TraceHInto
	// semantics). Between sweeps a caller may lend it to its own traces,
	// so that one buffer serves every read of a placement.
	Paths []channel.Path

	slab []float64
}

// OptNLOSBuf is OptNLOS with caller-retained working storage, so a
// caller sweeping many placements with one Scratch allocates nothing
// per call once it has grown to the largest sweep. A nil s allocates a
// fresh one.
//
// Each array pattern depends only on its own beam, and each path loss
// on neither, so the sweep evaluates them once instead of once per beam
// pair: every reflected path's PropagationLossDB, one table of RX gains
// (per RX beam, orientation = steering = beam, read toward each path's
// AoA) and one row of TX gains per TX beam. GainDBi is a pure function
// of orientation, steering and angle (antenna.Array.Pointing), and each
// path power keeps Budget.RXPowerDBm's order of operations,
// ((TXPowerDBm + gT) + gR) − loss − ImplLossDB, folded through the same
// units.AddPowersDBm chain, so every SNR is bit-identical to evaluating
// Budget.CombinedSNRdB over the reflected paths at each pair. A pair
// whose chain cannot beat the best SNR so far skips it (see sweep);
// Combos still counts every pair of the sweep.
func OptNLOSBuf(tr *channel.Tracer, tx, rx *radio.Radio, stepDeg float64, s *Scratch) OptNLOSResult {
	res, _ := sweep(tr, tx, rx, stepDeg, s)
	return res
}

// Ceiling certification bounds, see sweep.
const (
	// ceilingSlackDB is the margin by which a pair's ceiling must clear
	// the best SNR so far.
	ceilingSlackDB = 1e-6
	// ceilingRangeDB bounds every input of a certified ceiling.
	ceilingRangeDB = 1e3
	// ceilingMaxPaths bounds the number of reflected paths.
	ceilingMaxPaths = 1 << 10
)

// inCeilingRange reports whether x lies within ±ceilingRangeDB (NaN
// does not).
func inCeilingRange(x float64) bool { return -ceilingRangeDB <= x && x <= ceilingRangeDB }

// sweep is OptNLOSBuf that also returns how many beam pairs ran the
// power-combining chain.
//
// A pair skips its chain when its ceiling,
//
//	max_j pw_j + 10·log10(P) + ceilingSlackDB − noise floor,
//
// is at or below the best SNR so far, where pw_j are the pair's P path
// powers. The skip is certified only when P ≤ ceilingMaxPaths and every
// pw_j, the noise floor and the best SNR lie within ±ceilingRangeDB;
// NaN or an infinity never skips. Each step holds in float64:
//
//   - The exact sum of P powers is at most P times the largest, so in dB
//     the exact total is at most max_j pw_j + 10·log10(P).
//   - With every pw_j within ±ceilingRangeDB, each partial total lies
//     within about ±1030 dB, so no Pow in AddPowersDBm overflows or
//     underflows. One AddPowersDBm step then errs by under 1e-12 dB
//     (the Pow argument's rounding, the Pow, the add and the Log10, each
//     a few ulps), and an earlier step's error carries through with a
//     factor of at most 1. The chain's total is therefore within 1e-9 dB
//     of the exact one for P ≤ ceilingMaxPaths, and the subtractions of
//     the noise floor add rounding of order 1e-13 dB.
//
// So a skipped pair's computed SNR is below its ceiling minus
// ceilingSlackDB plus 1e-9 dB, strictly below the best SNR so far. The
// sweep keeps a pair only on a strictly higher SNR (the first of equal
// pairs wins), so a skipped pair could never have been kept: the
// winner, its beams and the best SNR at every later pair are unchanged.
// FuzzOptNLOS holds the sweep to the per-pair evaluation.
func sweep(tr *channel.Tracer, tx, rx *radio.Radio, stepDeg float64, s *Scratch) (OptNLOSResult, int) {
	if s == nil {
		s = new(Scratch)
	}
	s.Paths = tr.TraceHInto(s.Paths[:0], tx.Pos, rx.Pos, tx.HeightM, rx.HeightM)
	n := 0
	for _, p := range s.Paths {
		if p.Kind == channel.Reflected {
			n++
		}
	}
	res := OptNLOSResult{SNRdB: math.Inf(-1)}
	if n == 0 {
		return res, 0
	}
	if stepDeg <= 0 {
		stepDeg = 1
	}
	// Both beams take the angles 0, step, 2·step, … below 360, each the
	// float64 sum of the one before and the step.
	nBeams := 0
	for beam := 0.0; beam < 360; beam += stepDeg {
		nBeams++
	}
	need := nBeams + (5+nBeams)*n
	if cap(s.slab) < need {
		s.slab = make([]float64, need)
	}
	beams, slab := s.slab[:nBeams], s.slab[nBeams:need]
	loss, aod, aoa, txPw, pw := slab[:n], slab[n:2*n], slab[2*n:3*n], slab[3*n:4*n], slab[4*n:5*n]
	rxGain := slab[5*n:]
	for k, beam := 0, 0.0; k < nBeams; k, beam = k+1, beam+stepDeg {
		beams[k] = beam
	}

	b := tx.Budget
	j := 0
	for _, p := range s.Paths {
		if p.Kind == channel.Reflected {
			loss[j], aod[j], aoa[j] = p.PropagationLossDB(b.FreqHz), p.AoDDeg, p.AoADeg
			j++
		}
	}
	txA, rxA := *tx.Array, *rx.Array
	for k, beam := range beams {
		rxA.SetOrientation(beam)
		rxA.SteerTo(beam)
		for j, a := range aoa {
			rxGain[k*n+j] = rxA.GainDBi(a)
		}
	}

	noise := b.NoiseFloorDBm()
	certified := n <= ceilingMaxPaths && inCeilingRange(noise)
	lift := 10*math.Log10(float64(n)) + ceilingSlackDB - noise
	chains := 0
	for _, txBeam := range beams {
		txA.SetOrientation(txBeam)
		txA.SteerTo(txBeam)
		for j, a := range aod {
			txPw[j] = b.TXPowerDBm + txA.GainDBi(a)
		}
		for k, rxBeam := range beams {
			res.Combos++
			gR := rxGain[k*n : (k+1)*n]
			top, skippable := math.Inf(-1), certified && inCeilingRange(res.SNRdB)
			for j := range pw {
				pw[j] = txPw[j] + gR[j] - loss[j] - b.ImplLossDB
				skippable = skippable && inCeilingRange(pw[j])
				top = max(top, pw[j])
			}
			if skippable && top+lift <= res.SNRdB {
				continue
			}
			chains++
			total := math.Inf(-1)
			for _, p := range pw {
				total = units.AddPowersDBm(total, p)
			}
			if snr := total - noise; snr > res.SNRdB {
				res.SNRdB = snr
				res.TXBeamDeg = txBeam
				res.RXBeamDeg = rxBeam
			}
		}
	}
	return res, chains
}

// MultiAP is the brute-force alternative: several full mmWave APs spread
// around the room, each needing its own HDMI cable run to the PC.
type MultiAP struct {
	APs []*radio.AP
}

// CablingM estimates the HDMI cabling the deployment needs: wall-route
// (L1) distance from each AP to the PC — the "enormous cabling
// complexity" cost (§1).
func (m MultiAP) CablingM(pcPos geom.Vec) float64 {
	total := 0.0
	for _, ap := range m.APs {
		d := ap.Pos.Sub(pcPos)
		total += math.Abs(d.X) + math.Abs(d.Y)
	}
	return total
}
