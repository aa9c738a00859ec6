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
)

// OptNLOSResult is the outcome of the exhaustive two-sided beam sweep.
type OptNLOSResult struct {
	// SNRdB is the best non-line-of-sight SNR found.
	SNRdB float64

	// TXBeamDeg and RXBeamDeg are the winning beam directions.
	TXBeamDeg, RXBeamDeg float64

	// Combos is the number of beam combinations evaluated.
	Combos int
}

// OptNLOS sweeps both beams over the full circle at stepDeg and returns
// the best SNR obtainable from wall reflections alone, excluding the
// direct path entirely ("We try every combination of beam angle for both
// transmitter and receiver antennas... We ignore the direction of the
// line-of-sight and note maximum SNR across all non-line-of-sight
// paths", §3). Like the paper's measurement rig, the sweep physically
// rotates the radios, so every direction is reachable at full array
// gain. Both radios are restored to their pre-sweep orientation and
// steering before returning; apply the winning beams from the result if
// you want to operate there.
func OptNLOS(tr *channel.Tracer, tx, rx *radio.Radio, stepDeg float64) OptNLOSResult {
	res, _ := OptNLOSBuf(tr, tx, rx, stepDeg, nil)
	return res
}

// OptNLOSBuf is OptNLOS with a caller-retained tracer scratch buffer
// (channel.Tracer.TraceHInto semantics): the trace writes into scratch's
// storage and the possibly-grown buffer is returned for reuse, so a
// caller sweeping many placements allocates nothing per call. The sweep
// itself evaluates the traced paths in place — reflected paths are
// skipped by kind rather than copied into a filtered slice — which is
// both the allocation saving and bit-identical to the historical
// filter-then-combine arithmetic.
func OptNLOSBuf(tr *channel.Tracer, tx, rx *radio.Radio, stepDeg float64, scratch []channel.Path) (OptNLOSResult, []channel.Path) {
	txOrient, txSteer := tx.Array.OrientationDeg(), tx.Array.SteeringDeg()
	rxOrient, rxSteer := rx.Array.OrientationDeg(), rx.Array.SteeringDeg()
	defer func() {
		tx.Array.SetOrientation(txOrient)
		tx.SteerTo(txSteer)
		rx.Array.SetOrientation(rxOrient)
		rx.SteerTo(rxSteer)
	}()
	scratch = tr.TraceHInto(scratch[:0], tx.Pos, rx.Pos, tx.HeightM, rx.HeightM)
	reflected := 0
	for _, p := range scratch {
		if p.Kind == channel.Reflected {
			reflected++
		}
	}
	res := OptNLOSResult{SNRdB: math.Inf(-1)}
	if reflected == 0 {
		return res, scratch
	}
	if stepDeg <= 0 {
		stepDeg = 1
	}
	for txBeam := 0.0; txBeam < 360; txBeam += stepDeg {
		tx.Array.SetOrientation(txBeam)
		tx.SteerTo(txBeam)
		for rxBeam := 0.0; rxBeam < 360; rxBeam += stepDeg {
			rx.Array.SetOrientation(rxBeam)
			rx.SteerTo(rxBeam)
			res.Combos++
			snr := tx.Budget.CombinedSNRdBOfKind(scratch, channel.Reflected, tx.Array, rx.Array)
			if snr > res.SNRdB {
				res.SNRdB = snr
				res.TXBeamDeg = txBeam
				res.RXBeamDeg = rxBeam
			}
		}
	}
	return res, scratch
}

// StaticWHDI models a wireless-HDMI link: beams are aligned once, at
// setup, toward the initial positions, and never move again.
type StaticWHDI struct {
	txBeamDeg, rxBeamDeg float64
	configured           bool
}

// Setup aligns the link for the current geometry and freezes it.
func (s *StaticWHDI) Setup(tx, rx *radio.Radio) {
	s.txBeamDeg = tx.SteerToward(rx.Pos)
	s.rxBeamDeg = rx.SteerToward(tx.Pos)
	s.configured = true
}

// Evaluate returns the link SNR with the frozen beams applied, for
// whatever the geometry is now. It returns −Inf before Setup.
func (s *StaticWHDI) Evaluate(tr *channel.Tracer, tx, rx *radio.Radio) float64 {
	if !s.configured {
		return math.Inf(-1)
	}
	tx.SteerTo(s.txBeamDeg)
	rx.SteerTo(s.rxBeamDeg)
	return radio.LinkSNRdB(tr, tx, rx)
}

// MultiAP is the brute-force alternative: several full mmWave APs spread
// around the room, each needing its own HDMI cable run to the PC.
type MultiAP struct {
	APs []*radio.AP
}

// Best returns the best aligned LOS SNR across the deployment for a
// headset at hs, along with the winning AP index.
func (m MultiAP) Best(tr *channel.Tracer, hs *radio.Headset) (snrDB float64, apIdx int) {
	best, idx := math.Inf(-1), -1
	for i, ap := range m.APs {
		ap.SteerToward(hs.Pos)
		hs.SteerToward(ap.Pos)
		snr := radio.LinkSNRdB(tr, &ap.Radio, &hs.Radio)
		if snr > best {
			best, idx = snr, i
		}
	}
	return best, idx
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
