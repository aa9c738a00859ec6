package channel

import (
	"math"

	"github.com/movr-sim/movr/internal/units"
)

// Budget holds the link-budget parameters shared by every SNR computation
// in the simulator.
type Budget struct {
	// FreqHz is the carrier frequency.
	FreqHz float64

	// TXPowerDBm is the transmitter's conducted output power.
	TXPowerDBm float64

	// BandwidthHz is the receiver's noise bandwidth.
	BandwidthHz float64

	// NoiseFigureDB is the receiver's noise figure.
	NoiseFigureDB float64

	// ImplLossDB lumps implementation losses (filter insertion, EVM
	// floor, pointing jitter) that the prototype exhibits but idealized
	// math does not.
	ImplLossDB float64
}

// DefaultBudget returns the link budget calibrated so that the paper's
// testbed geometry reproduces Fig 3's ≈25 dB mean line-of-sight SNR at
// 24 GHz with the default phased arrays.
func DefaultBudget() Budget {
	return Budget{
		FreqHz:        units.ISM24GHz,
		TXPowerDBm:    0,
		BandwidthHz:   units.Channel80211adBandwidth,
		NoiseFigureDB: 7,
		ImplLossDB:    10,
	}
}

// Budget60GHz returns the link budget for a 60 GHz 802.11ad deployment:
// same architecture, quadruple the carrier (so ~8 dB more free-space
// loss at equal distance, typically bought back with larger arrays —
// which is why 60 GHz consumer radios pack 32+ elements).
func Budget60GHz() Budget {
	b := DefaultBudget()
	b.FreqHz = units.Band60GHz
	return b
}

// NoiseFloorDBm returns the receiver noise floor for this budget.
func (b Budget) NoiseFloorDBm() float64 {
	return units.ThermalNoiseDBm(b.BandwidthHz, b.NoiseFigureDB)
}

// RXPowerDBm returns the power received over a single path given the
// realized antenna gains toward that path's departure and arrival angles.
func (b Budget) RXPowerDBm(p Path, txGainDBi, rxGainDBi float64) float64 {
	return b.TXPowerDBm + txGainDBi + rxGainDBi - p.PropagationLossDB(b.FreqHz) - b.ImplLossDB
}

// SNRdB converts a received power into SNR against this budget's noise
// floor.
func (b Budget) SNRdB(rxPowerDBm float64) float64 {
	return rxPowerDBm - b.NoiseFloorDBm()
}

// Gainer exposes a directional gain lookup; both *antenna.Array and test
// doubles satisfy it.
type Gainer interface {
	// GainDBi returns realized gain toward a world-frame angle.
	GainDBi(worldDeg float64) float64
}

// CombinedRXPowerDBm sums (non-coherently) the received power over all
// paths, evaluating the transmit and receive antenna patterns at each
// path's departure and arrival angles. This is what a receiver actually
// measures when beams are steered somewhere: every path contributes
// through whatever sidelobe points at it.
func (b Budget) CombinedRXPowerDBm(paths []Path, tx, rx Gainer) float64 {
	total := math.Inf(-1)
	for _, p := range paths {
		pw := b.RXPowerDBm(p, tx.GainDBi(p.AoDDeg), rx.GainDBi(p.AoADeg))
		total = units.AddPowersDBm(total, pw)
	}
	return total
}

// CombinedSNRdB is CombinedRXPowerDBm converted to SNR.
func (b Budget) CombinedSNRdB(paths []Path, tx, rx Gainer) float64 {
	return b.SNRdB(b.CombinedRXPowerDBm(paths, tx, rx))
}
