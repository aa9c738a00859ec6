// Package relay computes the end-to-end link budget of an
// amplify-and-forward path through a MoVR reflector.
//
// A reflector does not decode: it amplifies whatever arrives at its
// receive array — signal and its own front-end noise — and re-radiates
// both toward the headset. The headset's SNR therefore combines the
// first-hop SNR (at the reflector's amplifier input) and the second-hop
// budget, which is why MoVR can beat a long line-of-sight link when the
// reflector sits closer to the AP than the headset does (paper §5.2), and
// why it can lose a few dB when the headset is right next to the AP.
package relay

import "github.com/movr-sim/movr/internal/units"

// HopBudget describes one hop of the relayed link in received-power
// terms.
type HopBudget struct {
	// SignalDBm is the received signal power at the hop's output
	// reference point.
	SignalDBm float64

	// NoiseDBm is the thermal noise floor added at that point.
	NoiseDBm float64
}

// SNRdB returns the hop's standalone SNR.
func (h HopBudget) SNRdB() float64 { return h.SignalDBm - h.NoiseDBm }

// EndToEnd combines a first hop (AP → reflector amplifier input) with the
// second-hop gain (amplifier + TX array + propagation + headset array)
// and the headset's own noise floor.
//
//   - hop1.SignalDBm / hop1.NoiseDBm: at the reflector amplifier input.
//   - hop2GainDB: total gain from the amplifier input to the headset
//     receiver input (amplifier gain + reflector TX array gain − path
//     loss + headset array gain − implementation loss).
//   - headsetNoiseDBm: thermal floor of the headset receiver.
//
// The forwarded noise is hop1's noise amplified through the same hop2
// gain; the returned SNR accounts for both noise sources.
func EndToEnd(hop1 HopBudget, hop2GainDB, headsetNoiseDBm float64) float64 {
	signalAtHeadset := hop1.SignalDBm + hop2GainDB
	forwardedNoise := hop1.NoiseDBm + hop2GainDB
	totalNoise := units.AddPowersDBm(forwardedNoise, headsetNoiseDBm)
	return signalAtHeadset - totalNoise
}
