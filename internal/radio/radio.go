// Package radio models the full mmWave transceivers in the system: the
// access point ("mmWave AP") wired to the VR PC and the receiver mounted
// on the headset. Unlike the MoVR reflector, these are complete radios
// with transmit and receive chains.
//
// The AP additionally models the transmit-to-receive self-interference
// that matters during reflector alignment: "the transmitted signal leaks
// from the AP's transmit antenna to its receive antenna" (§4.1). The
// backscatter protocol in package align separates the reflected signal
// from this leakage in the frequency domain.
package radio

import (
	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/units"
)

// Radio is a positioned mmWave transceiver with a steerable phased array.
type Radio struct {
	// Name identifies the radio in logs and reports.
	Name string

	// Pos is the radio's location in the floor plan.
	Pos geom.Vec

	// HeightM is the antenna height above the floor (used by the 2.5-D
	// blockage model).
	HeightM float64

	// Array is the steerable antenna.
	Array *antenna.Array

	// Budget carries TX power and receiver noise parameters.
	Budget channel.Budget
}

// New returns a Radio at pos using the given array and link budget, at
// the default endpoint height.
func New(name string, pos geom.Vec, arr *antenna.Array, budget channel.Budget) *Radio {
	return &Radio{Name: name, Pos: pos, HeightM: channel.DefaultEndpointHeightM, Array: arr, Budget: budget}
}

// SteerToward points the radio's beam at the target position and returns
// the applied world angle.
func (r *Radio) SteerToward(target geom.Vec) float64 {
	return r.Array.SteerTo(geom.DirectionDeg(r.Pos, target))
}

// SteerTo points the radio's beam at a world angle and returns the
// applied (possibly clamped) angle.
func (r *Radio) SteerTo(deg float64) float64 { return r.Array.SteerTo(deg) }

// GainDBi returns the array's realized gain toward a world angle.
func (r *Radio) GainDBi(deg float64) float64 { return r.Array.GainDBi(deg) }

// LinkSNRdB computes the data-plane SNR from tx to rx over all traced
// paths, with both arrays at their current steering. This is the quantity
// the headset's receiver reports.
//
// LinkSNRdB allocates a fresh path slice per call; steady-state loops
// (the link manager's tracking step) should hold a scratch buffer and
// call LinkSNRdBBuf.
func LinkSNRdB(tr *channel.Tracer, tx, rx *Radio) float64 {
	snr, _ := LinkSNRdBBuf(tr, tx, rx, nil)
	return snr
}

// LinkSNRdBBuf is LinkSNRdB with a caller-retained scratch buffer: paths
// are traced into buf's storage (channel.Tracer.TraceHInto semantics),
// and the possibly-grown buffer is returned for the next call. Once the
// buffer has warmed up the computation is allocation-free.
func LinkSNRdBBuf(tr *channel.Tracer, tx, rx *Radio, buf []channel.Path) (float64, []channel.Path) {
	buf = tr.TraceHInto(buf[:0], tx.Pos, rx.Pos, tx.HeightM, rx.HeightM)
	return tx.Budget.CombinedSNRdB(buf, tx.Array, rx.Array), buf
}

// LinkSNRAligned steers both radios at each other along the direct path
// and returns the resulting SNR — the paper's LOS measurement.
func LinkSNRAligned(tr *channel.Tracer, tx, rx *Radio) float64 {
	tx.SteerToward(rx.Pos)
	rx.SteerToward(tx.Pos)
	return LinkSNRdB(tr, tx, rx)
}

// AP is the mmWave access point connected to the VR PC. It can transmit
// and receive simultaneously during reflector alignment, subject to
// finite TX→RX isolation.
type AP struct {
	Radio

	// SelfIsolationDB is the TX-to-RX antenna isolation: the leakage
	// tone arrives at the measurement receiver at
	// TXPower − SelfIsolationDB.
	SelfIsolationDB float64

	// MeasBandwidthHz is the bandwidth of the narrowband measurement
	// receiver used during alignment (far narrower than the data
	// channel, so weak backscatter sidebands stay above its noise
	// floor).
	MeasBandwidthHz float64

	// MeasNoiseFigureDB is the measurement receiver's noise figure.
	MeasNoiseFigureDB float64
}

// DefaultSelfIsolationDB is a typical same-board TX/RX antenna isolation.
const DefaultSelfIsolationDB = 35

// DefaultMeasBandwidthHz is the alignment receiver bandwidth (1 MHz).
const DefaultMeasBandwidthHz = 1 * units.MHz

// NewAP returns an AP at pos (tripod height) with the default
// self-interference and measurement-receiver parameters.
func NewAP(pos geom.Vec, arr *antenna.Array, budget channel.Budget) *AP {
	return &AP{
		Radio:             Radio{Name: "ap", Pos: pos, HeightM: channel.HeightAPM, Array: arr, Budget: budget},
		SelfIsolationDB:   DefaultSelfIsolationDB,
		MeasBandwidthHz:   DefaultMeasBandwidthHz,
		MeasNoiseFigureDB: 7,
	}
}

// LeakagePowerDBm returns the power of the AP's own transmit signal as
// seen by its measurement receiver.
func (a *AP) LeakagePowerDBm() float64 {
	return a.Budget.TXPowerDBm - a.SelfIsolationDB
}

// MeasNoiseFloorDBm returns the measurement receiver's noise floor.
func (a *AP) MeasNoiseFloorDBm() float64 {
	return units.ThermalNoiseDBm(a.MeasBandwidthHz, a.MeasNoiseFigureDB)
}

// Headset is the mmWave receiver mounted on the VR headset. Its array
// orientation follows the wearer's head yaw.
type Headset struct {
	Radio

	// YawDeg is the wearer's head yaw; the array boresight tracks it.
	YawDeg float64
}

// NewHeadset returns a headset radio at pos facing yawDeg, at standing
// head height.
func NewHeadset(pos geom.Vec, arr *antenna.Array, budget channel.Budget) *Headset {
	h := &Headset{Radio: Radio{Name: "headset", Pos: pos, HeightM: channel.HeightHeadsetM, Array: arr, Budget: budget}}
	h.SetYaw(arr.OrientationDeg())
	return h
}

// SetYaw rotates the wearer's head (and therefore the array boresight).
func (h *Headset) SetYaw(deg float64) {
	h.YawDeg = units.NormalizeDeg(deg)
	h.Array.SetOrientation(h.YawDeg)
}

// MoveTo repositions the headset.
func (h *Headset) MoveTo(p geom.Vec) { h.Pos = p }
