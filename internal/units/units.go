// Package units provides the physical units, constants, and dB-domain
// conversions used throughout the MoVR simulator.
//
// All RF computations in the repository follow two conventions:
//
//   - Absolute powers are expressed in dBm (decibels relative to 1 mW).
//   - Relative quantities (gains, losses, SNR) are expressed in dB.
//
// The helpers here convert between the dB domain and the linear domain
// (milliwatts or unitless ratios) and compute the quantities every link
// budget needs: wavelength, free-space path loss, and thermal noise floor.
package units

import "math"

// Physical constants.
const (
	// SpeedOfLight is the speed of light in vacuum, in metres per second.
	SpeedOfLight = 299_792_458.0

	// Boltzmann is the Boltzmann constant in joules per kelvin.
	Boltzmann = 1.380_649e-23

	// StandardNoiseTemperature is the reference temperature (kelvin) used
	// for thermal noise computations, per convention T0 = 290 K.
	StandardNoiseTemperature = 290.0
)

// Frequency helpers, in hertz.
const (
	KHz = 1e3
	MHz = 1e6
	GHz = 1e9
)

// Data-rate helpers, in bits per second.
const (
	Mbps = 1e6
	Gbps = 1e9
)

// Common mmWave carrier frequencies, in hertz.
const (
	// ISM24GHz is the 24 GHz ISM band used by the MoVR prototype.
	ISM24GHz = 24.0 * GHz

	// Band60GHz is the 60 GHz band used by IEEE 802.11ad channel 2.
	Band60GHz = 60.48 * GHz
)

// Channel80211adBandwidth is the occupied bandwidth of a single IEEE
// 802.11ad channel (1.76 GHz), used for noise-floor computations.
const Channel80211adBandwidth = 1.76 * GHz

// DBToLinear converts a relative dB value to a linear power ratio.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear power ratio to dB. Ratios that are zero or
// negative map to -Inf, which the dB domain treats as "no power".
func LinearToDB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// DBmToMilliwatts converts an absolute power in dBm to milliwatts.
func DBmToMilliwatts(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MilliwattsToDBm converts an absolute power in milliwatts to dBm. Zero or
// negative power maps to -Inf dBm.
func MilliwattsToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}

// WattsToDBm converts an absolute power in watts to dBm.
func WattsToDBm(w float64) float64 { return MilliwattsToDBm(w * 1e3) }

// AddPowersDBm sums absolute powers expressed in dBm, returning the total
// in dBm. It is the dB-domain equivalent of adding watts.
func AddPowersDBm(dbm ...float64) float64 {
	total := 0.0
	for _, p := range dbm {
		if !math.IsInf(p, -1) {
			total += DBmToMilliwatts(p)
		}
	}
	return MilliwattsToDBm(total)
}

// Wavelength returns the free-space wavelength in metres for a carrier
// frequency in hertz.
func Wavelength(freqHz float64) float64 { return SpeedOfLight / freqHz }

// FSPL returns the free-space path loss in dB for a path of length
// distanceM metres at carrier frequency freqHz, per the Friis equation:
//
//	FSPL = 20·log10(4π·d / λ)
//
// Distances below one wavelength are clamped to one wavelength so that the
// loss never goes negative (the far-field model does not apply there
// anyway).
func FSPL(distanceM, freqHz float64) float64 {
	lambda := Wavelength(freqHz)
	if distanceM < lambda {
		distanceM = lambda
	}
	return 20 * math.Log10(4*math.Pi*distanceM/lambda)
}

// ThermalNoiseDBm returns the thermal noise floor in dBm for a receiver of
// the given bandwidth (hertz) and noise figure (dB):
//
//	N = 10·log10(k·T0·B / 1 mW) + NF
//
// At T0 = 290 K the density term is the familiar −173.98 dBm/Hz.
func ThermalNoiseDBm(bandwidthHz, noiseFigureDB float64) float64 {
	ktb := Boltzmann * StandardNoiseTemperature * bandwidthHz
	return WattsToDBm(ktb) + noiseFigureDB
}

// DegToRad converts degrees to radians.
func DegToRad(deg float64) float64 { return deg * math.Pi / 180 }

// NormalizeDeg wraps an angle in degrees onto the interval [0, 360).
func NormalizeDeg(deg float64) float64 {
	d := mod360(deg)
	if d < 0 {
		d += 360
	}
	return d
}

// AngleDiffDeg returns the smallest signed difference a−b between two
// angles in degrees, in the interval (−180, 180].
func AngleDiffDeg(a, b float64) float64 {
	d := mod360(a - b)
	switch {
	case d > 180:
		d -= 360
	case d <= -180:
		d += 360
	}
	return d
}

// mod360 is math.Mod(x, 360) without the call for angles already in
// range: math.Mod returns x bit for bit when |x| < 360, −0 included.
// NaN and ±Inf fail the range test and still reach math.Mod.
func mod360(x float64) float64 {
	if -360 < x && x < 360 {
		return x
	}
	return math.Mod(x, 360)
}
