// Package antenna models the electronically-steerable phased arrays used
// by the MoVR AP, headset receiver, and reflector.
//
// The model is a uniform linear array (ULA) of patch elements with analog
// phase shifters, matching the paper's prototype (§4: "Each antenna in
// MoVR is a phased-array... packing multiple antenna elements into an
// array, and controlling the phase of each element using an analog
// component called a phase shifter"). The array factor is computed from
// first principles, including phase-shifter quantization, so beamwidth,
// sidelobes, scan loss, and pointing error all emerge from the physics
// rather than being table lookups.
//
// Angles are world-frame degrees (counter-clockwise from +X), consistent
// with package geom. Each array has a boresight orientation; steering is
// clamped to ±MaxScanDeg of boresight, as real phased arrays cannot steer
// to endfire.
package antenna

import (
	"fmt"
	"math"

	"github.com/movr-sim/movr/internal/units"
)

// Default modelling constants.
const (
	// DefaultElements gives the ≈10° half-power beamwidth the paper
	// reports for its arrays (§5.1: "the beam-width of our phased array
	// is ∼10 degrees").
	DefaultElements = 10

	// DefaultSpacingWavelengths is the classic half-wavelength element
	// pitch.
	DefaultSpacingWavelengths = 0.5

	// DefaultPhaseShifterBits models the effective resolution of the
	// analog phase shifters plus their control DAC.
	DefaultPhaseShifterBits = 8

	// DefaultElementGainDBi is the gain of one patch element.
	DefaultElementGainDBi = 5.0

	// DefaultBacklobeDB is the front-to-back suppression of the array.
	DefaultBacklobeDB = 30.0

	// MaxScanDeg bounds electronic steering away from endfire.
	MaxScanDeg = 75.0

	// patternFloorDB limits how deep pattern nulls can go relative to
	// the peak; hardware never exhibits mathematically perfect nulls.
	patternFloorDB = 45.0
)

// Config describes a phased array.
type Config struct {
	// Elements is the number of radiating elements (≥ 1).
	Elements int

	// SpacingWavelengths is the element pitch in wavelengths (> 0).
	SpacingWavelengths float64

	// PhaseShifterBits is the per-element phase quantization (≥ 1).
	PhaseShifterBits int

	// ElementGainDBi is the gain of a single element.
	ElementGainDBi float64

	// BacklobeDB is front-to-back suppression relative to peak gain.
	BacklobeDB float64

	// OrientationDeg is the boresight direction in world-frame degrees.
	OrientationDeg float64
}

// DefaultConfig returns the paper-calibrated array configuration with the
// given boresight orientation.
func DefaultConfig(orientationDeg float64) Config {
	return Config{
		Elements:           DefaultElements,
		SpacingWavelengths: DefaultSpacingWavelengths,
		PhaseShifterBits:   DefaultPhaseShifterBits,
		ElementGainDBi:     DefaultElementGainDBi,
		BacklobeDB:         DefaultBacklobeDB,
		OrientationDeg:     orientationDeg,
	}
}

// Array is a steerable uniform linear phased array.
type Array struct {
	cfg         Config
	steeringRel float64 // steering angle relative to boresight, degrees
	peakDBi     float64 // PeakGainDBi, fixed by the config at New
}

// New validates cfg and returns a new Array steered to boresight.
func New(cfg Config) (*Array, error) {
	if cfg.Elements < 1 {
		return nil, fmt.Errorf("antenna: Elements = %d, need ≥ 1", cfg.Elements)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SpacingWavelengths", cfg.SpacingWavelengths},
		{"ElementGainDBi", cfg.ElementGainDBi},
		{"BacklobeDB", cfg.BacklobeDB},
		{"OrientationDeg", cfg.OrientationDeg},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, &NonFiniteError{Field: f.name, Value: f.v}
		}
	}
	if cfg.SpacingWavelengths <= 0 {
		return nil, fmt.Errorf("antenna: SpacingWavelengths = %v, need > 0", cfg.SpacingWavelengths)
	}
	if cfg.PhaseShifterBits < 1 {
		return nil, fmt.Errorf("antenna: PhaseShifterBits = %d, need ≥ 1", cfg.PhaseShifterBits)
	}
	if cfg.BacklobeDB <= 0 {
		cfg.BacklobeDB = DefaultBacklobeDB
	}
	return &Array{
		cfg:     cfg,
		peakDBi: cfg.ElementGainDBi + 10*math.Log10(float64(cfg.Elements)),
	}, nil
}

// NonFiniteError reports a Config field that is NaN or ±Inf, which
// would make every gain the array reports non-finite.
type NonFiniteError struct {
	Field string
	Value float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("antenna: %s = %v, need a finite value", e.Field, e.Value)
}

// Default returns an Array with DefaultConfig(orientationDeg). It panics
// only if the default configuration is invalid, which would be a
// programming error.
func Default(orientationDeg float64) *Array {
	a, err := New(DefaultConfig(orientationDeg))
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// OrientationDeg returns the boresight direction in world degrees.
func (a *Array) OrientationDeg() float64 { return a.cfg.OrientationDeg }

// SetOrientation re-mounts the array with a new boresight direction,
// preserving the relative steering angle.
func (a *Array) SetOrientation(deg float64) { a.cfg.OrientationDeg = deg }

// SteerTo electronically steers the main beam toward the given world
// angle. Steering is clamped to ±MaxScanDeg from boresight; the applied
// (possibly clamped) world angle is returned. Steering is instantaneous,
// matching the paper's sub-microsecond analog beam switching.
func (a *Array) SteerTo(worldDeg float64) float64 {
	rel := units.AngleDiffDeg(worldDeg, a.cfg.OrientationDeg)
	rel = math.Max(-MaxScanDeg, math.Min(MaxScanDeg, rel))
	a.steeringRel = rel
	return units.NormalizeDeg(a.cfg.OrientationDeg + rel)
}

// SteeringDeg returns the current main-beam direction in world degrees.
func (a *Array) SteeringDeg() float64 {
	return units.NormalizeDeg(a.cfg.OrientationDeg + a.steeringRel)
}

// Pointing returns the two values the array's gain pattern moves with:
// the boresight orientation and the steering angle relative to it, both
// in degrees. Everything else about an Array is fixed at New, so one
// Array reporting the same pair gives the same GainDBi at every angle.
func (a *Array) Pointing() (orientationDeg, steeringRelDeg float64) {
	return a.cfg.OrientationDeg, a.steeringRel
}

// PeakGainDBi returns the array's broadside peak gain: element gain plus
// the 10·log10(N) array factor gain. GainDBi exceeds it only by the
// rounding of the computed |AF| above 1, a relative error of order
// N·2⁻⁵² from summing N unit phasors.
func (a *Array) PeakGainDBi() float64 { return a.peakDBi }

// GainDBi returns the realized gain toward the given world-frame angle
// with the current steering, including element pattern, quantized array
// factor, sidelobes, and backlobe.
func (a *Array) GainDBi(worldDeg float64) float64 {
	rel := units.AngleDiffDeg(worldDeg, a.cfg.OrientationDeg)
	peak := a.PeakGainDBi()
	if math.Abs(rel) > 90 {
		return peak - a.cfg.BacklobeDB
	}
	af := a.arrayFactor(rel)
	// Element power pattern: cos²(θ), floored so it never out-dives the
	// backlobe model.
	cosT := math.Cos(units.DegToRad(rel))
	elemDB := 20 * math.Log10(math.Max(cosT, 1e-6))
	elemDB = math.Max(elemDB, -a.cfg.BacklobeDB)
	afDB := 20 * math.Log10(math.Max(af, 1e-9))
	g := peak + afDB + elemDB
	// Hardware null floor.
	if g < peak-patternFloorDB {
		g = peak - patternFloorDB
	}
	return g
}

// arrayFactor returns the normalized |AF| in [0, 1] toward the relative
// angle relDeg, using the quantized per-element phases for the current
// steering angle.
func (a *Array) arrayFactor(relDeg float64) float64 {
	n := a.cfg.Elements
	if n == 1 {
		return 1
	}
	d := a.cfg.SpacingWavelengths
	u := math.Sin(units.DegToRad(relDeg))
	us := math.Sin(units.DegToRad(a.steeringRel))
	quant := 2 * math.Pi / float64(int(1)<<a.cfg.PhaseShifterBits)
	var re, im float64
	for i := 0; i < n; i++ {
		// Ideal steering phase, then quantized by the phase shifter.
		phi := -2 * math.Pi * d * float64(i) * us
		phi = math.Round(phi/quant) * quant
		ph := 2*math.Pi*d*float64(i)*u + phi
		sin, cos := math.Sincos(ph)
		re += cos
		im += sin
	}
	return math.Hypot(re, im) / float64(n)
}

// BeamwidthDeg returns the half-power (−3 dB) beamwidth of the main lobe
// at the current steering angle, measured numerically.
func (a *Array) BeamwidthDeg() float64 {
	centre := a.SteeringDeg()
	g0 := a.GainDBi(centre)
	const step = 0.02
	var up, down float64
	for off := step; off <= 90; off += step {
		if a.GainDBi(centre+off) < g0-3 {
			up = off
			break
		}
	}
	for off := step; off <= 90; off += step {
		if a.GainDBi(centre-off) < g0-3 {
			down = off
			break
		}
	}
	if up == 0 {
		up = 90
	}
	if down == 0 {
		down = 90
	}
	return up + down
}

// Codebook returns the world-frame steering angles of a uniform beam
// codebook with the given angular step, covering the array's full scan
// range. A non-positive step yields a single boresight entry.
func (a *Array) Codebook(stepDeg float64) []float64 {
	if stepDeg <= 0 {
		return []float64{units.NormalizeDeg(a.cfg.OrientationDeg)}
	}
	var angles []float64
	for rel := -MaxScanDeg; rel <= MaxScanDeg+1e-9; rel += stepDeg {
		angles = append(angles, units.NormalizeDeg(a.cfg.OrientationDeg+rel))
	}
	return angles
}
