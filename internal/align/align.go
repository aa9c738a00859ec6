// Package align implements MoVR's backscatter beam-alignment protocol
// (paper §4.1): finding the reflector's angle of incidence toward the AP
// even though the reflector can neither transmit nor receive.
//
// The AP transmits a tone at f1 while the reflector sets both beams to a
// candidate angle θ1 and on/off-modulates its amplifier at f2. Whatever
// the reflector captures is amplified and re-radiated back toward the AP,
// where it arrives OOK-modulated — its energy sits at f1±f2 — while the
// AP's own TX→RX leakage stays at f1. A narrowband FFT at the AP
// separates the two, and the (θ1, θ2) pair that maximizes the f2 sideband
// power is the best alignment. The measurement here is performed on
// actual synthesized complex baseband samples, not a formula: leakage
// tone at DC, square-wave-modulated reflection, thermal noise, FFT,
// sideband integration.
package align

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/movr-sim/movr/internal/channel"
	"github.com/movr-sim/movr/internal/control"
	"github.com/movr-sim/movr/internal/dsp"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/radio"
	"github.com/movr-sim/movr/internal/reflector"
	"github.com/movr-sim/movr/internal/units"
)

// Config tunes the alignment measurement and sweep.
type Config struct {
	// ModFreqHz is f2, the OOK modulation frequency.
	ModFreqHz float64

	// SampleRateHz is the AP measurement receiver's complex sample
	// rate.
	SampleRateHz float64

	// Samples is the FFT size per measurement (power of two).
	Samples int

	// APStepDeg and ReflStepDeg are the sweep granularities.
	APStepDeg, ReflStepDeg float64

	// CoarseStepDeg is the first-pass granularity of the hierarchical
	// sweep.
	CoarseStepDeg float64

	// AlignGainDB is the safe amplifier gain programmed for the sweep
	// (low enough that no beam combination saturates the loop).
	AlignGainDB float64

	// Seed drives the measurement noise.
	Seed int64
}

// DefaultConfig returns the calibrated protocol parameters: f2 = 100 kHz
// sampled at 1.6 MHz with 256-point FFTs (f2 sits exactly on bin 16),
// 1° sweeps refined from a 7° coarse pass.
func DefaultConfig() Config {
	return Config{
		ModFreqHz:     100 * units.KHz,
		SampleRateHz:  1.6 * units.MHz,
		Samples:       256,
		APStepDeg:     1,
		ReflStepDeg:   1,
		CoarseStepDeg: 7,
		AlignGainDB:   20,
		Seed:          1,
	}
}

// Sweeper runs the alignment protocol between one AP and one reflector.
type Sweeper struct {
	AP     *radio.AP
	Dev    *reflector.Reflector
	Link   *control.Link
	Tracer *channel.Tracer

	cfg Config
	rng *rand.Rand

	// pathBuf is the tracer scratch reused by every measurement.
	pathBuf []channel.Path
}

// NewSweeper validates the configuration and builds a Sweeper.
func NewSweeper(ap *radio.AP, dev *reflector.Reflector, link *control.Link, tr *channel.Tracer, cfg Config) (*Sweeper, error) {
	if !dsp.IsPow2(cfg.Samples) {
		return nil, fmt.Errorf("align: Samples %d must be a power of two", cfg.Samples)
	}
	if cfg.ModFreqHz <= 0 || cfg.SampleRateHz <= 0 {
		return nil, fmt.Errorf("align: modulation %v Hz / sample rate %v Hz must be positive", cfg.ModFreqHz, cfg.SampleRateHz)
	}
	if cfg.ModFreqHz >= cfg.SampleRateHz/2 {
		return nil, fmt.Errorf("align: modulation %v Hz exceeds Nyquist for %v Hz sampling", cfg.ModFreqHz, cfg.SampleRateHz)
	}
	if cfg.APStepDeg <= 0 || cfg.ReflStepDeg <= 0 || cfg.CoarseStepDeg <= 0 {
		return nil, fmt.Errorf("align: sweep steps must be positive")
	}
	return &Sweeper{AP: ap, Dev: dev, Link: link, Tracer: tr, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// reflectedPowerDBm computes the power of the reflector-returned tone at
// the AP's measurement receiver for the current beam settings, tracing
// the direct AP↔reflector leg (blockage included) at the devices'
// mounting heights and charging it both ways.
func (s *Sweeper) reflectedPowerDBm() float64 {
	s.pathBuf = s.Tracer.DirectHInto(s.pathBuf[:0], s.AP.Pos, s.Dev.Pos(), s.AP.HeightM, s.Dev.HeightM())
	p := s.pathBuf[0]
	loss := p.PropagationLossDB(s.AP.Budget.FreqHz)
	inbound := s.AP.Budget.TXPowerDBm + s.AP.GainDBi(p.AoDDeg) - loss + s.Dev.RXGainDBi(p.AoADeg)
	out := s.Dev.OutputPowerDBm(inbound)
	if math.IsInf(out, -1) {
		return math.Inf(-1)
	}
	return out + s.Dev.TXGainDBi(p.AoADeg) - loss + s.AP.GainDBi(p.AoDDeg)
}

// MeasureSidebandPower performs one protocol measurement: command the
// reflector to θ1 (both beams) with modulation on, steer the AP to θ2,
// synthesize the AP's baseband capture, and integrate the power at ±f2.
// It returns the sideband power in dBm.
func (s *Sweeper) MeasureSidebandPower(apBeamDeg, reflBeamDeg float64) (float64, error) {
	if _, err := s.Link.Call(control.Message{
		Type:  control.MsgSetBothBeams,
		Value: control.AngleToWire(reflBeamDeg),
	}); err != nil {
		return 0, err
	}
	s.AP.SteerTo(apBeamDeg)
	return s.measureCurrentSetting()
}

// measureCurrentSetting synthesizes and analyzes one capture with the
// beams as they are.
func (s *Sweeper) measureCurrentSetting() (float64, error) {
	n := s.cfg.Samples
	fNorm := s.cfg.ModFreqHz / s.cfg.SampleRateHz
	// Leakage tone at DC (the AP hears its own transmission).
	leakAmp := math.Sqrt(units.DBmToMilliwatts(s.AP.LeakagePowerDBm()))
	x := dsp.Tone(n, 0, leakAmp, 0)
	// Reflected tone, OOK-modulated by the reflector's amplifier.
	reflPow := s.reflectedPowerDBm()
	if !math.IsInf(reflPow, -1) {
		refl := dsp.Tone(n, 0, math.Sqrt(units.DBmToMilliwatts(reflPow)), s.rng.Float64()*2*math.Pi)
		mod := dsp.SquareWave(n, fNorm)
		dsp.Modulate(refl, mod)
		dsp.AddInPlace(x, refl)
	}
	// Thermal noise over the measurement band.
	noiseMw := units.DBmToMilliwatts(s.AP.MeasNoiseFloorDBm())
	dsp.AddNoise(x, noiseMw, s.rng)

	spec, err := dsp.PowerSpectrum(x)
	if err != nil {
		return 0, err
	}
	bin := dsp.BinForFreq(n, fNorm)
	power := dsp.BandPower(spec, bin, 1) + dsp.BandPower(spec, len(spec)-bin, 1)
	return units.MilliwattsToDBm(power), nil
}

// Result reports an alignment sweep outcome.
type Result struct {
	// APBeamDeg is the AP beam angle of the best measurement (θ2).
	APBeamDeg float64

	// ReflBeamDeg is the reflector beam angle of the best measurement
	// (θ1) — the estimated angle of incidence.
	ReflBeamDeg float64

	// PeakPowerDBm is the sideband power at the winning pair.
	PeakPowerDBm float64

	// Measurements is the number of (θ1, θ2) pairs probed.
	Measurements int

	// ControlTime is the simulated Bluetooth time consumed.
	ControlTime time.Duration

	// AirTime is the simulated RF dwell time consumed
	// (Samples/SampleRate per measurement).
	AirTime time.Duration
}

// TotalTime returns control plus air time.
func (r Result) TotalTime() time.Duration { return r.ControlTime + r.AirTime }

// Exhaustive runs the full joint sweep the paper describes: "it tries
// every possible combination of θ1 and θ2 while the AP is transmitting a
// signal and measuring the power of reflected signal".
func (s *Sweeper) Exhaustive() (Result, error) {
	apAngles := s.AP.Array.Codebook(s.cfg.APStepDeg)
	devAngles := codebookFor(s.Dev, s.cfg.ReflStepDeg)
	return s.sweep(apAngles, devAngles)
}

// Hierarchical runs a coarse joint sweep followed by a fine sweep around
// the coarse winner — the practical variant that keeps alignment time
// manageable.
func (s *Sweeper) Hierarchical() (Result, error) {
	coarse, err := s.sweep(
		s.AP.Array.Codebook(s.cfg.CoarseStepDeg),
		codebookFor(s.Dev, s.cfg.CoarseStepDeg),
	)
	if err != nil {
		return Result{}, err
	}
	span := s.cfg.CoarseStepDeg
	fine, err := s.sweep(
		angleRange(coarse.APBeamDeg-span, coarse.APBeamDeg+span, s.cfg.APStepDeg),
		angleRange(coarse.ReflBeamDeg-span, coarse.ReflBeamDeg+span, s.cfg.ReflStepDeg),
	)
	if err != nil {
		return Result{}, err
	}
	fine.Measurements += coarse.Measurements
	fine.ControlTime += coarse.ControlTime
	fine.AirTime += coarse.AirTime
	return fine, nil
}

// sweep measures every (θ1, θ2) pair, with the reflector beam in the
// outer loop so each θ1 costs one control exchange.
func (s *Sweeper) sweep(apAngles, reflAngles []float64) (Result, error) {
	if err := s.prepare(); err != nil {
		return Result{}, err
	}
	res := Result{PeakPowerDBm: math.Inf(-1)}
	dwell := time.Duration(float64(s.cfg.Samples) / s.cfg.SampleRateHz * float64(time.Second))
	startCtl := s.Link.Elapsed()
	for _, reflBeam := range reflAngles {
		if _, err := s.Link.Call(control.Message{
			Type:  control.MsgSetBothBeams,
			Value: control.AngleToWire(reflBeam),
		}); err != nil {
			return Result{}, err
		}
		for _, apBeam := range apAngles {
			s.AP.SteerTo(apBeam)
			p, err := s.measureCurrentSetting()
			if err != nil {
				return Result{}, err
			}
			res.Measurements++
			res.AirTime += dwell
			if p > res.PeakPowerDBm {
				res.PeakPowerDBm = p
				res.APBeamDeg = apBeam
				res.ReflBeamDeg = s.Dev.RXBeamDeg()
			}
		}
	}
	res.ControlTime = s.Link.Elapsed() - startCtl
	if err := s.finish(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// prepare programs the safe alignment gain and starts modulation.
func (s *Sweeper) prepare() error {
	gainWord := int(math.Round((s.cfg.AlignGainDB - s.Dev.Amp().Config().MinGainDB) / s.Dev.Amp().Config().StepDB))
	if _, err := s.Link.Call(control.Message{Type: control.MsgSetGainWord, Value: int32(gainWord)}); err != nil {
		return err
	}
	_, err := s.Link.Call(control.Message{Type: control.MsgSetModulation, Value: int32(s.cfg.ModFreqHz)})
	return err
}

// finish stops modulation.
func (s *Sweeper) finish() error {
	_, err := s.Link.Call(control.Message{Type: control.MsgSetModulation, Value: 0})
	return err
}

// codebookFor builds a world-frame codebook for the reflector's arrays.
func codebookFor(dev *reflector.Reflector, stepDeg float64) []float64 {
	var angles []float64
	for rel := -75.0; rel <= 75+1e-9; rel += stepDeg {
		angles = append(angles, units.NormalizeDeg(dev.MountDeg()+rel))
	}
	return angles
}

// angleRange returns angles from lo to hi inclusive at the given step.
func angleRange(lo, hi, step float64) []float64 {
	var out []float64
	for a := lo; a <= hi+1e-9; a += step {
		out = append(out, units.NormalizeDeg(a))
	}
	return out
}

// GroundTruthDeg returns the true angle of incidence: the direction from
// the reflector to the AP, which is what the sweep estimates.
func GroundTruthDeg(dev *reflector.Reflector, ap *radio.AP) float64 {
	return units.NormalizeDeg(geom.DirectionDeg(dev.Pos(), ap.Pos))
}

// ErrorDeg returns the absolute angular error of an estimate against the
// ground truth.
func ErrorDeg(estimateDeg, truthDeg float64) float64 {
	return math.Abs(units.AngleDiffDeg(estimateDeg, truthDeg))
}
