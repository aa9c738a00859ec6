// Package reflector implements the MoVR device itself: "a configurable
// mmWave reflector... It acts as a programmable mirror that detects the
// direction of the incoming mmWave signal and reconfigures itself to
// reflect it toward the receiver on the headset" (§1).
//
// The device is two phased arrays joined by a variable-gain amplifier
// (Fig 4). It has no transmit or receive basebands: everything it does is
// set a receive beam, set a transmit beam, and set an amplifier gain
// word; the alignment sweep sees it OOK-modulate the reflected tone. Its
// only sensor is a DC current monitor on the amplifier supply.
//
// The central physical subtlety is the TX→RX antenna leakage: part of the
// amplified output couples back into the receive antenna, closing a
// positive feedback loop (Fig 6). The loop is stable only while the
// amplifier gain is below the leakage attenuation (G_dB − L_dB < 0); past
// that point the amplifier drives itself into saturation and the output
// is garbage. The leakage depends on both beam angles and swings by tens
// of dB (Fig 7), which is why MoVR needs the adaptive gain control of
// §4.2. This package simulates the loop literally — the effective
// amplifier input is the fixed point of the feedback iteration — so
// saturation, current spikes, and garbage output all emerge from the
// model.
//
// The iteration runs in linear power: x ← ext + ℓ·P_out(x) in milliwatts,
// with the drive and the linear leakage ℓ = 10^(−L/10) converted from dB
// once per (drive, leakage) pair and the amplifier's Rapp transfer P_out
// once per solve, so each step costs one transfer evaluation and a
// multiply-add. Only the fixed point is reported in dBm.
package reflector

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/movr-sim/movr/internal/amplifier"
	"github.com/movr-sim/movr/internal/antenna"
	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/units"
)

// Config describes a MoVR reflector installation.
type Config struct {
	// Pos is the device's position (wall-mounted).
	Pos geom.Vec

	// MountDeg is the boresight direction of both arrays (into the
	// room, perpendicular to the wall).
	MountDeg float64

	// HeightM is the wall-mount height above the floor.
	HeightM float64

	// RXArray and TXArray configure the two phased arrays. Their
	// OrientationDeg fields are overridden with MountDeg.
	RXArray, TXArray antenna.Config

	// Amp configures the variable-gain amplifier chain.
	Amp amplifier.Config

	// BaseIsolationDB is the mean TX→RX isolation of the board.
	BaseIsolationDB float64

	// SlowSwingDB and FastSwingDB bound the two scales of the
	// deterministic angle-dependent leakage variation: a slow envelope
	// and a fast ripple. Fig 7 measures total swings of ~20 dB; the
	// defaults reproduce that. Near-field coupling between co-located
	// arrays is not a far-field pattern product, so the model is
	// calibrated empirical structure rather than first-principles.
	SlowSwingDB, FastSwingDB float64

	// MinLeakageDB floors the total isolation; no physical board has
	// less.
	MinLeakageDB float64

	// Seed fixes the device-specific leakage pattern.
	Seed int64
}

// DefaultConfig returns a reflector configuration calibrated so leakage
// behaves like the paper's Fig 7: total isolation in the tens of dB with
// ≥15 dB swings across beam angles.
func DefaultConfig(pos geom.Vec, mountDeg float64) Config {
	return Config{
		Pos:             pos,
		MountDeg:        mountDeg,
		HeightM:         2.6,
		RXArray:         antenna.DefaultConfig(mountDeg),
		TXArray:         antenna.DefaultConfig(mountDeg),
		Amp:             amplifier.DefaultConfig(),
		BaseIsolationDB: 60,
		SlowSwingDB:     8,
		FastSwingDB:     6,
		MinLeakageDB:    35,
		Seed:            1,
	}
}

// Reflector is a MoVR device.
type Reflector struct {
	cfg Config
	rx  *antenna.Array
	tx  *antenna.Array
	amp *amplifier.VGA

	ripple leakagePattern

	// Leakage memo: LeakageDB is a pure function of the two steering
	// angles (the pattern and config are fixed at construction), so the
	// last value is reused until either beam moves. The gain-control
	// scan calls LeakageDB once per probed gain word with the beams
	// still, which this collapses to one pattern evaluation per
	// steering change.
	leakKeyOK      bool
	leakTX, leakRX float64
	leakVal        float64

	// Feedback fixed-point memo: EffectiveAmpInputDBm is a pure
	// function of (external input, leakage, gain word). The scan
	// probes every word at one (ext, leakage) key, and the subsequent
	// saturation checks — and every passive re-read until the geometry
	// moves the drive level or a beam moves the leakage — re-ask for
	// words already solved. fpX caches the solved input per gain word;
	// fpValid is its per-word validity bitmap, cleared whenever the
	// (ext, leakage) key changes. fpExtMw and fpLeakLin hold the key in
	// linear power, converted once for every word solved under it.
	fpKeyOK            bool
	fpExt, fpLeak      float64
	fpExtMw, fpLeakLin float64
	fpValid            []uint64
	fpX                []float64
}

// New validates cfg and builds the device with both beams at boresight
// and the amplifier at minimum gain.
func New(cfg Config) (*Reflector, error) {
	cfg.RXArray.OrientationDeg = cfg.MountDeg
	cfg.TXArray.OrientationDeg = cfg.MountDeg
	rx, err := antenna.New(cfg.RXArray)
	if err != nil {
		return nil, fmt.Errorf("reflector: rx array: %w", err)
	}
	tx, err := antenna.New(cfg.TXArray)
	if err != nil {
		return nil, fmt.Errorf("reflector: tx array: %w", err)
	}
	amp, err := amplifier.New(cfg.Amp)
	if err != nil {
		return nil, fmt.Errorf("reflector: amplifier: %w", err)
	}
	return &Reflector{
		cfg:    cfg,
		rx:     rx,
		tx:     tx,
		amp:    amp,
		ripple: newLeakagePattern(cfg.Seed, cfg.SlowSwingDB, cfg.FastSwingDB),
	}, nil
}

// Default returns a reflector with DefaultConfig at pos facing mountDeg.
func Default(pos geom.Vec, mountDeg float64) *Reflector {
	r, err := New(DefaultConfig(pos, mountDeg))
	if err != nil {
		panic(err) // default config cannot fail
	}
	return r
}

// Pos returns the device position.
func (r *Reflector) Pos() geom.Vec { return r.cfg.Pos }

// MountDeg returns the wall-mount boresight direction.
func (r *Reflector) MountDeg() float64 { return r.cfg.MountDeg }

// HeightM returns the wall-mount height above the floor.
func (r *Reflector) HeightM() float64 { return r.cfg.HeightM }

// SetRXBeam steers the receive beam (the angle of incidence) to a world
// angle and returns the applied angle.
func (r *Reflector) SetRXBeam(worldDeg float64) float64 { return r.rx.SteerTo(worldDeg) }

// SetTXBeam steers the transmit beam (the angle of reflection) to a world
// angle and returns the applied angle.
func (r *Reflector) SetTXBeam(worldDeg float64) float64 { return r.tx.SteerTo(worldDeg) }

// SetBothBeams steers both arrays to the same world angle, as the
// alignment protocol requires ("first sets the reflector's receive and
// transmit beams to the same direction", §4.1).
func (r *Reflector) SetBothBeams(worldDeg float64) float64 {
	r.rx.SteerTo(worldDeg)
	return r.tx.SteerTo(worldDeg)
}

// RXBeamDeg returns the current receive-beam world angle.
func (r *Reflector) RXBeamDeg() float64 { return r.rx.SteeringDeg() }

// TXBeamDeg returns the current transmit-beam world angle.
func (r *Reflector) TXBeamDeg() float64 { return r.tx.SteeringDeg() }

// RXPointing returns the receive array's pointing state (see
// antenna.Array.Pointing).
func (r *Reflector) RXPointing() (orientationDeg, steeringRelDeg float64) { return r.rx.Pointing() }

// RXGainDBi returns the receive array's realized gain toward a world
// angle.
func (r *Reflector) RXGainDBi(worldDeg float64) float64 { return r.rx.GainDBi(worldDeg) }

// TXGainDBi returns the transmit array's realized gain toward a world
// angle.
func (r *Reflector) TXGainDBi(worldDeg float64) float64 { return r.tx.GainDBi(worldDeg) }

// TXPeak returns the transmit array's peak gain and its element count.
// TXGainDBi never exceeds the peak by more than the array factor's
// rounding, which grows with the count (see antenna.Array.PeakGainDBi).
func (r *Reflector) TXPeak() (gainDBi float64, elements int) {
	return r.tx.PeakGainDBi(), r.cfg.TXArray.Elements
}

// Amp returns the amplifier chain for gain programming.
func (r *Reflector) Amp() *amplifier.VGA { return r.amp }

// LeakageDB returns the TX→RX isolation (a positive attenuation in dB)
// for the current pair of beam angles: a base board isolation plus a
// deterministic, device-specific, smooth function of both steering
// angles. This reproduces the measured behaviour of Fig 7 — isolation in
// the tens of dB whose value swings by ~20 dB as either beam moves —
// without pretending the near-field coupling of two co-located arrays can
// be derived from their far-field patterns.
func (r *Reflector) LeakageDB() float64 {
	tx, rx := r.tx.SteeringDeg(), r.rx.SteeringDeg()
	if r.leakKeyOK && r.leakTX == tx && r.leakRX == rx {
		return r.leakVal
	}
	relTX := units.AngleDiffDeg(tx, r.cfg.MountDeg)
	relRX := units.AngleDiffDeg(rx, r.cfg.MountDeg)
	l := r.cfg.BaseIsolationDB + r.ripple.at(relTX, relRX)
	if l < r.cfg.MinLeakageDB {
		l = r.cfg.MinLeakageDB
	}
	r.leakKeyOK, r.leakTX, r.leakRX, r.leakVal = true, tx, rx, l
	return l
}

// LoopGainDB returns the closed-loop gain margin G_dB − L_dB; the device
// is stable while this is negative (§4.2's control-theory condition).
func (r *Reflector) LoopGainDB() float64 { return r.amp.GainDB() - r.LeakageDB() }

// Stable reports whether the feedback loop is small-signal stable at the
// current gain and beam angles.
func (r *Reflector) Stable() bool { return r.LoopGainDB() < 0 }

// feedbackIterations bounds the fixed-point iteration of the loop.
const feedbackIterations = 400

// EffectiveAmpInputDBm returns the amplifier's true input power once the
// leakage feedback settles, for an external (off-air) input power at the
// amplifier port. It is the fixed point of
//
//	x = ext + ℓ·P_out(x)
//
// iterated from x = ext in milliwatts, where ℓ = 10^(−L/10) is the linear
// leakage and P_out the amplifier's Rapp transfer (amplifier.Transfer).
// Only the result is converted back to dBm. Because the amplifier output
// is bounded by P_sat the iteration always converges; an unstable loop
// converges to a point deep in compression, which is exactly the physical
// "saturated, generating garbage" state.
func (r *Reflector) EffectiveAmpInputDBm(extDBm float64) float64 {
	l := r.LeakageDB()
	w := r.amp.GainWord()
	if r.fpKeyOK && r.fpExt == extDBm && r.fpLeak == l {
		if r.fpValid[w>>6]&(1<<(uint(w)&63)) != 0 {
			return r.fpX[w]
		}
	} else {
		if r.fpX == nil {
			n := r.amp.Words()
			r.fpX = make([]float64, n)
			r.fpValid = make([]uint64, (n+63)/64)
		}
		for i := range r.fpValid {
			r.fpValid[i] = 0
		}
		r.fpKeyOK, r.fpExt, r.fpLeak = true, extDBm, l
		r.fpExtMw, r.fpLeakLin = units.DBmToMilliwatts(extDBm), units.DBToLinear(-l)
	}
	v := r.solveFeedback(r.fpExtMw, r.fpLeakLin)
	r.fpX[w] = v
	r.fpValid[w>>6] |= 1 << (uint(w) & 63)
	return v
}

// solveFeedback runs the fixed-point iteration for the current gain word
// at external input extMw (milliwatts) and linear leakage leak — the
// uncached body of EffectiveAmpInputDBm — and returns the input in dBm.
func (r *Reflector) solveFeedback(extMw, leak float64) float64 {
	tf := r.amp.Transfer()
	x := extMw
	for i := 0; i < feedbackIterations; i++ {
		next := extMw + leak*tf.OutputMw(x)
		if math.Abs(next-x) <= 1e-12*max(x, 1e-30) {
			x = next
			break
		}
		x = next
	}
	return units.MilliwattsToDBm(x)
}

// OutputPowerDBm returns the amplifier output power (at the TX array
// port) for an external input power, including feedback effects.
func (r *Reflector) OutputPowerDBm(extDBm float64) float64 {
	return r.amp.OutputPowerDBm(r.EffectiveAmpInputDBm(extDBm))
}

// SaturatedAt reports whether the device output is garbage (amplifier
// compressed ≥1 dB) for the given external input, including feedback.
func (r *Reflector) SaturatedAt(extDBm float64) bool {
	return r.amp.Saturated(r.EffectiveAmpInputDBm(extDBm))
}

// SupplyCurrentA returns what the on-board current sensor reads for the
// given external input power — the only observable §4.2's algorithm has.
func (r *Reflector) SupplyCurrentA(extDBm float64) float64 {
	return r.amp.SupplyCurrentA(r.EffectiveAmpInputDBm(extDBm))
}

// NoiseFigureDB returns the amplifier chain's noise figure, needed by the
// relay link-budget math.
func (r *Reflector) NoiseFigureDB() float64 { return r.cfg.Amp.NoiseFigureDB }

// leakagePattern is a smooth deterministic pseudo-random function of the
// two beam angles, structured the way Fig 7 presents the measurement: for
// any fixed RX angle, sweeping the TX beam moves the leakage through a
// slow envelope plus a fast ripple (together ~15-20 dB peak to peak), and
// changing the RX angle both shifts the overall level and reshapes the
// fast structure.
type leakagePattern struct {
	txSlow, txFast, rxShift patternTerm
}

type patternTerm struct {
	amp, ft, fr, phase float64
}

func (p patternTerm) eval(t, q float64) float64 {
	return p.amp * math.Sin(p.ft*t+p.fr*q+p.phase)
}

// patternKey is what a leakage pattern is a function of, with the
// swings by bit pattern, so that every key equals itself (NaN too) and
// a key's pattern is the one its exact inputs build.
type patternKey struct {
	seed             int64
	slowAmp, fastAmp uint64
}

// patterns memoizes newLeakagePattern: a pattern is an immutable pure
// function of its key, and seeding math/rand for it costs more than
// the rest of building a reflector. A venue job builds 192 reflectors
// from one key. Experiments that draw a fresh seed per device (fig 8,
// the ablations) would grow the memo without end, so past
// maxMemoPatterns keys a pattern is built without being kept.
var patterns struct {
	mu sync.Mutex
	m  map[patternKey]leakagePattern
}

const maxMemoPatterns = 256

func newLeakagePattern(seed int64, slowAmp, fastAmp float64) leakagePattern {
	key := patternKey{seed, math.Float64bits(slowAmp), math.Float64bits(fastAmp)}
	patterns.mu.Lock()
	p, ok := patterns.m[key]
	patterns.mu.Unlock()
	if ok {
		return p
	}
	p = buildLeakagePattern(seed, slowAmp, fastAmp)
	patterns.mu.Lock()
	if patterns.m == nil {
		patterns.m = make(map[patternKey]leakagePattern)
	}
	if len(patterns.m) < maxMemoPatterns {
		patterns.m[key] = p
	}
	patterns.mu.Unlock()
	return p
}

func buildLeakagePattern(seed int64, slowAmp, fastAmp float64) leakagePattern {
	rng := rand.New(rand.NewSource(seed))
	term := func(amp, minFT, maxFT, minFR, maxFR float64) patternTerm {
		return patternTerm{
			amp:   amp,
			ft:    minFT + rng.Float64()*(maxFT-minFT),
			fr:    minFR + rng.Float64()*(maxFR-minFR),
			phase: rng.Float64() * 2 * math.Pi,
		}
	}
	return leakagePattern{
		// Slow TX envelope: ~1 cycle across the scan range, weak RX pull.
		txSlow: term(slowAmp, 2.5, 4.5, 0.3, 1),
		// Fast TX ripple: several cycles across the scan, reshaped by RX.
		txFast: term(fastAmp, 9, 16, 1, 4),
		// RX-dependent level shift: function of RX angle only.
		rxShift: term(slowAmp*0.6, 2, 5, 0, 0),
	}
}

func (m leakagePattern) at(relTXDeg, relRXDeg float64) float64 {
	t := units.DegToRad(relTXDeg)
	q := units.DegToRad(relRXDeg)
	return m.txSlow.eval(t, q) + m.txFast.eval(t, q) + m.rxShift.eval(q, 0)
}
