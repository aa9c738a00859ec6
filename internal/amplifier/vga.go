// Package amplifier models the reflector's variable-gain amplifier chain:
// the paper's prototype cascades a Quinstar QLW-2440 LNA, a Hittite
// HMC712LP3C voltage-variable attenuator, and a Hittite HMC-C020 power
// amplifier, driven by an AD7228 DAC and monitored by a TI INA169 current
// sensor (§5).
//
// Three behaviours matter to MoVR's algorithms and are modelled here:
//
//  1. Gain is set digitally in small steps across a wide range.
//  2. The output compresses toward a saturated power P_sat (Rapp model,
//     evaluated in linear power by Transfer); a saturated amplifier
//     produces "garbage signals".
//  3. Supply current rises gently with output power in normal operation
//     but spikes as the device enters compression — "amplifiers draw
//     significantly higher current as they get close to saturation mode"
//     (§4.2) — which is the only observable MoVR's gain control has.
package amplifier

import (
	"fmt"
	"math"

	"github.com/movr-sim/movr/internal/units"
)

// Config describes the amplifier chain.
type Config struct {
	// MinGainDB and MaxGainDB bound the programmable gain.
	MinGainDB, MaxGainDB float64

	// StepDB is the gain resolution of the control DAC.
	StepDB float64

	// PsatDBm is the saturated output power.
	PsatDBm float64

	// RappP is the Rapp model smoothness factor (typically 2-3).
	RappP float64

	// NoiseFigureDB is the chain's noise figure, dominated by the LNA.
	NoiseFigureDB float64

	// QuiescentA is the idle supply current (amperes).
	QuiescentA float64

	// SlopeA is the additional current drawn at full (saturated) output
	// in linear operation.
	SlopeA float64

	// SpikeA is the extra current consumed once the device enters
	// compression — the signature the gain-control algorithm detects.
	SpikeA float64
}

// DefaultConfig returns a chain calibrated to the prototype's parts: up
// to 50 dB of cascade gain in 0.5 dB steps, +20 dBm saturated output,
// 5 dB noise figure.
func DefaultConfig() Config {
	return Config{
		MinGainDB:     0,
		MaxGainDB:     50,
		StepDB:        0.5,
		PsatDBm:       20,
		RappP:         2,
		NoiseFigureDB: 5,
		QuiescentA:    0.35,
		SlopeA:        0.45,
		SpikeA:        0.6,
	}
}

// VGA is a variable-gain amplifier chain with a supply-current model.
type VGA struct {
	cfg  Config
	word int

	// satMw caches DBmToMilliwatts(PsatDBm), fixed at construction.
	satMw float64

	// Transfer memo: the linear gain of the last word Transfer saw, so
	// repeat solves at one word skip its Pow.
	tfOK     bool
	tfWord   int
	tfGainLn float64
}

// New validates cfg and returns a VGA set to minimum gain.
func New(cfg Config) (*VGA, error) {
	if cfg.MaxGainDB < cfg.MinGainDB {
		return nil, fmt.Errorf("amplifier: MaxGainDB %v < MinGainDB %v", cfg.MaxGainDB, cfg.MinGainDB)
	}
	if cfg.StepDB <= 0 {
		return nil, fmt.Errorf("amplifier: StepDB %v must be positive", cfg.StepDB)
	}
	if cfg.RappP <= 0 {
		return nil, fmt.Errorf("amplifier: RappP %v must be positive", cfg.RappP)
	}
	return &VGA{cfg: cfg, satMw: units.DBmToMilliwatts(cfg.PsatDBm)}, nil
}

// Default returns a VGA with DefaultConfig.
func Default() *VGA {
	v, err := New(DefaultConfig())
	if err != nil {
		panic(err) // fixed literal config; cannot fail
	}
	return v
}

// Config returns the amplifier configuration.
func (v *VGA) Config() Config { return v.cfg }

// Words returns the number of valid gain words.
func (v *VGA) Words() int {
	return int((v.cfg.MaxGainDB-v.cfg.MinGainDB)/v.cfg.StepDB) + 1
}

// SetGainWord programs the DAC. Out-of-range words are clamped; the
// applied word is returned.
func (v *VGA) SetGainWord(w int) int {
	if w < 0 {
		w = 0
	}
	if max := v.Words() - 1; w > max {
		w = max
	}
	v.word = w
	return w
}

// GainWord returns the current DAC word.
func (v *VGA) GainWord() int { return v.word }

// GainDB returns the current small-signal gain.
func (v *VGA) GainDB() float64 { return v.cfg.MinGainDB + float64(v.word)*v.cfg.StepDB }

// TopGainDB returns the gain at the top word, Words()−1, by the same
// expression as GainDB. SetGainWord never sets a word above it and
// StepDB is positive, so no gain word reports more.
func (v *VGA) TopGainDB() float64 { return v.cfg.MinGainDB + float64(v.Words()-1)*v.cfg.StepDB }

// SetGainDB programs the nearest representable gain and returns it.
func (v *VGA) SetGainDB(g float64) float64 {
	w := int(math.Round((g - v.cfg.MinGainDB) / v.cfg.StepDB))
	v.SetGainWord(w)
	return v.GainDB()
}

// Transfer is the amplifier's Rapp saturation model at one gain setting,
// in linear power. The voltage form
//
//	v_out = g·v_in / (1 + (g·v_in/v_sat)^(2p))^(1/(2p))
//
// squared is
//
//	P_out = G·P / (1 + (G·P/P_sat)^p)^(1/p)
//
// with G = g² the linear power gain. Every power the package reports
// derives from OutputMw, and the reflector's feedback solve iterates it
// directly, with no dB conversions inside the loop.
type Transfer struct {
	gainLin, satMw, p float64
}

// Transfer returns the Rapp transfer at the current gain word. The
// linear gain is a pure function of the word (the config is fixed at
// New), so it is converted once per word change.
func (v *VGA) Transfer() Transfer {
	if !v.tfOK || v.tfWord != v.word {
		v.tfOK, v.tfWord, v.tfGainLn = true, v.word, units.DBToLinear(v.GainDB())
	}
	return Transfer{gainLin: v.tfGainLn, satMw: v.satMw, p: v.cfg.RappP}
}

// OutputMw returns the output power in milliwatts for an input of inMw
// milliwatts.
//
// The stock smoothness p = 2 takes a fast path that is bit-identical to
// the general formula for every float64 input: math.Pow(x, 0.5) returns
// math.Sqrt(x), and math.Pow(u, 2) squares u's Frexp mantissa and
// rescales with Ldexp, which rounds exactly as u*u does except when u²
// is subnormal — where 1+u² rounds to 1 either way. Zero, ±Inf and NaN
// meet matching special cases. The float64 conversion keeps u*u rounded
// on its own, so no platform fuses it into the addition.
func (t Transfer) OutputMw(inMw float64) float64 {
	gp := t.gainLin * inMw
	if t.p == 2 {
		u := gp / t.satMw
		return gp / math.Sqrt(1+float64(u*u))
	}
	return gp / math.Pow(1+math.Pow(gp/t.satMw, t.p), 1/t.p)
}

// OutputPowerDBm returns the output power for a given input power,
// applying the Rapp saturation model (see Transfer).
func (v *VGA) OutputPowerDBm(inDBm float64) float64 {
	return units.MilliwattsToDBm(v.Transfer().OutputMw(units.DBmToMilliwatts(inDBm)))
}

// CompressionDB returns how far the output is compressed below the ideal
// linear output, in dB (0 = fully linear).
func (v *VGA) CompressionDB(inDBm float64) float64 {
	return inDBm + v.GainDB() - v.OutputPowerDBm(inDBm)
}

// Saturated reports whether the device is meaningfully compressed
// (≥ 1 dB) at the given input power — the paper's "saturation mode" in
// which the output is garbage.
func (v *VGA) Saturated(inDBm float64) bool { return v.CompressionDB(inDBm) >= 1 }

// SupplyCurrentA models the DC current drawn from the supply at the given
// input power. It rises smoothly with output power in linear operation
// and spikes as compression sets in; the spike is what the INA169-based
// sensing in the gain-control algorithm detects.
func (v *VGA) SupplyCurrentA(inDBm float64) float64 {
	// The envelope term and the compression term both need the output
	// power; evaluate the Rapp transfer once and derive the compression
	// depth from it, exactly as CompressionDB does.
	outLin := v.Transfer().OutputMw(units.DBmToMilliwatts(inDBm))
	out := units.MilliwattsToDBm(outLin)
	frac := outLin / v.satMw
	if frac > 1 {
		frac = 1
	}
	// Class-AB-like: current grows with the output envelope.
	i := v.cfg.QuiescentA + v.cfg.SlopeA*math.Sqrt(frac)
	// Compression spike: logistic in compression depth, centred at 1 dB.
	c := inDBm + v.GainDB() - out
	i += v.cfg.SpikeA / (1 + math.Exp(-(c-1)/0.15))
	return i
}
