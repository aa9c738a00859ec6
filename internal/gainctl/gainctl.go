// Package gainctl implements MoVR's adaptive amplifier gain control
// (paper §4.2): choose the largest amplifier gain that keeps the
// TX→RX-leakage feedback loop out of saturation, using only the
// amplifier's DC supply current as the observable.
//
// "Our gain control algorithm works as follows. It sets the amplifier
// gain to the minimum, then increases the gain, step by step, while
// monitoring the amplifier's current consumption. The algorithm continues
// increasing the gain until the current consumption suddenly goes high.
// This indicates that the amplifier is entering saturation mode. The
// algorithm keeps the amplification gain just below this point."
//
// The algorithm runs on the reflector's own microcontroller (it has
// direct access to the current sensor); the AP merely triggers it over
// the control link.
package gainctl

import (
	"github.com/movr-sim/movr/internal/amplifier"
	"github.com/movr-sim/movr/internal/reflector"
)

// Config tunes the gain-control loop.
type Config struct {
	// JumpThresholdA is the per-step current increase that signals the
	// onset of saturation.
	JumpThresholdA float64

	// BackoffSteps is how many DAC steps to retreat below the detected
	// knee — the "just below this point" safety margin.
	BackoffSteps int
}

// DefaultConfig returns thresholds matched to the amplifier model: the
// compression spike is ~0.6 A over a few tenths of a dB, while normal
// per-step (0.5 dB) growth stays under ~20 mA.
func DefaultConfig() Config {
	return Config{
		JumpThresholdA: 0.05,
		BackoffSteps:   4,
	}
}

// Result reports the outcome of a gain-control run.
type Result struct {
	// GainDB is the final programmed gain.
	GainDB float64

	// Word is the final DAC word.
	Word int

	// Steps is the number of gain words whose supply current was probed
	// (excluding the word-0 reference measurement).
	Steps int

	// KneeDetected reports whether a saturation knee was found; false
	// means the sweep reached maximum gain without saturating.
	KneeDetected bool

	// MarginDB is the final stability margin LeakageDB − GainDB
	// (positive = stable).
	MarginDB float64
}

// Optimize runs the §4.2 algorithm on the device: find the lowest gain
// word whose one-step supply-current increase exceeds the jump threshold
// (the saturation knee), then back off just below it. extInDBm is the
// off-air power at the amplifier input during the run (the AP keeps
// transmitting so the loop sees realistic drive).
//
// This convenience wrapper allocates fresh probe scratch on every call;
// hot paths should hold an Optimizer and reuse it.
func Optimize(dev *reflector.Reflector, extInDBm float64, cfg Config) Result {
	var o Optimizer
	return o.Optimize(dev, extInDBm, cfg)
}

// Optimizer runs gain-control sweeps, reusing per-word probe scratch
// across calls so steady-state runs allocate nothing. The zero value is
// ready to use. Not safe for concurrent use.
type Optimizer struct {
	cur   []float64 // supply current per gain word, this run
	seen  []uint64  // epoch stamp marking cur[w] valid
	epoch uint64

	// Per-run probe state (reset on every Optimize call).
	dev   *reflector.Reflector
	amp   *amplifier.VGA
	ext   float64
	thr   float64
	steps int
}

// Optimize finds the same knee word as the naive minimum-to-maximum
// sweep, but with far fewer supply-current probes. The supply current is
// monotone nondecreasing in the gain word (more gain raises the feedback
// fixed point, which only pushes the amplifier deeper into compression),
// so consecutive-step increases are nonnegative and telescope: a bracket
// [lo, hi] whose total rise is at most the jump threshold cannot contain
// a single step above it and is skipped wholesale.
//
// The search first applies that argument to the whole range as a no-knee
// certificate: if I(maxWord) − I(0) is at most the threshold, every
// one-step rise I(w) − I(w−1) is too (I(w) ≤ I(maxWord) and I(w−1) ≥
// I(0), and float64 subtraction is monotone in each operand, so the
// bound holds for the rounded differences the sweep compares), and the
// run ends at maximum gain after two probes. Otherwise the search
// gallops from word 0 with doubling strides and bisects the first
// bracket whose total rise exceeds the threshold down to the first
// offending step; I(maxWord) stays in the per-run memo, so the gallop
// never probes it twice. Leaf comparisons use exactly the sweep's
// I(w) − I(w−1) > threshold test on identical probe values (the current
// at a word does not depend on probe order), so the detected knee — and
// the final programmed word — match the naive sweep bit for bit.
func (o *Optimizer) Optimize(dev *reflector.Reflector, extInDBm float64, cfg Config) Result {
	amp := dev.Amp()
	if cfg.BackoffSteps < 1 {
		cfg.BackoffSteps = 1
	}
	maxWord := amp.Words() - 1
	if n := maxWord + 1; cap(o.cur) < n {
		o.cur = make([]float64, n)
		o.seen = make([]uint64, n)
	} else {
		o.cur = o.cur[:n]
		o.seen = o.seen[:n]
	}
	o.epoch++
	o.dev, o.amp, o.ext, o.thr = dev, amp, extInDBm, cfg.JumpThresholdA
	o.steps = 0

	knee := 0
	lo, stride := 0, 1
	if o.current(maxWord)-o.current(0) <= o.thr {
		// No-knee certificate: the whole range rises no more than one
		// step may, so the gallop has nothing to search.
		lo = maxWord
	}
	for lo < maxWord {
		hi := lo + stride
		if hi > maxWord {
			hi = maxWord
		}
		if o.current(hi)-o.current(lo) > o.thr {
			knee = o.firstJump(lo, hi)
			if knee != 0 {
				break
			}
			// The bracket rises more than the threshold in total but no
			// single step exceeds it; restart the gallop past it.
			lo, stride = hi, 1
			continue
		}
		lo, stride = hi, stride*2
	}

	res := Result{Steps: o.steps}
	if knee != 0 {
		// Saturation onset: retreat below the knee.
		amp.SetGainWord(knee - cfg.BackoffSteps)
		res.KneeDetected = true
	} else {
		amp.SetGainWord(maxWord)
	}
	res.Word = amp.GainWord()
	res.GainDB = amp.GainDB()
	res.MarginDB = dev.LeakageDB() - res.GainDB
	o.dev, o.amp = nil, nil
	return res
}

// current probes (or recalls) the supply current at gain word w. A probe
// is the device's sensor reading at the leakage loop's fixed point,
// which the reflector solves in linear power and memoizes per
// (drive, leakage, word); the probe count, not the solve, is what the
// gallop minimizes.
func (o *Optimizer) current(w int) float64 {
	if o.seen[w] == o.epoch {
		return o.cur[w]
	}
	o.amp.SetGainWord(w)
	if w > 0 {
		o.steps++
	}
	v := o.dev.SupplyCurrentA(o.ext)
	o.cur[w] = v
	o.seen[w] = o.epoch
	return v
}

// firstJump returns the first word w in (lo, hi] whose one-step rise
// I(w) − I(w−1) exceeds the threshold, or 0 if none does.
func (o *Optimizer) firstJump(lo, hi int) int {
	if hi-lo == 1 {
		if o.current(hi)-o.current(lo) > o.thr {
			return hi
		}
		return 0
	}
	mid := lo + (hi-lo)/2
	if o.current(mid)-o.current(lo) > o.thr {
		if w := o.firstJump(lo, mid); w != 0 {
			return w
		}
	}
	if o.current(hi)-o.current(mid) > o.thr {
		return o.firstJump(mid, hi)
	}
	return 0
}
