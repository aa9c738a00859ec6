// Package dsp provides the signal-processing primitives the simulator
// needs to run the MoVR backscatter measurement on actual synthesized
// samples: complex tone generation, a radix-2 FFT, power spectra, and
// sideband power integration.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT computes the in-order discrete Fourier transform of x using an
// iterative radix-2 Cooley-Tukey algorithm. The input length must be a
// power of two; FFT returns an error otherwise. The input slice is not
// modified.
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if !IsPow2(n) {
		return nil, fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	// Bit-reversal permutation into a fresh output slice.
	y := make([]complex128, n)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := 0; i < n; i++ {
		y[reverseBits(i, bits)] = x[i]
	}
	// Iterative butterflies.
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := y[start+k]
				b := y[start+k+half] * w
				y[start+k] = a + b
				y[start+k+half] = a - b
				w *= wBase
			}
		}
	}
	return y, nil
}

func reverseBits(i, bits int) int {
	r := 0
	for b := 0; b < bits; b++ {
		r = (r << 1) | (i & 1)
		i >>= 1
	}
	return r
}

// Tone synthesizes n samples of a complex exponential with the given
// normalized frequency (cycles per sample, in [−0.5, 0.5)), linear
// amplitude, and initial phase in radians.
func Tone(n int, freqNorm, amplitude, phaseRad float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		ph := 2*math.Pi*freqNorm*float64(i) + phaseRad
		x[i] = complex(amplitude*math.Cos(ph), amplitude*math.Sin(ph))
	}
	return x
}

// AddInPlace adds each sample of src into dst. The slices must have equal
// length.
func AddInPlace(dst, src []complex128) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// AddNoise adds circularly-symmetric complex Gaussian noise with the given
// total noise power (linear, i.e. E[|n|²] = noisePower) to x in place,
// drawing from rng for reproducibility.
func AddNoise(x []complex128, noisePower float64, rng *rand.Rand) {
	if noisePower <= 0 {
		return
	}
	sigma := math.Sqrt(noisePower / 2)
	for i := range x {
		x[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
}

// PowerSpectrum returns the per-bin power |X[k]|²/N² of the FFT of x, so
// that a unit-amplitude complex tone centred on a bin contributes power
// 1.0 to that bin. The input length must be a power of two.
func PowerSpectrum(x []complex128) ([]float64, error) {
	X, err := FFT(x)
	if err != nil {
		return nil, err
	}
	n2 := float64(len(x)) * float64(len(x))
	p := make([]float64, len(X))
	for i, v := range X {
		p[i] = (real(v)*real(v) + imag(v)*imag(v)) / n2
	}
	return p, nil
}

// BinForFreq returns the spectrum bin index corresponding to normalized
// frequency f (cycles/sample) for an n-point FFT. Negative frequencies map
// to the upper half of the spectrum.
func BinForFreq(n int, f float64) int {
	b := int(math.Round(f * float64(n)))
	b %= n
	if b < 0 {
		b += n
	}
	return b
}

// BandPower sums spectrum power in the bins within halfWidth of centre
// (wrapping around the spectrum edges).
func BandPower(spectrum []float64, centre, halfWidth int) float64 {
	n := len(spectrum)
	if n == 0 {
		return 0
	}
	total := 0.0
	for k := -halfWidth; k <= halfWidth; k++ {
		i := ((centre+k)%n + n) % n
		total += spectrum[i]
	}
	return total
}

// SquareWave returns n samples of a 0/1 square wave with the given
// normalized frequency (cycles per sample), used to model on-off keying of
// the reflector's amplifier.
func SquareWave(n int, freqNorm float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		ph := math.Mod(freqNorm*float64(i), 1)
		if ph < 0 {
			ph += 1
		}
		if ph < 0.5 {
			w[i] = 1
		}
	}
	return w
}

// Modulate multiplies the complex signal x by the real envelope m in
// place. The slices must have equal length.
func Modulate(x []complex128, m []float64) {
	for i := range x {
		x[i] *= complex(m[i], 0)
	}
}
