package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 12, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	if _, err := FFT(make([]complex128, 12)); err == nil {
		t.Error("expected error for length 12")
	}
	if _, err := FFT(make([]complex128, 0)); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	X, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range X {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("X[%d] = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A tone at bin 3 of a 64-point FFT lands all its energy in bin 3.
	n := 64
	x := Tone(n, 3.0/float64(n), 1, 0)
	X, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range X {
		want := 0.0
		if i == 3 {
			want = float64(n)
		}
		if cmplx.Abs(v-complex(want, 0)) > 1e-9 {
			t.Errorf("X[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestFFTNegativeFreqTone(t *testing.T) {
	n := 32
	x := Tone(n, -2.0/float64(n), 1, 0)
	p, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := BinForFreq(n, -2.0/float64(n)); got != n-2 {
		t.Errorf("BinForFreq = %d, want %d", got, n-2)
	}
	if p[n-2] < 0.99 {
		t.Errorf("negative-frequency tone power = %v", p[n-2])
	}
}

func TestParseval(t *testing.T) {
	// Energy in time domain equals energy in frequency domain / N.
	rng := rand.New(rand.NewSource(5))
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	X, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	et := 0.0
	for _, v := range x {
		et += real(v)*real(v) + imag(v)*imag(v)
	}
	ef := 0.0
	for _, v := range X {
		ef += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(et-ef/float64(len(x))) > 1e-6*et {
		t.Errorf("Parseval violated: %v vs %v", et, ef/float64(len(x)))
	}
}

func TestPowerSpectrumToneAmplitude(t *testing.T) {
	// Unit-amplitude tone on a bin -> power 1.0 in that bin.
	n := 128
	x := Tone(n, 5.0/float64(n), 1, 0.7)
	p, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[5]-1) > 1e-9 {
		t.Errorf("tone bin power = %v, want 1", p[5])
	}
}

func TestBandPowerAndPeak(t *testing.T) {
	n := 64
	x := Tone(n, 10.0/float64(n), 2, 0) // power 4 at bin 10
	weak := Tone(n, 30.0/float64(n), 0.5, 0)
	AddInPlace(x, weak)
	p, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := BandPower(p, 10, 1); math.Abs(got-4) > 0.05 {
		t.Errorf("BandPower = %v, want ~4", got)
	}
	// The weak tone's band holds its own power, not the strong tone's.
	if got := BandPower(p, 30, 1); math.Abs(got-0.25) > 0.05 {
		t.Errorf("weak-tone BandPower = %v, want ~0.25", got)
	}
}

func TestBandPowerWraps(t *testing.T) {
	n := 16
	x := Tone(n, 0, 1, 0) // DC tone
	p, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	// Integrating around bin 0 with wrap includes bins n-1 and 1.
	if got := BandPower(p, 0, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("wrapped BandPower = %v", got)
	}
}

func TestSquareWaveAndModulate(t *testing.T) {
	m := SquareWave(8, 0.25) // period 4: 1,1,0,0,...
	want := []float64{1, 1, 0, 0, 1, 1, 0, 0}
	for i := range m {
		if m[i] != want[i] {
			t.Fatalf("SquareWave = %v", m)
		}
	}
	x := Tone(8, 0, 1, 0)
	Modulate(x, m)
	if x[2] != 0 || x[0] == 0 {
		t.Errorf("Modulate failed: %v", x)
	}
}

func TestOOKSidebands(t *testing.T) {
	// OOK-modulating a carrier at f1 with a square wave at f2 must put
	// energy at f1±f2 — the separability property the MoVR alignment
	// protocol relies on (paper §4.1).
	n := 256
	carrierBin, modBin := 20, 8
	x := Tone(n, float64(carrierBin)/float64(n), 1, 0)
	m := SquareWave(n, float64(modBin)/float64(n))
	Modulate(x, m)
	p, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	// Carrier residue at f1 (half amplitude -> power 0.25).
	if math.Abs(p[carrierBin]-0.25) > 0.01 {
		t.Errorf("carrier residue power = %v, want ~0.25", p[carrierBin])
	}
	// First sidebands at f1±f2 with power (1/pi)^2 each.
	wantSB := 1 / (math.Pi * math.Pi)
	if math.Abs(p[carrierBin+modBin]-wantSB) > 0.01 {
		t.Errorf("upper sideband power = %v, want ~%v", p[carrierBin+modBin], wantSB)
	}
	if math.Abs(p[carrierBin-modBin]-wantSB) > 0.01 {
		t.Errorf("lower sideband power = %v, want ~%v", p[carrierBin-modBin], wantSB)
	}
}

func TestAddNoisePower(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]complex128, 4096)
	AddNoise(x, 2.0, rng)
	if got := SignalPower(x); math.Abs(got-2) > 0.15 {
		t.Errorf("noise power = %v, want ~2", got)
	}
	// Zero power is a no-op.
	y := make([]complex128, 4)
	AddNoise(y, 0, rng)
	if SignalPower(y) != 0 {
		t.Error("zero-power noise should not modify signal")
	}
}

func TestSignalPowerEmpty(t *testing.T) {
	if SignalPower(nil) != 0 {
		t.Error("empty SignalPower should be 0")
	}
}

// Property: FFT is linear.
func TestQuickFFTLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 64
	f := func(ar, ai float64) bool {
		a := complex(math.Mod(ar, 10), math.Mod(ai, 10))
		if cmplx.IsNaN(a) {
			return true
		}
		x := make([]complex128, n)
		y := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		X, _ := FFT(x)
		Y, _ := FFT(y)
		S, _ := FFT(sum)
		for i := range S {
			if cmplx.Abs(S[i]-(a*X[i]+Y[i])) > 1e-6 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: FFT equals the naive O(n²) DFT, X[k] = Σ x[j]·e^(−2πi·jk/n),
// for random power-of-two lengths.
func TestQuickFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 1 << rng.Intn(10)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		X, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		for k := range X {
			var want complex128
			for j, v := range x {
				ph := -2 * math.Pi * float64(j*k%n) / float64(n)
				want += v * cmplx.Exp(complex(0, ph))
			}
			if cmplx.Abs(X[k]-want) > 1e-9*float64(n) {
				t.Fatalf("n=%d: X[%d] = %v, DFT %v", n, k, X[k], want)
			}
		}
	}
}

// SignalPower returns the mean power (1/N)·Σ|x[i]|² of x, or 0 for an
// empty slice.
func SignalPower(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range x {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return sum / float64(len(x))
}
