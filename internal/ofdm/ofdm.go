// Package ofdm implements the OFDM modem the simulated AP and headset use
// for data-plane SNR measurement: "The AP transmits packets consisting of
// OFDM symbols and the headset's receiver receives these packets and
// computes the SNR" (paper §5.2).
//
// The modem uses the 802.11ad OFDM PHY numerology (512-point FFT, 336
// data subcarriers, 128-sample cyclic prefix) and supports the standard's
// constellations. SNR is estimated from the error vector magnitude (EVM)
// of received training symbols after single-tap least-squares
// equalization — the same genie-aided measurement a lab vector signal
// analyzer performs.
package ofdm

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"github.com/movr-sim/movr/internal/dsp"
)

// Modulation selects a subcarrier constellation.
type Modulation int

const (
	// QPSK carries 2 bits per subcarrier.
	QPSK Modulation = iota
	// QAM16 carries 4 bits per subcarrier.
	QAM16
	// QAM64 carries 6 bits per subcarrier.
	QAM64
)

// String names the modulation.
func (m Modulation) String() string {
	switch m {
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	default:
		return "unknown"
	}
}

// BitsPerSymbol returns the bits carried per subcarrier.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	default:
		return 0
	}
}

// Config is the OFDM numerology.
type Config struct {
	// NFFT is the FFT size (power of two).
	NFFT int

	// DataCarriers is the number of occupied data subcarriers
	// (≤ NFFT−1; DC is never occupied).
	DataCarriers int

	// CPLen is the cyclic prefix length in samples.
	CPLen int

	// Mod is the subcarrier constellation.
	Mod Modulation
}

// DefaultConfig returns the 802.11ad OFDM PHY numerology.
func DefaultConfig() Config {
	return Config{NFFT: 512, DataCarriers: 336, CPLen: 128, Mod: QPSK}
}

// Modem modulates and demodulates OFDM symbols.
type Modem struct {
	cfg      Config
	carriers []int // occupied bin indices
}

// NewModem validates cfg and returns a Modem.
func NewModem(cfg Config) (*Modem, error) {
	if !dsp.IsPow2(cfg.NFFT) {
		return nil, fmt.Errorf("ofdm: NFFT %d must be a power of two", cfg.NFFT)
	}
	if cfg.DataCarriers < 1 || cfg.DataCarriers > cfg.NFFT-1 {
		return nil, fmt.Errorf("ofdm: DataCarriers %d out of range for NFFT %d", cfg.DataCarriers, cfg.NFFT)
	}
	if cfg.CPLen < 0 || cfg.CPLen >= cfg.NFFT {
		return nil, fmt.Errorf("ofdm: CPLen %d out of range", cfg.CPLen)
	}
	if cfg.Mod.BitsPerSymbol() == 0 {
		return nil, fmt.Errorf("ofdm: unknown modulation %d", cfg.Mod)
	}
	m := &Modem{cfg: cfg}
	// Occupy subcarriers symmetrically around DC (bin 0 excluded):
	// positive bins 1..h, negative bins NFFT-1..NFFT-h'.
	half := cfg.DataCarriers / 2
	for k := 1; k <= half; k++ {
		m.carriers = append(m.carriers, k)
	}
	for k := 1; k <= cfg.DataCarriers-half; k++ {
		m.carriers = append(m.carriers, cfg.NFFT-k)
	}
	return m, nil
}

// Config returns the modem's numerology.
func (m *Modem) Config() Config { return m.cfg }

// SymbolLen returns the time-domain length of one OFDM symbol including
// its cyclic prefix.
func (m *Modem) SymbolLen() int { return m.cfg.NFFT + m.cfg.CPLen }

// constellation returns the unit-average-power constellation points of
// the configured modulation in Gray order.
func (m *Modem) constellation() []complex128 {
	switch m.cfg.Mod {
	case QPSK:
		s := math.Sqrt2
		return []complex128{
			complex(1/s, 1/s), complex(-1/s, 1/s),
			complex(1/s, -1/s), complex(-1/s, -1/s),
		}
	case QAM16:
		return squareQAM([]float64{-3, -1, 3, 1}, math.Sqrt(10))
	case QAM64:
		return squareQAM([]float64{-7, -5, -1, -3, 7, 5, 1, 3}, math.Sqrt(42))
	default:
		return nil
	}
}

// squareQAM builds a square constellation from per-axis Gray-ordered
// levels, normalized by norm to unit average power.
func squareQAM(levels []float64, norm float64) []complex128 {
	pts := make([]complex128, 0, len(levels)*len(levels))
	for _, re := range levels {
		for _, im := range levels {
			pts = append(pts, complex(re/norm, im/norm))
		}
	}
	return pts
}

// RandomSymbols draws n random constellation points from rng, for use as
// training data.
func (m *Modem) RandomSymbols(n int, rng *rand.Rand) []complex128 {
	c := m.constellation()
	out := make([]complex128, n)
	for i := range out {
		out[i] = c[rng.Intn(len(c))]
	}
	return out
}

// Modulate converts one OFDM symbol's worth of constellation points (one
// per data carrier) into time-domain samples with cyclic prefix. The
// output is scaled so that average time-domain power equals the average
// constellation power times DataCarriers/NFFT.
func (m *Modem) Modulate(points []complex128) ([]complex128, error) {
	if len(points) != m.cfg.DataCarriers {
		return nil, fmt.Errorf("ofdm: got %d points, need %d", len(points), m.cfg.DataCarriers)
	}
	grid := make([]complex128, m.cfg.NFFT)
	for i, k := range m.carriers {
		grid[k] = points[i]
	}
	td, err := dsp.IFFT(grid)
	if err != nil {
		return nil, err
	}
	// IFFT includes 1/N; rescale by sqrt(N) to preserve per-carrier
	// power in a measurement-friendly way.
	scale := complex(math.Sqrt(float64(m.cfg.NFFT)), 0)
	for i := range td {
		td[i] *= scale
	}
	// Prepend cyclic prefix.
	out := make([]complex128, 0, m.SymbolLen())
	out = append(out, td[m.cfg.NFFT-m.cfg.CPLen:]...)
	out = append(out, td...)
	return out, nil
}

// Demodulate strips the cyclic prefix and returns the received
// constellation points for one OFDM symbol.
func (m *Modem) Demodulate(samples []complex128) ([]complex128, error) {
	if len(samples) != m.SymbolLen() {
		return nil, fmt.Errorf("ofdm: got %d samples, need %d", len(samples), m.SymbolLen())
	}
	td := samples[m.cfg.CPLen:]
	grid, err := dsp.FFT(td)
	if err != nil {
		return nil, err
	}
	scale := complex(1/math.Sqrt(float64(m.cfg.NFFT)), 0)
	pts := make([]complex128, len(m.carriers))
	for i, k := range m.carriers {
		pts[i] = grid[k] * scale
	}
	return pts, nil
}

// EstimateSNRdB performs the EVM-based SNR measurement: it equalizes the
// received points against the known reference with a single least-squares
// complex tap, then returns reference power over residual error power in
// dB. It returns +Inf for a noiseless channel and an error for mismatched
// or empty inputs.
func EstimateSNRdB(received, reference []complex128) (float64, error) {
	if len(received) != len(reference) || len(received) == 0 {
		return 0, fmt.Errorf("ofdm: EVM needs equal non-empty slices (got %d, %d)", len(received), len(reference))
	}
	var num complex128
	var den float64
	for i := range reference {
		num += received[i] * cmplx.Conj(reference[i])
		den += real(reference[i])*real(reference[i]) + imag(reference[i])*imag(reference[i])
	}
	if den == 0 {
		return 0, fmt.Errorf("ofdm: all-zero reference")
	}
	h := num / complex(den, 0)
	var sig, errPow float64
	for i := range reference {
		ref := h * reference[i]
		d := received[i] - ref
		sig += real(ref)*real(ref) + imag(ref)*imag(ref)
		errPow += real(d)*real(d) + imag(d)*imag(d)
	}
	if errPow == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(sig/errPow), nil
}

// MeasureAtSNR performs the full data-plane SNR measurement the paper's
// headset does (§5.2): modulate nSymbols random OFDM symbols, pass them
// through a flat channel with AWGN at the given per-subcarrier SNR,
// demodulate, and return the EVM-estimated SNR. It is the closed loop
// that validates the analytic link budget against the signal path.
func (m *Modem) MeasureAtSNR(snrDB float64, nSymbols int, seed int64) (float64, error) {
	if nSymbols < 1 {
		return 0, fmt.Errorf("ofdm: nSymbols %d must be ≥ 1", nSymbols)
	}
	rng := rand.New(rand.NewSource(seed))
	var rxAll, refAll []complex128
	for s := 0; s < nSymbols; s++ {
		ref := m.RandomSymbols(m.cfg.DataCarriers, rng)
		td, err := m.Modulate(ref)
		if err != nil {
			return 0, err
		}
		// Flat channel gain (arbitrary complex scale the EVM estimator
		// must absorb) plus AWGN at the requested in-band SNR.
		gain := complex(0.8, -0.4)
		for i := range td {
			td[i] *= gain
		}
		sig := 0.0
		for _, v := range td {
			sig += real(v)*real(v) + imag(v)*imag(v)
		}
		sig /= float64(len(td))
		perCarrier := sig * float64(m.cfg.NFFT) / float64(m.cfg.DataCarriers)
		noise := perCarrier / math.Pow(10, snrDB/10)
		sigma := math.Sqrt(noise / 2)
		for i := range td {
			td[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
		rx, err := m.Demodulate(td)
		if err != nil {
			return 0, err
		}
		rxAll = append(rxAll, rx...)
		refAll = append(refAll, ref...)
	}
	return EstimateSNRdB(rxAll, refAll)
}
