package ofdm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/movr-sim/movr/internal/dsp"
)

func TestNewModemValidation(t *testing.T) {
	bad := []Config{
		{NFFT: 500, DataCarriers: 336, CPLen: 128, Mod: QPSK}, // not pow2
		{NFFT: 512, DataCarriers: 0, CPLen: 128, Mod: QPSK},   // no carriers
		{NFFT: 512, DataCarriers: 512, CPLen: 128, Mod: QPSK}, // too many
		{NFFT: 512, DataCarriers: 336, CPLen: 512, Mod: QPSK}, // CP too long
		{NFFT: 512, DataCarriers: 336, CPLen: -1, Mod: QPSK},  // negative CP
		{NFFT: 512, DataCarriers: 336, CPLen: 128, Mod: 99},   // bad modulation
	}
	for i, cfg := range bad {
		if _, err := NewModem(cfg); err == nil {
			t.Errorf("case %d should fail: %+v", i, cfg)
		}
	}
	m, err := NewModem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.SymbolLen() != 640 {
		t.Errorf("symbol length = %d, want 640", m.SymbolLen())
	}
}

func TestModulationMeta(t *testing.T) {
	if QPSK.BitsPerSymbol() != 2 || QAM16.BitsPerSymbol() != 4 || QAM64.BitsPerSymbol() != 6 {
		t.Error("bits per symbol wrong")
	}
	if Modulation(9).BitsPerSymbol() != 0 {
		t.Error("unknown modulation should have 0 bits")
	}
	if QPSK.String() != "QPSK" || QAM16.String() != "16QAM" || QAM64.String() != "64QAM" || Modulation(9).String() != "unknown" {
		t.Error("modulation names wrong")
	}
}

func TestConstellationUnitPower(t *testing.T) {
	for _, mod := range []Modulation{QPSK, QAM16, QAM64} {
		cfg := DefaultConfig()
		cfg.Mod = mod
		m, err := NewModem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := m.constellation()
		if len(c) != 1<<mod.BitsPerSymbol() {
			t.Errorf("%v: %d points", mod, len(c))
		}
		p := 0.0
		for _, s := range c {
			p += real(s)*real(s) + imag(s)*imag(s)
		}
		p /= float64(len(c))
		if math.Abs(p-1) > 1e-9 {
			t.Errorf("%v average power = %v, want 1", mod, p)
		}
	}
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	for _, mod := range []Modulation{QPSK, QAM16, QAM64} {
		cfg := DefaultConfig()
		cfg.Mod = mod
		m, _ := NewModem(cfg)
		rng := rand.New(rand.NewSource(42))
		ref := m.RandomSymbols(cfg.DataCarriers, rng)
		td, err := m.Modulate(ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(td) != m.SymbolLen() {
			t.Fatalf("time-domain length = %d", len(td))
		}
		rx, err := m.Demodulate(td)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if d := rx[i] - ref[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
				t.Fatalf("%v: point %d differs: %v vs %v", mod, i, rx[i], ref[i])
			}
		}
		// Noiseless EVM SNR is limited only by FFT round-off: enormous.
		snr, err := EstimateSNRdB(rx, ref)
		if err != nil {
			t.Fatal(err)
		}
		if snr < 150 {
			t.Errorf("noiseless SNR = %v, want > 150 dB", snr)
		}
	}
}

func TestModulateSizeErrors(t *testing.T) {
	m, _ := NewModem(DefaultConfig())
	if _, err := m.Modulate(make([]complex128, 3)); err == nil {
		t.Error("short input should error")
	}
	if _, err := m.Demodulate(make([]complex128, 3)); err == nil {
		t.Error("short demod input should error")
	}
}

func TestEVMSNRTracksAppliedSNR(t *testing.T) {
	m, _ := NewModem(DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	for _, wantSNR := range []float64{5, 15, 25} {
		var rxAll, refAll []complex128
		// Average over several symbols for a tight estimate.
		for s := 0; s < 8; s++ {
			ref := m.RandomSymbols(m.Config().DataCarriers, rng)
			td, err := m.Modulate(ref)
			if err != nil {
				t.Fatal(err)
			}
			// Apply channel: complex gain + AWGN at the target
			// per-subcarrier SNR. White time-domain noise of power P
			// lands P in every FFT bin, while the signal occupies only
			// DataCarriers of NFFT bins, so in-band SNR is the
			// full-band ratio scaled by NFFT/DataCarriers.
			gain := complex(0.5, 0.3)
			for i := range td {
				td[i] *= gain
			}
			cfg := m.Config()
			sigPow := dsp.SignalPower(td)
			perCarrier := sigPow * float64(cfg.NFFT) / float64(cfg.DataCarriers)
			noisePow := perCarrier / math.Pow(10, wantSNR/10)
			dsp.AddNoise(td, noisePow, rng)
			rx, err := m.Demodulate(td)
			if err != nil {
				t.Fatal(err)
			}
			rxAll = append(rxAll, rx...)
			refAll = append(refAll, ref...)
		}
		got, err := EstimateSNRdB(rxAll, refAll)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-wantSNR) > 1.0 {
			t.Errorf("estimated SNR = %v, want %v ± 1", got, wantSNR)
		}
	}
}

func TestEVMErrors(t *testing.T) {
	if _, err := EstimateSNRdB(nil, nil); err == nil {
		t.Error("empty inputs should error")
	}
	if _, err := EstimateSNRdB(make([]complex128, 2), make([]complex128, 3)); err == nil {
		t.Error("mismatched inputs should error")
	}
	if _, err := EstimateSNRdB(make([]complex128, 2), make([]complex128, 2)); err == nil {
		t.Error("all-zero reference should error")
	}
}

func TestCarrierLayoutAvoidsDC(t *testing.T) {
	m, _ := NewModem(DefaultConfig())
	for _, k := range m.carriers {
		if k == 0 {
			t.Fatal("DC bin must not be occupied")
		}
		if k < 0 || k >= m.Config().NFFT {
			t.Fatalf("carrier bin %d out of range", k)
		}
	}
	if len(m.carriers) != m.Config().DataCarriers {
		t.Errorf("carrier count = %d", len(m.carriers))
	}
}
