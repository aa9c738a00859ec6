package phy

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/movr-sim/movr/internal/units"
)

func TestTableShape(t *testing.T) {
	if len(Table) != 25 {
		t.Fatalf("table size = %d, want 25 (MCS 0-24)", len(Table))
	}
	for i, m := range Table {
		if m.Index != i {
			t.Errorf("Table[%d].Index = %d", i, m.Index)
		}
		if m.RateBps <= 0 || m.CodeRate <= 0 || m.CodeRate > 1 {
			t.Errorf("MCS %d has bad rate/code: %+v", i, m)
		}
	}
}

func TestRateMonotoneInIndexWithinPHY(t *testing.T) {
	for i := 1; i < len(Table); i++ {
		if Table[i].PHY != Table[i-1].PHY {
			continue
		}
		if Table[i].RateBps <= Table[i-1].RateBps {
			t.Errorf("rate not increasing at MCS %d", i)
		}
		if Table[i].MinSNRdB <= Table[i-1].MinSNRdB {
			t.Errorf("SNR threshold not increasing at MCS %d", i)
		}
	}
}

func TestMaxRateMatchesPaper(t *testing.T) {
	// Paper §1: 802.11ad "can deliver up to 6.8 Gbps".
	if math.Abs(MaxRateBps-6.75675e9) > 1e6 {
		t.Errorf("max rate = %v", MaxRateBps)
	}
	// Paper §5.2: "the 20dB needed for the maximum data rate".
	m, ok := Best(20)
	if !ok || m.Index != 24 {
		t.Errorf("Best(20 dB) = %+v, want MCS 24", m)
	}
	if m2, _ := Best(19.9); m2.Index == 24 {
		t.Error("MCS 24 should need 20 dB")
	}
}

func TestBestAtPaperSNRs(t *testing.T) {
	// Fig 3: LOS mean SNR 25 dB -> "almost 7 Gb/s".
	if got := RateBps(25); got != MaxRateBps {
		t.Errorf("rate at 25 dB = %v", got)
	}
	// Hand blockage: 25-16 = 9 dB -> must fall below the VR requirement.
	req := HTCViveRequirement()
	if req.MetBySNR(9) {
		t.Error("9 dB should not meet the VR requirement")
	}
	// Dead link below control threshold.
	if _, ok := Best(-20); ok {
		t.Error("Best(-20 dB) should fail")
	}
	if RateBps(-20) != 0 {
		t.Error("rate at -20 dB should be 0")
	}
}

func TestMinSNRForRate(t *testing.T) {
	// 4.2 Gbps needs MCS 21 (4.5045 Gb/s @ 13 dB) or SC MCS 12 @ 15;
	// minimum is 13.
	if got := MinSNRForRate(4.2 * units.Gbps); got != 13 {
		t.Errorf("MinSNRForRate(4.2G) = %v, want 13", got)
	}
	if got := MinSNRForRate(100 * units.Gbps); !math.IsInf(got, 1) {
		t.Errorf("impossible rate should be +Inf, got %v", got)
	}
	if got := MinSNRForRate(0); got != Table[0].MinSNRdB {
		t.Errorf("MinSNRForRate(0) = %v", got)
	}
}

func TestVRRequirement(t *testing.T) {
	req := HTCViveRequirement()
	if req.RateBps < 2*units.Gbps {
		t.Error("VR must require multiple Gbps (paper §1)")
	}
	if req.LatencyBudgetS != 0.010 {
		t.Errorf("latency budget = %v, want 10 ms", req.LatencyBudgetS)
	}
	// Required SNR line sits in the low-to-mid teens (Fig 3 top).
	snr := req.RequiredSNRdB()
	if snr < 11 || snr > 16 {
		t.Errorf("required SNR = %v dB, want low teens", snr)
	}
	if !req.MetBySNR(25) {
		t.Error("25 dB should meet the requirement")
	}
	if !req.MetByRate(5 * units.Gbps) {
		t.Error("5 Gb/s should meet the requirement")
	}
	if req.MetByRate(1 * units.Gbps) {
		t.Error("1 Gb/s should fail the requirement")
	}
}

// Property: RateBps is monotone nondecreasing in SNR.
func TestQuickRateMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		s1, s2 := math.Mod(a, 60), math.Mod(b, 60)
		if math.IsNaN(s1) || math.IsNaN(s2) {
			return true
		}
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		return RateBps(s1) <= RateBps(s2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Best returns an MCS whose threshold is satisfied, and
// MinSNRForRate inverts RateBps.
func TestQuickBestConsistent(t *testing.T) {
	f := func(a float64) bool {
		snr := math.Mod(a, 40)
		if math.IsNaN(snr) {
			return true
		}
		m, ok := Best(snr)
		if !ok {
			return snr < Table[0].MinSNRdB
		}
		if m.MinSNRdB > snr {
			return false
		}
		// No other MCS with satisfied threshold has a higher rate.
		for _, o := range Table {
			if o.MinSNRdB <= snr && o.RateBps > m.RateBps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
