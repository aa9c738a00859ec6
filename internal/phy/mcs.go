// Package phy models the IEEE 802.11ad physical layer the paper uses to
// convert measured SNR into achievable data rate: "the corresponding data
// rates are computed by substituting the SNRs measurements into standard
// rate tables based on the 802.11ad modulation and code rates" (§3).
//
// The package provides the control, single-carrier (SC), and OFDM MCS
// tables with their minimum-SNR operating points, plus helpers to pick the
// best MCS for an SNR and to express the VR headset's requirements.
package phy

import (
	"math"

	"github.com/movr-sim/movr/internal/units"
)

// PHYType identifies which 802.11ad PHY an MCS belongs to.
type PHYType int

const (
	// Control is the low-rate control PHY (MCS 0).
	Control PHYType = iota
	// SingleCarrier is the SC PHY (MCS 1-12).
	SingleCarrier
	// OFDM is the OFDM PHY (MCS 13-24).
	OFDM
)

// MCS is one modulation-and-coding scheme of 802.11ad.
type MCS struct {
	// Index is the standard MCS index (0-24).
	Index int

	// PHY is the PHY type this MCS belongs to.
	PHY PHYType

	// Modulation names the constellation.
	Modulation string

	// CodeRate is the LDPC code rate.
	CodeRate float64

	// RateBps is the PHY data rate in bits per second.
	RateBps float64

	// MinSNRdB is the minimum SNR at which the MCS operates at ~1% PER,
	// drawn from 802.11ad link-level evaluations.
	MinSNRdB float64
}

// Table is the full 802.11ad MCS set in increasing-index order. MCS 25-31
// (OFDM high orders beyond MCS 24) are not part of the mandatory set and
// are omitted, matching the rate tables the paper cites (max 6.76 Gb/s).
var Table = []MCS{
	{0, Control, "DBPSK", 0.5, 27.5 * units.Mbps, -6},

	{1, SingleCarrier, "pi/2-BPSK", 0.5, 385 * units.Mbps, 1},
	{2, SingleCarrier, "pi/2-BPSK", 0.5, 770 * units.Mbps, 2.5},
	{3, SingleCarrier, "pi/2-BPSK", 0.625, 962.5 * units.Mbps, 3.5},
	{4, SingleCarrier, "pi/2-BPSK", 0.75, 1155 * units.Mbps, 4.5},
	{5, SingleCarrier, "pi/2-BPSK", 0.8125, 1251.25 * units.Mbps, 5.5},
	{6, SingleCarrier, "pi/2-QPSK", 0.5, 1540 * units.Mbps, 6.5},
	{7, SingleCarrier, "pi/2-QPSK", 0.625, 1925 * units.Mbps, 7.5},
	{8, SingleCarrier, "pi/2-QPSK", 0.75, 2310 * units.Mbps, 9},
	{9, SingleCarrier, "pi/2-QPSK", 0.8125, 2502.5 * units.Mbps, 10},
	{10, SingleCarrier, "pi/2-16QAM", 0.5, 3080 * units.Mbps, 12},
	{11, SingleCarrier, "pi/2-16QAM", 0.625, 3850 * units.Mbps, 13.5},
	{12, SingleCarrier, "pi/2-16QAM", 0.75, 4620 * units.Mbps, 15},

	{13, OFDM, "SQPSK", 0.5, 693 * units.Mbps, 1.5},
	{14, OFDM, "SQPSK", 0.625, 866.25 * units.Mbps, 2.5},
	{15, OFDM, "QPSK", 0.5, 1386 * units.Mbps, 4},
	{16, OFDM, "QPSK", 0.625, 1732.5 * units.Mbps, 5},
	{17, OFDM, "QPSK", 0.75, 2079 * units.Mbps, 6.5},
	{18, OFDM, "16QAM", 0.5, 2772 * units.Mbps, 8},
	{19, OFDM, "16QAM", 0.625, 3465 * units.Mbps, 10},
	{20, OFDM, "16QAM", 0.75, 4158 * units.Mbps, 11.5},
	{21, OFDM, "16QAM", 0.8125, 4504.5 * units.Mbps, 13},
	{22, OFDM, "64QAM", 0.625, 5197.5 * units.Mbps, 14.5},
	{23, OFDM, "64QAM", 0.75, 6237 * units.Mbps, 17},
	{24, OFDM, "64QAM", 0.8125, 6756.75 * units.Mbps, 20},
}

// MaxRateBps is the highest 802.11ad rate (MCS 24), ≈6.76 Gb/s — the
// paper's "up to 6.8 Gbps".
var MaxRateBps = Table[len(Table)-1].RateBps

// Best returns the highest-rate MCS whose minimum SNR is at or below
// snrDB, and true when one exists. Below the control PHY threshold the
// link is down and Best returns false.
func Best(snrDB float64) (MCS, bool) {
	best := -1
	for i, m := range Table {
		if snrDB >= m.MinSNRdB {
			if best < 0 || m.RateBps > Table[best].RateBps {
				best = i
			}
		}
	}
	if best < 0 {
		return MCS{}, false
	}
	return Table[best], true
}

// RateBps returns the achievable data rate at snrDB, or 0 when the link
// cannot sustain even the control PHY.
func RateBps(snrDB float64) float64 {
	m, ok := Best(snrDB)
	if !ok {
		return 0
	}
	return m.RateBps
}

// MinSNRForRate returns the lowest SNR at which some MCS achieves at
// least rateBps, or +Inf when no MCS is fast enough.
func MinSNRForRate(rateBps float64) float64 {
	best := math.Inf(1)
	for _, m := range Table {
		if m.RateBps >= rateBps && m.MinSNRdB < best {
			best = m.MinSNRdB
		}
	}
	return best
}
