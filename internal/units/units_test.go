package units

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDBLinearRoundTrip(t *testing.T) {
	for _, db := range []float64{-120, -30, -3, 0, 3, 10, 20, 60} {
		got := LinearToDB(DBToLinear(db))
		if !almostEqual(got, db, 1e-9) {
			t.Errorf("round trip of %v dB = %v", db, got)
		}
	}
}

func TestDBLinearKnownValues(t *testing.T) {
	cases := []struct {
		db  float64
		lin float64
	}{
		{0, 1},
		{10, 10},
		{20, 100},
		{-10, 0.1},
		{3, 1.9952623149688795},
	}
	for _, c := range cases {
		if got := DBToLinear(c.db); !almostEqual(got, c.lin, 1e-9) {
			t.Errorf("DBToLinear(%v) = %v, want %v", c.db, got, c.lin)
		}
	}
}

func TestLinearToDBNonPositive(t *testing.T) {
	if !math.IsInf(LinearToDB(0), -1) {
		t.Error("LinearToDB(0) should be -Inf")
	}
	if !math.IsInf(LinearToDB(-5), -1) {
		t.Error("LinearToDB(-5) should be -Inf")
	}
	if !math.IsInf(MilliwattsToDBm(0), -1) {
		t.Error("MilliwattsToDBm(0) should be -Inf")
	}
}

func TestDBmConversions(t *testing.T) {
	if got := DBmToMilliwatts(0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("0 dBm = %v mW, want 1", got)
	}
	if got := DBmToMilliwatts(30); !almostEqual(got, 1000, 1e-9) {
		t.Errorf("30 dBm = %v mW, want 1000", got)
	}
	if got := WattsToDBm(1); !almostEqual(got, 30, 1e-9) {
		t.Errorf("1 W = %v dBm, want 30", got)
	}
}

func TestAddPowersDBm(t *testing.T) {
	// Two equal powers add to +3.01 dB.
	got := AddPowersDBm(10, 10)
	if !almostEqual(got, 10+10*math.Log10(2), 1e-9) {
		t.Errorf("10+10 dBm = %v", got)
	}
	// -Inf contributions are ignored.
	got = AddPowersDBm(10, math.Inf(-1))
	if !almostEqual(got, 10, 1e-9) {
		t.Errorf("10 + (-Inf) dBm = %v, want 10", got)
	}
	// Empty sum is -Inf (no power).
	if !math.IsInf(AddPowersDBm(), -1) {
		t.Error("empty AddPowersDBm should be -Inf")
	}
}

func TestWavelength(t *testing.T) {
	// 24 GHz -> 12.5 mm, 60 GHz -> ~5 mm.
	if got := Wavelength(ISM24GHz); !almostEqual(got, 0.012491, 1e-5) {
		t.Errorf("lambda(24 GHz) = %v", got)
	}
	if got := Wavelength(Band60GHz); !almostEqual(got, 0.004958, 1e-5) {
		t.Errorf("lambda(60.48 GHz) = %v", got)
	}
}

func TestFSPLKnownValue(t *testing.T) {
	// FSPL at 1 m, 24 GHz: 20 log10(4*pi*1/0.012491) = 60.05 dB.
	got := FSPL(1, ISM24GHz)
	if !almostEqual(got, 60.05, 0.05) {
		t.Errorf("FSPL(1 m, 24 GHz) = %v, want ~60.05", got)
	}
	// Doubling the distance adds 6.02 dB.
	d1, d2 := FSPL(2, ISM24GHz), FSPL(4, ISM24GHz)
	if !almostEqual(d2-d1, 6.0206, 1e-3) {
		t.Errorf("doubling distance added %v dB, want 6.02", d2-d1)
	}
}

func TestFSPLNearFieldClamp(t *testing.T) {
	// Below one wavelength the loss clamps to the one-wavelength value
	// (≈ 22 dB) and never goes negative.
	got := FSPL(1e-6, ISM24GHz)
	want := 20 * math.Log10(4*math.Pi)
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("near-field FSPL = %v, want %v", got, want)
	}
}

func TestThermalNoise(t *testing.T) {
	// Density (1 Hz, noiseless receiver) must be ~ -173.98 dBm/Hz.
	if got := ThermalNoiseDBm(1, 0); !almostEqual(got, -173.975, 0.01) {
		t.Errorf("noise density = %v dBm/Hz", got)
	}
	// 802.11ad channel with NF 6 dB: -173.98 + 10log10(1.76e9) + 6 = -75.5 dBm.
	got := ThermalNoiseDBm(Channel80211adBandwidth, 6)
	if !almostEqual(got, -75.52, 0.1) {
		t.Errorf("noise floor = %v dBm, want ~-75.5", got)
	}
}

func TestNormalizeDeg(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {360, 0}, {-90, 270}, {450, 90}, {-720, 0}, {359.5, 359.5},
	}
	for _, c := range cases {
		if got := NormalizeDeg(c.in); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalizeDeg(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAngleDiffDeg(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{10, 350, 20},
		{350, 10, -20},
		{180, 0, 180},
		{0, 180, 180}, // (-180, 180]: -180 maps to +180
		{90, 90, 0},
		{270, 90, 180},
	}
	for _, c := range cases {
		if got := AngleDiffDeg(c.a, c.b); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("AngleDiffDeg(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// normalizeDegMod and angleDiffDegMod are NormalizeDeg and AngleDiffDeg
// as they were before in-range angles skipped math.Mod.
func normalizeDegMod(deg float64) float64 {
	d := math.Mod(deg, 360)
	if d < 0 {
		d += 360
	}
	return d
}

func angleDiffDegMod(a, b float64) float64 {
	d := math.Mod(a-b, 360)
	switch {
	case d > 180:
		d -= 360
	case d <= -180:
		d += 360
	}
	return d
}

// TestAngleWrapMatchesMod holds NormalizeDeg and AngleDiffDeg bit for bit
// to their math.Mod forms: at ±0, just inside and at ±360, ±720,
// subnormals, ±1e300, NaN, ±Inf, and over a seeded sweep of angles and
// angle pairs.
func TestAngleWrapMatchesMod(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 359.99999999999994, -359.99999999999994,
		360, -360, 720, -720, 180, -180, 5e-324, -5e-324, 2.2250738585072014e-308,
		-1e-310, 1e300, -1e300, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	rng := rand.New(rand.NewSource(1))
	xs := append([]float64(nil), edges...)
	for i := 0; i < 40000; i++ {
		switch i % 4 {
		case 0:
			xs = append(xs, 720*rng.Float64()-360)
		case 1:
			xs = append(xs, 2000*rng.NormFloat64())
		case 2:
			xs = append(xs, math.Ldexp(rng.Float64(), rng.Intn(2100)-1074)*float64(1-2*rng.Intn(2)))
		default:
			xs = append(xs, math.Nextafter(360*float64(rng.Intn(5)-2), math.Inf(2*rng.Intn(2)-1)))
		}
	}
	b := math.Float64bits
	for i, x := range xs {
		if got, want := NormalizeDeg(x), normalizeDegMod(x); b(got) != b(want) {
			t.Fatalf("NormalizeDeg(%v) = %v (%#x), math.Mod form %v (%#x)", x, got, b(got), want, b(want))
		}
		for _, y := range []float64{0, math.Copysign(0, -1), xs[(i*7919+1)%len(xs)], 360 * rng.Float64()} {
			if got, want := AngleDiffDeg(x, y), angleDiffDegMod(x, y); b(got) != b(want) {
				t.Fatalf("AngleDiffDeg(%v, %v) = %v (%#x), math.Mod form %v (%#x)", x, y, got, b(got), want, b(want))
			}
		}
	}
}

// Property: dB -> linear -> dB is the identity over a wide range.
func TestQuickDBRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		db := math.Mod(x, 200) // keep within a sane dynamic range
		if math.IsNaN(db) {
			return true
		}
		return almostEqual(LinearToDB(DBToLinear(db)), db, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AddPowersDBm is no less than its largest operand and no more
// than largest + 10·log10(n).
func TestQuickAddPowersBounds(t *testing.T) {
	f := func(a, b, c float64) bool {
		ps := []float64{math.Mod(a, 60), math.Mod(b, 60), math.Mod(c, 60)}
		for _, p := range ps {
			if math.IsNaN(p) {
				return true
			}
		}
		sum := AddPowersDBm(ps...)
		maxP := math.Max(ps[0], math.Max(ps[1], ps[2]))
		return sum >= maxP-1e-9 && sum <= maxP+10*math.Log10(3)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FSPL is monotonically nondecreasing in distance.
func TestQuickFSPLMonotonic(t *testing.T) {
	f := func(a, b float64) bool {
		d1 := math.Abs(math.Mod(a, 100))
		d2 := math.Abs(math.Mod(b, 100))
		if math.IsNaN(d1) || math.IsNaN(d2) {
			return true
		}
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return FSPL(d1, ISM24GHz) <= FSPL(d2, ISM24GHz)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: NormalizeDeg output is always in [0, 360) and preserves the
// angle modulo 360.
func TestQuickNormalizeDeg(t *testing.T) {
	f := func(x float64) bool {
		d := math.Mod(x, 1e6)
		if math.IsNaN(d) {
			return true
		}
		n := NormalizeDeg(d)
		if n < 0 || n >= 360 {
			return false
		}
		return math.Abs(math.Mod(n-d, 360)) < 1e-6 || math.Abs(math.Abs(math.Mod(n-d, 360))-360) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
