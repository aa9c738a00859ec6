package channel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/movr-sim/movr/internal/geom"
	"github.com/movr-sim/movr/internal/room"
	"github.com/movr-sim/movr/internal/units"
)

// obstacleLossReference is obstacleLossDB as it was before the far-field
// cull: the closest point, three distances and the knife-edge terms for
// every obstacle, with math.Min/math.Max. Frozen here, with the segment
// clamp it used, as the bit-level reference for the culled path.
func obstacleLossReference(seg geom.Segment, o room.Obstacle, lambda float64, hA, hB float64) float64 {
	closest := closestPointReference(seg, o.Shape.C)
	dc := closest.Dist(o.Shape.C)
	d1 := seg.A.Dist(closest)
	d2 := seg.B.Dist(closest)
	if d1 < 1e-6 || d2 < 1e-6 {
		if dc < o.Shape.R {
			return o.MaxLossDB
		}
		return 0
	}
	f := math.Sqrt(2 * (d1 + d2) / (lambda * d1 * d2))
	var horiz float64
	if dc >= o.Shape.R {
		horiz = knifeEdgeJ((o.Shape.R - dc) * f)
	} else {
		horiz = knifeEdgeJ((o.Shape.R-dc)*f) + knifeEdgeJ((o.Shape.R+dc)*f)
	}
	rayH := hA + (hB-hA)*d1/(d1+d2)
	vert := knifeEdgeJ((o.HeightM - rayH) * f)
	return math.Min(math.Min(horiz, vert), o.MaxLossDB)
}

// closestPointReference is geom.Segment.ClosestPoint with its
// math.Max/math.Min clamp.
func closestPointReference(s geom.Segment, p geom.Vec) geom.Vec {
	d := s.B.Sub(s.A)
	len2 := d.Dot(d)
	if len2 == 0 {
		return s.A
	}
	t := p.Sub(s.A).Dot(d) / len2
	t = math.Max(0, math.Min(1, t))
	return s.A.Add(d.Scale(t))
}

// checkObstacleLoss fails t unless obstacleLossDB equals the frozen
// reference bit for bit. NaN payloads are exempt: math.Min returns its
// canonical NaN where the builtin min passes an operand's NaN through,
// and no output of the simulator can tell two NaNs apart.
func checkObstacleLoss(t *testing.T, label string, seg geom.Segment, o room.Obstacle, lambda, hA, hB float64) {
	t.Helper()
	got := obstacleLossDB(seg, o, lambda, hA, hB)
	want := obstacleLossReference(seg, o, lambda, hA, hB)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("%s: seg %v→%v obstacle %+v λ %v heights %v/%v: got %v (%#x), reference %v (%#x)",
			label, seg.A, seg.B, o, lambda, hA, hB, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestObstacleLossMatchesReference holds the culled obstacleLossDB to the
// frozen reference over a seeded grid: carriers from 1 to 100 GHz, legs
// from a few micrometres to 40 m, coordinates offset up to 1e8 m, and
// hand, head, body and furniture discs placed through the leg, grazing
// it, straddling the cull threshold, far from it, and beyond either end.
// It also counts how often the cull fired right at its threshold, so the
// geometry cannot drift away from the cases that matter.
func TestObstacleLossMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	carriers := []float64{1e9, 2.4e9, 5.8e9, 24e9, 28e9, units.Band60GHz, 77e9, 100e9}
	offsets := []float64{0, 3, -250, 1e4, 1e6, -1e8}
	obstacles := []room.Obstacle{
		room.Hand(geom.Vec{}), room.Head(geom.Vec{}), room.Body(geom.Vec{}),
		room.Furniture(geom.Vec{}, 0.15), room.Furniture(geom.Vec{}, 0.45),
	}
	culled, nearThreshold, lossy := 0, 0, 0
	for c := 0; c < 3000; c++ {
		freq := carriers[c%len(carriers)]
		if c%3 == 0 {
			freq = 1e9 * math.Pow(100, rng.Float64()) // log-uniform 1–100 GHz
		}
		lambda := units.Wavelength(freq)
		off := geom.V(offsets[c%len(offsets)], offsets[(c/7)%len(offsets)])
		length := math.Pow(10, -5+6.6*rng.Float64()) // 1e-5 to ~40 m
		a := off.Add(geom.V(20*rng.Float64()-10, 20*rng.Float64()-10))
		b := geom.FromPolar(a, 360*rng.Float64(), length)
		seg := geom.Seg(a, b)
		dir := b.Sub(a).Unit()
		normal := dir.Perp()
		hA, hB := 0.5+2.5*rng.Float64(), 0.5+2.5*rng.Float64()
		for k := 0; k < 12; k++ {
			o := obstacles[rng.Intn(len(obstacles))]
			if rng.Intn(4) == 0 {
				o.HeightM = hA + (hB-hA)*rng.Float64() + 0.2*(rng.Float64()-0.5)
			}
			// Line parameter: mostly inside, sometimes beyond either end.
			along := -0.5 + 2*rng.Float64()
			if rng.Intn(3) == 0 {
				along = 0.5
			}
			margin := 0.78 * math.Sqrt(lambda*length/8)
			var perp float64
			switch k % 6 {
			case 0: // through the disc
				perp = o.Shape.R * (2*rng.Float64() - 1)
			case 1: // grazing the rim
				perp = o.Shape.R + 0.02*(rng.Float64()-0.5)
			case 2: // straddling the cull threshold
				perp = o.Shape.R + margin*(1+0.02*(rng.Float64()-0.5))
			case 3: // just at the threshold, within its slack
				perp = o.Shape.R + margin*(1+math.Pow(10, -12+9*rng.Float64())*float64(1-2*rng.Intn(2)))
			case 4: // far
				perp = o.Shape.R + margin + 20*rng.Float64()
			case 5: // anywhere nearby
				perp = 3 * rng.Float64()
			}
			if rng.Intn(2) == 0 {
				perp = -perp
			}
			o.Shape.C = a.Add(dir.Scale(along * length)).Add(normal.Scale(perp))
			label := fmt.Sprintf("case %d obstacle %d", c, k)
			checkObstacleLoss(t, label, seg, o, lambda, hA, hB)
			if farFieldClear(seg, o, lambda, hA, hB) {
				culled++
				if (k%6 == 2 || k%6 == 3) && along >= 0 && along <= 1 {
					nearThreshold++
				}
			}
			if obstacleLossReference(seg, o, lambda, hA, hB) > 0 {
				lossy++
			}
		}
	}
	if culled < 5000 || nearThreshold < 500 || lossy < 5000 {
		t.Fatalf("grid gave %d culls (%d at the threshold) and %d lossy cases; test geometry is wrong",
			culled, nearThreshold, lossy)
	}
}

// FuzzObstacleLoss checks obstacleLossDB against the frozen reference
// bit for bit (NaN payloads aside) over arbitrary legs, discs, heights, loss caps and
// wavelengths, including non-finite ones. The seed corpus under
// testdata/fuzz/FuzzObstacleLoss covers NaN and ±Inf heights; a
// negative, −0, NaN and +Inf MaxLossDB; a zero-length leg; a (+Inf, +Inf)
// centre on a diagonal leg; λ of 0 and +Inf; and coordinates near 1e8.
func FuzzObstacleLoss(f *testing.F) {
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, r, maxLoss, height, hA, hB, lambda float64) {
		seg := geom.Seg(geom.V(ax, ay), geom.V(bx, by))
		o := room.Obstacle{Shape: geom.Circle{C: geom.V(cx, cy), R: r}, MaxLossDB: maxLoss, HeightM: height}
		checkObstacleLoss(t, "fuzz", seg, o, lambda, hA, hB)
	})
}
