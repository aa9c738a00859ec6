package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	a, b := V(1, 2), V(3, -1)
	if got := a.Add(b); got != V(4, 1) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 1 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != -7 {
		t.Errorf("Cross = %v", got)
	}
	if got := V(3, 4).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := V(0, 0).Dist(V(3, 4)); got != 5 {
		t.Errorf("Dist = %v", got)
	}
}

func TestUnitAndPerp(t *testing.T) {
	u := V(10, 0).Unit()
	if !u.AlmostEqual(V(1, 0), 1e-12) {
		t.Errorf("Unit = %v", u)
	}
	if got := V(0, 0).Unit(); got != V(0, 0) {
		t.Errorf("Unit(0) = %v", got)
	}
	if got := V(1, 0).Perp(); !got.AlmostEqual(V(0, 1), 1e-12) {
		t.Errorf("Perp = %v", got)
	}
}

func TestRotateAndAngle(t *testing.T) {
	got := V(1, 0).Rotate(90)
	if !got.AlmostEqual(V(0, 1), 1e-12) {
		t.Errorf("Rotate 90 = %v", got)
	}
	if a := V(0, 1).AngleDeg(); math.Abs(a-90) > 1e-12 {
		t.Errorf("AngleDeg = %v", a)
	}
	if a := V(-1, 0).AngleDeg(); math.Abs(a-180) > 1e-12 {
		t.Errorf("AngleDeg = %v", a)
	}
}

func TestFromPolarAndDirection(t *testing.T) {
	p := FromPolar(V(1, 1), 0, 2)
	if !p.AlmostEqual(V(3, 1), 1e-12) {
		t.Errorf("FromPolar = %v", p)
	}
	p = FromPolar(V(0, 0), 90, 3)
	if !p.AlmostEqual(V(0, 3), 1e-12) {
		t.Errorf("FromPolar 90 = %v", p)
	}
	if d := DirectionDeg(V(0, 0), V(0, 5)); math.Abs(d-90) > 1e-12 {
		t.Errorf("DirectionDeg = %v", d)
	}
}

func TestSegmentIntersect(t *testing.T) {
	s1 := Seg(V(0, 0), V(2, 2))
	s2 := Seg(V(0, 2), V(2, 0))
	p, ok := s1.Intersect(s2)
	if !ok || !p.AlmostEqual(V(1, 1), 1e-12) {
		t.Errorf("Intersect = %v, %v", p, ok)
	}
	// Non-crossing.
	s3 := Seg(V(3, 3), V(4, 4))
	if _, ok := s1.Intersect(s3); ok {
		t.Error("disjoint collinear segments should not intersect")
	}
	// Parallel.
	s4 := Seg(V(0, 1), V(2, 3))
	if _, ok := s1.Intersect(s4); ok {
		t.Error("parallel segments should not intersect")
	}
	// Touching at endpoint counts.
	s5 := Seg(V(2, 2), V(3, 0))
	if _, ok := s1.Intersect(s5); !ok {
		t.Error("segments touching at endpoint should intersect")
	}
}

func TestClosestPointAndDistance(t *testing.T) {
	s := Seg(V(0, 0), V(10, 0))
	if got := s.ClosestPoint(V(5, 3)); !got.AlmostEqual(V(5, 0), 1e-12) {
		t.Errorf("ClosestPoint = %v", got)
	}
	// Beyond endpoint clamps.
	if got := s.ClosestPoint(V(-4, 3)); !got.AlmostEqual(V(0, 0), 1e-12) {
		t.Errorf("ClosestPoint clamp = %v", got)
	}
	if got := s.DistanceTo(V(5, 3)); math.Abs(got-3) > 1e-12 {
		t.Errorf("DistanceTo = %v", got)
	}
	// Degenerate zero-length segment.
	z := Seg(V(1, 1), V(1, 1))
	if got := z.DistanceTo(V(4, 5)); math.Abs(got-5) > 1e-12 {
		t.Errorf("degenerate DistanceTo = %v", got)
	}
}

func TestCircleClearance(t *testing.T) {
	c := Circle{C: V(5, 1), R: 0.5}
	s := Seg(V(0, 0), V(10, 0))
	// Distance from centre to segment is 1; clearance 0.5.
	if got := c.SegmentClearance(s); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("clearance = %v", got)
	}
	if c.IntersectsSegment(s) {
		t.Error("segment should miss circle")
	}
	c2 := Circle{C: V(5, 0.2), R: 0.5}
	if !c2.IntersectsSegment(s) {
		t.Error("segment should hit circle")
	}
	if got := c2.SegmentClearance(s); math.Abs(got+0.3) > 1e-12 {
		t.Errorf("penetration = %v, want -0.3", got)
	}
}

func TestMirrorPoint(t *testing.T) {
	wall := Seg(V(0, 0), V(10, 0)) // the X axis
	img := MirrorPoint(V(3, 4), wall)
	if !img.AlmostEqual(V(3, -4), 1e-12) {
		t.Errorf("MirrorPoint = %v", img)
	}
	// Point on the wall is its own image.
	img = MirrorPoint(V(2, 0), wall)
	if !img.AlmostEqual(V(2, 0), 1e-12) {
		t.Errorf("on-wall MirrorPoint = %v", img)
	}
	// Degenerate wall returns p unchanged.
	img = MirrorPoint(V(1, 2), Seg(V(5, 5), V(5, 5)))
	if !img.AlmostEqual(V(1, 2), 1e-12) {
		t.Errorf("degenerate MirrorPoint = %v", img)
	}
}

func TestSpecularPoint(t *testing.T) {
	wall := Seg(V(0, 0), V(10, 0))
	tx, rx := V(2, 2), V(8, 2)
	hit, ok := SpecularPoint(tx, rx, wall)
	if !ok {
		t.Fatal("expected specular point")
	}
	// Symmetric geometry: reflection at x = 5.
	if !hit.AlmostEqual(V(5, 0), 1e-12) {
		t.Errorf("specular point = %v", hit)
	}
	// Equal angles property: |tx->hit| + |hit->rx| == |img(tx)->rx|.
	img := MirrorPoint(tx, wall)
	wantLen := img.Dist(rx)
	gotLen := tx.Dist(hit) + hit.Dist(rx)
	if math.Abs(wantLen-gotLen) > 1e-9 {
		t.Errorf("path length %v != image distance %v", gotLen, wantLen)
	}
}

func TestSpecularPointRejections(t *testing.T) {
	wall := Seg(V(0, 0), V(10, 0))
	// Opposite sides: no single-bounce reflection.
	if _, ok := SpecularPoint(V(2, 2), V(8, -2), wall); ok {
		t.Error("opposite sides should not reflect")
	}
	// Reflection point beyond the wall segment.
	if _, ok := SpecularPoint(V(20, 2), V(30, 2), wall); ok {
		t.Error("reflection point off-segment should fail")
	}
	// Point on the wall line.
	if _, ok := SpecularPoint(V(2, 0), V(8, 2), wall); ok {
		t.Error("tx on wall line should fail")
	}
}

// Property: mirror of mirror is the identity.
func TestQuickMirrorInvolution(t *testing.T) {
	wall := Seg(V(0, 0), V(10, 3))
	f := func(x, y float64) bool {
		x, y = math.Mod(x, 100), math.Mod(y, 100)
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		p := V(x, y)
		return MirrorPoint(MirrorPoint(p, wall), wall).AlmostEqual(p, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the specular path length equals the image distance (Fermat).
func TestQuickSpecularFermat(t *testing.T) {
	wall := Seg(V(0, 0), V(10, 0))
	f := func(ax, ay, bx, by float64) bool {
		tx := V(1+math.Abs(math.Mod(ax, 8)), 0.1+math.Abs(math.Mod(ay, 5)))
		rx := V(1+math.Abs(math.Mod(bx, 8)), 0.1+math.Abs(math.Mod(by, 5)))
		hit, ok := SpecularPoint(tx, rx, wall)
		if !ok {
			return true // geometry may legitimately reject
		}
		img := MirrorPoint(tx, wall)
		return math.Abs(tx.Dist(hit)+hit.Dist(rx)-img.Dist(rx)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rotation preserves vector length.
func TestQuickRotatePreservesNorm(t *testing.T) {
	f := func(x, y, deg float64) bool {
		x, y = math.Mod(x, 1e3), math.Mod(y, 1e3)
		deg = math.Mod(deg, 720)
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(deg) {
			return true
		}
		v := V(x, y)
		return math.Abs(v.Rotate(deg).Norm()-v.Norm()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
