package geom

import "math"

// Segment is a line segment between two endpoints.
type Segment struct {
	A, B Vec
}

// Seg is shorthand for constructing a Segment.
func Seg(a, b Vec) Segment { return Segment{A: a, B: b} }

// Dir returns the unit direction from A to B.
func (s Segment) Dir() Vec { return s.B.Sub(s.A).Unit() }

// Normal returns the unit normal of the segment (Dir rotated 90° CCW).
func (s Segment) Normal() Vec { return s.Dir().Perp() }

// PointAt returns the point at parameter t along the segment, where t = 0
// is A and t = 1 is B.
func (s Segment) PointAt(t float64) Vec { return s.A.Lerp(s.B, t) }

// Intersect returns the intersection point of two segments and true when
// they cross (including touching at endpoints). Collinear overlapping
// segments report no single intersection point and return false.
func (s Segment) Intersect(o Segment) (Vec, bool) {
	d1 := s.B.Sub(s.A)
	d2 := o.B.Sub(o.A)
	denom := d1.Cross(d2)
	if math.Abs(denom) < 1e-15 {
		return Vec{}, false // parallel or collinear
	}
	diff := o.A.Sub(s.A)
	t := diff.Cross(d2) / denom
	u := diff.Cross(d1) / denom
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return Vec{}, false
	}
	return s.A.Add(d1.Scale(t)), true
}

// ClosestPoint returns the point on the segment closest to p.
func (s Segment) ClosestPoint(p Vec) Vec {
	d := s.B.Sub(s.A)
	len2 := d.Dot(d)
	if len2 == 0 {
		return s.A
	}
	t := p.Sub(s.A).Dot(d) / len2
	t = max(0, min(1, t))
	return s.A.Add(d.Scale(t))
}

// DistanceTo returns the shortest distance from p to the segment.
func (s Segment) DistanceTo(p Vec) float64 { return s.ClosestPoint(p).Dist(p) }

// Circle is a disc with centre C and radius R, used to model cylindrical
// obstacles (a hand, a head, a torso) in the floor plan.
type Circle struct {
	C Vec
	R float64
}

// SegmentClearance returns the distance from the circle's edge to the
// segment: positive when the segment misses the circle (by that margin),
// negative when the segment cuts through it (by the penetration depth).
func (c Circle) SegmentClearance(s Segment) float64 {
	return s.DistanceTo(c.C) - c.R
}

// IntersectsSegment reports whether the segment passes through the circle.
func (c Circle) IntersectsSegment(s Segment) bool {
	return c.SegmentClearance(s) < 0
}
