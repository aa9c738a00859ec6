package geom

// MirrorPoint returns p reflected across the infinite line that contains
// the segment wall. This is the "image source" of the image method used to
// construct specular reflection paths.
func MirrorPoint(p Vec, wall Segment) Vec {
	d := wall.B.Sub(wall.A)
	len2 := d.Dot(d)
	if len2 == 0 {
		return p
	}
	t := p.Sub(wall.A).Dot(d) / len2
	foot := wall.A.Add(d.Scale(t))
	return foot.Add(foot.Sub(p))
}

// SpecularPoint computes the point on wall at which a ray from tx reflects
// specularly to reach rx, using the image method: the reflection point is
// where the line from the mirror image of tx to rx crosses the wall. It
// returns false when no such point exists on the segment (the geometry does
// not admit a single-bounce path off this wall), including the degenerate
// cases where tx or rx lies on the wall's line or they are on opposite
// sides of it.
func SpecularPoint(tx, rx Vec, wall Segment) (Vec, bool) {
	n := wall.Normal()
	dTx := tx.Sub(wall.A).Dot(n)
	dRx := rx.Sub(wall.A).Dot(n)
	// Both endpoints must be strictly on the same side of the wall for a
	// physical reflection off the wall's face.
	if dTx*dRx <= 1e-15 {
		return Vec{}, false
	}
	img := MirrorPoint(tx, wall)
	hit, ok := wall.Intersect(Seg(img, rx))
	if !ok {
		return Vec{}, false
	}
	return hit, true
}
