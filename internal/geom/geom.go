// Package geom provides the 2-D computational geometry used by the 60 GHz
// indoor channel simulator: vectors, line segments, ray casting, and
// mirror-image reflections for the image-method ray tracer.
//
// All coordinates are in meters. Angles are in radians unless a function name
// says otherwise.
package geom

import "math"

// Vec is a 2-D point or direction vector.
type Vec struct {
	X, Y float64
}

// V is shorthand for constructing a Vec.
func V(x, y float64) Vec { return Vec{X: x, Y: y} }

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z-component of the 3-D cross product of v and w.
func (v Vec) Cross(w Vec) float64 { return v.X*w.Y - v.Y*w.X }

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// LenSq returns the squared length of v, avoiding a sqrt.
func (v Vec) LenSq() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 { return v.Sub(w).Len() }

// Norm returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec) Norm() Vec {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Angle returns the angle of v measured from the +X axis in (-pi, pi].
func (v Vec) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Segment is a line segment between two points, typically a wall section.
type Segment struct {
	A, B Vec
}

// Seg is shorthand for constructing a Segment.
func Seg(a, b Vec) Segment { return Segment{A: a, B: b} }

// Mirror returns p reflected across the infinite line through the segment.
// This is the image-source construction used by the ray tracer.
func (s Segment) Mirror(p Vec) Vec {
	d := s.B.Sub(s.A)
	t := p.Sub(s.A).Dot(d) / d.LenSq()
	foot := s.A.Add(d.Scale(t))
	return foot.Add(foot.Sub(p))
}

// eps is the geometric tolerance for intersection tests.
const eps = 1e-9

// Intersect reports whether segments s and t intersect, and if so returns the
// parametric position u in [0,1] along s of the intersection point.
func (s Segment) Intersect(t Segment) (u float64, ok bool) {
	r := s.B.Sub(s.A)
	d := t.B.Sub(t.A)
	denom := r.Cross(d)
	if math.Abs(denom) < eps {
		return 0, false // parallel or collinear: treat as non-intersecting
	}
	qp := t.A.Sub(s.A)
	u = qp.Cross(d) / denom
	v := qp.Cross(r) / denom
	if u < -eps || u > 1+eps || v < -eps || v > 1+eps {
		return 0, false
	}
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	return u, true
}

// IntersectStrict is like Intersect but excludes intersections that occur
// within tol (parametric) of either endpoint of s. It is used to avoid a ray
// "hitting" the wall it just reflected from.
func (s Segment) IntersectStrict(t Segment, tol float64) (u float64, ok bool) {
	u, ok = s.Intersect(t)
	if !ok {
		return 0, false
	}
	if u < tol || u > 1-tol {
		return 0, false
	}
	return u, true
}

// PointAt returns the point at parametric position u along the segment.
func (s Segment) PointAt(u float64) Vec {
	return s.A.Add(s.B.Sub(s.A).Scale(u))
}

// Circle is a disc obstacle, used to model a human blocker's torso cross
// section at antenna height.
type Circle struct {
	Center Vec
	Radius float64
}

// IntersectsSegment reports whether the circle overlaps segment s, along with
// the chord length of the overlap (how much of the path passes through the
// disc). A longer chord means a more central, more attenuating blockage.
func (c Circle) IntersectsSegment(s Segment) (chord float64, ok bool) {
	d := s.B.Sub(s.A)
	f := s.A.Sub(c.Center)
	a := d.LenSq()
	if a == 0 {
		return 0, false
	}
	b := 2 * f.Dot(d)
	cc := f.LenSq() - c.Radius*c.Radius
	disc := b*b - 4*a*cc
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	t1 := (-b - sq) / (2 * a)
	t2 := (-b + sq) / (2 * a)
	// Clamp the intersection interval to the segment.
	if t1 < 0 {
		t1 = 0
	}
	if t2 > 1 {
		t2 = 1
	}
	if t2 <= t1 {
		return 0, false
	}
	return (t2 - t1) * math.Sqrt(a), true
}
