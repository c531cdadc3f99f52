package geom

import (
	"math"
	"math/rand"
	"testing"
)

const tol = 1e-9

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func almostVec(a, b Vec) bool { return almost(a.X, b.X) && almost(a.Y, b.Y) }

func TestVecBasicOps(t *testing.T) {
	a, b := V(1, 2), V(3, -4)
	if got := a.Add(b); !almostVec(got, V(4, -2)) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); !almostVec(got, V(-2, 6)) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); !almostVec(got, V(2, 4)) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); !almost(got, 3-8) {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); !almost(got, -4-6) {
		t.Errorf("Cross = %v", got)
	}
	if got := b.Len(); !almost(got, 5) {
		t.Errorf("Len = %v", got)
	}
	if got := b.LenSq(); !almost(got, 25) {
		t.Errorf("LenSq = %v", got)
	}
	if got := V(0, 0).Dist(b); !almost(got, 5) {
		t.Errorf("Dist = %v", got)
	}
}

func TestNorm(t *testing.T) {
	if got := V(3, 4).Norm(); !almost(got.Len(), 1) {
		t.Errorf("Norm length = %v", got.Len())
	}
	// Zero vector stays zero rather than producing NaN.
	if got := V(0, 0).Norm(); got.X != 0 || got.Y != 0 {
		t.Errorf("Norm(0) = %v", got)
	}
}

func TestAngleAndFromAngle(t *testing.T) {
	cases := []struct {
		v    Vec
		want float64
	}{
		{V(1, 0), 0},
		{V(0, 1), math.Pi / 2},
		{V(-1, 0), math.Pi},
		{V(0, -1), -math.Pi / 2},
	}
	for _, c := range cases {
		if got := c.v.Angle(); !almost(got, c.want) {
			t.Errorf("Angle(%v) = %v, want %v", c.v, got, c.want)
		}
		sin, cos := math.Sincos(c.want)
		if got := V(cos, sin).Angle(); !almost(got, c.want) {
			t.Errorf("Angle of the unit vector at %v = %v", c.want, got)
		}
	}
}

func TestDegRadRoundtrip(t *testing.T) {
	for _, d := range []float64{0, 45, 90, -120, 359} {
		if got := Deg(d * math.Pi / 180); !almost(got, d) {
			t.Errorf("Deg(%v*pi/180) = %v", d, got)
		}
	}
}

func TestSegmentBasics(t *testing.T) {
	s := Seg(V(0, 0), V(4, 0))
	if s.A != V(0, 0) || s.B != V(4, 0) {
		t.Errorf("Seg = %v", s)
	}
	if !almostVec(s.PointAt(0.25), V(1, 0)) {
		t.Errorf("PointAt = %v", s.PointAt(0.25))
	}
}

func TestMirror(t *testing.T) {
	wall := Seg(V(0, 0), V(10, 0)) // the X axis
	if got := wall.Mirror(V(3, 2)); !almostVec(got, V(3, -2)) {
		t.Errorf("Mirror = %v", got)
	}
}

func TestMirrorInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		wall := Seg(V(rng.Float64()*10, rng.Float64()*10), V(rng.Float64()*10, rng.Float64()*10))
		if wall.A.Dist(wall.B) < 1e-6 {
			continue
		}
		p := V(rng.Float64()*10, rng.Float64()*10)
		back := wall.Mirror(wall.Mirror(p))
		if !almostVecTol(back, p, 1e-6) {
			t.Fatalf("mirror twice: %v -> %v", p, back)
		}
	}
}

func almostVecTol(a, b Vec, tol float64) bool {
	return math.Abs(a.X-b.X) < tol && math.Abs(a.Y-b.Y) < tol
}

func TestMirrorPreservesDistanceToLine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		wall := Seg(V(rng.Float64()*10, rng.Float64()*10), V(rng.Float64()*10, rng.Float64()*10))
		if wall.A.Dist(wall.B) < 1e-6 {
			continue
		}
		p := V(rng.Float64()*10, rng.Float64()*10)
		m := wall.Mirror(p)
		// The mirrored point is equidistant from any point on the wall line.
		for _, u := range []float64{0, 0.5, 1} {
			w := wall.PointAt(u)
			if math.Abs(w.Dist(p)-w.Dist(m)) > 1e-6 {
				t.Fatalf("mirror distance differs at u=%v", u)
			}
		}
	}
}

func TestIntersect(t *testing.T) {
	a := Seg(V(0, 0), V(4, 4))
	b := Seg(V(0, 4), V(4, 0))
	u, ok := a.Intersect(b)
	if !ok || !almost(u, 0.5) {
		t.Errorf("Intersect = %v, %v", u, ok)
	}
	// Non-crossing.
	c := Seg(V(10, 10), V(11, 11))
	if _, ok := a.Intersect(c); ok {
		t.Error("disjoint segments reported intersecting")
	}
	// Parallel.
	d := Seg(V(0, 1), V(4, 5))
	if _, ok := a.Intersect(d); ok {
		t.Error("parallel segments reported intersecting")
	}
	// Touching at endpoint counts as intersecting (within tolerance).
	e := Seg(V(4, 4), V(8, 4))
	if _, ok := a.Intersect(e); !ok {
		t.Error("endpoint touch not detected")
	}
}

func TestIntersectStrict(t *testing.T) {
	a := Seg(V(0, 0), V(4, 0))
	crossingEnd := Seg(V(0, -1), V(0, 1)) // crosses exactly at a's start
	if _, ok := a.IntersectStrict(crossingEnd, 1e-6); ok {
		t.Error("strict intersection should exclude endpoints")
	}
	crossingMid := Seg(V(2, -1), V(2, 1))
	if _, ok := a.IntersectStrict(crossingMid, 1e-6); !ok {
		t.Error("strict intersection missed a mid crossing")
	}
}

func TestCircleIntersectsSegment(t *testing.T) {
	c := Circle{Center: V(0, 0), Radius: 1}
	// Straight through the center: chord = diameter.
	chord, ok := c.IntersectsSegment(Seg(V(-5, 0), V(5, 0)))
	if !ok || !almost(chord, 2) {
		t.Errorf("diameter chord = %v, %v", chord, ok)
	}
	// Tangent-ish grazing.
	chord, ok = c.IntersectsSegment(Seg(V(-5, 0.8), V(5, 0.8)))
	if !ok || chord >= 2 || chord <= 0 {
		t.Errorf("grazing chord = %v, %v", chord, ok)
	}
	// Miss.
	if _, ok := c.IntersectsSegment(Seg(V(-5, 2), V(5, 2))); ok {
		t.Error("miss reported as hit")
	}
	// Segment fully inside.
	chord, ok = c.IntersectsSegment(Seg(V(-0.3, 0), V(0.3, 0)))
	if !ok || !almost(chord, 0.6) {
		t.Errorf("inside chord = %v, %v", chord, ok)
	}
	// Segment starting inside, ending outside.
	chord, ok = c.IntersectsSegment(Seg(V(0, 0), V(5, 0)))
	if !ok || !almost(chord, 1) {
		t.Errorf("half chord = %v, %v", chord, ok)
	}
}

func TestChordShrinksWithOffset(t *testing.T) {
	c := Circle{Center: V(0, 0), Radius: 1}
	prev := math.Inf(1)
	for _, off := range []float64{0, 0.25, 0.5, 0.75, 0.95} {
		chord, ok := c.IntersectsSegment(Seg(V(-5, off), V(5, off)))
		if !ok {
			t.Fatalf("offset %v missed", off)
		}
		if chord >= prev {
			t.Fatalf("chord not decreasing at offset %v", off)
		}
		prev = chord
	}
}
