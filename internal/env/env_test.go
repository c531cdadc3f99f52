package env

import (
	"math"
	"testing"

	"github.com/libra-wlan/libra/internal/geom"
)

// allEnvironments returns the main campaign's environments in the order of
// Table 1's columns, then the testing campaign's (Table 2).
func allEnvironments() []*Environment {
	return []*Environment{Lobby(), Lab(), ConferenceRoom(), NarrowCorridor(),
		MediumCorridor(), WideCorridor(), Building1(), Building2()}
}

func TestAllEnvironmentsWellFormed(t *testing.T) {
	for _, e := range allEnvironments() {
		if e.Name == "" {
			t.Error("environment without a name")
		}
		if e.Width <= 0 || e.Height <= 0 {
			t.Errorf("%s: bad extents %v x %v", e.Name, e.Width, e.Height)
		}
		if len(e.Walls) < 4 {
			t.Errorf("%s: only %d walls", e.Name, len(e.Walls))
		}
		for i, w := range e.Walls {
			if w.Seg.A == w.Seg.B {
				t.Errorf("%s wall %d: zero length", e.Name, i)
			}
			if w.Mat.Name == "" || w.Mat.ReflLossDB < 0 {
				t.Errorf("%s wall %d: bad material %+v", e.Name, i, w.Mat)
			}
		}
	}
}

func TestEnvironmentDimensions(t *testing.T) {
	cases := []struct {
		e    *Environment
		w, h float64
	}{
		{Lab(), 11.8, 9.2},
		{ConferenceRoom(), 10.4, 6.8},
		{NarrowCorridor(), 25, 1.74},
		{Building1(), 30, 2.5},
	}
	for _, c := range cases {
		if c.e.Width != c.w || c.e.Height != c.h {
			t.Errorf("%s: %v x %v, want %v x %v", c.e.Name, c.e.Width, c.e.Height, c.w, c.h)
		}
	}
}

func TestCorridorWidths(t *testing.T) {
	// The three measured corridor widths of §4.2.
	if NarrowCorridor().Height != 1.74 {
		t.Error("narrow corridor width")
	}
	if MediumCorridor().Height != 3.2 {
		t.Error("medium corridor width")
	}
	if WideCorridor().Height != 6.2 {
		t.Error("wide corridor width")
	}
}

func TestWallsWithinBounds(t *testing.T) {
	for _, e := range allEnvironments() {
		for i, w := range e.Walls {
			for _, p := range []geom.Vec{w.Seg.A, w.Seg.B} {
				if p.X < -1e-9 || p.X > e.Width+1e-9 || p.Y < -1e-9 || p.Y > e.Height+1e-9 {
					t.Errorf("%s wall %d endpoint %v outside %vx%v", e.Name, i, p, e.Width, e.Height)
				}
			}
		}
	}
}

func TestPerimeterClosed(t *testing.T) {
	// Every environment must enclose its area: for a probe point inside,
	// rays toward the 4 cardinal directions must each cross some wall.
	for _, e := range allEnvironments() {
		c := geom.V(e.Width/2+0.13, e.Height/2+0.07)
		dirs := []geom.Vec{geom.V(1, 0), geom.V(-1, 0), geom.V(0, 1), geom.V(0, -1)}
		for _, d := range dirs {
			ray := geom.Seg(c, c.Add(d.Scale(e.Width+e.Height)))
			hit := false
			for _, w := range e.Walls {
				if _, ok := ray.Intersect(w.Seg); ok {
					hit = true
					break
				}
			}
			if !hit {
				t.Errorf("%s: open perimeter toward %v", e.Name, d)
			}
		}
	}
}

func TestContains(t *testing.T) {
	e := Lab()
	if !e.Contains(geom.V(5, 5)) {
		t.Error("interior point not contained")
	}
	if e.Contains(geom.V(-1, 5)) || e.Contains(geom.V(5, 20)) {
		t.Error("exterior point contained")
	}
}

func TestMaterialOrdering(t *testing.T) {
	// Metal reflects best; old plaster worst — the contrast that makes
	// Building 1 a hard transfer target (§6.2).
	if !(Metal.ReflLossDB < Glass.ReflLossDB &&
		Glass.ReflLossDB < Drywall.ReflLossDB &&
		Drywall.ReflLossDB < OldPlaster.ReflLossDB) {
		t.Error("material reflection losses out of order")
	}
}

func TestBuilding1LessReflective(t *testing.T) {
	// Building 1 is "much older ... with fewer reflective surfaces".
	avg := func(e *Environment) float64 {
		var s float64
		for _, w := range e.Walls {
			s += w.Mat.ReflLossDB
		}
		return s / float64(len(e.Walls))
	}
	if avg(Building1()) <= avg(NarrowCorridor()) {
		t.Error("Building 1 should be less reflective than the campus corridor")
	}
}

func TestLobbyHasPillars(t *testing.T) {
	e := Lobby()
	// 4 rect-ish sides (south is 5 panels) + 2 pillars x 4 walls.
	pillarWalls := 0
	for _, w := range e.Walls {
		if w.Seg.A.Dist(w.Seg.B) == 0.5 && w.Mat.Name == Concrete.Name {
			pillarWalls++
		}
	}
	if pillarWalls != 8 {
		t.Errorf("pillar walls = %d, want 8", pillarWalls)
	}
}

func TestLobbyMixedPanels(t *testing.T) {
	e := Lobby()
	metal, glass := 0, 0
	for _, w := range e.Walls {
		if math.Abs(w.Seg.A.Y) < 1e-9 && math.Abs(w.Seg.B.Y) < 1e-9 {
			switch w.Mat.Name {
			case Metal.Name:
				metal++
			case Glass.Name:
				glass++
			}
		}
	}
	if metal == 0 || glass == 0 {
		t.Errorf("south side panels: metal=%d glass=%d", metal, glass)
	}
}

func TestEnvironmentsIndependent(t *testing.T) {
	// Each constructor returns a fresh value; mutating one must not
	// affect another.
	a, b := Lab(), Lab()
	a.Walls[0].Mat = Metal
	if b.Walls[0].Mat.Name == Metal.Name && Lab().Walls[0].Mat.Name == Metal.Name {
		t.Error("environment constructors share state")
	}
}

func TestString(t *testing.T) {
	if Lobby().String() != "lobby" {
		t.Errorf("String = %q", Lobby().String())
	}
}
