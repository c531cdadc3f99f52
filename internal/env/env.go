// Package env defines the indoor measurement environments of the paper
// (Appendix A.2): the campus-building lobby, lab, conference room, and three
// corridors used for the main/training dataset, plus the old-building
// corridor (Building 1) and the large open area (Building 2) used for the
// testing dataset. Each environment is a 2-D polygonal floor plan whose walls
// carry a material that determines per-bounce reflection loss at 60 GHz.
package env

import (
	"fmt"

	"github.com/libra-wlan/libra/internal/geom"
)

// Material describes the 60 GHz reflective behaviour of a surface.
type Material struct {
	// Name identifies the material.
	Name string
	// ReflLossDB is the power loss (dB) a ray suffers on one specular
	// reflection off this surface. Metal reflects almost perfectly; old
	// brick absorbs heavily.
	ReflLossDB float64
}

// Reference materials, with reflection losses in line with published 60 GHz
// indoor measurements (metal ~1-3 dB, glass ~7-9 dB, drywall ~9-12 dB,
// old plaster/brick ~14-18 dB).
var (
	Metal      = Material{Name: "metal", ReflLossDB: 1.5}
	Glass      = Material{Name: "glass", ReflLossDB: 5}
	Drywall    = Material{Name: "drywall", ReflLossDB: 6.5}
	Whiteboard = Material{Name: "whiteboard", ReflLossDB: 3}
	Concrete   = Material{Name: "concrete", ReflLossDB: 8}
	OldPlaster = Material{Name: "old-plaster", ReflLossDB: 12}
	Furniture  = Material{Name: "furniture", ReflLossDB: 8}
)

// Wall is one reflective surface in a floor plan.
type Wall struct {
	Seg geom.Segment
	Mat Material
}

// Environment is a named floor plan.
type Environment struct {
	// Name identifies the environment ("lobby", "lab", ...).
	Name string
	// Walls are the reflective surfaces. They also occlude rays.
	Walls []Wall
	// Width and Height are the bounding-box extents in meters, for
	// placement sanity checks.
	Width, Height float64
}

// Contains reports whether p lies inside the environment bounding box, with
// a small margin.
func (e *Environment) Contains(p geom.Vec) bool {
	const m = 0.05
	return p.X >= -m && p.X <= e.Width+m && p.Y >= -m && p.Y <= e.Height+m
}

// String returns the environment name.
func (e *Environment) String() string { return e.Name }

// rect builds the four walls of an axis-aligned rectangle (0,0)-(w,h), with
// per-side materials: south (y=0), east (x=w), north (y=h), west (x=0).
func rect(w, h float64, south, east, north, west Material) []Wall {
	return []Wall{
		{Seg: geom.Seg(geom.V(0, 0), geom.V(w, 0)), Mat: south},
		{Seg: geom.Seg(geom.V(w, 0), geom.V(w, h)), Mat: east},
		{Seg: geom.Seg(geom.V(w, h), geom.V(0, h)), Mat: north},
		{Seg: geom.Seg(geom.V(0, h), geom.V(0, 0)), Mat: west},
	}
}

// Lobby returns the campus-building lobby: a large open space with glass
// panels and metallic sheets covering one long side and a wall on the other
// (Appendix A.2.1, Fig. 14a).
func Lobby() *Environment {
	w, h := 20.0, 12.0
	e := &Environment{Name: "lobby", Width: w, Height: h}
	// South side: lower half metallic sheets, upper half glass. In 2-D at
	// antenna height (1.4 m) the mix is modeled by alternating panels.
	for i := 0; i < 5; i++ {
		x0 := float64(i) * w / 5
		x1 := x0 + w/5
		m := Glass
		if i%2 == 0 {
			m = Metal
		}
		e.Walls = append(e.Walls, Wall{Seg: geom.Seg(geom.V(x0, 0), geom.V(x1, 0)), Mat: m})
	}
	e.Walls = append(e.Walls,
		Wall{Seg: geom.Seg(geom.V(w, 0), geom.V(w, h)), Mat: Drywall},
		Wall{Seg: geom.Seg(geom.V(w, h), geom.V(0, h)), Mat: Drywall},
		Wall{Seg: geom.Seg(geom.V(0, h), geom.V(0, 0)), Mat: Drywall},
	)
	// Two structural pillars (Fig. 14a), modeled as small concrete boxes.
	e.Walls = append(e.Walls, pillar(6, 6, 0.5)...)
	e.Walls = append(e.Walls, pillar(13, 6, 0.5)...)
	return e
}

// pillar builds a small square obstacle of side s centered at (cx, cy).
func pillar(cx, cy, s float64) []Wall {
	h := s / 2
	c := []geom.Vec{
		geom.V(cx-h, cy-h), geom.V(cx+h, cy-h),
		geom.V(cx+h, cy+h), geom.V(cx-h, cy+h),
	}
	var walls []Wall
	for i := 0; i < 4; i++ {
		walls = append(walls, Wall{Seg: geom.Seg(c[i], c[(i+1)%4]), Mat: Concrete})
	}
	return walls
}

// Lab returns the 11.8 x 9.2 m lab with rows of desks surrounded by metallic
// storage cabinets and whiteboards (Appendix A.2.1, Fig. 14b).
func Lab() *Environment {
	w, h := 11.8, 9.2
	e := &Environment{Name: "lab", Width: w, Height: h}
	e.Walls = rect(w, h, Drywall, Metal, Whiteboard, Metal)
	// Four rows of desks with metal cabinets: reflective strips across the
	// room. Desks are below antenna height in the paper's setup (Tx raised
	// to 2.05 m), so only the taller cabinet end-caps enter the 2-D plan.
	for i := 0; i < 4; i++ {
		y := 1.8 + float64(i)*1.8
		e.Walls = append(e.Walls, Wall{Seg: geom.Seg(geom.V(1.0, y), geom.V(2.2, y)), Mat: Metal})
		e.Walls = append(e.Walls, Wall{Seg: geom.Seg(geom.V(w-2.2, y), geom.V(w-1.0, y)), Mat: Metal})
	}
	return e
}

// ConferenceRoom returns the 10.4 x 6.8 m conference room with a whiteboard
// wall, metallic cabinets, and a large central desk (Appendix A.2.1,
// Fig. 14c).
func ConferenceRoom() *Environment {
	w, h := 10.4, 6.8
	e := &Environment{Name: "conference", Width: w, Height: h}
	e.Walls = rect(w, h, Drywall, Drywall, Whiteboard, Metal)
	// Central table: furniture-grade reflector (chairs and table edge
	// scatter at antenna height).
	e.Walls = append(e.Walls,
		Wall{Seg: geom.Seg(geom.V(3.2, 2.6), geom.V(7.2, 2.6)), Mat: Furniture},
		Wall{Seg: geom.Seg(geom.V(3.2, 4.2), geom.V(7.2, 4.2)), Mat: Furniture},
	)
	return e
}

// Corridor returns one of the campus-building corridors. width must be one
// of the measured widths (1.74, 3.2, 6.2 m); any positive value is accepted
// so tests can explore other geometries. Corridor walls are drywall with
// metallic door frames providing strong reflectors.
func Corridor(width float64, length float64) *Environment {
	e := &Environment{
		Name:   fmt.Sprintf("corridor-%.2fm", width),
		Width:  length,
		Height: width,
	}
	e.Walls = rect(length, width, Drywall, Drywall, Drywall, Drywall)
	// Metallic door frames every ~4 m along both side walls.
	for x := 3.0; x+1 <= length; x += 4 {
		e.Walls = append(e.Walls, Wall{Seg: geom.Seg(geom.V(x, 0), geom.V(x+1.0, 0)), Mat: Metal})
		if x+3 <= length {
			e.Walls = append(e.Walls, Wall{Seg: geom.Seg(geom.V(x+2.0, width), geom.V(x+3.0, width)), Mat: Metal})
		}
	}
	return e
}

// NarrowCorridor, MediumCorridor, and WideCorridor return the three measured
// campus corridors (widths 1.74 m, 3.2 m, 6.2 m; §4.2).
func NarrowCorridor() *Environment { return Corridor(1.74, 25) }

// MediumCorridor returns the 3.2 m wide corridor.
func MediumCorridor() *Environment { return Corridor(3.2, 18) }

// WideCorridor returns the 6.2 m wide corridor.
func WideCorridor() *Environment { return Corridor(6.2, 18) }

// Building1 returns the testing-dataset corridor in the older building: a
// long 2.5 m wide corridor with old, absorptive walls and fewer reflective
// surfaces (§6.2).
func Building1() *Environment {
	w, length := 2.5, 30.0
	e := &Environment{Name: "building1-corridor", Width: length, Height: w}
	e.Walls = rect(length, w, OldPlaster, OldPlaster, OldPlaster, OldPlaster)
	return e
}

// Building2 returns the testing-dataset open area in the second building,
// much larger than the lobby (§6.2).
func Building2() *Environment {
	w, h := 30.0, 18.0
	e := &Environment{Name: "building2-openarea", Width: w, Height: h}
	e.Walls = rect(w, h, Glass, Drywall, Concrete, Drywall)
	e.Walls = append(e.Walls, pillar(10, 9, 0.6)...)
	e.Walls = append(e.Walls, pillar(20, 9, 0.6)...)
	return e
}
