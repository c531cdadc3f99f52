package phased

import (
	"math"
	"testing"

	"github.com/libra-wlan/libra/internal/geom"
)

func newTestArray() *Array {
	return NewArray(geom.V(0, 0), 0, 1)
}

// unitAt returns the unit vector at deg degrees from +X.
func unitAt(deg float64) geom.Vec {
	sin, cos := math.Sincos(deg * math.Pi / 180)
	return geom.V(cos, sin)
}

// bestBeamToward returns the beam whose boresight is closest to the
// world-coordinate direction of p from the array.
func bestBeamToward(a *Array, p geom.Vec) int {
	localDeg := geom.Deg(p.Sub(a.Pos).Angle()) - a.OrientDeg
	best, bestD := 0, math.Inf(1)
	for _, b := range a.Beams {
		if d := angDiffDeg(localDeg, b.BoresightDeg); d < bestD {
			best, bestD = b.ID, d
		}
	}
	return best
}

// TestCodebookValidates checks beam IDs and widths (count and boresights: TestCodebookStructure).
func TestCodebookValidates(t *testing.T) {
	for i, b := range newTestArray().Beams {
		if b.ID != i || b.Beamwidth3dBDeg < 25-1e-9 || b.Beamwidth3dBDeg > 35+1e-9 {
			t.Errorf("beam %d: ID %d, beamwidth %.1f outside [25,35]", i, b.ID, b.Beamwidth3dBDeg)
		}
	}
}

func TestCodebookStructure(t *testing.T) {
	a := newTestArray()
	if len(a.Beams) != NumBeams {
		t.Fatalf("beams = %d", len(a.Beams))
	}
	for i, b := range a.Beams {
		want := MinSteerDeg + BeamSpacingDeg*float64(i)
		if math.Abs(b.BoresightDeg-want) > 1e-9 {
			t.Errorf("beam %d boresight %v, want %v", i, b.BoresightDeg, want)
		}
	}
	// Boresights span the documented range.
	if a.Beams[0].BoresightDeg != MinSteerDeg || a.Beams[NumBeams-1].BoresightDeg != MaxSteerDeg {
		t.Error("codebook span wrong")
	}
}

func TestMainLobePeakAndWidth(t *testing.T) {
	a := newTestArray()
	for _, b := range a.Beams {
		peak := b.GainDBi(b.BoresightDeg)
		if math.Abs(peak-b.PeakGainDBi) > 1e-9 {
			t.Errorf("beam %d peak %v, want %v", b.ID, peak, b.PeakGainDBi)
		}
		// At +/- half the 3 dB beamwidth the gain is exactly 3 dB down
		// (unless a side lobe dominates there, which must not happen at
		// half beamwidth).
		for _, sgn := range []float64{-1, 1} {
			g := b.GainDBi(b.BoresightDeg + sgn*b.Beamwidth3dBDeg/2)
			if g > peak-3+1e-6 && math.Abs(g-(peak-3)) > 1e-6 {
				t.Errorf("beam %d gain at half width = %v, want <= %v", b.ID, g, peak-3)
			}
		}
	}
}

func TestSideLobesBelowMain(t *testing.T) {
	a := newTestArray()
	for _, b := range a.Beams {
		peak := b.GainDBi(b.BoresightDeg)
		// Sample the whole pattern: nothing exceeds the main peak.
		for deg := -180.0; deg <= 180; deg += 1 {
			if g := b.GainDBi(deg); g > peak+1e-9 {
				t.Fatalf("beam %d gain %v at %v exceeds peak %v", b.ID, g, deg, peak)
			}
		}
	}
}

func TestSideLobesExist(t *testing.T) {
	// The paper stresses that beams feature large side lobes; verify that
	// far off boresight the pattern rises above the floor somewhere.
	a := newTestArray()
	found := 0
	for _, b := range a.Beams {
		for deg := -180.0; deg <= 180; deg += 1 {
			if math.Abs(deg-b.BoresightDeg) < b.Beamwidth3dBDeg*1.5 {
				continue
			}
			if b.GainDBi(deg) > b.FloorDBi+3 {
				found++
				break
			}
		}
	}
	if found < NumBeams/2 {
		t.Errorf("only %d beams have visible side lobes", found)
	}
}

func TestGainFloor(t *testing.T) {
	a := newTestArray()
	for _, b := range a.Beams {
		for deg := -180.0; deg <= 180; deg += 0.5 {
			if g := b.GainDBi(deg); g < b.FloorDBi-1e-9 {
				t.Fatalf("beam %d below floor at %v: %v", b.ID, deg, g)
			}
		}
	}
}

func TestArrayGainOrientation(t *testing.T) {
	// Rotating the array must rotate the pattern with it.
	a := NewArray(geom.V(0, 0), 0, 2)
	b := NewArray(geom.V(0, 0), 90, 2)
	dirA := unitAt(0)
	dirB := unitAt(90)
	for beam := 0; beam < NumBeams; beam++ {
		ga := a.GainDBi(beam, dirA)
		gb := b.GainDBi(beam, dirB)
		if math.Abs(ga-gb) > 1e-9 {
			t.Fatalf("beam %d: rotated gain %v != %v", beam, gb, ga)
		}
	}
}

func TestQuasiOmni(t *testing.T) {
	a := newTestArray()
	for deg := -180.0; deg <= 180; deg += 7 {
		g := a.GainDBi(QuasiOmniID, unitAt(deg))
		if g != a.QuasiOmniGainDBi {
			t.Fatalf("quasi-omni gain at %v = %v", deg, g)
		}
	}
}

func TestInvalidBeam(t *testing.T) {
	a := newTestArray()
	if g := a.GainDBi(99, geom.V(1, 0)); !math.IsInf(g, -1) {
		t.Errorf("invalid beam gain = %v", g)
	}
}

func TestBestBeamToward(t *testing.T) {
	a := newTestArray()
	// A target straight ahead (0 deg local) should pick the middle beam.
	best := bestBeamToward(a, geom.V(10, 0))
	if got := a.Beams[best].BoresightDeg; math.Abs(got) > BeamSpacingDeg/2 {
		t.Errorf("best beam boresight %v for straight ahead", got)
	}
	// A target at +45 deg should pick a beam near 45.
	best = bestBeamToward(a, geom.V(10, 10))
	if got := a.Beams[best].BoresightDeg; math.Abs(got-45) > BeamSpacingDeg/2 {
		t.Errorf("best beam boresight %v for 45 deg", got)
	}
}

func TestBestBeamHasHighestGain(t *testing.T) {
	a := newTestArray()
	for deg := -55.0; deg <= 55; deg += 11 {
		target := unitAt(deg).Scale(10)
		best := bestBeamToward(a, target)
		gBest := a.GainDBi(best, target.Sub(a.Pos))
		// The geometrically nearest beam is within 1.5 dB of the true max
		// (side lobes of another beam may slightly exceed it).
		for bm := 0; bm < NumBeams; bm++ {
			if g := a.GainDBi(bm, target.Sub(a.Pos)); g > gBest+1.5 {
				t.Fatalf("beam %d gain %v beats nearest beam %d (%v) at %v deg", bm, g, best, gBest, deg)
			}
		}
	}
}

func TestCodebookDeterminism(t *testing.T) {
	a := NewArray(geom.V(0, 0), 0, 42)
	b := NewArray(geom.V(5, 5), 90, 42)
	for i := range a.Beams {
		for deg := -90.0; deg <= 90; deg += 13 {
			if a.Beams[i].GainDBi(deg) != b.Beams[i].GainDBi(deg) {
				t.Fatal("same seed produced different codebooks")
			}
		}
	}
	c := NewArray(geom.V(0, 0), 0, 43)
	same := true
	for i := range a.Beams {
		for deg := -90.0; deg <= 90; deg += 13 {
			if a.Beams[i].GainDBi(deg) != c.Beams[i].GainDBi(deg) {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical codebooks")
	}
}

func TestBeamwidthScanBroadening(t *testing.T) {
	a := newTestArray()
	center := a.Beams[NumBeams/2]
	edge := a.Beams[0]
	if edge.Beamwidth3dBDeg <= center.Beamwidth3dBDeg {
		t.Errorf("edge beamwidth %v not broader than broadside %v",
			edge.Beamwidth3dBDeg, center.Beamwidth3dBDeg)
	}
	if edge.PeakGainDBi >= center.PeakGainDBi {
		t.Errorf("edge peak %v not below broadside %v (scan loss)",
			edge.PeakGainDBi, center.PeakGainDBi)
	}
}
