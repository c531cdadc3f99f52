// Package phased models the user-configurable phased antenna arrays of the
// X60 testbed (SiBeam 24-element module, 12 Tx + 12 Rx elements). The
// reference codebook defines 25 beam patterns whose main lobes are spaced
// roughly 5 degrees apart, spanning about 120 degrees in azimuth (-60 to +60
// degrees), with 3 dB beamwidths between 25 and 35 degrees. Like the patterns
// measured on COTS 60 GHz hardware, each beam features large side lobes in
// addition to the central main lobe; the side lobes are what occasionally
// make an indirect reflected path outperform the direct one (paper §3,
// Fig. 3c).
package phased

import (
	"math"

	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/splitmix"
)

// Codebook parameters mirroring the SiBeam reference codebook (paper §4.1).
const (
	// NumBeams is the number of steerable beam patterns per array.
	NumBeams = 25
	// BeamSpacingDeg is the main-lobe spacing between adjacent beams.
	BeamSpacingDeg = 5.0
	// MinSteerDeg and MaxSteerDeg bound the azimuth span of the codebook.
	MinSteerDeg = -60.0
	MaxSteerDeg = 60.0
	// QuasiOmniID is the pseudo-beam index representing quasi-omni
	// reception/transmission (used by 802.11ad-style sector sweeps).
	QuasiOmniID = -1
)

// sideLobe describes one discrete side lobe of a beam pattern.
type sideLobe struct {
	offsetDeg float64 // angular offset of the lobe peak from boresight
	levelDB   float64 // lobe peak gain relative to main-lobe peak (negative)
	widthDeg  float64 // 3 dB width of the lobe
}

// Beam is a single entry in the codebook: a main lobe plus a deterministic
// set of imperfect side lobes.
type Beam struct {
	// ID is the beam (sector) index in [0, NumBeams).
	ID int
	// BoresightDeg is the steering angle of the main lobe, relative to the
	// array's mechanical orientation.
	BoresightDeg float64
	// Beamwidth3dBDeg is the 3 dB width of the main lobe.
	Beamwidth3dBDeg float64
	// PeakGainDBi is the boresight gain.
	PeakGainDBi float64
	// FloorDBi is the gain floor outside all lobes (back/ambient radiation).
	FloorDBi float64

	lobes []sideLobe
}

// GainDBi returns the beam gain in dBi toward a direction offset by thetaDeg
// degrees from the array's mechanical boresight (i.e. in array-local
// coordinates). The pattern is the max over the main lobe, the side lobes,
// and the floor.
func (b *Beam) GainDBi(thetaDeg float64) float64 {
	g := lobeGain(thetaDeg, b.BoresightDeg, b.PeakGainDBi, b.Beamwidth3dBDeg)
	for _, sl := range b.lobes {
		lg := lobeGain(thetaDeg, b.BoresightDeg+sl.offsetDeg, b.PeakGainDBi+sl.levelDB, sl.widthDeg)
		if lg > g {
			g = lg
		}
	}
	if g < b.FloorDBi {
		g = b.FloorDBi
	}
	return g
}

// lobeGain evaluates a parabolic (in dB) lobe: peak - 12*(delta/width)^2,
// the standard 3GPP-style antenna pattern approximation. The quadratic gives
// exactly -3 dB at delta = width/2.
func lobeGain(thetaDeg, centerDeg, peakDB, width3dBDeg float64) float64 {
	d := angDiffDeg(thetaDeg, centerDeg)
	return peakDB - 12*(d/width3dBDeg)*(d/width3dBDeg)
}

// angDiffDeg returns the absolute angular difference in degrees, wrapped to
// [0, 180].
func angDiffDeg(a, b float64) float64 {
	d := a - b
	// Reduce into (-360, 360) without math.Mod: angles here are sums of an
	// atan2 result, a mechanical orientation, and a lobe offset, so |d| is
	// almost always < 720, where a single +-360 step equals Mod exactly
	// (Sterbenz: the operands are within a factor of two).
	if d >= 360 || d <= -360 {
		if d >= 720 || d <= -720 {
			d = math.Mod(d, 360)
		} else if d > 0 {
			d -= 360
		} else {
			d += 360
		}
	}
	if d < -180 {
		d += 360
	} else if d > 180 {
		d -= 360
	}
	return math.Abs(d)
}

// Array is a phased antenna array with a position, a mechanical orientation,
// and a codebook of beams.
type Array struct {
	// Pos is the array position in world coordinates (meters).
	Pos geom.Vec
	// OrientDeg is the mechanical boresight direction in world degrees
	// (0 = +X axis).
	OrientDeg float64
	// Beams is the codebook.
	Beams []*Beam
	// QuasiOmniGainDBi is the flat gain used in quasi-omni mode.
	QuasiOmniGainDBi float64
}

// NewArray builds an array with the reference 25-beam codebook. The seed
// perturbs side-lobe placement deterministically so that distinct devices
// have distinct, imperfect patterns (as real SiBeam/COTS arrays do).
func NewArray(pos geom.Vec, orientDeg float64, seed int64) *Array {
	a := &Array{
		Pos:              pos,
		OrientDeg:        orientDeg,
		QuasiOmniGainDBi: 2, // near-omni element-level gain
	}
	a.Beams = make([]*Beam, NumBeams)
	// Codebook perturbation draws from its own SplitMix64 state, never from
	// math/rand, so building a codebook cannot disturb a simulation stream.
	state := uint64(seed) ^ splitmix.Gamma
	rng := func() uint64 { return splitmix.Next(&state) }
	for i := 0; i < NumBeams; i++ {
		bore := MinSteerDeg + BeamSpacingDeg*float64(i)
		// Beamwidth widens toward the edges of the steering range, as
		// phased arrays scan loss broadens the beam: 25 deg at broadside,
		// 35 deg at +/-60 deg.
		bw := 25 + 10*math.Abs(bore)/60
		// Peak gain: ~15 dBi at broadside, dropping ~2 dB at the edges
		// (scan loss).
		peak := 15 - 2*math.Abs(bore)/60
		b := &Beam{
			ID:              i,
			BoresightDeg:    bore,
			Beamwidth3dBDeg: bw,
			PeakGainDBi:     peak,
			FloorDBi:        peak - 25,
		}
		// Two to three deterministic side lobes per beam.
		nl := 2 + int(rng()%2)
		for k := 0; k < nl; k++ {
			sign := 1.0
			if rng()%2 == 0 {
				sign = -1
			}
			off := sign * (35 + float64(rng()%700)/10) // 35..105 deg away
			lvl := -(8 + float64(rng()%80)/10)         // -8..-16 dB
			wid := 12 + float64(rng()%120)/10          // 12..24 deg wide
			b.lobes = append(b.lobes, sideLobe{offsetDeg: off, levelDB: lvl, widthDeg: wid})
		}
		a.Beams[i] = b
	}
	return a
}

// GainDBi returns the array gain in dBi toward the world-coordinate direction
// dir when using beam beamID. QuasiOmniID selects the quasi-omni pattern.
func (a *Array) GainDBi(beamID int, dir geom.Vec) float64 {
	worldDeg := geom.Deg(dir.Angle())
	localDeg := worldDeg - a.OrientDeg
	if beamID == QuasiOmniID {
		return a.QuasiOmniGainDBi
	}
	if beamID < 0 || beamID >= len(a.Beams) {
		return math.Inf(-1)
	}
	return a.Beams[beamID].GainDBi(localDeg)
}

// AllGainsDBi fills out[b] with the gain of every codebook beam toward the
// world-coordinate direction dir, and returns the quasi-omni gain. It is the
// batch form of GainDBi for sweep-style evaluation: the world-to-local angle
// conversion (an atan2) is done once instead of once per beam.
// len(out) must be at least NumBeams.
func (a *Array) AllGainsDBi(dir geom.Vec, out []float64) (quasiOmniDBi float64) {
	localDeg := geom.Deg(dir.Angle()) - a.OrientDeg
	for i, b := range a.Beams {
		out[i] = b.GainDBi(localDeg)
	}
	return a.QuasiOmniGainDBi
}
