// Package channel implements the 60 GHz indoor propagation simulator that
// replaces the paper's X60 testbed. It combines an image-method ray tracer
// (line-of-sight plus first- and second-order specular reflections off the
// environment's walls), a Friis link budget at 60 GHz, human-blocker
// attenuation, and co-channel interference, and from these derives every PHY
// layer quantity the paper logs per frame: SNR, RSS, noise level, power delay
// profile (PDP), and time-of-flight (ToF).
//
// The 60 GHz channel is sparse: a handful of strong specular paths dominate
// (paper §6.1, Fig. 6 discussion). Specular image-method tracing captures
// exactly that structure.
package channel

import (
	"math"

	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
)

// Physical constants of the simulated radio (matching X60 / 802.11ad).
const (
	// FrequencyHz is the carrier frequency (channel 2 around 60.48 GHz).
	FrequencyHz = 60.48e9
	// BandwidthHz is the channel bandwidth (2 GHz, same as 802.11ad).
	BandwidthHz = 2e9
	// SpeedOfLight in m/s.
	SpeedOfLight = 299792458.0
	// DefaultTxPowerDBm is every link's transmit power; the link budget
	// has no per-link override.
	DefaultTxPowerDBm = 20.0
	// DefaultNoiseFigureDB is every link's receiver noise figure; the
	// thermal floor (thermalMw) is fixed by it.
	DefaultNoiseFigureDB = 7.0
	// DefaultImplLossDB is the implementation loss of the wideband 60 GHz
	// front end (EVM, phase noise, imperfect combining over 2 GHz of
	// bandwidth). It calibrates the link budget so that indoor ranges of
	// 2-20 m produce the MCS 2-6 operating points observed in the paper
	// (Fig. 9).
	DefaultImplLossDB = 20.0
	// SensitivityDBm: below this received power the receiver cannot lock,
	// and quantities like ToF are reported as +Inf (X60 reports ToF as
	// infinity under extremely weak signal, §6.1).
	SensitivityDBm = -78.0
)

// ThermalNoiseDBm returns the thermal noise floor for the channel bandwidth:
// -174 dBm/Hz + 10 log10(B) + NF.
func ThermalNoiseDBm(noiseFigureDB float64) float64 {
	return -174 + 10*math.Log10(BandwidthHz) + noiseFigureDB
}

// OxygenAbsorptionDBPerKm is the atmospheric O2 absorption around 60 GHz —
// the band's signature impairment (~15 dB/km at sea level). Indoors it adds
// only fractions of a dB, but long NLOS paths feel it first.
const OxygenAbsorptionDBPerKm = 15.0

// FSPLdB returns the path loss at distance d meters at 60.48 GHz: free-space
// spreading plus atmospheric oxygen absorption.
func FSPLdB(d float64) float64 {
	if d < 0.1 {
		d = 0.1
	}
	return 20*math.Log10(d) + 20*math.Log10(FrequencyHz) + 20*math.Log10(4*math.Pi/SpeedOfLight) +
		OxygenAbsorptionDBPerKm*d/1000
}

// Path is one propagation path between Tx and Rx.
type Path struct {
	// Dist is the total traveled distance in meters.
	Dist float64
	// DelayNs is the propagation delay in nanoseconds.
	DelayNs float64
	// LossDB is the total propagation loss (FSPL + reflection losses +
	// blockage attenuation), excluding antenna gains.
	LossDB float64
	// Depart is the unit departure direction at the Tx.
	Depart geom.Vec
	// Arrive is the unit direction from the Rx toward the last bounce (or
	// the Tx for LOS); i.e. the direction the Rx "sees" the signal from.
	Arrive geom.Vec
	// Bounces is the number of wall reflections (0 = LOS).
	Bounces int
	// Blocked reports whether a blocker attenuates (but does not fully
	// occlude) this path.
	Blocked bool
}

// Blocker is a human body at antenna height, modeled as a disc that
// attenuates rays passing through it. At 60 GHz a human torso attenuates
// 15-35 dB depending on how centrally the path crosses it.
type Blocker struct {
	Pos geom.Vec
	// Radius is the torso cross-section radius (typically ~0.2 m).
	Radius float64
	// MaxAttenDB is the attenuation of a dead-center crossing.
	MaxAttenDB float64
}

// DefaultBlocker returns a human blocker at p with typical parameters.
func DefaultBlocker(p geom.Vec) Blocker {
	return Blocker{Pos: p, Radius: 0.22, MaxAttenDB: 28}
}

// Interferer is a co-channel transmitter (the hidden-terminal Talon router of
// §4.2). Its signal reaches the Rx through the same environment and raises
// the effective noise level.
type Interferer struct {
	// Pos is the interferer position.
	Pos geom.Vec
	// EIRPdBm is its effective radiated power toward the victim Rx
	// (transmit power + its antenna gain along the Rx direction). The
	// paper creates high/medium/low interference by trying sectors and
	// positions; here the same effect is achieved by EIRP and position.
	EIRPdBm float64
	// DutyCycle in [0,1] is the fraction of time the interferer transmits.
	DutyCycle float64
}

// Link is a Tx-Rx pair in an environment, with optional blockers and
// interferers. The zero value is not usable; use NewLink.
type Link struct {
	Env *env.Environment
	Tx  *phased.Array
	Rx  *phased.Array

	Blockers    []Blocker
	Interferers []Interferer

	// ImplLossDB is the front-end implementation loss applied to the
	// received signal (default DefaultImplLossDB), the one settable term of
	// the link budget: cots.Tune lowers it to the COTS front end's.
	ImplLossDB float64

	paths     []Path
	pathsOK   bool
	pathEpoch uint64
	// geomEpoch advances only when the ray geometry changes (move, rotate,
	// blockers). It keys the caches below that interferer changes must not
	// evict: the Tx/Rx gain tables and the interferer path traces.
	geomEpoch uint64

	intfPaths [][]Path
	// intfPathsOK, intfGeomEpoch and intfPosKey validate intfPaths: the
	// traces are reusable while the link geometry and the interferer
	// positions are unchanged (EIRP or duty-cycle changes reuse them).
	intfPathsOK   bool
	intfGeomEpoch uint64
	intfPosKey    []geom.Vec

	// intfRxGain[i][beamRow][path] caches the Rx beam gain (dBi) toward
	// interferer i's paths; valid while the interferer traces and the Rx
	// orientation are unchanged (see interferenceMw).
	intfRxGain        [][][]float64
	intfRxGainRxEpoch uint64

	// intfLinArg/intfLinVal[i][path] memoize the last dB→linear conversion
	// argument and result per interferer path. Off-axis beams see a path at
	// the pattern floor, so the conversion argument repeats across most of
	// the codebook during a noise-vector refill; dsp.Lin is pure, so serving
	// an exact-argument hit is bit-identical to recomputing (see
	// interferenceMw).
	intfLinArg, intfLinVal [][]float64

	// rxGeomEpoch advances when only the Rx orientation changes. The traced
	// paths and Tx gains do not depend on it, so ensureGains refreshes just
	// the Rx gain rows (see rebuildRxGains) instead of re-tracing.
	rxGeomEpoch uint64

	// Cached linear conversions of each array's pattern-floor and quasi-omni
	// gains, revalidated against the codebook on rebuild (see ensureFloorLin).
	txFloorDB, txFloorLin []float64
	rxFloorDB, rxFloorLin []float64

	// txDirLin/rxDirLin cache linear beam-gain rows per exact (direction,
	// orientation) key: path directions survive blockage and interference
	// state changes, so gain rebuilds resolve to map hits (see dirGainsLin).
	txDirLin, rxDirLin map[dirGainKey][]float64

	// gains holds the per-geometry beam gain tables shared by Measure,
	// Sweep and Snapshot (see ensureGains).
	gains        gainTables
	gainsOK      bool
	gainsEpoch   uint64
	gainsRxEpoch uint64

	// best* cache the BestPair result per (path epoch, ImplLossDB): the
	// ground-truth SLS that both collect-style callers and measureInit run
	// at the same state is then computed once.
	bestOK       bool
	bestEpoch    uint64
	bestIL       float64
	bestT, bestR int
	bestSNR      float64

	// noiseMw caches thermal+interference noise per Rx beam between
	// epoch bumps (see noiseMwFor). Entries < 0 are not yet computed.
	noiseMw    []float64
	noiseEpoch uint64
	noiseOK    bool
}

// NewLink creates a link between two arrays in an environment.
func NewLink(e *env.Environment, tx, rx *phased.Array) *Link {
	return &Link{Env: e, Tx: tx, Rx: rx, ImplLossDB: DefaultImplLossDB}
}

// Invalidate discards the cached ray-tracing result. Call it after moving or
// rotating either endpoint, or after changing blockers.
func (l *Link) Invalidate() {
	l.pathsOK = false
	l.pathEpoch++
	l.geomEpoch++
}

// Paths returns the propagation paths between Tx and Rx, tracing them on
// first use and caching the result until Invalidate.
func (l *Link) Paths() []Path {
	if !l.pathsOK {
		l.paths = l.trace()
		l.pathsOK = true
	}
	return l.paths
}

// occluded reports whether the segment from a to b is blocked by any wall,
// excluding walls listed in skip (the reflecting walls of the path).
func (l *Link) occluded(a, b geom.Vec, skip ...int) bool {
	leg := geom.Seg(a, b)
	for i := range l.Env.Walls {
		skipThis := false
		for _, s := range skip {
			if i == s {
				skipThis = true
				break
			}
		}
		if skipThis {
			continue
		}
		if _, ok := leg.IntersectStrict(l.Env.Walls[i].Seg, 1e-6); ok {
			return true
		}
	}
	return false
}

// blockerAttenDB returns the total blocker attenuation (dB) over the legs of
// a path, and whether any blocker touched it. factor scales the attenuation:
// reflected paths pass it <1 because in three dimensions a wall bounce also
// climbs over or drops under a torso (the 2-D tracer cannot see that escape,
// but the paper's measurements show NLOS paths survive human blockage).
func (l *Link) blockerAttenDB(legs []geom.Segment, factor float64) (float64, bool) {
	var atten float64
	hit := false
	for _, leg := range legs {
		for _, b := range l.Blockers {
			c := geom.Circle{Center: b.Pos, Radius: b.Radius}
			chord, ok := c.IntersectsSegment(leg)
			if !ok {
				continue
			}
			hit = true
			frac := chord / (2 * b.Radius)
			if frac > 1 {
				frac = 1
			}
			// Grazing crossings attenuate less (diffraction around
			// the body); central crossings approach MaxAttenDB.
			atten += b.MaxAttenDB*frac*frac + 4*frac
		}
	}
	return atten * factor, hit
}

// Blocker attenuation scaling per reflection order (3-D escape
// approximation; see blockerAttenDB).
const (
	blockFactorLOS     = 1.0
	blockFactorBounce1 = 0.5
	blockFactorBounce2 = 0.35
)

// trace runs the image-method ray tracer between the link endpoints.
func (l *Link) trace() []Path {
	obsTraces.Inc()
	return l.traceBetween(l.Tx.Pos, l.Rx.Pos)
}

// traceBetween runs the image-method ray tracer between two arbitrary
// points (also used to propagate interference through the environment): the
// LOS path, then every first- and second-order wall reflection.
func (l *Link) traceBetween(tx, rx geom.Vec) []Path {
	var paths []Path

	// LOS path.
	if !l.occluded(tx, rx) {
		d := tx.Dist(rx)
		loss := FSPLdB(d)
		atten, blocked := l.blockerAttenDB([]geom.Segment{geom.Seg(tx, rx)}, blockFactorLOS)
		paths = append(paths, Path{
			Dist:    d,
			DelayNs: d / SpeedOfLight * 1e9,
			LossDB:  loss + atten,
			Depart:  rx.Sub(tx).Norm(),
			Arrive:  tx.Sub(rx).Norm(),
			Bounces: 0,
			Blocked: blocked,
		})
	}

	paths = append(paths, l.traceFirstOrder(tx, rx)...)
	return append(paths, l.traceSecondOrder(tx, rx)...)
}

func (l *Link) traceFirstOrder(tx, rx geom.Vec) []Path {
	var paths []Path
	for wi := range l.Env.Walls {
		w := &l.Env.Walls[wi]
		img := w.Seg.Mirror(tx)
		// The reflection point is where the image-to-Rx line crosses the
		// wall segment.
		u, ok := w.Seg.Intersect(geom.Seg(img, rx))
		if !ok {
			continue
		}
		p := w.Seg.PointAt(u)
		// Both endpoints must be on the same side of the wall for a true
		// specular reflection (the mirror construction guarantees it when
		// the intersection exists and tx is not behind the wall).
		if l.occluded(tx, p, wi) || l.occluded(p, rx, wi) {
			continue
		}
		legs := []geom.Segment{geom.Seg(tx, p), geom.Seg(p, rx)}
		d := tx.Dist(p) + p.Dist(rx)
		if d < 1e-6 {
			continue
		}
		atten, blocked := l.blockerAttenDB(legs, blockFactorBounce1)
		paths = append(paths, Path{
			Dist:    d,
			DelayNs: d / SpeedOfLight * 1e9,
			LossDB:  FSPLdB(d) + w.Mat.ReflLossDB + atten,
			Depart:  p.Sub(tx).Norm(),
			Arrive:  p.Sub(rx).Norm(),
			Bounces: 1,
			Blocked: blocked,
		})
	}
	return paths
}

func (l *Link) traceSecondOrder(tx, rx geom.Vec) []Path {
	var paths []Path
	for w1i := range l.Env.Walls {
		w1 := &l.Env.Walls[w1i]
		img1 := w1.Seg.Mirror(tx)
		for w2i := range l.Env.Walls {
			if w2i == w1i {
				continue
			}
			w2 := &l.Env.Walls[w2i]
			img2 := w2.Seg.Mirror(img1)
			u2, ok := w2.Seg.Intersect(geom.Seg(img2, rx))
			if !ok {
				continue
			}
			p2 := w2.Seg.PointAt(u2)
			u1, ok := w1.Seg.Intersect(geom.Seg(img1, p2))
			if !ok {
				continue
			}
			p1 := w1.Seg.PointAt(u1)
			if l.occluded(tx, p1, w1i) || l.occluded(p1, p2, w1i, w2i) || l.occluded(p2, rx, w2i) {
				continue
			}
			legs := []geom.Segment{geom.Seg(tx, p1), geom.Seg(p1, p2), geom.Seg(p2, rx)}
			d := tx.Dist(p1) + p1.Dist(p2) + p2.Dist(rx)
			if d < 1e-6 {
				continue
			}
			atten, blocked := l.blockerAttenDB(legs, blockFactorBounce2)
			paths = append(paths, Path{
				Dist:    d,
				DelayNs: d / SpeedOfLight * 1e9,
				LossDB:  FSPLdB(d) + w1.Mat.ReflLossDB + w2.Mat.ReflLossDB + atten,
				Depart:  p1.Sub(tx).Norm(),
				Arrive:  p2.Sub(rx).Norm(),
				Bounces: 2,
				Blocked: blocked,
			})
		}
	}
	return paths
}
