package channel

import (
	"math"

	"github.com/libra-wlan/libra/internal/dsp"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
)

// gainTables holds the per-geometry hot-path tables shared by Measure, Sweep
// and Snapshot: linear antenna gains per beam per path on both ends, the
// linear link-budget base per path, and the PDP delay anchor. Building them
// costs O(NumBeams*paths) gain evaluations once per geometric state; every
// subsequent Measure or Sweep at that state is pure multiply-adds.
type gainTables struct {
	// paths aliases the link's traced paths at build time.
	paths []Path
	// linBase[p] = linear(DefaultTxPowerDBm - ImplLoss - pathLoss).
	linBase []float64
	// txLin[b][p] and rxLin[b][p] are linear beam gains; row NumBeams is
	// the quasi-omni pattern (see beamIndex).
	txLin, rxLin [][]float64
	// minDelayNs anchors the PDP at the earliest arriving path.
	minDelayNs float64
	// implLossDB records the Link.ImplLossDB baked into linBase at build
	// time; the cache revalidates against it so callers that set the field
	// directly (as cots.Tune does) are never served a stale budget.
	implLossDB float64
	// txOrient and rxOrient record the array orientations the Tx and Rx
	// rows were computed under: a direction cache seeded from these tables
	// keys each row by them (see seedDirCache).
	txOrient, rxOrient float64
}

// ensureFloorLin revalidates the cached linear conversions of an array's
// per-beam pattern floors (index b) and quasi-omni gain (index NumBeams).
// Off-axis beams evaluate to the floor for most path directions, so serving
// those conversions from the cache removes the bulk of the Pow calls in a
// rebuild; dsp.Lin is a pure function, so a cached value is bit-identical to
// a fresh one.
func ensureFloorLin(a *phased.Array, db, lin []float64) ([]float64, []float64) {
	nb := len(a.Beams)
	if len(db) != nb+1 {
		db = make([]float64, nb+1)
		lin = make([]float64, nb+1)
		for i := range db {
			db[i] = math.NaN() // never equal: force first-use computation
		}
	}
	for i, bm := range a.Beams {
		if db[i] != bm.FloorDBi {
			db[i] = bm.FloorDBi
			lin[i] = dsp.Lin(bm.FloorDBi)
		}
	}
	if db[nb] != a.QuasiOmniGainDBi {
		db[nb] = a.QuasiOmniGainDBi
		lin[nb] = dsp.Lin(a.QuasiOmniGainDBi)
	}
	return db, lin
}

// linGain converts one beam gain to linear, serving pattern-floor and
// quasi-omni hits from the cached conversions.
func linGain(v float64, i int, floorDB, floorLin []float64) float64 {
	if v == floorDB[i] {
		return floorLin[i]
	}
	return dsp.Lin(v)
}

// dirGainKey identifies a cached per-direction gain row: the exact world
// direction a path departs or arrives along and the array orientation it was
// evaluated under.
type dirGainKey struct {
	dir    geom.Vec
	orient float64
}

// maxDirGainRows bounds each per-link direction cache; overflowing clears it,
// which only costs recomputation — every cached row is a pure function of its
// key.
const maxDirGainRows = 4096

// dirGainsLin returns the linear beam-gain row (the NumBeams pattern beams
// plus the quasi-omni entry) of array a toward dir, serving repeats from
// cache. Path directions repeat heavily across geometry epochs: a blockage
// state keeps every path slot's direction and merely changes its loss, and an
// interference calibration never moves an endpoint — so rebuild after rebuild
// resolves to map hits instead of per-beam lobe evaluations and dB→linear
// Pow calls. A cached row is a pure function of (pattern, orientation,
// direction), so a hit is bit-identical to recomputation.
func dirGainsLin(cache map[dirGainKey][]float64, a *phased.Array, dir geom.Vec, floorDB, floorLin []float64) []float64 {
	k := dirGainKey{dir: dir, orient: a.OrientDeg}
	if row, ok := cache[k]; ok {
		obsDirGainHits.Inc()
		return row
	}
	row := make([]float64, phased.NumBeams+1)
	linGainRow(row, a, dir, floorDB, floorLin)
	storeDirRow(cache, k, row)
	return row
}

// linGainRow computes array a's linear beam-gain row toward dir into row
// (NumBeams+1 entries, the last the quasi-omni pattern).
func linGainRow(row []float64, a *phased.Array, dir geom.Vec, floorDB, floorLin []float64) {
	var dbBuf [phased.NumBeams]float64
	qo := a.AllGainsDBi(dir, dbBuf[:])
	for b := 0; b < phased.NumBeams; b++ {
		row[b] = linGain(dbBuf[b], b, floorDB, floorLin)
	}
	row[phased.NumBeams] = linGain(qo, phased.NumBeams, floorDB, floorLin)
}

// storeDirRow caches row under k, clearing a full cache first.
func storeDirRow(cache map[dirGainKey][]float64, k dirGainKey, row []float64) {
	if len(cache) >= maxDirGainRows {
		clear(cache)
	}
	cache[k] = row
}

// gainColumn writes array a's linear beam-gain row toward dir into column p
// of tab: through the direction cache when the link has one, and straight
// from the pattern on the link's first build, which has nothing to reuse.
func gainColumn(tab [][]float64, p int, cache map[dirGainKey][]float64, a *phased.Array, dir geom.Vec, floorDB, floorLin []float64) {
	var buf [phased.NumBeams + 1]float64
	row := buf[:]
	if cache != nil {
		row = dirGainsLin(cache, a, dir, floorDB, floorLin)
	} else {
		linGainRow(row, a, dir, floorDB, floorLin)
	}
	for b, v := range row {
		tab[b][p] = v
	}
}

// seedDirCache creates a link's direction cache on its first rebuild, seeded
// from the table being replaced: column p of tab is the row toward dir(p)
// under orient, the orientation that table was computed under — not the
// array's current one, which a rotation has already moved.
func seedDirCache(tab [][]float64, paths []Path, orient float64, dir func(*Path) geom.Vec) map[dirGainKey][]float64 {
	cache := make(map[dirGainKey][]float64, len(paths))
	for p := range paths {
		k := dirGainKey{dir: dir(&paths[p]), orient: orient}
		if _, ok := cache[k]; ok {
			continue
		}
		row := make([]float64, phased.NumBeams+1)
		for b := range row {
			row[b] = tab[b][p]
		}
		storeDirRow(cache, k, row)
	}
	return cache
}

func departDir(pa *Path) geom.Vec { return pa.Depart }

func arriveDir(pa *Path) geom.Vec { return pa.Arrive }

// ensureGains returns the gain tables for the current geometry and link
// budget, rebuilding them when the geometry epoch advanced or ImplLossDB
// changed. Rebuilds always allocate fresh slices so previously
// handed-out rows (e.g. inside a Snapshot) stay valid.
func (l *Link) ensureGains() *gainTables {
	if l.gainsOK && l.gainsEpoch == l.geomEpoch && l.gains.implLossDB == l.ImplLossDB {
		if l.gainsRxEpoch != l.rxGeomEpoch {
			l.rebuildRxGains()
		}
		return &l.gains
	}
	obsGainRebuilds.Inc()
	g := &l.gains
	if l.gainsOK {
		// A rebuild: from here on the link revisits directions, so each
		// side's cache starts with the rows being replaced.
		if l.txDirLin == nil {
			l.txDirLin = seedDirCache(g.txLin, g.paths, g.txOrient, departDir)
		}
		if l.rxDirLin == nil {
			l.rxDirLin = seedDirCache(g.rxLin, g.paths, g.rxOrient, arriveDir)
		}
	}
	paths := l.Paths()
	np := len(paths)
	nb := phased.NumBeams + 1 // +1 for quasi-omni

	g.paths = paths
	g.implLossDB = l.ImplLossDB
	g.txOrient = l.Tx.OrientDeg
	g.rxOrient = l.Rx.OrientDeg
	g.linBase = make([]float64, np)
	g.txLin = gainRows(nb, np)
	g.rxLin = gainRows(nb, np)
	g.minDelayNs = math.Inf(1)

	l.txFloorDB, l.txFloorLin = ensureFloorLin(l.Tx, l.txFloorDB, l.txFloorLin)
	l.rxFloorDB, l.rxFloorLin = ensureFloorLin(l.Rx, l.rxFloorDB, l.rxFloorLin)
	for p, pa := range paths {
		g.linBase[p] = dsp.Lin(DefaultTxPowerDBm - l.ImplLossDB - pa.LossDB)
		if pa.DelayNs < g.minDelayNs {
			g.minDelayNs = pa.DelayNs
		}
		gainColumn(g.txLin, p, l.txDirLin, l.Tx, pa.Depart, l.txFloorDB, l.txFloorLin)
		gainColumn(g.rxLin, p, l.rxDirLin, l.Rx, pa.Arrive, l.rxFloorDB, l.rxFloorLin)
	}

	l.gainsOK = true
	l.gainsEpoch = l.geomEpoch
	l.gainsRxEpoch = l.rxGeomEpoch
	return g
}

// rebuildRxGains refreshes only the Rx-side gain rows after a pure Rx
// rotation: the traced paths, link budget, and Tx gains are unaffected, so a
// rotation sweep costs one AllGainsDBi pass per path on the Rx array instead
// of a re-trace plus a full two-sided rebuild. Fresh rows are allocated so
// previously handed-out tables (e.g. inside a Snapshot) stay valid.
func (l *Link) rebuildRxGains() {
	obsGainRxRebuilds.Inc()
	g := &l.gains
	np := len(g.paths)
	nb := phased.NumBeams + 1
	rx := gainRows(nb, np)
	l.rxFloorDB, l.rxFloorLin = ensureFloorLin(l.Rx, l.rxFloorDB, l.rxFloorLin)
	if l.rxDirLin == nil {
		l.rxDirLin = seedDirCache(g.rxLin, g.paths, g.rxOrient, arriveDir)
	}
	for p := range g.paths {
		gainColumn(rx, p, l.rxDirLin, l.Rx, g.paths[p].Arrive, l.rxFloorDB, l.rxFloorLin)
	}
	g.rxLin = rx
	g.rxOrient = l.Rx.OrientDeg
	l.gainsRxEpoch = l.rxGeomEpoch
}

// row returns the gain row for a beam ID, or nil for an out-of-codebook ID
// (whose gain is -Inf dBi, i.e. zero linear gain).
func (g *gainTables) row(tab [][]float64, beamID int) []float64 {
	if beamID == phased.QuasiOmniID {
		return tab[phased.NumBeams]
	}
	if beamID < 0 || beamID >= phased.NumBeams {
		return nil
	}
	return tab[beamID]
}

// noiseMwFor returns the cached noise power (thermal + co-channel
// interference, mW) seen through an Rx beam. The per-beam vector is reused
// until the epoch advances (Invalidate or SetInterferers), so repeated
// Measure calls between state changes do not re-accumulate interference.
func (l *Link) noiseMwFor(rxBeam int) float64 {
	if !l.noiseOK || l.noiseEpoch != l.pathEpoch {
		obsNoiseRefills.Inc()
		if l.noiseMw == nil {
			l.noiseMw = make([]float64, phased.NumBeams+1)
		}
		for i := range l.noiseMw {
			l.noiseMw[i] = -1
		}
		l.noiseOK = true
		l.noiseEpoch = l.pathEpoch
	}
	i := beamIndex(rxBeam)
	if i < 0 || i >= len(l.noiseMw) {
		return thermalMw + l.interferenceMw(rxBeam)
	}
	if l.noiseMw[i] < 0 {
		l.noiseMw[i] = thermalMw + l.interferenceMw(rxBeam)
	}
	return l.noiseMw[i]
}

// thermalMw is every link's linear thermal noise floor, converted once:
// every beam of every noise-vector refill shares it.
var thermalMw = dsp.Lin(ThermalNoiseDBm(DefaultNoiseFigureDB))

// gainRows carves nb rows of np elements each out of one contiguous block:
// nb+2 allocations become 2 (headers + block), the rows are cache-dense for
// the blocked sweep kernels, and — because the block is freshly allocated on
// every rebuild — previously handed-out rows (e.g. inside a Snapshot) stay
// valid, preserving the aliasing contract of ensureGains.
func gainRows(nb, np int) [][]float64 {
	rows := make([][]float64, nb)
	block := make([]float64, nb*np)
	for b := 0; b < nb; b++ {
		rows[b], block = block[:np:np], block[np:]
	}
	return rows
}
