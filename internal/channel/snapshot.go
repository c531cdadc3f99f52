package channel

import (
	"sync"

	"github.com/libra-wlan/libra/internal/dsp"
	"github.com/libra-wlan/libra/internal/phased"
)

// Snapshot freezes the channel between Tx and Rx at one geometric state: the
// traced paths with per-beam antenna gains precomputed. A snapshot can
// evaluate any beam pair in O(paths) multiply-adds without re-tracing,
// which is what the trace-driven evaluation (§8) needs — the paper logs
// full SLS sweeps plus per-beam-pair PHY traces at every state; a Snapshot
// is the in-memory equivalent of that log.
type Snapshot struct {
	paths []Path
	// txLin[b][p] and rxLin[b][p] are the linear antenna gains of beam b
	// toward path p; index NumBeams holds the quasi-omni pattern.
	txLin, rxLin [][]float64
	// linBase[p] is linear(DefaultTxPowerDBm - ImplLossDB - pathLoss) of
	// path p.
	linBase []float64
	// noiseMw[r] is noise+interference power per Rx beam; index NumBeams
	// is quasi-omni.
	noiseMw []float64
	// minDelayNs anchors the PDP at the earliest path.
	minDelayNs float64

	// bestOnce guards the memoized BestPair result: a snapshot never
	// changes after it is built, so its best pair is swept once.
	bestOnce     sync.Once
	bestT, bestR int
	bestSNR      float64
}

// beamIndex maps a beam ID (including QuasiOmniID) to the gain-table row.
func beamIndex(b int) int {
	if b == phased.QuasiOmniID {
		return phased.NumBeams
	}
	return b
}

// Snapshot captures the link's current geometric state. It shares the
// link's memoized gain tables (rebuilds allocate fresh slices, so the rows
// survive later link mutation; the paths slice is copied for the same
// reason).
func (l *Link) Snapshot() *Snapshot {
	g := l.ensureGains()
	nb := phased.NumBeams + 1 // +1 for quasi-omni

	s := &Snapshot{
		paths:      append([]Path(nil), g.paths...),
		txLin:      g.txLin,
		rxLin:      g.rxLin,
		linBase:    g.linBase,
		noiseMw:    make([]float64, nb),
		minDelayNs: g.minDelayNs,
	}
	for bi := 0; bi < nb; bi++ {
		id := bi
		if bi == phased.NumBeams {
			id = phased.QuasiOmniID
		}
		s.noiseMw[bi] = l.noiseMwFor(id)
	}
	return s
}

// Measure evaluates the PHY observation for a beam pair from the frozen
// state, identically to Link.Measure (minus stochastic measurement noise,
// which the MAC layer adds).
func (s *Snapshot) Measure(txBeam, rxBeam int) Measurement {
	var m Measurement
	s.MeasureInto(&m, txBeam, rxBeam)
	return m
}

// MeasureInto computes the observation into m, reusing m.PDP's backing
// array when its capacity suffices — the allocation-free counterpart of
// Measure for callers that recycle a scratch Measurement.
func (s *Snapshot) MeasureInto(m *Measurement, txBeam, rxBeam int) {
	ti, ri := beamIndex(txBeam), beamIndex(rxBeam)
	measureInto(m, s.paths, s.linBase, s.txLin[ti], s.rxLin[ri],
		s.noiseMw[ri], s.minDelayNs)
}

// SNRdB returns the SNR of a beam pair.
func (s *Snapshot) SNRdB(txBeam, rxBeam int) float64 {
	ti, ri := beamIndex(txBeam), beamIndex(rxBeam)
	var mw float64
	for p := range s.paths {
		mw += s.linBase[p] * s.txLin[ti][p] * s.rxLin[ri][p]
	}
	return dsp.DB(mw) - dsp.DB(s.noiseMw[ri])
}

// Sweep returns the full 25x25 SNR matrix via the fused sweepPowerInto
// kernel: one blocked pass over the frozen gain tables with pooled scratch.
// Hoisting the Tx-side product performs the same roundings as the historic
// per-pair triple product, so the matrix is bit-identical to a naive scan.
// Safe for concurrent use — snapshots are shared read-only across workers
// and the scratch comes from a pool.
func (s *Snapshot) Sweep() [][]float64 {
	sc := sweepPool.Get().(*sweepScratch)
	sc.grow(len(s.linBase))
	for r := 0; r < phased.NumBeams; r++ {
		sc.noiseDB[r] = dsp.DB(s.noiseMw[r])
	}
	out := sweepSNR(sc, s.linBase, s.txLin, s.rxLin)
	sweepPool.Put(sc)
	return out
}

// BestPair returns the beam pair maximizing SNR — the row-major winner of
// Sweep, computed from per-column power maxima without materializing the dB
// matrix (see bestFromPow). The first call sweeps; every later one, from any
// goroutine, returns the memoized result.
func (s *Snapshot) BestPair() (txBeam, rxBeam int, snrDB float64) {
	s.bestOnce.Do(s.sweepBest)
	return s.bestT, s.bestR, s.bestSNR
}

// sweepBest runs the fused sweep kernel once and records BestPair's result.
func (s *Snapshot) sweepBest() {
	sc := sweepPool.Get().(*sweepScratch)
	sc.grow(len(s.linBase))
	sweepPowerInto(sc.pow, sc.txw, s.linBase, s.txLin, s.rxLin)
	for r := 0; r < phased.NumBeams; r++ {
		sc.noiseDB[r] = dsp.DB(s.noiseMw[r])
	}
	s.bestT, s.bestR, s.bestSNR = bestFromPow(sc.pow, sc.noiseDB)
	sweepPool.Put(sc)
}
