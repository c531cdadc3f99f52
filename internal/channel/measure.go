package channel

import (
	"math"
	"slices"
	"sync"

	"github.com/libra-wlan/libra/internal/dsp"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
)

// PDP parameters. With 2 GHz of bandwidth the delay resolution is 0.5 ns;
// 256 taps cover 128 ns (~38 m of excess path), plenty for indoor rooms.
const (
	// PDPTaps is the number of delay bins in a logged power delay profile.
	PDPTaps = 256
	// PDPBinNs is the delay bin width in nanoseconds (1/bandwidth).
	PDPBinNs = 0.5
)

// Measurement is one PHY layer observation for a given Tx/Rx beam pair —
// the per-frame log record of the X60 testbed (§5.1).
type Measurement struct {
	// RSSdBm is the total received signal power.
	RSSdBm float64
	// NoiseDBm is the measured noise level: thermal floor plus co-channel
	// interference as seen through the Rx beam.
	NoiseDBm float64
	// SNRdB is RSS - Noise, in dB.
	SNRdB float64
	// ToFNs is the time of flight of the strongest path in nanoseconds.
	// It is +Inf when the signal is below the receiver sensitivity,
	// matching X60's behaviour under extremely weak signal.
	ToFNs float64
	// PDP is the power delay profile: linear power (mW) per 0.5 ns bin,
	// with the first bin anchored at the earliest arriving path.
	PDP []float64
}

// ampPool recycles the tap-amplitude scratch of CSIInto.
var ampPool = sync.Pool{New: func() any { return new([]float64) }}

// maxPooledAmpCap bounds the backing capacity ampPool retains. A campaign
// with oversized PDPs (longer than the standard PDPTaps window) would
// otherwise pin its large scratch arrays in the pool forever: sync.Pool
// keeps whatever is Put, and later campaigns with normal-sized PDPs would
// re-slice the big arrays without ever releasing them. Buffers beyond the
// cap are simply not returned to the pool.
const maxPooledAmpCap = 4 * PDPTaps

// CSIInto computes the paper's CSI estimate for the single-carrier PHY
// (§6.1), |H(f)| across the 2 GHz channel: the FFT magnitude of the tap
// amplitudes (square roots of the PDP's tap powers), not a power spectrum.
// It writes into dst, growing it only when too small (nil allocates), and
// returns it re-sliced; reusing dst keeps featurization allocation-free.
func (m *Measurement) CSIInto(dst []float64) []float64 {
	ap := ampPool.Get().(*[]float64)
	amp := *ap
	if cap(amp) < len(m.PDP) {
		amp = make([]float64, len(m.PDP))
	}
	amp = amp[:len(m.PDP)]
	for i, p := range m.PDP {
		if p > 0 {
			amp[i] = math.Sqrt(p)
		} else {
			amp[i] = 0
		}
	}
	dst = dsp.FFTRealInto(dst, amp)
	if cap(amp) <= maxPooledAmpCap {
		*ap = amp
		ampPool.Put(ap)
	}
	return dst
}

// Measure computes the PHY observation for the given Tx and Rx beams.
// Use phased.QuasiOmniID for quasi-omni operation on either side.
//
// Per-beam linear gains and the link-budget base are memoized per geometric
// state (see ensureGains), so repeated measurements between Invalidate calls
// cost O(paths) multiply-adds instead of O(paths) gain evaluations and
// dB-to-linear conversions.
func (l *Link) Measure(txBeam, rxBeam int) Measurement {
	var m Measurement
	l.MeasureInto(&m, txBeam, rxBeam)
	return m
}

// MeasureInto computes the observation into m, reusing m.PDP's backing
// array when its capacity suffices. Callers that own a scratch Measurement
// and recycle it across calls (the campaign generator's per-worker arena)
// measure without allocating; the values written are bit-identical to what
// Measure returns. The two suppressed calls below rebuild memo tables at
// most once per geometric state — cold work amortized across the thousands
// of measurements taken at each state.
//
//lint:noalloc per-frame measurement kernel; PDP scratch is caller-owned
func (l *Link) MeasureInto(m *Measurement, txBeam, rxBeam int) {
	obsMeasures.Inc()
	g := l.ensureGains() //lint:ignore noalloc cold gain-table rebuild, once per geometry epoch
	measureInto(m, g.paths, g.linBase,
		g.row(g.txLin, txBeam), g.row(g.rxLin, rxBeam),
		//lint:ignore noalloc cold noise-vector refill, once per epoch and noise figure
		l.noiseMwFor(rxBeam), g.minDelayNs)
}

// interferenceMw returns the co-channel interference power (mW, time
// averaged over duty cycle) received through the given Rx beam. The hidden
// terminal's signal propagates through the same environment as the victim
// link — direct ray plus wall reflections — so re-beaming toward a reflector
// picks up the interferer's reflection off that same wall. This is what
// makes interference hard to escape via beam adaptation (§6.1.3) and RA the
// usually preferred mechanism under interference.
func (l *Link) interferenceMw(rxBeam int) float64 {
	if len(l.Interferers) == 0 {
		return 0
	}
	l.ensureInterferencePaths()
	// Rx beam gains toward the interferer paths depend only on the path
	// geometry and the Rx orientation, not on EIRP or duty cycle, so they are
	// cached per beam across the EIRP-only changes of an interference
	// calibration (ensureInterferencePaths drops the cache on re-trace).
	if l.intfRxGain == nil || l.intfRxGainRxEpoch != l.rxGeomEpoch {
		l.intfRxGain = make([][][]float64, len(l.Interferers))
		for i := range l.intfRxGain {
			l.intfRxGain[i] = make([][]float64, phased.NumBeams+1)
		}
		l.intfRxGainRxEpoch = l.rxGeomEpoch
	}
	if l.intfLinArg == nil || len(l.intfLinArg) != len(l.Interferers) {
		l.intfLinArg = make([][]float64, len(l.Interferers))
		l.intfLinVal = make([][]float64, len(l.Interferers))
	}
	bi := beamIndex(rxBeam)
	var total float64
	for i, it := range l.Interferers {
		paths := l.intfPaths[i]
		var row []float64
		if bi >= 0 && bi <= phased.NumBeams {
			row = l.intfRxGain[i][bi]
			if row == nil {
				row = make([]float64, len(paths))
				for p := range paths {
					row[p] = l.Rx.GainDBi(rxBeam, paths[p].Arrive)
				}
				l.intfRxGain[i][bi] = row
			}
		}
		// Per-path last-argument memo for the dB→linear conversion: a refill
		// walks the whole codebook, and a path's receive gain sits at the
		// pattern floor for all but the few beams aimed near it, so the
		// conversion argument repeats run-length-wise across beams. Exact
		// argument equality on a pure function keeps the served value
		// bit-identical to a fresh dsp.Lin call.
		linArg, linVal := l.intfLinArg[i], l.intfLinVal[i]
		if len(linArg) != len(paths) {
			linArg = make([]float64, len(paths))
			linVal = make([]float64, len(paths))
			for p := range linArg {
				linArg[p] = math.NaN() // never equal: force first-use computation
			}
			l.intfLinArg[i], l.intfLinVal[i] = linArg, linVal
		}
		for p := range paths {
			gdb := 0.0
			if row != nil {
				gdb = row[p]
			} else {
				gdb = l.Rx.GainDBi(rxBeam, paths[p].Arrive)
			}
			g := it.EIRPdBm + gdb - paths[p].LossDB
			lin := linVal[p]
			if g != linArg[p] {
				lin = dsp.Lin(g)
				linArg[p], linVal[p] = g, lin
			}
			total += lin * it.DutyCycle
		}
	}
	return total
}

// ensureInterferencePaths traces interferer-to-Rx paths. The traces depend
// only on the link geometry and the interferer positions, so they are cached
// across SetInterferers calls that merely change EIRP or duty cycle — the
// common case when calibrating an interference level at a fixed placement.
func (l *Link) ensureInterferencePaths() {
	if l.intfPathsOK && l.intfGeomEpoch == l.geomEpoch && l.samePositions() {
		return
	}
	obsIntfTraces.Inc()
	l.intfPaths = make([][]Path, len(l.Interferers))
	l.intfRxGain = nil
	for i, it := range l.Interferers {
		l.intfPaths[i] = withLeakage(l.traceBetween(it.Pos, l.Rx.Pos), it.Pos, l.Rx.Pos)
	}
	l.intfPosKey = l.intfPosKey[:0]
	for _, it := range l.Interferers {
		l.intfPosKey = append(l.intfPosKey, it.Pos)
	}
	l.intfPathsOK = true
	l.intfGeomEpoch = l.geomEpoch
}

// withLeakage returns the traced paths from an interferer at from to the Rx
// at rx, or — when every ray is occluded — one heavily attenuated direct ray
// modelling residual through-wall leakage.
func withLeakage(paths []Path, from, rx geom.Vec) []Path {
	if len(paths) > 0 {
		return paths
	}
	d := from.Dist(rx)
	return []Path{{
		Dist:    d,
		DelayNs: d / SpeedOfLight * 1e9,
		LossDB:  FSPLdB(d) + 30,
		Depart:  rx.Sub(from).Norm(),
		Arrive:  from.Sub(rx).Norm(),
	}}
}

// samePositions reports whether the interferer positions match the ones the
// path cache was traced for.
func (l *Link) samePositions() bool {
	if len(l.intfPosKey) != len(l.Interferers) {
		return false
	}
	for i, it := range l.Interferers {
		if it.Pos != l.intfPosKey[i] {
			return false
		}
	}
	return true
}

// SNRdB returns only the SNR for a beam pair. It accumulates the same
// received-power sum as Measure without building the power delay profile —
// the hot path of interference calibration, which binary-searches dozens of
// EIRP values per placement and needs nothing but the SNR.
func (l *Link) SNRdB(txBeam, rxBeam int) float64 {
	return dsp.DB(l.signalMw(txBeam, rxBeam)) - dsp.DB(l.noiseMwFor(rxBeam))
}

// signalMw returns the received power (mW) of a beam pair, summed over the
// traced paths in order.
func (l *Link) signalMw(txBeam, rxBeam int) float64 {
	g := l.ensureGains()
	txRow := g.row(g.txLin, txBeam)
	rxRow := g.row(g.rxLin, rxBeam)
	var totalMw float64
	if txRow != nil && rxRow != nil {
		for p := range g.linBase {
			totalMw += g.linBase[p] * txRow[p] * rxRow[p]
		}
	}
	return totalMw
}

// InterferedSNRdB returns the SNR of a beam pair while src's transmitter
// interferes continuously at eirpDBm. The interferer reaches the Rx through
// the same environment as l's own signal, and src — a link from that
// transmitter to the same Rx array — has already traced exactly those rays,
// so the interference is priced from src's paths (or the occluded-leakage ray
// when it has none) instead of a re-trace. The result carries the bits that
// SetInterferers([]Interferer{{src.Tx.Pos, eirpDBm, 1}}) followed by SNRdB
// returns; l's own interferer set, caches and epoch are left as they are.
//
// src must share l's environment, Rx array and blockers, or the call
// panics; its cached paths must be current, so after moving the shared Rx
// invalidate src as well as l.
func (l *Link) InterferedSNRdB(txBeam, rxBeam int, src *Link, eirpDBm float64) float64 {
	if src.Env != l.Env || src.Rx != l.Rx || !slices.Equal(src.Blockers, l.Blockers) {
		panic("channel: InterferedSNRdB source link does not share the victim's environment, Rx array and blockers")
	}
	// The same per-path sum interferenceMw accumulates, at duty cycle 1.
	var intfMw float64
	for _, pa := range withLeakage(src.Paths(), src.Tx.Pos, l.Rx.Pos) {
		intfMw += dsp.Lin(eirpDBm + l.Rx.GainDBi(rxBeam, pa.Arrive) - pa.LossDB)
	}
	return dsp.DB(l.signalMw(txBeam, rxBeam)) - dsp.DB(thermalMw+intfMw)
}

// Sweep measures the SNR of every Tx x Rx beam pair — the naive O(N^2)
// exhaustive sector level sweep used to establish ground truth (§5.1: "we
// first performed a SLS to collect SNR measurements for all 625 (25x25) beam
// pairs"). The result is indexed [txBeam][rxBeam].
//
// Per-path antenna gains are memoized per beam and per geometric state (see
// ensureGains), so the sweep costs O(N*paths) gain evaluations at most once
// per state plus one pass of the fused sweepPowerInto kernel — a blocked
// O(N^2*paths) multiply-add over the cached tables with pooled scratch and a
// single contiguous result block (two allocations per call, both handed to
// the caller).
//
//lint:ignore deadexport the plain full sweep that tests hold BestPair and the snapshot sweep to
func (l *Link) Sweep() [][]float64 {
	obsSweeps.Inc()
	g := l.ensureGains()
	sc := sweepPool.Get().(*sweepScratch)
	sc.grow(len(g.linBase))
	for r := 0; r < phased.NumBeams; r++ {
		sc.noiseDB[r] = dsp.DB(l.noiseMwFor(r))
	}
	out := sweepSNR(sc, g.linBase, g.txLin, g.rxLin)
	sweepPool.Put(sc)
	return out
}

// BestPair returns the beam pair with the highest SNR, along with that SNR.
//
// The result equals scanning Sweep() in row-major order with strict ">", but
// is computed from per-Rx-beam received-power maxima: within a column the
// noise is constant and dB conversion is strictly monotone, so the first Tx
// beam attaining the column's power maximum is the column's row-major SNR
// winner, and the global row-major winner is the lexicographically smallest
// (tx, rx) among the column winners. Only NumBeams dB conversions remain
// instead of NumBeams^2, and the result is cached per (state, ImplLossDB) —
// the ground-truth SLS that labeling and re-initialization run back-to-back
// at one state then costs a single evaluation.
func (l *Link) BestPair() (txBeam, rxBeam int, snrDB float64) {
	if l.bestOK && l.bestEpoch == l.pathEpoch && l.bestIL == l.ImplLossDB {
		obsBestPairHits.Inc()
		return l.bestT, l.bestR, l.bestSNR
	}
	obsBestPairMisses.Inc()
	g := l.ensureGains()
	sc := sweepPool.Get().(*sweepScratch)
	sc.grow(len(g.linBase))
	sweepPowerInto(sc.pow, sc.txw, g.linBase, g.txLin, g.rxLin)
	for r := 0; r < phased.NumBeams; r++ {
		sc.noiseDB[r] = dsp.DB(l.noiseMwFor(r))
	}
	txBeam, rxBeam, snrDB = bestFromPow(sc.pow, sc.noiseDB)
	sweepPool.Put(sc)
	l.bestOK = true
	l.bestEpoch = l.pathEpoch
	l.bestIL = l.ImplLossDB
	l.bestT, l.bestR, l.bestSNR = txBeam, rxBeam, snrDB
	return txBeam, rxBeam, snrDB
}

// BestTxQuasiOmni returns the best Tx beam when the Rx listens in quasi-omni
// mode — the reduced-overhead training COTS devices use (§2: "COTS devices
// only perform Tx beam training and always receive in quasi-omni mode").
func (l *Link) BestTxQuasiOmni() (txBeam int, snrDB float64) {
	snrDB = math.Inf(-1)
	for t := 0; t < phased.NumBeams; t++ {
		if s := l.SNRdB(t, phased.QuasiOmniID); s > snrDB {
			snrDB, txBeam = s, t
		}
	}
	return txBeam, snrDB
}

// MoveRx teleports the Rx to p and invalidates the path cache. Moving to the
// current position is a no-op: every cache already describes that state.
func (l *Link) MoveRx(p geom.Vec) {
	if l.Rx.Pos == p {
		return
	}
	l.Rx.Pos = p
	l.Invalidate()
}

// RotateRx sets the Rx mechanical orientation (degrees). Rotation changes the
// Rx beam-to-world mapping only — the traced paths and Tx gains are
// position-determined — so it advances the measurement epoch (blockage and
// noise caches must observe the change) and the Rx gain epoch, but keeps the
// ray trace and the Tx gain rows. Rotating to the current orientation is a
// no-op.
func (l *Link) RotateRx(orientDeg float64) {
	if l.Rx.OrientDeg == orientDeg {
		return
	}
	l.Rx.OrientDeg = orientDeg
	l.pathEpoch++
	l.rxGeomEpoch++
}

// SetBlockers replaces the blocker set and invalidates the path cache.
func (l *Link) SetBlockers(b []Blocker) {
	l.Blockers = b
	l.Invalidate()
}

// SetInterferers replaces the interferer set. Interference does not affect
// ray geometry, so the path and gain caches stay valid, but the epoch
// advances so higher layers (and the noise cache) re-measure. Interferer
// path traces are revalidated by position, so changing only EIRP or duty
// cycle does not re-trace.
func (l *Link) SetInterferers(in []Interferer) {
	l.Interferers = in
	l.pathEpoch++
}
