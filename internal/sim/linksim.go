package sim

import (
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/phy"
)

// LinkSim is the step-wise single-link simulator: one Tx/Rx link advancing
// segment by segment under an adaptation policy. The multi-AP discrete-event
// engine drives one LinkSim per station, interleaving segments of many links
// in simulation-time order; Run drives one to completion over a timeline
// scenario. Both paths execute the same step code. The adjustment hooks
// below (airtime share, SNR offset) are guarded no-ops at their defaults (1
// and 0), so Run, which never sets them, does exactly the arithmetic of an
// unadjusted single link, and an engine station that holds its AP alone on
// a clean channel steps through that same arithmetic.
//
// A LinkSim is single-goroutine state; the engine guarantees each station is
// handled by at most one worker per event barrier.
type LinkSim struct {
	p   Params
	pol Policy
	clf core.Classifier
	cfg core.Config

	st       tlState
	res      TimelineResult
	elapsed  time.Duration
	segIndex int

	// share is the fraction of TDMA airtime granted to this link. The sole
	// occupant of an AP holds share 1, which skips the scaling entirely.
	share float64
	// offs is an SNR offset (dB) applied to the current segment's channel:
	// the engine models per-station impairments (blockage attenuation) and
	// inter-AP interference penalties as offsets over a frozen snapshot.
	// Zero skips the adjustment entirely.
	offs float64

	// prevM and curM are the PDP buffers a LiBRA break materializes its two
	// observations into: each distinct observation needs its own, and
	// neither ever aliases the other.
	prevM, curM channel.Measurement

	// The current beam pair's channel, evaluated once: memoSNR is the clear
	// snap.SNRdB(memoTx, memoRx) of memoSnap, and memoTab, when memoTabOK,
	// its throughput table under offset memoOffs. A Snapshot is frozen, so
	// both stay exact until the snapshot, the pair or the offset changes.
	memoSnap       *channel.Snapshot
	memoTx, memoRx int
	memoSNR        float64
	memoTabOK      bool
	memoOffs       float64
	memoTab        thTable
}

// NewLinkSim creates a link simulator with full airtime and a clean channel.
// clf is consulted only by the LiBRA policy.
func NewLinkSim(p Params, pol Policy, clf core.Classifier) *LinkSim {
	return &LinkSim{p: p, pol: pol, clf: clf, cfg: p.Config(), share: 1}
}

// SetShare sets the TDMA airtime fraction granted to the link (0, 1].
// Delivered rates scale by the share; adaptation overheads do not — beam
// training and probe frames occupy dedicated airtime regardless of the data
// schedule.
func (ls *LinkSim) SetShare(f float64) { ls.share = f }

// SetSNROffsetDB sets the SNR offset (dB, usually negative) applied to every
// channel evaluation until changed. Measurements carry the offset too, so
// LiBRA's feature diffs observe it like a real channel change.
func (ls *LinkSim) SetSNROffsetDB(db float64) { ls.offs = db }

// MCS returns the link's current modulation and coding scheme.
func (ls *LinkSim) MCS() phy.MCS { return ls.st.mcs }

// Beams returns the current Tx/Rx beam pair.
func (ls *LinkSim) Beams() (txBeam, rxBeam int) { return ls.st.txBeam, ls.st.rxBeam }

// Result returns the accumulated multi-segment result.
func (ls *LinkSim) Result() TimelineResult { return ls.res }

// CurrentSNRdB evaluates the link's SNR on snap at the current beam pair,
// including the configured offset — the quantity the engine's handoff rule
// compares against alternative APs.
func (ls *LinkSim) CurrentSNRdB(snap *channel.Snapshot) float64 {
	snr := ls.clearSNR(snap)
	if ls.offs != 0 {
		snr += ls.offs
	}
	return snr
}

// clearSNR returns snap's offset-free SNR at the current beam pair,
// computing it once per (snapshot, pair).
func (ls *LinkSim) clearSNR(snap *channel.Snapshot) float64 {
	if snap != ls.memoSnap || ls.st.txBeam != ls.memoTx || ls.st.rxBeam != ls.memoRx {
		ls.memoSnap, ls.memoTx, ls.memoRx = snap, ls.st.txBeam, ls.st.rxBeam
		ls.memoSNR = snap.SNRdB(ls.st.txBeam, ls.st.rxBeam)
		ls.memoTabOK = false
	}
	return ls.memoSNR
}

// table returns the current beam pair's throughput table on snap under the
// offset in force: tableAt's value, computed once per (snapshot, pair,
// offset).
func (ls *LinkSim) table(snap *channel.Snapshot) thTable {
	snr := ls.clearSNR(snap)
	if !ls.memoTabOK || ls.memoOffs != ls.offs {
		ls.memoTab = offsetTable(snr, ls.offs)
		ls.memoOffs = ls.offs
		ls.memoTabOK = true
	}
	return ls.memoTab
}

// ChargeOverhead consumes dur of simulated time at zero delivered rate —
// the engine charges AP handoffs (reassociation sweep plus signaling) this
// way before the next segment runs.
func (ls *LinkSim) ChargeOverhead(dur time.Duration) { ls.emit(dur, 0) }

// Rebootstrap retrains the link from scratch on snap: best beam pair, best
// MCS, fresh reference observation. The engine calls it when a station hands
// off to a new AP, whose channel the old beam state says nothing about.
func (ls *LinkSim) Rebootstrap(snap *channel.Snapshot) { ls.bootstrap(snap) }

// bootstrap performs full training on snap (the first segment's state).
func (ls *LinkSim) bootstrap(snap *channel.Snapshot) {
	var snr float64
	ls.st.txBeam, ls.st.rxBeam, snr = snap.BestPair()
	if ls.offs != 0 {
		snr += ls.offs
	}
	ls.st.mcs, _ = phy.BestMCS(snr)
	ls.st.prev = ls.observe(snap)
}

// observe records an observation of the current beam pair on snap under the
// offset now in force.
func (ls *LinkSim) observe(snap *channel.Snapshot) observation {
	return observation{snap: snap, txBeam: ls.st.txBeam, rxBeam: ls.st.rxBeam, offs: ls.offs}
}

// emit accounts one constant-rate stretch: the rate profile, delivered
// bytes, and elapsed time all advance together.
func (ls *LinkSim) emit(dur time.Duration, bps float64) {
	if dur <= 0 {
		return
	}
	if ls.share != 1 {
		bps *= ls.share
	}
	ls.res.Rate = append(ls.res.Rate, RateInterval{Dur: dur, Bps: bps})
	ls.res.Bytes += bps * dur.Seconds() / 8
	ls.elapsed += dur
}

// Segment advances the link through one channel segment: a break check at
// the boundary (with policy-driven adaptation when the current MCS died),
// then steady-state probing toward the best working MCS. It reports whether
// the segment opened with a link break. The first call bootstraps instead —
// full training on the initial state, as the paper's timelines do.
func (ls *LinkSim) Segment(snap *channel.Snapshot, dur time.Duration) bool {
	si := ls.segIndex
	ls.segIndex++
	if si == 0 {
		ls.bootstrap(snap)
	}

	remaining := dur
	cur := ls.table(snap)
	tr := ls.p.Trace
	broke := false

	if si > 0 && !working(cur[ls.st.mcs]) {
		// Link break at the segment boundary.
		broke = true
		ls.res.Breaks++
		obsTimelineBreaks.Inc()
		if tr.Enabled() {
			tr.Event(Stamp(ls.elapsed), "break",
				obs.Fint("segment", int64(si)), obs.Fint("mcs", int64(ls.st.mcs)))
		}
		action := ls.decide(snap, &cur)
		if tr.Enabled() && int(action) < len(actionNames) {
			tr.Event(Stamp(ls.elapsed), "verdict",
				obs.F("action", actionNames[action]))
		}
		rec, executed := ls.adapt(action, snap, &cur, &remaining)
		ls.res.TotalRecoveryDelay += rec
		ls.res.Actions = append(ls.res.Actions, executed)
		if tr.Enabled() && int(executed) < len(actionNames) {
			kind := "ra_search"
			if executed == dataset.ActBA {
				kind = "rebeam"
			}
			tr.Event(Stamp(ls.elapsed), kind,
				obs.Ffloat("recovery_s", rec.Seconds()), obs.Fint("mcs", int64(ls.st.mcs)))
		}
	}

	// Steady state within the segment: periodic probing walks the MCS
	// toward the best working MCS on the current pair.
	target, targetTh := bestWorking(&cur)
	stepTime := time.Duration(ls.cfg.ProbeInterval) * ls.p.FAT
	for ls.st.mcs != target && remaining > 0 {
		d := stepTime
		if d > remaining {
			d = remaining
		}
		ls.emit(d, cur[ls.st.mcs])
		remaining -= d
		if ls.st.mcs < target {
			ls.st.mcs++
		} else {
			ls.st.mcs--
		}
	}
	if remaining > 0 {
		ls.emit(remaining, targetTh)
		ls.st.mcs = target
	}
	ls.st.prev = ls.observe(snap)
	return broke
}

// decide picks the adaptation action at a break on snap, where cur is the
// current pair's throughput table.
func (ls *LinkSim) decide(snap *channel.Snapshot, cur *thTable) dataset.Action {
	switch ls.pol {
	case BAFirst:
		return dataset.ActBA
	case RAFirst:
		return dataset.ActRA
	case OracleData, OracleDelay:
		// Greedy per-break optimum (§8.1: the oracles make optimal
		// decisions only with respect to restoring a link).
		ra := ls.planOutcome(false, snap, cur)
		ba := ls.planOutcome(true, snap, cur)
		if ls.pol == OracleData {
			if ra.Bytes >= ba.Bytes {
				return dataset.ActRA
			}
			return dataset.ActBA
		}
		if ra.RecoveryDelay <= ba.RecoveryDelay {
			return dataset.ActRA
		}
		return dataset.ActBA
	default: // LiBRA
		cdr := phy.CDR(ls.st.mcs, ls.CurrentSNRdB(snap))
		if cdr < 0.01 || ls.st.prev.snap == nil {
			return core.MissingACKAction(ls.st.mcs, ls.cfg)
		}
		prev, cur := &ls.st.prev, ls.observe(snap)
		var f [dataset.NumFeatures]float64
		if prev.samePHY(&cur) {
			// One PDP serves both (every engine break): measure it once and
			// give each observation its own offset. pm and cm share
			// prevM's PDP for this call only.
			cur.snap.MeasureInto(&ls.prevM, cur.txBeam, cur.rxBeam)
			pm, cm := ls.prevM, ls.prevM
			prev.applyOffset(&pm)
			cur.applyOffset(&cm)
			f = dataset.FeaturizeObserved(pm, cm, cdr, ls.st.mcs)
		} else {
			prev.measureInto(&ls.prevM)
			cur.measureInto(&ls.curM)
			f = dataset.FeaturizeObserved(ls.prevM, ls.curM, cdr, ls.st.mcs)
		}
		// An NA verdict on a broken link is a misprediction: adapt charges
		// the lost observation window before the §7 fallback.
		return ls.clf.Classify(f[:])
	}
}

// planOutcome evaluates one branch (BA-first or RA-first) analytically for
// the oracles: a synthetic entry built from the snapshot tables, replayed
// over a nominal flow window long enough to capture the adaptation
// transient. The exploratory evaluation never traces (only the executed
// branch is an event).
func (ls *LinkSim) planOutcome(baFirst bool, snap *channel.Snapshot, cur *thTable) Outcome {
	e := &dataset.Entry{InitMCS: ls.st.mcs, InitBeamTh: *cur}
	tb, rb, _ := snap.BestPair()
	e.BestBeamTh = tableAt(snap, tb, rb, ls.offs)
	p := ls.p
	p.FlowDur = 3 * time.Second
	p.Trace = nil
	return runPlan(e, p, baFirst)
}

// adapt executes the chosen action at a break, emitting rate intervals for
// the overheads and probe frames out of the segment's remaining airtime, and
// leaves cur describing the pair the link ends on. It returns the recovery
// delay and the mechanism actually executed: an NA misprediction resolves to
// the missing-ACK fallback, and a failed RA resolves to BA.
func (ls *LinkSim) adapt(action dataset.Action, snap *channel.Snapshot, cur *thTable, remaining *time.Duration) (time.Duration, dataset.Action) {
	var delay time.Duration
	spend := func(d time.Duration, bps float64) {
		if d > *remaining {
			d = *remaining
		}
		ls.emit(d, bps)
		*remaining -= d
	}
	// search probes cur downward from the current MCS, one aggregated frame
	// per MCS; a found MCS becomes the link's.
	search := func() raOutcome {
		ra := raSearch(cur, ls.st.mcs, ls.p.FAT)
		for i := 0; i < ra.probes; i++ {
			m := ls.st.mcs - phy.MCS(i)
			if m < phy.MinMCS {
				break
			}
			spend(ls.p.FAT, cur[m])
		}
		if ra.found {
			ls.st.mcs = ra.mcs
		}
		return ra
	}

	if action == dataset.ActNA {
		// One lost observation window at the broken rate, then fall back.
		wait := naPenalty(ls.p)
		spend(wait, cur[ls.st.mcs])
		delay += wait
		action = core.MissingACKAction(ls.st.mcs, ls.cfg)
	}
	if action != dataset.ActBA {
		ra := search()
		if ra.found {
			return delay + time.Duration(ra.firstWorking)*ls.p.FAT, dataset.ActRA
		}
		// RA alone could not restore the link: re-beam.
		delay += time.Duration(ra.probes) * ls.p.FAT
	}
	spend(ls.p.BAOverhead, 0)
	delay += ls.p.BAOverhead
	ls.st.txBeam, ls.st.rxBeam, _ = snap.BestPair()
	*cur = ls.table(snap)
	if ra := search(); ra.found {
		return delay + time.Duration(ra.firstWorking)*ls.p.FAT, dataset.ActBA
	}
	ls.st.mcs = phy.MinMCS
	return core.Dmax(ls.cfg), dataset.ActBA
}
