// Package sim is the trace-driven evaluation engine of §8: it replays link
// impairments (dataset entries or multi-segment timelines) under the four
// policies the paper compares — LiBRA, "BA First" (the proposal of the
// Qualcomm patent), "RA First" (what COTS devices do), and the two oracles
// Oracle-Data and Oracle-Delay — charging each policy the BA and RA
// overheads of the evaluated protocol parameterization.
package sim

import (
	"strconv"
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/obs"
	"github.com/libra-wlan/libra/internal/phy"
)

// Params is one cell of the evaluation grid (§8.1).
type Params struct {
	// BAOverhead is the beam-training airtime: 0.5 ms and 5 ms model
	// 802.11ad-style O(N) training with 30° and 3° beams; 150 ms and
	// 250 ms model O(N^2) directional training with 9°/7° beams.
	BAOverhead time.Duration
	// FAT is the frame aggregation time per RA probe (2 ms in 802.11ad,
	// 10 ms in 802.11ac/X60).
	FAT time.Duration
	// FlowDur is the data flow duration (0.4 s and 1 s in §8.2).
	FlowDur time.Duration
	// Trace, when non-nil, receives the simulation-time adaptation events
	// of this run (break, classifier verdict, re-beam, RA search, MCS
	// moves), stamped with elapsed simulated time only — never wall time —
	// so the trace bytes are identical for any worker count.
	Trace *obs.Stream
}

// Grid enumerates the BA overhead and FAT combinations of Figs 10-13.
var (
	BAOverheads = []time.Duration{500 * time.Microsecond, 5 * time.Millisecond, 150 * time.Millisecond, 250 * time.Millisecond}
	FATs        = []time.Duration{2 * time.Millisecond, 10 * time.Millisecond}
	FlowDurs    = []time.Duration{400 * time.Millisecond, time.Second}
)

// Config converts Params to a core.Config with the paper's α pairing.
func (p Params) Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.BAOverhead = p.BAOverhead
	cfg.FAT = p.FAT
	cfg.Alpha = core.AlphaFor(p.BAOverhead)
	return cfg
}

// Policy identifies an adaptation policy.
type Policy int

// The compared policies (§8.1).
const (
	LiBRA Policy = iota
	BAFirst
	RAFirst
	OracleData
	OracleDelay
)

// String returns the policy name as the paper prints it.
func (p Policy) String() string {
	switch p {
	case LiBRA:
		return "LiBRA"
	case BAFirst:
		return "BA First"
	case RAFirst:
		return "RA First"
	case OracleData:
		return "Oracle-Data"
	case OracleDelay:
		return "Oracle-Delay"
	}
	return "unknown"
}

// Policies lists the three non-oracle policies in display order.
var Policies = []Policy{BAFirst, RAFirst, LiBRA}

// Outcome is the result of one policy run over one link break.
type Outcome struct {
	// Bytes delivered within the flow duration.
	Bytes float64
	// RecoveryDelay is the time from the break until the first working
	// MCS, capped at Dmax when the link never recovers.
	RecoveryDelay time.Duration
	// FinalMCS and FinalOnBestBeam describe where the policy settled.
	FinalMCS        phy.MCS
	FinalOnBestBeam bool
	// UsedBA and UsedRA report which mechanisms ran.
	UsedBA, UsedRA bool
}

// thTable is a per-MCS expected throughput table (bps).
type thTable = [phy.NumMCS]float64

// working applies the §5.2 working-MCS predicate to a table entry. The CDR
// condition is implied: any MCS whose expected throughput clears 150 Mbps
// has CDR far above 10% at these rates.
func working(th float64) bool { return th > phy.WorkingMinThroughputBps }

// raOutcome describes a downward rate search over a throughput table.
type raOutcome struct {
	found        bool
	mcs          phy.MCS
	th           float64
	probes       int
	searchBytes  float64
	firstWorking int     // probes until the first working MCS (recovery point)
	firstBytes   float64 // searchBytes delivered by those probes
}

// raSearch simulates the paper's frame-based RA (§7): probe downward from
// start, one aggregated frame per MCS; settle on the highest-throughput
// working MCS (stopping once throughput starts decreasing past a working
// MCS). Probe frames are data frames, so they deliver bytes.
func raSearch(table *thTable, start phy.MCS, fat time.Duration) raOutcome {
	if start > phy.MaxMCS {
		start = phy.MaxMCS
	}
	if start < phy.MinMCS {
		start = phy.MinMCS
	}
	out := raOutcome{mcs: phy.MinMCS}
	fatSec := fat.Seconds()
	bestTh := 0.0
	bestMCS := phy.MCS(-1)
	for m := start; m >= phy.MinMCS; m-- {
		out.probes++
		th := table[m]
		out.searchBytes += th * fatSec / 8
		if working(th) {
			if !out.found {
				out.found = true
				out.firstWorking = out.probes
				out.firstBytes = out.searchBytes
			}
			if th > bestTh {
				bestTh, bestMCS = th, m
			}
		}
		if bestMCS >= 0 && th < bestTh {
			break
		}
	}
	if out.found {
		out.mcs, out.th = bestMCS, bestTh
	}
	return out
}

// flowAcct is the byte accountant of a single-break run: it spends airtime
// in order and credits delivered bytes only inside the flow window. elapsed
// always advances, so a recovery point past the end of the flow still
// reports the full recovery delay.
type flowAcct struct {
	flow    time.Duration
	elapsed time.Duration
	bytes   float64
}

// add spends d of airtime that would deliver b bytes, crediting the share of
// b that falls inside the flow window.
func (a *flowAcct) add(b float64, d time.Duration) {
	if remaining := a.flow - a.elapsed; remaining > 0 {
		if d <= remaining {
			a.bytes += b
		} else if d > 0 {
			a.bytes += b * float64(remaining) / float64(d)
		}
	}
	a.elapsed += d
}

// settle credits the steady-state bytes at thBps for the rest of the flow
// window once adaptation completes; it ends the run.
func (a *flowAcct) settle(thBps float64) {
	if remaining := a.flow - a.elapsed; remaining > 0 {
		a.bytes += thBps * remaining.Seconds() / 8
	}
}

// runPlan executes one adaptation plan (RA first or BA first) over an
// entry's throughput tables and accounts bytes within the flow duration.
func runPlan(e *dataset.Entry, p Params, baFirst bool) Outcome {
	var out Outcome
	acct := flowAcct{flow: p.FlowDur}
	tr := p.Trace

	// rebeam charges one beam training: control frames only, zero
	// throughput.
	rebeam := func() {
		out.UsedBA = true
		if tr.Enabled() {
			tr.Event(Stamp(acct.elapsed), "rebeam",
				obs.Ffloat("overhead_s", p.BAOverhead.Seconds()))
		}
		acct.add(0, p.BAOverhead)
	}
	// search runs the downward RA search over table, charging its probe
	// frames; on success it recovers at the first working MCS and settles
	// the rest of the flow at the chosen rate. It reports whether a
	// working MCS was found.
	search := func(table *thTable, onBestBeam bool) bool {
		out.UsedRA = true
		ra := raSearch(table, e.InitMCS, p.FAT)
		if tr.Enabled() {
			tr.Event(Stamp(acct.elapsed), "ra_search",
				obs.F("found", strconv.FormatBool(ra.found)), obs.Fint("probes", int64(ra.probes)))
		}
		if !ra.found {
			acct.add(ra.searchBytes, time.Duration(ra.probes)*p.FAT)
			return false
		}
		acct.add(ra.firstBytes, time.Duration(ra.firstWorking)*p.FAT)
		out.RecoveryDelay = acct.elapsed
		acct.add(ra.searchBytes-ra.firstBytes, time.Duration(ra.probes-ra.firstWorking)*p.FAT)
		out.FinalMCS, out.FinalOnBestBeam = ra.mcs, onBestBeam
		acct.settle(table[ra.mcs])
		return true
	}

	var recovered bool
	if baFirst {
		rebeam()
		recovered = search(&e.BestBeamTh, true)
	} else if recovered = search(&e.InitBeamTh, false); !recovered {
		// RA alone failed: BA, then another RA round (§5.2).
		rebeam()
		recovered = search(&e.BestBeamTh, true)
	}
	dmax := core.Dmax(p.Config())
	if !recovered {
		out.RecoveryDelay = dmax
	}
	if out.RecoveryDelay >= dmax {
		obsRecoveryFailures.Inc()
	}
	if tr.Enabled() {
		t := Stamp(out.RecoveryDelay)
		switch {
		case out.RecoveryDelay >= dmax:
			tr.Event(t, "recovery_failed", obs.Fint("mcs", int64(out.FinalMCS)))
		case out.FinalMCS < e.InitMCS:
			tr.Event(t, "mcs_down",
				obs.Fint("from", int64(e.InitMCS)), obs.Fint("to", int64(out.FinalMCS)))
		case out.FinalMCS > e.InitMCS:
			tr.Event(t, "mcs_up",
				obs.Fint("from", int64(e.InitMCS)), obs.Fint("to", int64(out.FinalMCS)))
		default:
			tr.Event(t, "recovered", obs.Fint("mcs", int64(out.FinalMCS)))
		}
	}
	out.Bytes = acct.bytes
	return out
}

// naPenalty is the extra observation window LiBRA loses when the classifier
// wrongly reports NA on a broken link: metrics persist and the next window
// (2 frames, §7) triggers the missing-ACK rule.
func naPenalty(p Params) time.Duration { return 2 * p.FAT }

// naFallback replays an NA misprediction on a broken link: the lost window
// runs at the degraded rate, then the missing-ACK rule picks the plan. Both
// the delay and the flow time of the window are charged.
func naFallback(e *dataset.Entry, p Params) Outcome {
	wait := naPenalty(p)
	out := runPlan(e, p, core.MissingACKAction(e.InitMCS, p.Config()) == dataset.ActBA)
	out.RecoveryDelay += wait
	// The wait consumes flow time at the degraded rate: all of a flow no
	// longer than the window.
	if wait >= p.FlowDur {
		out.Bytes = e.InitBeamTh[e.InitMCS] * p.FlowDur.Seconds() / 8
		return out
	}
	stuckBytes := e.InitBeamTh[e.InitMCS] * wait.Seconds() / 8
	total := p.FlowDur.Seconds()
	out.Bytes = stuckBytes + out.Bytes*(total-wait.Seconds())/total
	return out
}

// runEntry is the single-break core behind Run: one policy over one dataset
// entry's link break. clf is only consulted by the LiBRA policy.
func runEntry(e *dataset.Entry, p Params, pol Policy, clf core.Classifier) Outcome {
	if c, ok := obsPolicyRuns[pol]; ok {
		c.Inc()
	}
	tr := p.Trace
	if tr.Enabled() {
		tr.Event(obs.SimTime{}, "break", obs.Fint("init_mcs", int64(e.InitMCS)))
	}
	switch pol {
	case BAFirst:
		return runPlan(e, p, true)
	case RAFirst:
		return runPlan(e, p, false)
	case OracleData, OracleDelay:
		// The oracle explores both plans; the exploratory runs carry no
		// trace (the chosen branch would otherwise appear twice).
		pq := p
		pq.Trace = nil
		ba := runPlan(e, pq, true)
		ra := runPlan(e, pq, false)
		pickRA := ra.Bytes >= ba.Bytes
		if pol == OracleDelay {
			pickRA = ra.RecoveryDelay <= ba.RecoveryDelay
		}
		if tr.Enabled() {
			plan := "ba"
			if pickRA {
				plan = "ra"
			}
			tr.Event(obs.SimTime{}, "oracle_pick", obs.F("plan", plan))
		}
		if pickRA {
			return ra
		}
		return ba
	default: // LiBRA
		var action dataset.Action
		if e.Features[5] == 0 && !working(e.InitBeamTh[e.InitMCS]) {
			// No codewords got through: the ACK is missing and the
			// classifier has no metrics (§7 rule).
			action = core.MissingACKAction(e.InitMCS, p.Config())
		} else {
			action = clf.Classify(e.FeatureSlice())
		}
		if tr.Enabled() && int(action) < len(actionNames) {
			tr.Event(obs.SimTime{}, "verdict", obs.F("action", actionNames[action]))
		}
		switch action {
		case dataset.ActBA:
			return runPlan(e, p, true)
		case dataset.ActRA:
			return runPlan(e, p, false)
		default:
			return naFallback(e, p)
		}
	}
}
