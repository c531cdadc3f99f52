package sim

import (
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/phy"
)

// Failover-beam policy, approximating the non-standard-compliant MOCA
// approach the paper discusses in §8: alongside the primary beam pair the
// device maintains a failover pair (the best pair whose Tx sector differs
// from the primary's, captured at the last full sweep). On a break it
// switches to the failover and runs RA there — one cheap switch instead of
// a sweep — and only falls back to a full BA + RA when the failover cannot
// restore the link either.
//
// The paper's critique (backed by their MSWiM'20 study) is that a failover
// captured at the initial state does not survive angular displacement: both
// the primary and the stale failover point the old way. The tests and the
// ablation bench quantify exactly that.

// FailoverSwitchTime is the cost of retuning to an already-known beam pair
// (electronic switching plus one confirmation exchange).
const FailoverSwitchTime = 100 * time.Microsecond

// FailoverSeparation is the minimum Tx-sector distance between the primary
// and the failover. Adjacent sectors share the same physical path (their
// main lobes overlap), so a useful failover must be spatially diverse —
// typically a reflection.
const FailoverSeparation = 6

// FailoverPair finds the failover beam pair on a snapshot: the best pair
// with BOTH sectors at least FailoverSeparation away from the primary's.
// Separating only the Tx sector is not enough — the wide main lobes leak
// enough energy along the primary path that the "different" sector still
// rides the same ray; a genuine backup must redirect both ends onto a
// reflection.
func FailoverPair(snap *channel.Snapshot, primaryTx, primaryRx int) (tx, rx int, snr float64) {
	sweep := snap.Sweep()
	snr = -1e18
	near := func(a, b int) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d < FailoverSeparation
	}
	for t := range sweep {
		if near(t, primaryTx) {
			continue
		}
		for r := range sweep[t] {
			if near(r, primaryRx) {
				continue
			}
			if sweep[t][r] > snr {
				snr, tx, rx = sweep[t][r], t, r
			}
		}
	}
	return tx, rx, snr
}

// runEntryFailover replays one break under the failover policy, the core of
// Run's VariantFailover. When the failover table is zero the failover is
// treated as dead and the policy degenerates to RA-then-BA.
func runEntryFailover(e *dataset.Entry, failover *[phy.NumMCS]float64, p Params) Outcome {
	out := Outcome{UsedRA: true}
	acct := flowAcct{flow: p.FlowDur}

	// Switch to the failover pair and search rates there.
	acct.add(0, FailoverSwitchTime)
	table, onBestBeam := failover, false
	ra := raSearch(table, e.InitMCS, p.FAT)
	if !ra.found {
		// Failover dead too: full BA + RA (charge everything).
		acct.add(ra.searchBytes, time.Duration(ra.probes)*p.FAT)
		out.UsedBA = true
		acct.add(0, p.BAOverhead)
		table, onBestBeam = &e.BestBeamTh, true
		if ra = raSearch(table, e.InitMCS, p.FAT); !ra.found {
			out.RecoveryDelay = core.Dmax(p.Config())
			out.Bytes = acct.bytes
			return out
		}
	}
	out.RecoveryDelay = acct.elapsed + time.Duration(ra.firstWorking)*p.FAT
	acct.add(ra.searchBytes, time.Duration(ra.probes)*p.FAT)
	out.FinalMCS, out.FinalOnBestBeam = ra.mcs, onBestBeam
	acct.settle(table[ra.mcs])
	out.Bytes = acct.bytes
	return out
}
