package sim

import (
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
	"github.com/libra-wlan/libra/internal/phy"
)

// buildFailoverScenario creates an initial state, captures its failover
// pair, applies an impairment, and returns the entry plus the failover
// pair's throughput table at the NEW state.
func buildFailoverScenario(t *testing.T, impair func(*channel.Link)) (*dataset.Entry, *[phy.NumMCS]float64) {
	t.Helper()
	e := env.Lobby()
	tx := phased.NewArray(geom.V(2, 4), 0, 61)
	rx := phased.NewArray(geom.V(8, 4), 180, 62)
	l := channel.NewLink(e, tx, rx)

	snap := l.Snapshot()
	pt, pr, initSNR := snap.BestPair()
	ft, fr, _ := FailoverPair(snap, pt, pr)

	impair(l)
	after := l.Snapshot()
	entry := &dataset.Entry{}
	entry.InitMCS, _ = phy.BestMCS(initSNR)
	snrInit := after.SNRdB(pt, pr)
	bt, br, snrBest := after.BestPair()
	_ = bt
	_ = br
	for m := phy.MinMCS; m <= phy.MaxMCS; m++ {
		entry.InitBeamTh[m] = phy.ExpectedThroughput(m, snrInit)
		entry.BestBeamTh[m] = phy.ExpectedThroughput(m, snrBest)
	}
	var fo [phy.NumMCS]float64
	snrFo := after.SNRdB(ft, fr)
	for m := phy.MinMCS; m <= phy.MaxMCS; m++ {
		fo[m] = phy.ExpectedThroughput(m, snrFo)
	}
	return entry, &fo
}

func TestFailoverSurvivesBlockage(t *testing.T) {
	// A mid-LOS blocker kills the primary but usually not the failover
	// (which points at a wall): the failover policy recovers far faster
	// than a 250 ms sweep.
	entry, fo := buildFailoverScenario(t, func(l *channel.Link) {
		mid := l.Tx.Pos.Add(l.Rx.Pos.Sub(l.Tx.Pos).Scale(0.5))
		l.SetBlockers([]channel.Blocker{channel.DefaultBlocker(mid)})
	})
	p := Params{BAOverhead: 250 * time.Millisecond, FAT: 2 * time.Millisecond, FlowDur: time.Second}
	out := entryRun(t, entry, Options{Params: p, Variant: VariantFailover, Failover: fo})
	if !out.UsedRA {
		t.Fatal("failover policy did not search rates")
	}
	if out.UsedBA {
		t.Skip("failover also blocked in this geometry")
	}
	if out.RecoveryDelay >= p.BAOverhead {
		t.Errorf("failover recovery %v not faster than a sweep", out.RecoveryDelay)
	}
}

func TestFailoverFailsUnderAngularDisplacement(t *testing.T) {
	// The paper's critique: after the client turns away, both the primary
	// and the stale failover are misaligned, so the policy pays the
	// failover attempt AND the full sweep.
	entry, fo := buildFailoverScenario(t, func(l *channel.Link) {
		l.RotateRx(180 + 65)
	})
	p := Params{BAOverhead: 5 * time.Millisecond, FAT: 2 * time.Millisecond, FlowDur: time.Second}
	out := entryRun(t, entry, Options{Params: p, Variant: VariantFailover, Failover: fo})
	if !out.UsedBA {
		t.Skip("failover survived the rotation in this geometry")
	}
	// It ends up slower than just doing BA first.
	ba := runPlan(entry, p, true)
	if out.RecoveryDelay <= ba.RecoveryDelay {
		t.Errorf("failover %v not slower than BA First %v after rotation",
			out.RecoveryDelay, ba.RecoveryDelay)
	}
}

func TestFailoverPairDiffersFromPrimary(t *testing.T) {
	e := env.Lobby()
	tx := phased.NewArray(geom.V(2, 4), 0, 63)
	rx := phased.NewArray(geom.V(8, 4), 180, 64)
	l := channel.NewLink(e, tx, rx)
	snap := l.Snapshot()
	pt, pr, psnr := snap.BestPair()
	ft, _, fsnr := FailoverPair(snap, pt, pr)
	if ft == pt {
		t.Error("failover shares the primary Tx sector")
	}
	if fsnr > psnr {
		t.Error("failover cannot beat the primary")
	}
}
