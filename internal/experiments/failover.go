package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
	"github.com/libra-wlan/libra/internal/phy"
	"github.com/libra-wlan/libra/internal/sim"
)

// FailoverComparison quantifies the §8 discussion of MOCA's failover-sector
// approach: per impairment type, the mean link recovery delay of the
// failover policy against BA First, RA First, and LiBRA. The expected shape
// (from the paper and its MSWiM'20 companion study): a stale failover is an
// excellent backup under blockage — the reflection it points at survives —
// but collapses under angular displacement, where both the primary and the
// failover are misaligned and the device ends up paying the failover
// attempt plus the full sweep.
func FailoverComparison(s *Suite, scenariosPerKind int) (*Table, error) {
	if scenariosPerKind <= 0 {
		scenariosPerKind = 12
	}
	clf, err := s.Classifier()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed + 91))
	p := sim.Params{BAOverhead: 150 * time.Millisecond, FAT: 2 * time.Millisecond, FlowDur: time.Second}

	t := &Table{
		Title:  "Failover-sector comparison (MOCA-style backup vs sweeping policies; mean recovery delay)",
		Header: []string{"Impairment", "Failover", "BA First", "RA First", "LiBRA"},
	}

	kinds := []struct {
		name   string
		impair func(l *channel.Link, rng *rand.Rand)
	}{
		{"Blockage", func(l *channel.Link, rng *rand.Rand) {
			frac := 0.3 + 0.4*rng.Float64()
			at := l.Tx.Pos.Add(l.Rx.Pos.Sub(l.Tx.Pos).Scale(frac))
			l.SetBlockers([]channel.Blocker{channel.DefaultBlocker(at)})
		}},
		{"Rotation", func(l *channel.Link, rng *rand.Rand) {
			sign := 1.0
			if rng.Intn(2) == 0 {
				sign = -1
			}
			l.RotateRx(l.Rx.OrientDeg + sign*(45+40*rng.Float64()))
		}},
	}

	for _, kind := range kinds {
		var sums [4]time.Duration // in header order
		n := 0
		for i := 0; i < scenariosPerKind; i++ {
			entry, fo, ok := failoverScenario(s.Seed+int64(100+i), rng, kind.impair)
			if !ok {
				continue
			}
			n++
			opts := [len(sums)]sim.Options{
				{Params: p, Variant: sim.VariantFailover, Failover: fo},
				{Params: p, Policy: sim.BAFirst},
				{Params: p, Policy: sim.RAFirst},
				{Params: p, Policy: sim.LiBRA, Classifier: clf},
			}
			for j, opt := range opts {
				res, err := sim.Run(context.TODO(), sim.Scenario{Entry: entry}, opt)
				if err != nil {
					return nil, err
				}
				sums[j] += res.Outcome.RecoveryDelay
			}
		}
		if n == 0 {
			t.Rows = append(t.Rows, []string{kind.name, "-", "-", "-", "-"})
			continue
		}
		row := []string{kind.name}
		for _, d := range sums {
			row = append(row, fmt.Sprintf("%.1fms", float64(d)/float64(n)/float64(time.Millisecond)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// failoverScenario builds one impairment scenario in the lobby: the initial
// state's primary and failover pairs, the impaired-state entry (with
// features for LiBRA), and the failover pair's post-impairment throughput
// table.
func failoverScenario(seed int64, rng *rand.Rand, impair func(*channel.Link, *rand.Rand)) (*dataset.Entry, *[phy.NumMCS]float64, bool) {
	e := env.Lobby()
	tx := phased.NewArray(geom.V(2, 4), 0, seed)
	// Random client placement in the open part of the lobby.
	pos := geom.V(6+8*rng.Float64(), 2.5+3*rng.Float64())
	rx := phased.NewArray(pos, geom.Deg(tx.Pos.Sub(pos).Angle()), seed+1)
	l := channel.NewLink(e, tx, rx)

	before := l.Snapshot()
	pt, pr, initSNR := before.BestPair()
	initMCS, initTh := phy.BestMCS(initSNR)
	if initTh < phy.WorkingMinThroughputBps {
		return nil, nil, false // initial link not viable here
	}
	ft, fr, _ := sim.FailoverPair(before, pt, pr)
	initMeas := before.Measure(pt, pr)

	impair(l, rng)
	after := l.Snapshot()

	entry := &dataset.Entry{InitMCS: initMCS, InitSNRdB: initSNR, InitThBps: initTh}
	snrInit := after.SNRdB(pt, pr)
	_, _, snrBest := after.BestPair()
	entry.NewSNRInitPair, entry.NewSNRBestPair = snrInit, snrBest
	for m := phy.MinMCS; m <= phy.MaxMCS; m++ {
		entry.InitBeamTh[m] = phy.ExpectedThroughput(m, snrInit)
		entry.BestBeamTh[m] = phy.ExpectedThroughput(m, snrBest)
	}
	entry.Features = dataset.FeaturizeObserved(initMeas, after.Measure(pt, pr), phy.CDR(initMCS, snrInit), initMCS)

	var fo [phy.NumMCS]float64
	snrFo := after.SNRdB(ft, fr)
	for m := phy.MinMCS; m <= phy.MaxMCS; m++ {
		fo[m] = phy.ExpectedThroughput(m, snrFo)
	}
	return entry, &fo, true
}
