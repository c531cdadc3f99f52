package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/libra-wlan/libra/internal/core"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/phy"
)

// randomEntry builds an entry with random (but self-consistent) throughput
// tables: the best-beam table dominates the init-beam table entrywise.
func randomEntry(rng *rand.Rand) *dataset.Entry {
	e := &dataset.Entry{InitMCS: phy.MCS(rng.Intn(phy.NumMCS))}
	snrInit := -5 + rng.Float64()*30
	snrBest := snrInit + rng.Float64()*15
	for m := phy.MinMCS; m <= phy.MaxMCS; m++ {
		e.InitBeamTh[m] = phy.ExpectedThroughput(m, snrInit)
		e.BestBeamTh[m] = phy.ExpectedThroughput(m, snrBest)
	}
	e.Features[5] = rng.Float64()
	return e
}

func randomParams(rng *rand.Rand) Params {
	return Params{
		BAOverhead: BAOverheads[rng.Intn(len(BAOverheads))],
		FAT:        FATs[rng.Intn(len(FATs))],
		FlowDur:    FlowDurs[rng.Intn(len(FlowDurs))],
	}
}

// TestPropertyPolicyInvariants checks, over random entries and grid cells:
// bytes are within physical limits, delays within [0, Dmax], and the oracles
// dominate their respective metrics.
func TestPropertyPolicyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		e := randomEntry(rng)
		p := randomParams(rng)
		dmax := core.Dmax(p.Config())
		maxBytes := phy.MaxRateBps() * p.FlowDur.Seconds() / 8

		ba := entryRun(t, e, Options{Params: p, Policy: BAFirst})
		ra := entryRun(t, e, Options{Params: p, Policy: RAFirst})
		od := entryRun(t, e, Options{Params: p, Policy: OracleData})
		odl := entryRun(t, e, Options{Params: p, Policy: OracleDelay})
		li := entryRun(t, e, Options{Params: p, Policy: LiBRA, Classifier: fixedClassifier{dataset.Action(rng.Intn(3))}})

		for _, out := range []Outcome{ba, ra, od, odl, li} {
			if out.Bytes < 0 || out.Bytes > maxBytes*1.0001 {
				t.Fatalf("bytes %v outside [0, %v]", out.Bytes, maxBytes)
			}
			if out.RecoveryDelay < 0 || out.RecoveryDelay > dmax+2*p.FAT {
				t.Fatalf("delay %v outside [0, %v]", out.RecoveryDelay, dmax)
			}
		}
		if od.Bytes < ba.Bytes-1e-6 || od.Bytes < ra.Bytes-1e-6 {
			t.Fatal("Oracle-Data dominated by a heuristic")
		}
		if odl.RecoveryDelay > ba.RecoveryDelay || odl.RecoveryDelay > ra.RecoveryDelay {
			t.Fatal("Oracle-Delay dominated by a heuristic")
		}
	}
}

// TestPropertyMoreFlowMoreBytes: extending the flow never reduces bytes.
func TestPropertyMoreFlowMoreBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		e := randomEntry(rng)
		p := randomParams(rng)
		short := p
		short.FlowDur = 400 * time.Millisecond
		long := p
		long.FlowDur = time.Second
		for _, pol := range []Policy{BAFirst, RAFirst} {
			if entryRun(t, e, Options{Params: long, Policy: pol}).Bytes < entryRun(t, e, Options{Params: short, Policy: pol}).Bytes-1e-6 {
				t.Fatalf("longer flow delivered fewer bytes (%v)", pol)
			}
		}
	}
}

// TestPropertyRASearchSound uses testing/quick over random tables.
func TestPropertyRASearchSound(t *testing.T) {
	f := func(seed int64, startRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var table thTable
		for m := range table {
			if rng.Intn(2) == 0 {
				table[m] = rng.Float64() * 4e9
			}
		}
		start := phy.MCS(int(startRaw) % phy.NumMCS)
		out := raSearch(&table, start, 2*time.Millisecond)
		if out.probes < 1 || out.probes > int(start)+1 {
			return false
		}
		if !out.found {
			// Nothing at or below start may be working.
			for m := phy.MinMCS; m <= start; m++ {
				if working(table[m]) {
					return false
				}
			}
			return true
		}
		// The selection is working and is the best among the probed range.
		if !working(table[out.mcs]) || out.mcs > start {
			return false
		}
		if out.firstWorking < 1 || out.firstWorking > out.probes {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
