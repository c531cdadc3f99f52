package channel

import (
	"math"
	"testing"

	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
)

// lobbyLink is a multipath link in the lobby whose Rx faces the Tx.
func lobbyLink(rxOrient float64) *Link {
	return NewLink(env.Lobby(), phased.NewArray(geom.V(2, 4), 0, 1), phased.NewArray(geom.V(5, 4), rxOrient, 2))
}

// losBlocker stands on the lobby link's direct path.
var losBlocker = []Blocker{DefaultBlocker(geom.V(3.5, 4))}

// TestFirstBuildCreatesNoDirectionCache: a fresh link's first gain build has
// nothing to reuse, so it writes its rows straight into the tables and
// starts no direction cache.
func TestFirstBuildCreatesNoDirectionCache(t *testing.T) {
	l := lobbyLink(180)
	hits := obsDirGainHits.Value()
	l.Snapshot()
	if l.txDirLin != nil || l.rxDirLin != nil {
		t.Errorf("first build created direction caches: %d Tx rows, %d Rx rows", len(l.txDirLin), len(l.rxDirLin))
	}
	if d := obsDirGainHits.Value() - hits; d != 0 {
		t.Errorf("first build served %d rows from a cache", d)
	}
}

// TestRebuildServesKeptDirectionsFromCache: a blocker changes path losses,
// not directions, so the rebuild after SetBlockers finds every path's Tx and
// Rx row in the cache seeded from the first build's tables.
func TestRebuildServesKeptDirectionsFromCache(t *testing.T) {
	l := lobbyLink(180)
	l.Snapshot()
	n := len(l.Paths())
	l.SetBlockers(losBlocker)
	hits := obsDirGainHits.Value()
	l.Snapshot()
	if len(l.Paths()) != n {
		t.Fatalf("blocker changed the path count %d -> %d", n, len(l.Paths()))
	}
	if d := obsDirGainHits.Value() - hits; d != uint64(2*n) {
		t.Errorf("rebuild served %d rows from the cache, want all %d (Tx and Rx of %d paths)", d, 2*n, n)
	}
}

// TestGainRebuildsMatchFreshLink: however a link's caches were started — by
// a rotation as its first mutation, or by blockers, with or without a
// rotation folded into the same rebuild — its tables equal, bit for bit,
// those a fresh link builds at the same state. Seeding the cache under the
// Rx orientation in force at the rebuild, rather than the one the replaced
// rows were computed under, serves stale rows here.
func TestGainRebuildsMatchFreshLink(t *testing.T) {
	// state is what a link is rebuilt at: reaching it sets the blockers and
	// rotates the Rx as needed, then snapshots once.
	type state struct {
		blockers []Blocker
		orient   float64
	}
	cases := []struct {
		name   string
		states []state
	}{
		{"rotate first", []state{{nil, 215}, {nil, 180}}},
		{"blockers, rotate, blockers cleared", []state{{losBlocker, 180}, {losBlocker, 215}, {nil, 215}}},
		{"blockers and rotate in one rebuild", []state{{losBlocker, 215}, {nil, 180}}},
	}
	for _, tc := range cases {
		l := lobbyLink(180)
		l.Snapshot()
		for i, st := range tc.states {
			if len(st.blockers) != len(l.Blockers) {
				l.SetBlockers(st.blockers)
			}
			l.RotateRx(st.orient)
			fresh := lobbyLink(st.orient)
			fresh.SetBlockers(st.blockers)
			if msg := diffSnapshots(l.Snapshot(), fresh.Snapshot()); msg != "" {
				t.Errorf("%s, state %d (%d blockers, Rx at %v°): %s", tc.name, i, len(st.blockers), st.orient, msg)
			}
		}
	}
}

// TestImplLossWriteMatchesFreshLink: ImplLossDB is the one link-budget field
// callers write after a link has cached its tables (cots.Tune sets the COTS
// front end's 12 dB), and the write advances no epoch. Every cached answer
// must notice it: after the write, BestPair, Measure and SNRdB at the best
// pair, Sweep and a snapshot's BestPair equal, bit for bit, those of a fresh
// link built with 12 dB.
func TestImplLossWriteMatchesFreshLink(t *testing.T) {
	l := lobbyLink(180)
	tb, rb, _ := l.BestPair()
	l.Measure(tb, rb)
	l.SNRdB(tb, rb)
	l.Sweep()
	l.Snapshot().BestPair()

	l.ImplLossDB = 12
	fresh := lobbyLink(180)
	fresh.ImplLossDB = 12
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

	lt, lr, ls := l.BestPair()
	ft, fr, fs := fresh.BestPair()
	if lt != ft || lr != fr || !same(ls, fs) {
		t.Fatalf("BestPair (%d,%d,%v) after the write, fresh link (%d,%d,%v)", lt, lr, ls, ft, fr, fs)
	}
	lm, fm := l.Measure(ft, fr), fresh.Measure(ft, fr)
	if !same(lm.RSSdBm, fm.RSSdBm) || !same(lm.NoiseDBm, fm.NoiseDBm) || !same(lm.SNRdB, fm.SNRdB) || !same(lm.ToFNs, fm.ToFNs) {
		t.Errorf("Measure RSS %v noise %v SNR %v ToF %v after the write, fresh link %v %v %v %v",
			lm.RSSdBm, lm.NoiseDBm, lm.SNRdB, lm.ToFNs, fm.RSSdBm, fm.NoiseDBm, fm.SNRdB, fm.ToFNs)
	}
	for i := range fm.PDP {
		if !same(lm.PDP[i], fm.PDP[i]) {
			t.Errorf("PDP bin %d = %v after the write, fresh link %v", i, lm.PDP[i], fm.PDP[i])
			break
		}
	}
	if ls, fs := l.SNRdB(ft, fr), fresh.SNRdB(ft, fr); !same(ls, fs) {
		t.Errorf("SNRdB %v after the write, fresh link %v", ls, fs)
	}
	lsw, fsw := l.Sweep(), fresh.Sweep()
	for tx := range fsw {
		for rx := range fsw[tx] {
			if !same(lsw[tx][rx], fsw[tx][rx]) {
				t.Fatalf("Sweep[%d][%d] = %v after the write, fresh link %v", tx, rx, lsw[tx][rx], fsw[tx][rx])
			}
		}
	}
	lt, lr, ls = l.Snapshot().BestPair()
	if lt != ft || lr != fr || !same(ls, fs) {
		t.Errorf("Snapshot BestPair (%d,%d,%v) after the write, fresh link (%d,%d,%v)", lt, lr, ls, ft, fr, fs)
	}
}

// diffSnapshots describes the first bit-level difference between two
// snapshots' paths and tables, or returns "".
func diffSnapshots(a, b *Snapshot) string {
	if len(a.paths) != len(b.paths) {
		return "path counts differ"
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for p := range a.paths {
		if !same(a.linBase[p], b.linBase[p]) {
			return "link budget of a path differs"
		}
		for r := 0; r <= phased.NumBeams; r++ {
			if !same(a.txLin[r][p], b.txLin[r][p]) {
				return "a Tx gain row differs"
			}
			if !same(a.rxLin[r][p], b.rxLin[r][p]) {
				return "an Rx gain row differs"
			}
		}
	}
	for r := range a.noiseMw {
		if !same(a.noiseMw[r], b.noiseMw[r]) {
			return "noise differs"
		}
	}
	if !same(a.minDelayNs, b.minDelayNs) {
		return "delay anchor differs"
	}
	return ""
}
