package channel

import (
	"math"
	"math/rand"
	"testing"

	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
)

// Property tests over randomized geometries: physical invariants that must
// hold for every placement the campaign generator could produce.

func randomLink(rng *rand.Rand) *Link {
	e := emptyRoom()
	tx := phased.NewArray(geom.V(10+rng.Float64()*30, 10+rng.Float64()*80), rng.Float64()*360-180, rng.Int63())
	rx := phased.NewArray(geom.V(50+rng.Float64()*40, 10+rng.Float64()*80), rng.Float64()*360-180, rng.Int63())
	return NewLink(e, tx, rx)
}

func TestPropertyPathsPhysical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		l := randomLink(rng)
		los := l.Tx.Pos.Dist(l.Rx.Pos)
		for _, p := range l.Paths() {
			if p.Dist < los-1e-6 {
				t.Fatalf("path shorter than the straight line: %v < %v", p.Dist, los)
			}
			if p.DelayNs <= 0 || math.IsNaN(p.DelayNs) {
				t.Fatalf("bad delay %v", p.DelayNs)
			}
			if p.LossDB < FSPLdB(los)-1e-6 {
				t.Fatalf("path loss %v below LOS free-space %v", p.LossDB, FSPLdB(los))
			}
			if math.Abs(p.Depart.Len()-1) > 1e-9 || math.Abs(p.Arrive.Len()-1) > 1e-9 {
				t.Fatal("direction vectors not unit length")
			}
		}
	}
}

func TestPropertyReciprocity(t *testing.T) {
	// Swapping Tx and Rx preserves the multiset of path lengths and losses
	// (channel reciprocity, the property LiBRA's ACK feedback relies on, §7).
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		l := randomLink(rng)
		fwd := l.traceBetween(l.Tx.Pos, l.Rx.Pos)
		rev := l.traceBetween(l.Rx.Pos, l.Tx.Pos)
		if len(fwd) != len(rev) {
			t.Fatalf("path counts differ: %d vs %d", len(fwd), len(rev))
		}
		var df, dr, lf, lr float64
		for k := range fwd {
			df += fwd[k].Dist
			lf += fwd[k].LossDB
			dr += rev[k].Dist
			lr += rev[k].LossDB
		}
		if math.Abs(df-dr) > 1e-6 || math.Abs(lf-lr) > 1e-6 {
			t.Fatalf("reciprocity violated: dist %v/%v loss %v/%v", df, dr, lf, lr)
		}
	}
}

func TestPropertyBlockerNeverHelps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		l := randomLink(rng)
		tb, rb, clear := l.BestPair()
		// A blocker somewhere on the LOS segment.
		frac := 0.2 + 0.6*rng.Float64()
		at := l.Tx.Pos.Add(l.Rx.Pos.Sub(l.Tx.Pos).Scale(frac))
		l.SetBlockers([]Blocker{DefaultBlocker(at)})
		if blocked := l.SNRdB(tb, rb); blocked > clear+1e-9 {
			t.Fatalf("blocker raised SNR: %v -> %v", clear, blocked)
		}
		_, _, bestBlocked := l.BestPair()
		if bestBlocked > clear+1e-9 {
			t.Fatalf("blocker raised the best pair: %v -> %v", clear, bestBlocked)
		}
	}
}

func TestPropertyInterferenceNeverHelps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		l := randomLink(rng)
		tb, rb, clear := l.BestPair()
		place := l.Rx.Pos.Add(geom.V(rng.Float64()*4-2, rng.Float64()*4-2))
		l.SetInterferers([]Interferer{{Pos: place, EIRPdBm: rng.Float64() * 20, DutyCycle: 1}})
		if with := l.SNRdB(tb, rb); with > clear+1e-9 {
			t.Fatalf("interference raised SNR: %v -> %v", clear, with)
		}
	}
}

func TestPropertySnapshotConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		l := randomLink(rng)
		snap := l.Snapshot()
		for k := 0; k < 8; k++ {
			tb := rng.Intn(phased.NumBeams)
			rb := rng.Intn(phased.NumBeams)
			if math.Abs(snap.SNRdB(tb, rb)-l.SNRdB(tb, rb)) > 1e-9 {
				t.Fatalf("snapshot SNR mismatch at (%d,%d)", tb, rb)
			}
		}
	}
}
