package sim

import (
	"math"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/channel"
	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/env"
	"github.com/libra-wlan/libra/internal/geom"
	"github.com/libra-wlan/libra/internal/phased"
	"github.com/libra-wlan/libra/internal/phy"
)

// lobbySnapshots returns a lobby link's snapshot and one after its Rx moved.
func lobbySnapshots() (before, after *channel.Snapshot) {
	l := channel.NewLink(env.Lobby(), phased.NewArray(geom.V(2, 4), 0, 1), phased.NewArray(geom.V(5, 4), 180, 2))
	before = l.Snapshot()
	l.MoveRx(geom.V(6.5, 5))
	return before, l.Snapshot()
}

// breakingOffset finds an SNR offset that breaks mcs on snap's pair while
// codewords still get through, so the classifier (not the missing-ACK rule)
// decides the break.
func breakingOffset(t *testing.T, snap *channel.Snapshot, tb, rb int, mcs phy.MCS) float64 {
	t.Helper()
	for off := 30.0; off > -80; off -= 0.05 {
		snr := snap.SNRdB(tb, rb) + off
		if !working(phy.ExpectedThroughput(mcs, snr)) && phy.CDR(mcs, snr) >= 0.01 {
			return off
		}
	}
	t.Fatalf("no offset breaks MCS %v on pair (%d, %d) with CDR >= 0.01", mcs, tb, rb)
	return 0
}

// measuredAt measures snap's pair into a Measurement of its own, shifted by
// the offset the way an observation under it reads.
func measuredAt(snap *channel.Snapshot, tb, rb int, offs float64) channel.Measurement {
	m := snap.Measure(tb, rb)
	m.RSSdBm += offs
	m.SNRdB += offs
	return m
}

// featureRecorder is a LiBRA classifier that keeps the last feature vector
// it was shown and answers RA.
type featureRecorder struct{ got []float64 }

func (r *featureRecorder) Classify(f []float64) dataset.Action {
	r.got = append(r.got[:0], f...)
	return dataset.ActRA
}

func (r *featureRecorder) Name() string { return "recorder" }

// checkBreak runs one segment on snap that must open with a classified
// break, and compares the features shown with the ones FeaturizeObserved
// gives for prev and a separately measured current observation on the pair
// and MCS the link held.
func checkBreak(t *testing.T, name string, ls *LinkSim, rec *featureRecorder, snap *channel.Snapshot, prev channel.Measurement) {
	t.Helper()
	tb, rb := ls.Beams()
	mcs := ls.MCS()
	rec.got = nil
	if !ls.Segment(snap, 100*time.Millisecond) {
		t.Fatalf("%s: the segment did not open with a break", name)
	}
	if rec.got == nil {
		t.Fatalf("%s: the break did not consult the classifier", name)
	}
	cur := measuredAt(snap, tb, rb, ls.offs)
	want := dataset.FeaturizeObserved(prev, cur, phy.CDR(mcs, snap.SNRdB(tb, rb)+ls.offs), mcs)
	for i := range want {
		if math.Float64bits(rec.got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: feature %d = %v, want %v", name, i, rec.got[i], want[i])
		}
	}
}

// TestLiBRAFeaturizesObservationsAsTaken: a LiBRA break featurizes the
// observation taken after the previous segment — that segment's snapshot and
// beam pair under the SNR offset then in force — against the broken channel
// under the offset now in force, each measured into its own PDP.
func TestLiBRAFeaturizesObservationsAsTaken(t *testing.T) {
	before, after := lobbySnapshots()
	rec := &featureRecorder{}
	ls := NewLinkSim(stdParams(), LiBRA, rec)
	const offBefore = -3.0
	ls.SetSNROffsetDB(offBefore)
	ls.Segment(before, 100*time.Millisecond)
	tb, rb := ls.Beams()
	ls.SetSNROffsetDB(breakingOffset(t, after, tb, rb, ls.MCS()))
	checkBreak(t, "moved snapshot", ls, rec, after, measuredAt(before, tb, rb, offBefore))
}

// TestLiBRASharedObservationKeepsEachOffset: when a break's two observations
// share a snapshot and beam pair (every engine break), the one PDP measured
// for both must still carry each observation's own offset, giving the
// features of two separately measured observations; and a following break
// across a moved snapshot, which measures two PDPs, must find its buffers
// unaliased.
func TestLiBRASharedObservationKeepsEachOffset(t *testing.T) {
	snap, moved := lobbySnapshots()
	rec := &featureRecorder{}
	ls := NewLinkSim(stdParams(), LiBRA, rec)
	const off0 = -3.0
	ls.SetSNROffsetDB(off0)
	ls.Segment(snap, 100*time.Millisecond)
	tb, rb := ls.Beams()
	off1 := breakingOffset(t, snap, tb, rb, ls.MCS())
	ls.SetSNROffsetDB(off1)
	checkBreak(t, "same snapshot and pair", ls, rec, snap, measuredAt(snap, tb, rb, off0))

	tb, rb = ls.Beams()
	ls.SetSNROffsetDB(breakingOffset(t, moved, tb, rb, ls.MCS()))
	checkBreak(t, "moved snapshot after a shared break", ls, rec, moved, measuredAt(snap, tb, rb, off1))
}

// TestLinkSimMemoMatchesTableAt: the memoized channel of the current beam
// pair — its throughput table and CurrentSNRdB — equals tableAt's value, bit
// for bit, after every change of snapshot, offset or pair.
func TestLinkSimMemoMatchesTableAt(t *testing.T) {
	before, after := lobbySnapshots()
	ls := NewLinkSim(stdParams(), BAFirst, nil)
	check := func(step string, snap *channel.Snapshot) {
		t.Helper()
		tb, rb := ls.Beams()
		got, want := ls.table(snap), tableAt(snap, tb, rb, ls.offs)
		for m := range want {
			if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
				t.Errorf("%s: MCS %d throughput %v, tableAt %v", step, m, got[m], want[m])
			}
		}
		snr := snap.SNRdB(tb, rb)
		if off := ls.offs; off != 0 {
			snr += off
		}
		if got := ls.CurrentSNRdB(snap); math.Float64bits(got) != math.Float64bits(snr) {
			t.Errorf("%s: CurrentSNRdB %v, want %v", step, got, snr)
		}
	}
	ls.Segment(before, 100*time.Millisecond)
	check("bootstrap", before)
	ls.SetSNROffsetDB(-4.5)
	check("offset", before)
	check("another snapshot", after)
	ls.SetSNROffsetDB(0)
	check("offset cleared", after)
	check("first snapshot again", before)

	// A break under BA First re-beams onto the moved snapshot's best pair.
	tb, rb := ls.Beams()
	ls.SetSNROffsetDB(breakingOffset(t, after, tb, rb, ls.MCS()))
	if !ls.Segment(after, 100*time.Millisecond) {
		t.Fatal("the segment on the moved snapshot did not open with a break")
	}
	if ntb, nrb := ls.Beams(); ntb == tb && nrb == rb {
		t.Fatalf("re-beaming kept pair (%d, %d); the check needs a new pair", tb, rb)
	}
	check("new pair", after)
}
