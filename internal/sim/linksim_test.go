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

// TestLiBRAFeaturizesObservationsAsTaken: a LiBRA break featurizes the
// observation taken after the previous segment — that segment's snapshot and
// beam pair under the SNR offset then in force — against the broken channel
// under the offset now in force, each measured into its own PDP.
func TestLiBRAFeaturizesObservationsAsTaken(t *testing.T) {
	l := channel.NewLink(env.Lobby(), phased.NewArray(geom.V(2, 4), 0, 1), phased.NewArray(geom.V(5, 4), 180, 2))
	before := l.Snapshot()
	l.MoveRx(geom.V(6.5, 5))
	after := l.Snapshot()

	var got []float64
	clf := classifierFunc(func(f []float64) dataset.Action {
		got = append([]float64(nil), f...)
		return dataset.ActRA
	})
	ls := NewLinkSim(stdParams(), LiBRA, clf)
	const offBefore = -3.0
	ls.SetSNROffsetDB(offBefore)
	ls.Segment(before, 100*time.Millisecond)
	tb, rb := ls.Beams()
	mcs := ls.MCS()

	// An offset that breaks the current MCS while codewords still get
	// through, so the classifier (not the missing-ACK rule) decides.
	offAfter := math.NaN()
	for off := 30.0; off > -80; off -= 0.05 {
		snr := after.SNRdB(tb, rb) + off
		if !working(phy.ExpectedThroughput(mcs, snr)) && phy.CDR(mcs, snr) >= 0.01 {
			offAfter = off
			break
		}
	}
	if math.IsNaN(offAfter) {
		t.Fatalf("no offset breaks MCS %v on the moved link with CDR >= 0.01", mcs)
	}
	ls.SetSNROffsetDB(offAfter)
	if !ls.Segment(after, 100*time.Millisecond) {
		t.Fatal("the second segment did not open with a break")
	}
	if got == nil {
		t.Fatal("the break did not consult the classifier")
	}

	prev := before.Measure(tb, rb)
	prev.RSSdBm += offBefore
	prev.SNRdB += offBefore
	cur := after.Measure(tb, rb)
	cur.RSSdBm += offAfter
	cur.SNRdB += offAfter
	want := dataset.FeaturizeObserved(prev, cur, phy.CDR(mcs, after.SNRdB(tb, rb)+offAfter), mcs)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("feature %d = %v, want %v", i, got[i], want[i])
		}
	}
}
