package engine

import (
	"cmp"
	"context"
	"crypto/sha256"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/libra-wlan/libra/internal/testutil"
)

// TestEventHeapOrder: random pushes with few distinct times and repeated
// stations, interleaved with popBarrier, must pop every barrier in the order
// of a reference sort by (at, entity, seq), and a push earlier than the
// barrier being handled must still be refused.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eh := &eventHeap{}
	var pending []event // reference copy of what the heap holds
	var seq uint64
	push := func(at time.Duration) {
		e := event{at: at, entity: rng.Intn(6), kind: eventKind(rng.Intn(3))}
		if err := eh.push(e); err != nil {
			t.Fatalf("push at %v after barrier %v: %v", at, eh.now, err)
		}
		e.seq = seq
		seq++
		pending = append(pending, e)
	}
	for i := 0; i < 40; i++ {
		push(time.Duration(rng.Intn(4)))
	}
	barriers := 0
	for eh.Len() > 0 {
		batch := eh.popBarrier()
		at := batch[0].at
		slices.SortFunc(pending, func(a, b event) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.entity, b.entity), cmp.Compare(a.seq, b.seq))
		})
		n := 0
		for n < len(pending) && pending[n].at == at {
			n++
		}
		if !slices.Equal(batch, pending[:n]) {
			t.Fatalf("barrier at %v: got %v, want %v", at, batch, pending[:n])
		}
		pending = pending[n:]
		barriers++

		if at > 0 {
			if err := eh.push(event{at: at - 1, entity: 0}); err == nil || !strings.Contains(err.Error(), "before the barrier") {
				t.Fatalf("push at %v during barrier %v: err %v, want a refusal", at-1, at, err)
			}
		}
		// Follow-ups at the barrier itself and a little later, some at
		// times already queued, so ties mix old and new seqs.
		if barriers < 30 {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				push(at + time.Duration(rng.Intn(3)))
			}
		}
	}
	if len(pending) != 0 {
		t.Fatalf("heap drained with %d reference events left", len(pending))
	}
	if barriers < 30 {
		t.Fatalf("only %d barriers", barriers)
	}
}

// TestRunAllocsPerEvent: the event loop reuses its batch, output and digest
// buffers, so a run's allocations stay far below one per event beyond what
// the stations themselves need.
func TestRunAllocsPerEvent(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	sc, err := Build(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	var events int
	allocs := testing.AllocsPerRun(3, func() {
		res, err := New(sc, 1).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		events = res.Events
	})
	perEvent := allocs / float64(events)
	t.Logf("%.0f allocations over %d events: %.2f per event", allocs, events, perEvent)
	if perEvent > 2 {
		t.Errorf("Run allocates %.2f times per event, want at most 2", perEvent)
	}
}

// TestHandoffRefusesInvalidTargets: a handoff to an AP outside [0, APs) or
// to the serving AP is an engine fault; handoff returns an error, which Run
// returns, and moves no state.
func TestHandoffRefusesInvalidTargets(t *testing.T) {
	sc, err := Build(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	en := New(sc, 1)
	const serving = 1
	stations := []*stationState{{ap: serving}}
	aps := []*apState{{members: 0}, {members: 1}}
	h := sha256.New()
	for _, to := range []int{-1, len(aps), len(aps) + 5, serving} {
		err := en.handoff(h, stations, aps, 0, to, 40*time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), "invalid target") {
			t.Errorf("handoff to %d: err %v, want an invalid-target error", to, err)
		}
		if stations[0].ap != serving || stations[0].handoffs != 0 || aps[0].members != 0 || aps[1].members != 1 {
			t.Fatalf("refused handoff to %d moved state: station on AP %d after %d handoffs, members %d/%d",
				to, stations[0].ap, stations[0].handoffs, aps[0].members, aps[1].members)
		}
	}
	if empty := sha256.Sum256(nil); string(h.Sum(nil)) != string(empty[:]) {
		t.Error("a refused handoff wrote to the digest")
	}
}
