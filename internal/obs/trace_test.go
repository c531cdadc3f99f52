package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// events counts the events tr buffers; every writer must have returned.
func events(tr *Tracer) int {
	n := 0
	for _, s := range tr.streams {
		n += len(s.events)
	}
	return n
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	s := tr.Stream("x", 0)
	if s.Enabled() {
		t.Error("nil tracer must hand out disabled streams")
	}
	s.Event(SimTime{Frame: 1}, "noop", F("k", "v")) // must not panic
	if err := tr.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// fill records a fixed event pattern into n streams, creating the streams
// in the order ids arrives — simulating work stolen by arbitrary workers.
func fill(tr *Tracer, ids []int) {
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := tr.Stream("unit", uint64(id))
			for f := 0; f < 3; f++ {
				s.Event(SimTime{Frame: int64(f), Slot: int64(id)}, "step",
					Fint("unit", int64(id)), Ffloat("v", float64(id)+0.5))
			}
		}(id)
	}
	wg.Wait()
}

// TestTraceWorkerOrderInvariance is the core determinism property: the same
// per-stream work produces identical bytes no matter which goroutine ran
// first or in what order streams were created.
func TestTraceWorkerOrderInvariance(t *testing.T) {
	a := NewTracer()
	fill(a, []int{0, 1, 2, 3, 4, 5, 6, 7})
	b := NewTracer()
	fill(b, []int{7, 3, 5, 1, 6, 0, 2, 4})

	var ab, bb bytes.Buffer
	if err := a.WriteJSON(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Error("trace bytes depend on stream creation order")
	}
	if events(a) != 24 {
		t.Errorf("events = %d, want 24", events(a))
	}
}

func TestTraceJSONShape(t *testing.T) {
	tr := NewTracer()
	s := tr.Stream("sim/LiBRA", 2)
	s.Event(SimTime{Frame: 4, Slot: 7, Codeword: 1}, "mcs_down",
		Fint("from", 5), Fint("to", 4), F("why", `probe "loss"`))
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"stream":"sim/LiBRA","id":2,"frame":4,"slot":7,"cw":1,"kind":"mcs_down","attrs":{"from":"5","to":"4","why":"probe \"loss\""}}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("line = %q, want %q", got, want)
	}
}

func TestActiveTracer(t *testing.T) {
	if ActiveTracer() != nil {
		t.Fatal("tracer installed at test start")
	}
	tr := NewTracer()
	SetTracer(tr)
	defer SetTracer(nil)
	if ActiveTracer() != tr {
		t.Error("ActiveTracer did not return the installed tracer")
	}
	ActiveTracer().Stream("a", 0).Event(SimTime{}, "e")
	if events(tr) != 1 {
		t.Error("event via ActiveTracer not recorded")
	}
	lines := func() int {
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return strings.Count(buf.String(), "\n")
	}
	if lines() != 1 {
		t.Error("expected exactly one trace line")
	}
}
