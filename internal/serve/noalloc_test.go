package serve

import (
	"testing"

	"github.com/libra-wlan/libra/internal/testutil"
)

// The runtime half of this package's //lint:noalloc contracts: the
// class-only decide path and the wire codec must not touch the allocator in
// steady state. libra-lint proves it statically; these gates watch the
// allocator agree. AllocsPerRun's warm-up call grows the cap-guarded
// dispatcher and connection scratch, so the measured runs see steady state.

// flatPred answers class 1 with no per-call allocation, isolating the
// coalescer's own bookkeeping from the model kernels (gated in internal/ml).
type flatPred struct{}

func (flatPred) Name() string    { return "flat" }
func (flatPred) NumClasses() int { return 3 }

func (flatPred) PredictBatch(X [][]float64, out []int) []int {
	if cap(out) < len(X) {
		out = make([]int, len(X))
	}
	out = out[:len(X)]
	for i := range out {
		out[i] = 1
	}
	return out
}

func (flatPred) PredictProbaBatch(X [][]float64, out []float64) []float64 {
	want := 3 * len(X)
	if cap(out) < want {
		out = make([]float64, want)
	}
	out = out[:want]
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < len(X); i++ {
		out[i*3+1] = 1
	}
	return out
}

func TestClassifyClassOnlyNoalloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	reg := NewRegistry()
	reg.Install("flat", flatPred{})
	rt := NewRouter(reg, RouterConfig{})
	defer rt.Close()
	c := rt.shards[0] // no request is submitted, so its dispatcher never touches the scratch
	m := reg.Active()

	// The kernel only gathers and predicts into dispatcher scratch (the
	// fan-out and its wall-clock stamp live in flush), so one batch can be
	// replayed every run.
	ps := make([]*pending, 8)
	for j := range ps {
		ps[j] = &pending{x: testRow, classOnly: true}
	}
	avg := testing.AllocsPerRun(20, func() {
		c.classifyClassOnly(m, ps)
	})
	if avg != 0 {
		t.Errorf("classifyClassOnly allocates %v per run, want 0 (//lint:noalloc)", avg)
	}
	if len(c.classes) != len(ps) {
		t.Fatalf("classes = %d, want %d", len(c.classes), len(ps))
	}
	for i, cl := range c.classes {
		if cl != 1 {
			t.Fatalf("class[%d] = %d, want 1", i, cl)
		}
	}
}

func TestWireCodecNoalloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	x := []float32{1, 2, 3, 4, 5, 6, 7}
	proba := []float32{0, 1, 0}
	var buf []byte
	var req wireRequest
	var resp WireResponse

	if avg := testing.AllocsPerRun(50, func() {
		buf = appendDecideRequest(buf[:0], 42, 7, false, x)
	}); avg != 0 {
		t.Errorf("appendDecideRequest allocates %v per run, want 0 (//lint:noalloc)", avg)
	}
	payload := buf[4:] // skip the length prefix the frame reader strips
	if avg := testing.AllocsPerRun(50, func() {
		if err := decodeDecideRequest(payload, &req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("decodeDecideRequest allocates %v per run, want 0 (//lint:noalloc)", avg)
	}

	if avg := testing.AllocsPerRun(50, func() {
		buf = appendResult(buf[:0], 42, 1, 3, proba)
	}); avg != 0 {
		t.Errorf("appendResult allocates %v per run, want 0 (//lint:noalloc)", avg)
	}
	payload = buf[4:]
	if avg := testing.AllocsPerRun(50, func() {
		if err := decodeResponse(payload, &resp); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("decodeResponse allocates %v per run, want 0 (//lint:noalloc)", avg)
	}

	if avg := testing.AllocsPerRun(50, func() {
		buf = appendWireError(buf[:0], 42, wireErrOverloaded)
	}); avg != 0 {
		t.Errorf("appendWireError allocates %v per run, want 0 (//lint:noalloc)", avg)
	}
}
