package ml

import (
	"math/rand"
	"testing"

	"github.com/libra-wlan/libra/internal/testutil"
)

// The runtime half of the //lint:noalloc contract: libra-lint proves the
// annotated kernels allocation-free statically, and these gates cross-check
// the claim against the allocator. A steady-state call (after the warm-up
// run AllocsPerRun performs, which populates the scratch pools and grows the
// cap-guarded buffers) must cost exactly zero allocations.

func noallocForest(t *testing.T) (*RandomForest, *QuantForest, [][]float64) {
	t.Helper()
	rf := &RandomForest{NumTrees: 30, MaxDepth: 8, Seed: 7}
	if err := rf.Fit(quantTestData(400, 7, 5)); err != nil {
		t.Fatal(err)
	}
	q, err := rf.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	test := quantTestData(64, 7, 9)
	X := make([][]float64, test.Len())
	for i := range X {
		X[i] = test.X[i]
	}
	return rf, q, X
}

func TestPredictBatchNoalloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	rf, q, X := noallocForest(t)
	out := make([]int, len(X))

	if avg := testing.AllocsPerRun(50, func() { rf.PredictBatch(X, out) }); avg != 0 {
		t.Errorf("RandomForest.PredictBatch allocates %v per run, want 0 (//lint:noalloc)", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { q.PredictBatch(X, out) }); avg != 0 {
		t.Errorf("QuantForest.PredictBatch allocates %v per run, want 0 (//lint:noalloc)", avg)
	}
}

func TestClassifyKeys32Noalloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	_, q, X := noallocForest(t)
	stride := len(X[0])
	keys := make([]uint32, len(X)*stride)
	for i, x := range X {
		for j, v := range x {
			keys[i*stride+j] = sortKey32(float32(v))
		}
	}
	out := make([]int, len(X))
	scratch := &qScratch{}

	// One row is the decide path's flush at light load, three a short group
	// with a padding lane; the full batch walks eight-row groups.
	for _, n := range []int{1, 3, len(X)} {
		if avg := testing.AllocsPerRun(50, func() {
			q.classifyKeys32(keys, stride, n, out, scratch)
		}); avg != 0 {
			t.Errorf("classifyKeys32 of %d rows allocates %v per run, want 0 (//lint:noalloc)", n, avg)
		}
	}
}

func TestNeuralNetBatchNoalloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	d := threeClassData(64, 3)
	k := newNNBatch([]int{d.NumFeatures(), 13, 6, 5, 3}, 32, 0.2)
	for i := range k.params {
		k.params[i] = float64(i%7-3) / 8
	}
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(d.Len())

	// A full batch, and a short one whose last five samples run one at a
	// time.
	for _, batch := range [][]int{order[:32], order[32:53]} {
		if avg := testing.AllocsPerRun(50, func() { k.gradients(d, batch, rng) }); avg != 0 {
			t.Errorf("nnBatch.gradients of %d samples allocates %v per run, want 0 (//lint:noalloc)", len(batch), avg)
		}
	}
}
