package ml

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// quantTestData builds an n-sample, nf-feature, 3-class dataset with
// deterministic pseudo-random features.
func quantTestData(n, nf int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		x := make([]float64, nf)
		for j := range x {
			x[j] = rng.NormFloat64() * float64(j+1)
		}
		label := 0
		switch {
		case x[0]+x[1] > 1:
			label = 2
		case x[0]-x[2] > 0:
			label = 1
		}
		d.Append(x, label)
	}
	return d
}

// TestQuantThreshold pins the quantization rule: the largest float32 whose
// widening does not exceed the float64 threshold.
func TestQuantThreshold(t *testing.T) {
	cases := []float64{0, 1, -1, 0.1, -0.1, 1e-40, 3.5e38, -3.5e38,
		math.Pi, 1.0000000001, math.Nextafter(1, 2), math.Nextafter(1, 0)}
	for _, v := range cases {
		q := quantThreshold(v)
		if float64(q) > v {
			t.Errorf("quantThreshold(%g) = %g widens above the input", v, q)
		}
		up := math.Nextafter32(q, float32(math.Inf(1)))
		if !math.IsInf(float64(up), 1) && float64(up) <= v {
			t.Errorf("quantThreshold(%g) = %g is not the largest float32 below the input (%g also fits)", v, q, up)
		}
	}
}

// TestQuantMatchesFloat64 is the parity contract: on float32-representable
// inputs, every quantized path answers bit-identically to the float64 node
// slices.
func TestQuantMatchesFloat64(t *testing.T) {
	rf := &RandomForest{NumTrees: 60, MaxDepth: 10, Seed: 11}
	if err := rf.Fit(quantTestData(600, 7, 3)); err != nil {
		t.Fatal(err)
	}
	q, err := rf.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if q.NumTrees() != 60 || q.NumClasses() != 3 {
		t.Fatalf("quantized shape %d trees/%d classes", q.NumTrees(), q.NumClasses())
	}

	// Float32-representable rows: what the binary wire delivers.
	test := quantTestData(2000, 7, 4)
	rows := make([][]float64, test.Len())
	for i := range rows {
		x := append([]float64(nil), test.X[i]...)
		for j, v := range x {
			x[j] = float64(float32(v))
		}
		rows[i] = x
	}

	want := rf.PredictBatch(rows, nil)
	got := q.PredictBatch(rows, nil)
	for i := range rows {
		if got[i] != want[i] {
			t.Fatalf("row %d: quant class %d, float64 class %d", i, got[i], want[i])
		}
	}

	wantP := rf.PredictProbaBatch(rows, nil)
	gotP := q.PredictProbaBatch(rows, nil)
	for i := range wantP {
		if wantP[i] != gotP[i] {
			t.Fatalf("proba[%d]: quant %v, float64 %v", i, gotP[i], wantP[i])
		}
	}
	nc := q.NumClasses()
	for i := 0; i < 50; i++ {
		w, g := rf.Proba(rows[i]), gotP[i*nc:(i+1)*nc]
		for c := range w {
			if w[c] != g[c] {
				t.Fatalf("row %d Proba class %d: quant %v, float64 %v", i, c, g[c], w[c])
			}
		}
	}
}

// TestQuantNodeLayout pins the 16-byte node size the cache math depends on.
func TestQuantNodeLayout(t *testing.T) {
	if got := int(unsafe.Sizeof(qNode{})); got != 16 {
		t.Fatalf("qNode is %d bytes, want 16", got)
	}
}

// TestQuantEarlyExitTieBreak drives the retirement rule through hand-built
// forests where the final margin is razor thin: equal votes must fall to
// the lowest class, with and without early exit in play.
func TestQuantEarlyExitTieBreak(t *testing.T) {
	constTree := func(c int32) *DecisionTree {
		return &DecisionTree{nodes: flatTree{{feature: -1, class: c}}}
	}
	// 40 trees for class 2, 40 for class 1, 1 for class 0: winner is class
	// 1 (first max between the tied 1 and 2).
	var trees []*DecisionTree
	for i := 0; i < 40; i++ {
		trees = append(trees, constTree(2))
	}
	for i := 0; i < 40; i++ {
		trees = append(trees, constTree(1))
	}
	trees = append(trees, constTree(0))
	rf := &RandomForest{trees: trees, numClasses: 3}
	q, err := rf.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 9)
	for i := range rows {
		rows[i] = []float64{1, 2, 3}
	}
	want := rf.PredictBatch(rows, nil)
	got := q.PredictBatch(rows, nil)
	for i := range rows {
		if got[i] != want[i] || got[i] != 1 {
			t.Fatalf("row %d: quant %d, float64 %d, want 1", i, got[i], want[i])
		}
	}
}

// TestQuantizeUnfitted: quantizing before Fit is an error.
func TestQuantizeUnfitted(t *testing.T) {
	if _, err := (&RandomForest{}).Quantize(); err == nil {
		t.Fatal("Quantize on an unfitted forest did not error")
	}
}

// BenchmarkQuantClassifyBatch measures the early-exit class kernel against
// the float64 batch paths on a serving-sized forest.
func BenchmarkQuantClassifyBatch(b *testing.B) {
	rf := &RandomForest{NumTrees: 400, MaxDepth: 14, Seed: 5}
	if err := rf.Fit(quantTestData(4000, 7, 9)); err != nil {
		b.Fatal(err)
	}
	q, err := rf.Quantize()
	if err != nil {
		b.Fatal(err)
	}
	test := quantTestData(256, 7, 10)
	rows := make([][]float64, test.Len())
	for i := range rows {
		rows[i] = test.X[i]
	}
	b.Run("quant-class", func(b *testing.B) {
		out := make([]int, len(rows))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.PredictBatch(rows, out)
		}
	})
	b.Run("quant-proba", func(b *testing.B) {
		var out []float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = q.PredictProbaBatch(rows, out)
		}
	})
	b.Run("float64-class", func(b *testing.B) {
		out := make([]int, len(rows))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rf.PredictBatch(rows, out)
		}
	})
	b.Run("float64-proba", func(b *testing.B) {
		var out []float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = rf.PredictProbaBatch(rows, out)
		}
	})
}
