package ml

import (
	"math"
	"math/rand"
	"slices"
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
		d.X, d.Y = append(d.X, x), append(d.Y, label)
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

	gotP := q.PredictProbaBatch(rows, nil)
	nc := q.NumClasses()
	for i, x := range rows {
		w, g := rf.Proba(x), gotP[i*nc:(i+1)*nc]
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

// TestQuantShortGroups pins the short-group walk. A group of g < 8 rows
// walks 8/w trees per lockstep step (w the next power of two >= g), and its
// spare lanes vote on the spare row. Every group width 1-9 runs on forests
// of 61 trees, whose last 29-tree early-exit window leaves unused lanes at
// every w < 8, and of 64 trees. The 61-tree near tie retires the rows with
// x[0] <= 0 after its first window, so its second window walks short,
// non-contiguous active lists. Classes from PredictBatch and
// classifyKeys32, and PredictProbaBatch, must equal the float64 forest's.
func TestQuantShortGroups(t *testing.T) {
	const nf = 7
	rng := rand.New(rand.NewSource(21))
	rows := make([][]float64, 90)
	for i := range rows {
		x := make([]float64, nf)
		for j := range x {
			x[j] = float64(float32(rng.NormFloat64() * 2))
		}
		x[0] = float64(float32(math.Abs(rng.NormFloat64()) + 0.5))
		if i%3 == 0 {
			x[0] = -x[0]
		}
		rows[i] = x
	}
	// nearTie votes class 0 wherever x[0] <= 0, and 1 or 2 by a per-tree
	// feature and threshold elsewhere.
	nearTie := func(trees int) *RandomForest {
		rf := &RandomForest{numClasses: 3}
		for i := 0; i < trees; i++ {
			rf.trees = append(rf.trees, &DecisionTree{nodes: flatTree{
				{feature: 0, threshold: 0, left: 1, right: 2},
				{feature: -1, class: 0},
				{feature: int32(1 + i%(nf-1)), threshold: float64(i%7-3) / 2, left: 3, right: 4},
				{feature: -1, class: 1},
				{feature: -1, class: 2},
			}})
		}
		return rf
	}
	fitted := func(trees int) *RandomForest {
		rf := &RandomForest{NumTrees: trees, MaxDepth: 8, Seed: 3}
		if err := rf.Fit(quantTestData(400, nf, 12)); err != nil {
			t.Fatal(err)
		}
		return rf
	}
	forests := []struct {
		name string
		rf   *RandomForest
	}{
		{"fitted-61", fitted(61)}, {"fitted-64", fitted(64)},
		{"near-tie-61", nearTie(61)}, {"near-tie-64", nearTie(64)},
	}

	// The 61-tree near tie must retire some rows after 32 trees (a margin
	// above the 29 left) and keep others walking.
	retired := 0
	for _, x := range rows {
		votes := make([]int, 3)
		for _, tree := range forests[2].rf.trees[:32] {
			votes[tree.nodes.predict(x)]++
		}
		slices.Sort(votes)
		if votes[2]-votes[1] > 29 {
			retired++
		}
	}
	if retired == 0 || retired == len(rows) {
		t.Fatalf("near-tie fixture retires %d of %d rows after the first window", retired, len(rows))
	}

	keys := make([]uint32, len(rows)*nf)
	for i, x := range rows {
		for j, v := range x {
			keys[i*nf+j] = sortKey32(float32(v))
		}
	}
	scratch := &qScratch{}
	for _, f := range forests {
		name, rf := f.name, f.rf
		q, err := rf.Quantize()
		if err != nil {
			t.Fatal(err)
		}
		nc := q.NumClasses()
		for g := 1; g <= 9; g++ {
			for at := 0; at+g <= len(rows); at += g {
				X := rows[at : at+g]
				want := rf.PredictBatch(X, nil)
				got := q.PredictBatch(X, nil)
				gotK := make([]int, g)
				q.classifyKeys32(keys[at*nf:(at+g)*nf], nf, g, gotK, scratch)
				for i := range X {
					if got[i] != want[i] || gotK[i] != want[i] {
						t.Fatalf("%s, %d rows from %d: row %d PredictBatch %d, classifyKeys32 %d, float64 %d",
							name, g, at, i, got[i], gotK[i], want[i])
					}
				}
				gotP := q.PredictProbaBatch(X, nil)
				for i, x := range X {
					for c, w := range rf.Proba(x) {
						if p := gotP[i*nc+c]; p != w {
							t.Fatalf("%s, %d rows from %d: row %d class %d proba quant %v, float64 %v",
								name, g, at, i, c, p, w)
						}
					}
				}
			}
		}
	}
}

// TestQuantizeUnfitted: quantizing before Fit is an error.
func TestQuantizeUnfitted(t *testing.T) {
	if _, err := (&RandomForest{}).Quantize(); err == nil {
		t.Fatal("Quantize on an unfitted forest did not error")
	}
}

// BenchmarkQuantClassifyBatch measures the early-exit class kernel and the
// exact proba path against the float64 class walk on a serving-sized
// forest.
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
}
