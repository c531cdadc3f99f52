package ml

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// synthDataset builds a deterministic random dataset.
func synthDataset(seed int64, n, nf, nc int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		row := make([]float64, nf)
		for f := range row {
			row[f] = rng.NormFloat64()
		}
		d.X, d.Y = append(d.X, row), append(d.Y, rng.Intn(nc))
	}
	return d
}

// depth returns the depth of the subtree rooted at node i (0 for a leaf).
func (t flatTree) depth(i int32) int {
	n := &t[i]
	if n.feature < 0 {
		return 0
	}
	return 1 + max(t.depth(n.left), t.depth(n.right))
}

// TestUnfittedTree pins the zero-value tree: it holds no nodes and predicts
// class 0 on both paths.
func TestUnfittedTree(t *testing.T) {
	var dt DecisionTree
	x := []float64{1, 2, 3}
	if got := dt.Predict(x); got != 0 {
		t.Fatalf("unfitted tree Predict = %d, want 0", got)
	}
	out := dt.PredictBatch([][]float64{x, x}, nil)
	for i, c := range out {
		if c != 0 {
			t.Fatalf("unfitted tree PredictBatch[%d] = %d, want 0", i, c)
		}
	}
	if len(dt.nodes) != 0 {
		t.Fatalf("unfitted tree has %d nodes", len(dt.nodes))
	}
}

// TestFitIndexedMatchesSubset pins the bit-identity contract of the indexed
// bootstrap path: fitting on idx without materializing the subset must
// produce exactly the tree that Fit(d.Subset(idx)) produces. The fitted
// tree keeps an exact-size copy of the builder's node slice.
func TestFitIndexedMatchesSubset(t *testing.T) {
	d := synthDataset(11, 300, 7, 3)
	rng := rand.New(rand.NewSource(22))
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = rng.Intn(d.Len())
	}
	want := &DecisionTree{MaxDepth: 10, MaxFeatures: 3, Rng: rand.New(rand.NewSource(33))}
	if err := want.Fit(d.Subset(idx)); err != nil {
		t.Fatal(err)
	}
	got := &DecisionTree{MaxDepth: 10, MaxFeatures: 3, Rng: rand.New(rand.NewSource(33))}
	got.fitIndexed(rankData(d), idx)
	if !reflect.DeepEqual(got.nodes, want.nodes) {
		t.Fatal("indexed fit produced a different tree than Fit(Subset)")
	}
	if !reflect.DeepEqual(got.importance, want.importance) {
		t.Fatal("indexed fit produced different importances")
	}
	if cap(got.nodes) != len(got.nodes) {
		t.Fatalf("fitted tree keeps %d node slots for %d nodes", cap(got.nodes), len(got.nodes))
	}
}

// TestDepthBound: Fit refuses a MaxDepth beyond maxTreeDepth and accepts
// the bound, and the loader accepts a tree exactly that deep, so every
// model Fit writes also loads (TestReadForestRejects refuses one deeper).
func TestDepthBound(t *testing.T) {
	d := synthDataset(5, 60, 3, 2)
	for _, m := range []Classifier{
		&DecisionTree{MaxDepth: maxTreeDepth + 1},
		&RandomForest{NumTrees: 2, MaxDepth: maxTreeDepth + 1},
	} {
		if err := m.Fit(d); err == nil {
			t.Errorf("%s: MaxDepth %d accepted", m.Name(), maxTreeDepth+1)
		}
	}
	for _, m := range []Classifier{
		&DecisionTree{MaxDepth: maxTreeDepth},
		&RandomForest{NumTrees: 2, MaxDepth: maxTreeDepth},
	} {
		if err := m.Fit(d); err != nil {
			t.Errorf("%s: MaxDepth %d refused: %v", m.Name(), maxTreeDepth, err)
		}
	}
	f, err := ReadForestJSON(strings.NewReader(chainForest(maxTreeDepth)), 7)
	if err != nil {
		t.Fatalf("chain at the depth bound refused: %v", err)
	}
	if d := f.trees[0].nodes.depth(0); d != maxTreeDepth {
		t.Fatalf("chain depth %d, want %d", d, maxTreeDepth)
	}
}

// TestSingleClassForest fits a forest on a dataset whose every label is the
// same class: every tree is a single leaf, the vote buffers are one class
// wide, and the batch paths — float64 and quantized — agree on every row.
func TestSingleClassForest(t *testing.T) {
	d := &Dataset{
		X: [][]float64{{0, 1}, {1, 0}, {0.5, 0.5}, {0.2, 0.9}},
		Y: []int{0, 0, 0, 0},
	}
	rf := &RandomForest{NumTrees: 5, MaxDepth: 3, Seed: 7}
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	if nc := rf.numClasses; nc != 1 {
		t.Fatalf("NumClasses = %d, want 1", nc)
	}
	out := rf.PredictBatch(d.X, nil)
	for i, c := range out {
		if c != 0 {
			t.Fatalf("PredictBatch[%d] = %d, want 0", i, c)
		}
	}

	q, err := rf.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	// Uniform trees collapse to one absorbing leaf each.
	if q.NumNodes() != rf.NumTrees {
		t.Fatalf("single-class forest quantized to %d nodes, want %d (one leaf per tree)",
			q.NumNodes(), rf.NumTrees)
	}
	qout := q.PredictBatch(d.X, nil)
	for i := range out {
		if qout[i] != out[i] {
			t.Fatalf("quantized class[%d] = %d, float64 = %d", i, qout[i], out[i])
		}
	}
	p := q.PredictProbaBatch(d.X[:1], nil)
	if len(p) != q.NumClasses() || p[0] != 1 {
		t.Fatalf("single-class Proba = %v, want probability 1 on class 0", p)
	}
}
