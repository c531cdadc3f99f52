package ml

import "testing"

// TestCompileNilRoot pins the nil-root compile path: an unfitted (or
// hand-built, rootless) tree compiles to an empty flat tree and its
// predictions fall back to the pointer walk's class-0 answer instead of
// touching an empty node array.
func TestCompileNilRoot(t *testing.T) {
	ft := compileTree(nil)
	if len(ft.nodes) != 0 {
		t.Fatalf("compileTree(nil) produced %d nodes, want 0", len(ft.nodes))
	}
	if ft.maxClass != 0 {
		t.Fatalf("compileTree(nil) maxClass = %d, want 0", ft.maxClass)
	}

	var dt DecisionTree // zero value: nil root, empty flat tree
	x := []float64{1, 2, 3}
	if got := dt.Predict(x); got != 0 {
		t.Fatalf("rootless tree Predict = %d, want 0", got)
	}
	out := dt.PredictBatch([][]float64{x, x}, nil)
	for i, c := range out {
		if c != 0 {
			t.Fatalf("rootless tree PredictBatch[%d] = %d, want 0", i, c)
		}
	}
}

// TestCompileMaxClass pins vote-buffer sizing: maxClass tracks the largest
// leaf class through compilation, so forests whose leaves emit classes
// beyond the dataset's label-space width still size their vote buffers
// wide enough.
func TestCompileMaxClass(t *testing.T) {
	root := &treeNode{
		feature:   0,
		threshold: 0.5,
		left:      &treeNode{isLeaf: true, class: 2},
		right:     &treeNode{isLeaf: true, class: 7},
	}
	ft := compileTree(root)
	if ft.maxClass != 7 {
		t.Fatalf("maxClass = %d, want 7", ft.maxClass)
	}
	if got := ft.predict([]float64{0.4}); got != 2 {
		t.Fatalf("left leaf predicts %d, want 2", got)
	}
	if got := ft.predict([]float64{0.6}); got != 7 {
		t.Fatalf("right leaf predicts %d, want 7", got)
	}
}

// TestSingleClassForest fits a forest on a dataset whose every label is the
// same class: every tree is a single leaf, voteClasses must still report a
// non-zero vote-buffer width, and the batch paths — float64 and quantized —
// agree on every row. This is the degenerate shape that breaks vote-buffer
// sizing arithmetic if maxClass and numClasses are conflated.
func TestSingleClassForest(t *testing.T) {
	d := &Dataset{
		X: [][]float64{{0, 1}, {1, 0}, {0.5, 0.5}, {0.2, 0.9}},
		Y: []int{0, 0, 0, 0},
	}
	rf := &RandomForest{NumTrees: 5, MaxDepth: 3, Seed: 7}
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	if vc := rf.voteClasses(); vc < 1 {
		t.Fatalf("voteClasses = %d, want >= 1", vc)
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
