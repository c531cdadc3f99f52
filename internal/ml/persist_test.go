package ml

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestForestRoundTrip(t *testing.T) {
	d := threeClassData(240, 31)
	rf := &RandomForest{NumTrees: 12, MaxDepth: 6, Seed: 1}
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rf.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadForestJSON(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions on training data and on a probe grid.
	for i := range d.X {
		if rf.Predict(d.X[i]) != got.Predict(d.X[i]) {
			t.Fatalf("prediction diverged on row %d", i)
		}
	}
	for x := -2.0; x < 8; x += 0.7 {
		for y := -2.0; y < 8; y += 0.7 {
			p := []float64{x, y}
			if rf.Predict(p) != got.Predict(p) {
				t.Fatalf("prediction diverged at (%v,%v)", x, y)
			}
		}
	}
	// Importances preserved.
	a, b := rf.GiniImportance(), got.GiniImportance()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("importances changed")
		}
	}
}

func TestWriteUnfitted(t *testing.T) {
	var buf bytes.Buffer
	if err := (&RandomForest{}).WriteJSON(&buf); err != ErrNotFitted {
		t.Errorf("err = %v", err)
	}
}

// TestReadForestRejects: the loader fails closed. Past the malformed files,
// each tree below would crash or mislead predict if it loaded into the
// serving shape, a 7-feature, 3-class forest.
func TestReadForestRejects(t *testing.T) {
	leaf := func(c int) string { return fmt.Sprintf(`{"leaf":true,"class":%d,"left":-1,"right":-1}`, c) }
	split := func(f, l, r int) string {
		return fmt.Sprintf(`{"leaf":false,"feature":%d,"threshold":0.5,"left":%d,"right":%d}`, f, l, r)
	}
	forest := func(nodes ...string) string {
		return `{"version":1,"num_classes":3,"trees":[{"nodes":[` + strings.Join(nodes, ",") + `]}]}`
	}
	cases := []string{
		"not json",
		`{"version":9}`,
		`{"version":1,"num_classes":1,"trees":[]}`,
		`{"version":1,"num_classes":2,"trees":[]}`,
		`{"version":1,"num_classes":2,"trees":[{"nodes":[]}]}`,
		`{"version":1,"num_classes":2,"trees":[{"nodes":[{"leaf":false,"left":0,"right":0}]}]}`,
		`{"version":1,"num_classes":2,"trees":[{"nodes":[{"leaf":false,"left":5,"right":6}]}]}`,
		strings.Replace(forest(leaf(0)), `"num_classes":3`, `"num_classes":4`, 1),
		forest(split(99, 1, 2), leaf(0), leaf(1)),                                         // feature 99
		forest(split(0, 1, 2), leaf(-1), leaf(1)),                                         // class -1
		forest(split(0, 1, 2), leaf(2), leaf(7)),                                          // class 7 of 3
		chainForest(maxTreeDepth + 1),                                                     // one split past the bound
		forest(split(0, 1, 2), leaf(0), leaf(1), leaf(2)),                                 // unreachable node
		forest(split(0, 1, 4), split(1, 2, 3), leaf(0), leaf(1), split(2, 3, 5), leaf(2)), // shared child
	}
	for _, c := range cases {
		if _, err := ReadForestJSON(strings.NewReader(c), 7); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

// chainForest is a one-tree forest whose tree is a chain of splits deep:
// every split's left child is a class-0 leaf and its right child the next
// split, ending in a class-1 leaf. The nodes are in preorder.
func chainForest(splits int) string {
	var b strings.Builder
	b.WriteString(`{"version":1,"num_classes":2,"trees":[{"nodes":[`)
	for i := 0; i < splits; i++ {
		fmt.Fprintf(&b, `{"leaf":false,"threshold":%d,"left":%d,"right":%d},{"leaf":true,"left":-1,"right":-1},`, i, 2*i+1, 2*i+2)
	}
	b.WriteString(`{"leaf":true,"class":1,"left":-1,"right":-1}]}]}`)
	return b.String()
}
