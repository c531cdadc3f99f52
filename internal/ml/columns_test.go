package ml

import (
	"math/rand"
	"reflect"
	"testing"
)

// synthDataset builds a deterministic random dataset and, when withCols is
// set, attaches a column-major mirror.
func synthDataset(seed int64, n, nf, nc int, withCols bool) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		row := make([]float64, nf)
		for f := range row {
			row[f] = rng.NormFloat64()
		}
		d.Append(row, rng.Intn(nc))
	}
	if withCols {
		cols := make([][]float64, nf)
		for f := range cols {
			cols[f] = make([]float64, n)
			for i := 0; i < n; i++ {
				cols[f][i] = d.X[i][f]
			}
		}
		d.SetColumns(cols)
	}
	return d
}

// TestFitIndexedMatchesSubset pins the bit-identity contract of the indexed
// bootstrap path: fitting on idx without materializing the subset must
// produce exactly the tree that Fit(d.Subset(idx)) produces.
func TestFitIndexedMatchesSubset(t *testing.T) {
	d := synthDataset(11, 300, 7, 3, false)
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
	if !reflect.DeepEqual(got.flat.nodes, want.flat.nodes) {
		t.Fatal("indexed fit produced a different tree than Fit(Subset)")
	}
	if !reflect.DeepEqual(got.Importance(), want.Importance()) {
		t.Fatal("indexed fit produced different importances")
	}
}

// TestColumnMirrorMatchesRows proves the column-major presort source changes
// nothing about the fitted model: a forest fit on a dataset with an attached
// mirror is bit-identical to one fit on the bare rows.
func TestColumnMirrorMatchesRows(t *testing.T) {
	rows := synthDataset(7, 250, 7, 3, false)
	cols := synthDataset(7, 250, 7, 3, true)
	a := &RandomForest{NumTrees: 12, MaxDepth: 8, Seed: 99, Workers: 1}
	if err := a.Fit(rows); err != nil {
		t.Fatal(err)
	}
	b := &RandomForest{NumTrees: 12, MaxDepth: 8, Seed: 99, Workers: 1}
	if err := b.Fit(cols); err != nil {
		t.Fatal(err)
	}
	if len(a.trees) != len(b.trees) {
		t.Fatalf("tree counts differ: %d vs %d", len(a.trees), len(b.trees))
	}
	for i := range a.trees {
		if !reflect.DeepEqual(a.trees[i].flat.nodes, b.trees[i].flat.nodes) {
			t.Fatalf("tree %d differs between row-wise and columnar presort", i)
		}
	}
	if !reflect.DeepEqual(a.GiniImportance(), b.GiniImportance()) {
		t.Fatal("importances differ between row-wise and columnar presort")
	}
}
