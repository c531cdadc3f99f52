// Package ml is a from-scratch, dependency-free implementation of the
// machine-learning toolbox the paper uses for link adaptation (§6.2):
// decision trees (Gini and entropy impurity, bounded depth), random forests
// with Gini feature importance, support vector machines (linear and RBF
// kernel), and a small dense neural network (4 layers, ReLU + sigmoid,
// dropout), together with stratified k-fold cross-validation and the
// accuracy / weighted-F1 metrics the paper reports.
package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dataset is a feature matrix with integer class labels.
type Dataset struct {
	// X is the feature matrix, one row per sample.
	X [][]float64
	// Y holds the class label of each row, in [0, NumClasses).
	Y []int
	// FeatureNames optionally names the columns.
	FeatureNames []string
	// ClassNames optionally names the labels.
	ClassNames []string
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the feature dimensionality (0 for an empty dataset).
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// NumClasses returns 1 + the maximum label value.
func (d *Dataset) NumClasses() int {
	n := 0
	for _, y := range d.Y {
		if y+1 > n {
			n = y + 1
		}
	}
	return n
}

// Validate checks structural consistency and that every feature value is
// finite: a NaN or infinite feature would train silently, and NaN has no
// place in the value order the tree presort relies on.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(d.X), len(d.Y))
	}
	if len(d.X) == 0 {
		return errors.New("ml: empty dataset")
	}
	nf := len(d.X[0])
	for i, row := range d.X {
		if len(row) != nf {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), nf)
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: row %d feature %s is %v, want a finite value", i, d.featureName(f), v)
			}
		}
	}
	for i, y := range d.Y {
		if y < 0 {
			return fmt.Errorf("ml: row %d has negative label %d", i, y)
		}
	}
	return nil
}

// featureName labels column f for error messages: its index, plus its name
// when the dataset names its columns.
func (d *Dataset) featureName(f int) string {
	if f < len(d.FeatureNames) {
		return fmt.Sprintf("%d (%s)", f, d.FeatureNames[f])
	}
	return fmt.Sprint(f)
}

// Subset returns a new Dataset containing the rows at the given indices.
// Rows are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{
		X:            make([][]float64, 0, len(idx)),
		Y:            make([]int, 0, len(idx)),
		FeatureNames: d.FeatureNames,
		ClassNames:   d.ClassNames,
	}
	for _, i := range idx {
		s.X = append(s.X, d.X[i])
		s.Y = append(s.Y, d.Y[i])
	}
	return s
}

// Classifier is a trainable multi-class classifier.
type Classifier interface {
	// Name identifies the model family ("random-forest", ...).
	Name() string
	// Fit trains on the dataset.
	Fit(d *Dataset) error
	// Predict returns the predicted class for a feature vector.
	Predict(x []float64) int
}

// BatchPredictor is implemented by classifiers with an allocation-free batch
// prediction path. PredictBatch fills out (reused when its capacity
// suffices) with the predicted class of every row of X and returns it; the
// result equals calling Predict per row.
type BatchPredictor interface {
	PredictBatch(X [][]float64, out []int) []int
}

// resizeInts returns out resized to n, reusing its backing array when large
// enough.
func resizeInts(out []int, n int) []int {
	if cap(out) < n {
		return make([]int, n)
	}
	return out[:n]
}

// PredictAll applies a fitted classifier to every row of d, using the batch
// path when the classifier provides one.
func PredictAll(c Classifier, d *Dataset) []int {
	if bp, ok := c.(BatchPredictor); ok {
		return bp.PredictBatch(d.X, nil)
	}
	out := make([]int, d.Len())
	for i, row := range d.X {
		out[i] = c.Predict(row)
	}
	return out
}

// StratifiedKFold partitions sample indices into k folds that preserve class
// proportions (the validation protocol of §6.2). It returns, per fold, the
// test-set indices; the train set of fold i is every other fold.
func StratifiedKFold(y []int, k int, rng *rand.Rand) [][]int {
	if k < 2 {
		k = 2
	}
	byClass := map[int][]int{}
	for i, label := range y {
		byClass[label] = append(byClass[label], i)
	}
	folds := make([][]int, k)
	// Deterministic class order, shuffled members.
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for j, i := range idx {
			folds[j%k] = append(folds[j%k], i)
		}
	}
	return folds
}
