package ml

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// linearData builds a linearly separable 2-D dataset: class 1 iff x+y > 0.
func linearData(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		x := rng.Float64()*4 - 2
		y := rng.Float64()*4 - 2
		label := 0
		if x+y > 0 {
			label = 1
		}
		d.X, d.Y = append(d.X, []float64{x, y}), append(d.Y, label)
	}
	return d
}

// xorData builds the canonical non-linearly-separable 2-class problem.
func xorData(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		x := rng.Float64()*2 - 1
		y := rng.Float64()*2 - 1
		label := 0
		if (x > 0) != (y > 0) {
			label = 1
		}
		d.X, d.Y = append(d.X, []float64{x, y}), append(d.Y, label)
	}
	return d
}

// threeClassData builds three well-separated Gaussian blobs.
func threeClassData(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := [][2]float64{{0, 0}, {6, 0}, {0, 6}}
	d := &Dataset{}
	for i := 0; i < n; i++ {
		c := i % 3
		d.X = append(d.X, []float64{
			centers[c][0] + rng.NormFloat64(),
			centers[c][1] + rng.NormFloat64(),
		})
		d.Y = append(d.Y, c)
	}
	return d
}

func trainAccuracy(c Classifier, d *Dataset) float64 {
	return Accuracy(d.Y, PredictAll(c, d))
}

func TestDatasetValidate(t *testing.T) {
	d := &Dataset{X: [][]float64{{1, 2}}, Y: []int{0}}
	if err := d.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	bad := &Dataset{X: [][]float64{{1, 2}, {1}}, Y: []int{0, 1}}
	if bad.Validate() == nil {
		t.Error("ragged rows accepted")
	}
	mismatch := &Dataset{X: [][]float64{{1}}, Y: []int{0, 1}}
	if mismatch.Validate() == nil {
		t.Error("row/label mismatch accepted")
	}
	empty := &Dataset{}
	if empty.Validate() == nil {
		t.Error("empty dataset accepted")
	}
	neg := &Dataset{X: [][]float64{{1}}, Y: []int{-1}}
	if neg.Validate() == nil {
		t.Error("negative label accepted")
	}
}

func TestDatasetAccessors(t *testing.T) {
	d := threeClassData(30, 1)
	if d.Len() != 30 || d.NumFeatures() != 2 || d.NumClasses() != 3 {
		t.Errorf("accessors: %d %d %d", d.Len(), d.NumFeatures(), d.NumClasses())
	}
	s := d.Subset([]int{0, 1, 2})
	if s.Len() != 3 {
		t.Errorf("subset len = %d", s.Len())
	}
	if (&Dataset{}).NumFeatures() != 0 {
		t.Error("empty NumFeatures")
	}
}

func TestStratifiedKFold(t *testing.T) {
	y := make([]int, 100)
	for i := range y {
		if i < 20 {
			y[i] = 1
		}
	}
	rng := rand.New(rand.NewSource(1))
	folds := StratifiedKFold(y, 5, rng)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]int{}
	for fi, fold := range folds {
		ones := 0
		for _, i := range fold {
			seen[i]++
			if y[i] == 1 {
				ones++
			}
		}
		if ones != 4 {
			t.Errorf("fold %d has %d minority samples, want 4", fi, ones)
		}
	}
	if len(seen) != 100 {
		t.Errorf("folds cover %d samples", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("sample %d appears %d times", i, n)
		}
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 0, 1, 1}, []int{1, 1, 1, 0}); got != 0.5 {
		t.Errorf("Accuracy = %v", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy")
	}
	if Accuracy([]int{1}, []int{1, 2}) != 0 {
		t.Error("length mismatch accuracy")
	}
}

func TestConfusion(t *testing.T) {
	cm := Confusion([]int{0, 0, 1, 1}, []int{0, 1, 1, 1})
	if cm[0][0] != 1 || cm[0][1] != 1 || cm[1][1] != 2 || cm[1][0] != 0 {
		t.Errorf("confusion = %v", cm)
	}
}

func TestF1(t *testing.T) {
	// Perfect predictions: F1 = 1 everywhere.
	y := []int{0, 1, 0, 1, 2}
	f1, support := F1PerClass(y, y)
	for c, v := range f1 {
		if v != 1 {
			t.Errorf("class %d F1 = %v", c, v)
		}
		_ = support
	}
	if got := WeightedF1(y, y); got != 1 {
		t.Errorf("weighted F1 = %v", got)
	}
	// Known case: TP=1 FP=1 FN=1 for class 1 -> F1 = 0.5.
	f1b, _ := F1PerClass([]int{1, 1, 0}, []int{1, 0, 1})
	if math.Abs(f1b[1]-0.5) > 1e-12 {
		t.Errorf("class 1 F1 = %v", f1b[1])
	}
}

func TestWeightedF1Imbalance(t *testing.T) {
	// A classifier that always predicts the majority: weighted F1 rewards
	// majority performance but stays below 1.
	y := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1}
	pred := make([]int, 10)
	got := WeightedF1(y, pred)
	if got <= 0.5 || got >= 1 {
		t.Errorf("imbalanced weighted F1 = %v", got)
	}
}

func TestDecisionTreeSeparable(t *testing.T) {
	d := linearData(300, 1)
	dt := &DecisionTree{MaxDepth: 10}
	if err := dt.Fit(d); err != nil {
		t.Fatal(err)
	}
	if acc := trainAccuracy(dt, d); acc < 0.95 {
		t.Errorf("train accuracy on separable data = %v", acc)
	}
}

func TestDecisionTreeDepthBound(t *testing.T) {
	d := xorData(500, 2)
	dt := &DecisionTree{MaxDepth: 3}
	if err := dt.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := dt.nodes.depth(0); got > 3 {
		t.Errorf("depth = %d, bound 3", got)
	}
}

func TestDecisionTreeEntropy(t *testing.T) {
	d := linearData(300, 3)
	dt := &DecisionTree{MaxDepth: 10, Criterion: Entropy}
	if err := dt.Fit(d); err != nil {
		t.Fatal(err)
	}
	if acc := trainAccuracy(dt, d); acc < 0.95 {
		t.Errorf("entropy tree accuracy = %v", acc)
	}
}

func TestImpurityValues(t *testing.T) {
	// Gini of a pure node is 0; of a 50/50 node is 0.5.
	if got := Gini.impurity([]int{10, 0}, 10); got != 0 {
		t.Errorf("pure gini = %v", got)
	}
	if got := Gini.impurity([]int{5, 5}, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("even gini = %v", got)
	}
	// Entropy of a 50/50 node is 1 bit.
	if got := Entropy.impurity([]int{5, 5}, 10); math.Abs(got-1) > 1e-12 {
		t.Errorf("even entropy = %v", got)
	}
	if got := Entropy.impurity(nil, 0); got != 0 {
		t.Errorf("empty impurity = %v", got)
	}
}

func TestCriterionString(t *testing.T) {
	if Gini.String() != "gini" || Entropy.String() != "entropy" {
		t.Error("criterion names")
	}
}

func TestDecisionTreeImportance(t *testing.T) {
	// Feature 0 decides the label; feature 1 is noise.
	rng := rand.New(rand.NewSource(4))
	d := &Dataset{}
	for i := 0; i < 400; i++ {
		x := rng.Float64()*2 - 1
		noise := rng.Float64()
		label := 0
		if x > 0 {
			label = 1
		}
		d.X, d.Y = append(d.X, []float64{x, noise}), append(d.Y, label)
	}
	dt := &DecisionTree{MaxDepth: 6}
	if err := dt.Fit(d); err != nil {
		t.Fatal(err)
	}
	imp := dt.importance
	if imp[0] <= imp[1] {
		t.Errorf("importance inverted: %v", imp)
	}
}

func TestRandomForestBlobs(t *testing.T) {
	d := threeClassData(300, 5)
	rf := &RandomForest{NumTrees: 30, MaxDepth: 8, Seed: 1}
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	if acc := trainAccuracy(rf, d); acc < 0.97 {
		t.Errorf("forest blob accuracy = %v", acc)
	}
}

func TestRandomForestXOR(t *testing.T) {
	d := xorData(600, 6)
	rf := &RandomForest{NumTrees: 40, MaxDepth: 10, Seed: 2, MaxFeatures: 2}
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	if acc := trainAccuracy(rf, d); acc < 0.9 {
		t.Errorf("forest XOR accuracy = %v", acc)
	}
}

func TestRandomForestProba(t *testing.T) {
	d := threeClassData(150, 7)
	rf := &RandomForest{NumTrees: 20, Seed: 3}
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	p := rf.Proba(d.X[0])
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestRandomForestImportanceNormalized(t *testing.T) {
	d := linearData(200, 8)
	rf := &RandomForest{NumTrees: 15, Seed: 4}
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	imp := rf.GiniImportance()
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %v", sum)
	}
}

func TestRandomForestDeterminism(t *testing.T) {
	d := xorData(200, 9)
	a := &RandomForest{NumTrees: 10, Seed: 7}
	b := &RandomForest{NumTrees: 10, Seed: 7}
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := range d.X {
		if a.Predict(d.X[i]) != b.Predict(d.X[i]) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestSVMLinearSeparable(t *testing.T) {
	d := linearData(200, 10)
	svm := &SVM{Kernel: LinearKernel, C: 1, Seed: 1}
	if err := svm.Fit(d); err != nil {
		t.Fatal(err)
	}
	if acc := trainAccuracy(svm, d); acc < 0.93 {
		t.Errorf("linear SVM accuracy = %v", acc)
	}
}

func TestSVMRBFOnXOR(t *testing.T) {
	d := xorData(300, 11)
	svm := &SVM{Kernel: RBFKernel, C: 10, Gamma: 2, Seed: 1}
	if err := svm.Fit(d); err != nil {
		t.Fatal(err)
	}
	if acc := trainAccuracy(svm, d); acc < 0.85 {
		t.Errorf("RBF SVM XOR accuracy = %v", acc)
	}
}

func TestSVMMultiClass(t *testing.T) {
	d := threeClassData(240, 12)
	svm := &SVM{Kernel: LinearKernel, C: 1, Seed: 1}
	if err := svm.Fit(d); err != nil {
		t.Fatal(err)
	}
	if acc := trainAccuracy(svm, d); acc < 0.9 {
		t.Errorf("multi-class SVM accuracy = %v", acc)
	}
}

// TestSVMFitRejectsNonFinite: Fit refuses a NaN C, a NaN or +Inf Gamma and
// a NaN or +Inf Tol, naming the field, where it used to train no support
// vector and predict one class for every row. Zero and negative values,
// -Inf included, still select the defaults, and C = +Inf is a hard margin.
func TestSVMFitRejectsNonFinite(t *testing.T) {
	d := wideData(200, 4, 2, 1)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		svm   SVM
	}{
		{"C", SVM{C: nan}},
		{"C", SVM{C: inf}},
		{"Gamma", SVM{Gamma: nan}},
		{"Gamma", SVM{Gamma: inf}},
		{"Tol", SVM{Tol: nan}},
		{"Tol", SVM{Tol: inf}},
	} {
		s := tc.svm
		s.Kernel = RBFKernel
		err := s.Fit(d)
		if err == nil {
			t.Errorf("Fit accepted C=%v Gamma=%v Tol=%v", s.C, s.Gamma, s.Tol)
			continue
		}
		if !strings.Contains(err.Error(), "SVM."+tc.field+" ") {
			t.Errorf("error %q does not name SVM.%s", err, tc.field)
		}
	}
	for _, s := range []SVM{
		{C: -inf, Gamma: -inf, Tol: -inf},
		{C: -1, Gamma: 0, Tol: -1e-3},
	} {
		s.Kernel = RBFKernel
		if err := s.Fit(d); err != nil {
			t.Errorf("C=%v Gamma=%v Tol=%v: %v", s.C, s.Gamma, s.Tol, err)
			continue
		}
		if acc := trainAccuracy(&s, d); acc < 0.9 {
			t.Errorf("C=%v Gamma=%v Tol=%v: accuracy %v", s.C, s.Gamma, s.Tol, acc)
		}
	}
}

// TestSVMFitRefusesHardMargin: a hard margin (C = +Inf) on rows no kernel
// separates never converges, so Fit must refuse it at once.
func TestSVMFitRefusesHardMargin(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- (&SVM{C: math.Inf(1), Kernel: LinearKernel, Seed: 1}).Fit(xorData(20, 3)) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "SVM.C ") {
			t.Fatalf("hard-margin Fit on XOR rows = %v, want an error naming SVM.C", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hard-margin Fit on XOR rows still running after 5 s")
	}
}

// TestSVMFitLargeCStops: a large finite C on rows no kernel separates keeps
// SMO finding alpha changes. Fit had no bound on its passes: C = 1e6 took
// over 3 s (909k passes) to converge and C = 1e300 ran past 10 s. Both must
// now stop at the pass cap with an error, leaving an unfitted SVM that
// predicts class 0.
func TestSVMFitLargeCStops(t *testing.T) {
	for _, c := range []float64{1e6, 1e300} {
		s := &SVM{C: c, Kernel: LinearKernel, Seed: 1}
		done := make(chan error, 1)
		go func() { done <- s.Fit(xorData(20, 3)) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "SMO passes") {
				t.Errorf("C = %v Fit on XOR rows = %v, want an error naming the SMO pass cap", c, err)
			}
			if got := s.Predict([]float64{0.5, -0.5}); got != 0 {
				t.Errorf("C = %v: the failed fit predicts %d, want 0", c, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("C = %v Fit on XOR rows still running after 10 s", c)
		}
	}
}

func TestKernelString(t *testing.T) {
	if LinearKernel.String() != "linear" || RBFKernel.String() != "rbf" {
		t.Error("kernel names")
	}
	svm := &SVM{Kernel: RBFKernel}
	if svm.Name() != "svm-rbf" {
		t.Errorf("Name = %q", svm.Name())
	}
}

func TestNeuralNetSeparable(t *testing.T) {
	d := linearData(400, 13)
	nn := &NeuralNet{Epochs: 80, Seed: 1, Dropout: -1}
	if err := nn.Fit(d); err != nil {
		t.Fatal(err)
	}
	if acc := trainAccuracy(nn, d); acc < 0.93 {
		t.Errorf("NN accuracy = %v", acc)
	}
}

func TestNeuralNetXOR(t *testing.T) {
	d := xorData(600, 14)
	nn := &NeuralNet{Epochs: 220, Seed: 2, Dropout: -1, LearningRate: 3e-3}
	if err := nn.Fit(d); err != nil {
		t.Fatal(err)
	}
	if acc := trainAccuracy(nn, d); acc < 0.85 {
		t.Errorf("NN XOR accuracy = %v", acc)
	}
}

func TestNeuralNetMultiClass(t *testing.T) {
	d := threeClassData(300, 15)
	nn := &NeuralNet{Epochs: 100, Seed: 3}
	if err := nn.Fit(d); err != nil {
		t.Fatal(err)
	}
	if acc := trainAccuracy(nn, d); acc < 0.9 {
		t.Errorf("NN 3-class accuracy = %v", acc)
	}
}

func TestNeuralNetDropoutStillLearns(t *testing.T) {
	d := linearData(400, 16)
	nn := &NeuralNet{Epochs: 120, Seed: 4, Dropout: 0.2}
	if err := nn.Fit(d); err != nil {
		t.Fatal(err)
	}
	if acc := trainAccuracy(nn, d); acc < 0.88 {
		t.Errorf("NN with dropout accuracy = %v", acc)
	}
}

// TestNeuralNetFitRejectsInvalid: Fit refuses, naming the field, what it
// cannot train. A NaN or +Inf LearningRate used to fit non-finite weights
// that predict class 0 for every row, a NaN Dropout to train with no
// dropout, a Dropout of 1 or more to drop every hidden unit on every sample,
// and a negative width to panic. A zero width is refused unless all three
// are zero, the default sentinel. Zero and negative learning rates and
// negative dropouts, -Inf included, still select their defaults.
func TestNeuralNetFitRejectsInvalid(t *testing.T) {
	d := linearData(200, 17)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		net   NeuralNet
	}{
		{"LearningRate", NeuralNet{LearningRate: nan}},
		{"LearningRate", NeuralNet{LearningRate: inf}},
		{"Dropout", NeuralNet{Dropout: nan}},
		{"Dropout", NeuralNet{Dropout: 1}},
		{"Dropout", NeuralNet{Dropout: 1.5}},
		{"Dropout", NeuralNet{Dropout: inf}},
		{"Hidden", NeuralNet{Hidden: [3]int{8, -4, 4}}},
		{"Hidden", NeuralNet{Hidden: [3]int{8, 0, 4}}},
		{"Hidden", NeuralNet{Hidden: [3]int{0, 0, 1}}},
	} {
		n := tc.net
		n.Epochs = 1
		err := n.Fit(d)
		if err == nil {
			t.Errorf("Fit accepted Hidden=%v Dropout=%v LearningRate=%v", n.Hidden, n.Dropout, n.LearningRate)
			continue
		}
		if !strings.Contains(err.Error(), "NeuralNet."+tc.field+" ") {
			t.Errorf("error %q does not name NeuralNet.%s", err, tc.field)
		}
	}
	for _, n := range []NeuralNet{
		{LearningRate: -inf, Dropout: -inf},
		{LearningRate: -1, Dropout: -1},
		{Hidden: [3]int{16, 8, 4}},
	} {
		n.Epochs, n.Seed = 40, 1
		if err := n.Fit(d); err != nil {
			t.Errorf("Hidden=%v Dropout=%v LearningRate=%v: %v", n.Hidden, n.Dropout, n.LearningRate, err)
			continue
		}
		if acc := trainAccuracy(&n, d); acc < 0.9 {
			t.Errorf("Hidden=%v Dropout=%v LearningRate=%v: accuracy %v", n.Hidden, n.Dropout, n.LearningRate, acc)
		}
	}
}

func TestScaler(t *testing.T) {
	d := &Dataset{X: [][]float64{{1, 10}, {3, 30}, {5, 50}}, Y: []int{0, 0, 0}}
	s := FitScaler(d)
	if math.Abs(s.Mean[0]-3) > 1e-12 || math.Abs(s.Mean[1]-30) > 1e-12 {
		t.Errorf("means = %v", s.Mean)
	}
	scaled := s.ApplyAll(d)
	for j := 0; j < 2; j++ {
		var mean float64
		for i := range scaled.X {
			mean += scaled.X[i][j]
		}
		if math.Abs(mean) > 1e-9 {
			t.Errorf("scaled column %d mean = %v", j, mean/3)
		}
	}
	// Constant column does not produce NaN.
	dc := &Dataset{X: [][]float64{{7}, {7}}, Y: []int{0, 1}}
	sc := FitScaler(dc)
	out := sc.Apply([]float64{7})
	if math.IsNaN(out[0]) {
		t.Error("constant feature scaled to NaN")
	}
}

// cvOne cross-validates one family, the single-task form of
// CrossValidateTasks.
func cvOne(ctx context.Context, factory func() Classifier, d *Dataset, k, reps int, rng *rand.Rand) (CVResult, error) {
	res, err := CrossValidateTasks(ctx, []CVTask{{Factory: factory, Data: d, K: k, Reps: reps}}, rng)
	if err != nil {
		return CVResult{}, err
	}
	return res[0], nil
}

func TestCrossValidatePipeline(t *testing.T) {
	d := linearData(250, 17)
	rng := rand.New(rand.NewSource(1))
	res, err := cvOne(context.Background(), func() Classifier {
		return &DecisionTree{MaxDepth: 6}
	}, d, 5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Folds != 5 {
		t.Errorf("folds = %d", res.Folds)
	}
	if res.Accuracy < 0.9 {
		t.Errorf("CV accuracy = %v", res.Accuracy)
	}
	if res.WeightedF1 <= 0 || res.WeightedF1 > 1 {
		t.Errorf("CV F1 = %v", res.WeightedF1)
	}
}

func TestRepeatedCV(t *testing.T) {
	d := linearData(150, 18)
	rng := rand.New(rand.NewSource(2))
	res, err := cvOne(context.Background(), func() Classifier {
		return &DecisionTree{MaxDepth: 5}
	}, d, 3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.8 {
		t.Errorf("repeated CV accuracy = %v", res.Accuracy)
	}
}

func TestPredictionsInLabelSet(t *testing.T) {
	d := threeClassData(120, 19)
	models := []Classifier{
		&DecisionTree{MaxDepth: 5},
		&RandomForest{NumTrees: 8, Seed: 1},
		&SVM{Kernel: LinearKernel, Seed: 1},
		&NeuralNet{Epochs: 20, Seed: 1},
	}
	for _, m := range models {
		if err := m.Fit(d); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		f := func(a, b float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 100 || math.Abs(b) > 100 {
				return true
			}
			p := m.Predict([]float64{a, b})
			return p >= 0 && p < 3
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestUnfittedPredict(t *testing.T) {
	// Unfitted models predict class 0 rather than panicking.
	models := []Classifier{&DecisionTree{}, &RandomForest{}, &SVM{}, &NeuralNet{}}
	for _, m := range models {
		if got := m.Predict([]float64{1, 2}); got != 0 {
			t.Errorf("%s unfitted Predict = %d", m.Name(), got)
		}
	}
}

func TestFitRejectsInvalid(t *testing.T) {
	bad := &Dataset{X: [][]float64{{1}}, Y: []int{0, 1}}
	models := []Classifier{&DecisionTree{}, &RandomForest{NumTrees: 2}, &SVM{}, &NeuralNet{Epochs: 1}}
	for _, m := range models {
		if err := m.Fit(bad); err == nil {
			t.Errorf("%s accepted an invalid dataset", m.Name())
		}
	}
}

// TestFitRejectsNonFinite: every family's Fit refuses a NaN or infinite
// feature, and the error names the row and the feature.
func TestFitRejectsNonFinite(t *testing.T) {
	models := []func() Classifier{
		func() Classifier { return &DecisionTree{} },
		func() Classifier { return &RandomForest{NumTrees: 2} },
		func() Classifier { return &SVM{} },
		func() Classifier { return &NeuralNet{Epochs: 1} },
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := linearData(20, 3)
		d.FeatureNames = []string{"snr", "cdr"}
		d.X[7][1] = bad
		for _, newModel := range models {
			m := newModel()
			err := m.Fit(d)
			if err == nil {
				t.Errorf("%s accepted feature value %v", m.Name(), bad)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, "row 7") || !strings.Contains(msg, "feature 1 (cdr)") {
				t.Errorf("%s: error %q does not name row 7, feature 1 (cdr)", m.Name(), msg)
			}
		}
	}
}
