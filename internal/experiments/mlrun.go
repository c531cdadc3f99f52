package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/libra-wlan/libra/internal/dataset"
	"github.com/libra-wlan/libra/internal/ml"
)

// ModelFactories returns the four model families of §6.2 with the
// parameterizations the paper reports as best per family.
func ModelFactories(seed int64) map[string]func() ml.Classifier {
	return map[string]func() ml.Classifier{
		"DT": func() ml.Classifier {
			return &ml.DecisionTree{MaxDepth: 8, Criterion: ml.Gini}
		},
		"RF": func() ml.Classifier {
			return &ml.RandomForest{NumTrees: 60, MaxDepth: 10, Seed: seed}
		},
		"SVM": func() ml.Classifier {
			return &ml.SVM{Kernel: ml.RBFKernel, C: 4, MaxPasses: 3, Seed: seed}
		},
		"DNN": func() ml.Classifier {
			return &ml.NeuralNet{Epochs: 120, Seed: seed}
		},
	}
}

// modelOrder fixes the display order.
var modelOrder = []string{"DT", "RF", "SVM", "DNN"}

// CrossValidation reproduces the §6.2 5-fold stratified cross-validation of
// the four model families on the main dataset (paper: DT 95/95, RF 98/98,
// SVM 91/91, DNN 95/90 accuracy/F1 %). reps repeats the random split (the
// paper repeats 500 times; a handful of repetitions already stabilizes the
// mean to well under a point).
func CrossValidation(s *Suite, reps int) (*Table, error) {
	return crossValidation(context.Background(), s, reps)
}

// crossValidation is CrossValidation with cancellation: every fold of every
// family and repetition runs as one job of ml.CrossValidateTasks' pool, and
// a canceled ctx stops new jobs from starting.
func crossValidation(ctx context.Context, s *Suite, reps int) (*Table, error) {
	if reps <= 0 {
		reps = 3
	}
	train := s.Main().ToML(false)
	rng := rand.New(rand.NewSource(s.Seed + 21))
	t := &Table{
		Title:  fmt.Sprintf("§6.2 five-fold cross-validation on the main dataset (%d repetitions)", reps),
		Header: []string{"Model", "Accuracy", "Weighted F1"},
	}
	factories := ModelFactories(s.Seed + 22)
	tasks := make([]ml.CVTask, len(modelOrder))
	for i, name := range modelOrder {
		tasks[i] = ml.CVTask{Factory: factories[name], Data: train, K: 5, Reps: reps}
	}
	res, err := ml.CrossValidateTasks(ctx, tasks, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: CV: %w", err)
	}
	for i, name := range modelOrder {
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%.1f%%", res[i].Accuracy*100),
			fmt.Sprintf("%.1f%%", res[i].WeightedF1*100)})
	}
	return t, nil
}

// TransferAccuracy reproduces the §6.2 transfer study: train on the main
// dataset, test on the two unseen buildings (paper: DT 85/85, RF 88/88,
// SVM 88/88, DNN 83/76).
func TransferAccuracy(s *Suite) (*Table, error) {
	return transferAccuracy(context.Background(), s)
}

// transferAccuracy is TransferAccuracy with cancellation. The four fits are
// independent, so they run on one pool and report in modelOrder. That order
// lists the families cheapest first, so the pool starts them in reverse.
func transferAccuracy(ctx context.Context, s *Suite) (*Table, error) {
	train := s.Main().ToML(false)
	test := s.Test().ToML(false)
	t := &Table{
		Title:  "§6.2 transfer accuracy (train: main dataset, test: Buildings 1 & 2)",
		Header: []string{"Model", "Accuracy", "Weighted F1"},
	}
	factories := ModelFactories(s.Seed + 23)
	preds := make([][]int, len(modelOrder))
	errs := make([]error, len(modelOrder))
	err := ml.FanOut(ctx, 0, len(modelOrder), func(j int) {
		i := len(modelOrder) - 1 - j
		c := factories[modelOrder[i]]()
		if errs[i] = c.Fit(train); errs[i] == nil {
			preds[i] = ml.PredictAll(c, test)
		}
	})
	if err != nil {
		return nil, err
	}
	for i, name := range modelOrder {
		if errs[i] != nil {
			return nil, fmt.Errorf("experiments: transfer %s: %w", name, errs[i])
		}
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%.1f%%", ml.Accuracy(test.Y, preds[i])*100),
			fmt.Sprintf("%.1f%%", ml.WeightedF1(test.Y, preds[i])*100)})
	}
	return t, nil
}

// ThreeClass reproduces the §7 three-class (BA/RA/NA) random forest study:
// cross-validated accuracy on the NA-augmented main dataset and transfer
// accuracy on the augmented testing dataset (paper: 98% CV, 94% transfer;
// shortening the observation window to 40 ms costs ~3 points).
func ThreeClass(s *Suite) (*Table, error) {
	return threeClass(context.Background(), s)
}

// threeClass is ThreeClass with cancellation of its cross-validation folds.
func threeClass(ctx context.Context, s *Suite) (*Table, error) {
	train := s.Main().ToML(true)
	test := s.Test().ToML(true)
	rng := rand.New(rand.NewSource(s.Seed + 24))
	factory := func() ml.Classifier {
		return &ml.RandomForest{NumTrees: 80, MaxDepth: 12, Seed: s.Seed + 25}
	}
	cv, err := ml.CrossValidateTasks(ctx, []ml.CVTask{{Factory: factory, Data: train, K: 5, Reps: 1}}, rng)
	if err != nil {
		return nil, err
	}
	c := factory()
	if err := c.Fit(train); err != nil {
		return nil, err
	}
	acc := ml.Accuracy(test.Y, ml.PredictAll(c, test))

	// 40 ms observation window (§7 item 2): two 20 ms windows instead of
	// two 1 s windows. Short windows average fewer frames, so the features
	// carry more measurement noise; the paper measures a ~3-point drop.
	trainShort := shortWindow(s.Main(), s.Seed+26)
	testShort := shortWindow(s.Test(), s.Seed+27)
	cShort := factory()
	if err := cShort.Fit(trainShort.ToML(true)); err != nil {
		return nil, err
	}
	accShort := ml.Accuracy(testShort.ToML(true).Y, ml.PredictAll(cShort, testShort.ToML(true)))

	return &Table{
		Title:  "§7 three-class (BA/RA/NA) random forest",
		Header: []string{"Setting", "Accuracy"},
		Rows: [][]string{
			{"5-fold CV, main dataset (2 s windows)", fmt.Sprintf("%.1f%%", cv[0].Accuracy*100)},
			{"Transfer to Buildings 1&2 (2 s windows)", fmt.Sprintf("%.1f%%", acc*100)},
			{"Transfer, 40 ms observation windows", fmt.Sprintf("%.1f%%", accShort*100)},
		},
	}, nil
}

// shortWindow re-noises a campaign's features as if observed over 40 ms
// (2 frames) instead of 2 s (200 frames): the per-frame measurement noise
// is averaged over 100x fewer samples.
func shortWindow(c *dataset.Campaign, seed int64) *dataset.Campaign {
	rng := rand.New(rand.NewSource(seed))
	out := &dataset.Campaign{Dataset: dataset.Dataset{Name: c.Name + "-40ms"}, Sites: c.Sites}
	// sqrt(200/2) = 10x more residual averaging noise on SNR/noise/CDR.
	const inflate = 10.0
	for _, e := range c.Entries {
		ne := *e
		ne.Features[0] += rng.NormFloat64() * 0.06 * inflate
		ne.Features[2] += rng.NormFloat64() * 0.12 * inflate
		cdrNoise := rng.NormFloat64() * 0.004 * inflate
		ne.Features[5] += cdrNoise
		if ne.Features[5] < 0 {
			ne.Features[5] = 0
		} else if ne.Features[5] > 1 {
			ne.Features[5] = 1
		}
		out.Entries = append(out.Entries, &ne)
	}
	return out
}

// ConfusionReport details where the production 3-class model errs on the
// transfer set: the full confusion matrix plus per-class F1, the view behind
// the paper's statement that misclassifications are not equally costly (§7).
func ConfusionReport(s *Suite) (*Table, error) {
	clf, err := s.Classifier()
	if err != nil {
		return nil, err
	}
	test := s.Test().ToML(true)
	pred := ml.PredictAll(clf.Model.(*ml.RandomForest), test)
	cm := ml.Confusion(test.Y, pred)
	f1, support := ml.F1PerClass(test.Y, pred)

	classes := []string{"BA", "RA", "NA"}
	t := &Table{
		Title:  "3-class confusion on the transfer set (rows: truth, columns: prediction)",
		Header: []string{"Truth \\ Pred", "BA", "RA", "NA", "Support", "F1"},
	}
	for c := 0; c < len(classes) && c < len(cm); c++ {
		row := []string{classes[c]}
		for p := 0; p < 3; p++ {
			v := 0
			if p < len(cm[c]) {
				v = cm[c][p]
			}
			row = append(row, fmt.Sprint(v))
		}
		row = append(row, fmt.Sprint(support[c]), fmt.Sprintf("%.2f", f1[c]))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
