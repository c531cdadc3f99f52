package ml

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// FanOut calls job(i) for every i in [0, n) on a pool of at most workers
// goroutines (<= 0 means GOMAXPROCS). Jobs start in index order, so a caller
// that lists its longest jobs first keeps every worker busy until the end.
// Once ctx is done no further job starts; FanOut waits for the jobs in
// flight and returns ctx's error. Callers collect results by index, so
// nothing they produce depends on scheduling.
func FanOut(ctx context.Context, workers, n int, job func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// CVResult summarizes a cross-validation run.
type CVResult struct {
	// Accuracy is the mean accuracy over folds.
	Accuracy float64
	// WeightedF1 is the mean weighted F1 score over folds.
	WeightedF1 float64
	// Folds is the number of folds evaluated.
	Folds int
}

// CVTask is one model family's repeated stratified k-fold cross-validation.
type CVTask struct {
	// Factory returns a fresh, unfitted model on each call and must be safe
	// to call concurrently.
	Factory func() Classifier
	// Data is the dataset the folds partition.
	Data *Dataset
	// K is the number of folds (values below 2 mean 2).
	K int
	// Reps is the number of repetitions with fresh splits; below 1 nothing
	// runs and the result is zero.
	Reps int
}

// fitCost ranks model families by training cost, heaviest first.
func fitCost(c Classifier) int {
	switch c.(type) {
	case *NeuralNet:
		return 3
	case *SVM:
		return 2
	case *RandomForest:
		return 1
	}
	return 0
}

// foldScore is one fold job's outcome.
type foldScore struct {
	acc, f1 float64
	err     error
}

// CrossValidateTasks runs every (task, repetition, fold) job of tasks on one
// GOMAXPROCS-bounded pool and returns each task's mean over repetitions of
// the per-repetition mean over folds.
//
// Every split is drawn from rng before any fit starts, task by task and
// within a task repetition by repetition, and no fit touches rng. Jobs start
// heaviest family first (DNN, SVM, forests, then the rest; each task's
// Factory is called once more to read its family), so the pool's last wave
// holds short jobs. Scores reduce in task, repetition, fold order. The
// results are therefore those of running the tasks, repetitions and folds
// one after another, for any GOMAXPROCS.
//
// A canceled ctx stops new jobs from starting; CrossValidateTasks waits for
// the jobs in flight and returns ctx's error.
func CrossValidateTasks(ctx context.Context, tasks []CVTask, rng *rand.Rand) ([]CVResult, error) {
	type job struct{ task, rep, fold int }
	folds := make([][][][]int, len(tasks)) // [task][rep][fold] test indices
	scores := make([][][]foldScore, len(tasks))
	for t, task := range tasks {
		folds[t] = make([][][]int, max(task.Reps, 0))
		scores[t] = make([][]foldScore, len(folds[t]))
		for r := range folds[t] {
			folds[t][r] = StratifiedKFold(task.Data.Y, task.K, rng)
			scores[t][r] = make([]foldScore, len(folds[t][r]))
		}
	}
	order := make([]int, len(tasks))
	cost := make([]int, len(tasks))
	for t, task := range tasks {
		order[t] = t
		if task.Reps > 0 {
			cost[t] = fitCost(task.Factory())
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cost[b] - cost[a] })
	var jobs []job
	for _, t := range order {
		for r, fs := range folds[t] {
			for f := range fs {
				jobs = append(jobs, job{t, r, f})
			}
		}
	}
	err := FanOut(ctx, 0, len(jobs), func(j int) {
		jb := jobs[j]
		scores[jb.task][jb.rep][jb.fold] = runFold(tasks[jb.task], folds[jb.task][jb.rep], jb.fold)
	})
	if err != nil {
		return nil, err
	}

	out := make([]CVResult, len(tasks))
	for t := range tasks {
		var agg CVResult
		for _, rep := range scores[t] {
			var res CVResult
			for _, sc := range rep {
				if sc.err != nil {
					return nil, sc.err
				}
				res.Accuracy += sc.acc
				res.WeightedF1 += sc.f1
				res.Folds++
			}
			if res.Folds > 0 {
				res.Accuracy /= float64(res.Folds)
				res.WeightedF1 /= float64(res.Folds)
			}
			agg.Accuracy += res.Accuracy
			agg.WeightedF1 += res.WeightedF1
			agg.Folds += res.Folds
		}
		if reps := len(scores[t]); reps > 0 {
			agg.Accuracy /= float64(reps)
			agg.WeightedF1 /= float64(reps)
		}
		out[t] = agg
	}
	return out, nil
}

// runFold trains a fresh model on every fold but fi and scores it on fold fi.
func runFold(task CVTask, folds [][]int, fi int) foldScore {
	var trainIdx []int
	for fj := range folds {
		if fj != fi {
			trainIdx = append(trainIdx, folds[fj]...)
		}
	}
	train := task.Data.Subset(trainIdx)
	test := task.Data.Subset(folds[fi])
	c := task.Factory()
	if err := c.Fit(train); err != nil {
		return foldScore{err: fmt.Errorf("ml: fold %d: %w", fi, err)}
	}
	pred := PredictAll(c, test)
	return foldScore{acc: Accuracy(test.Y, pred), f1: WeightedF1(test.Y, pred)}
}
