package ml

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// forestBytes serializes a fitted forest so two fits can be compared byte for
// byte.
func forestBytes(t *testing.T, f *RandomForest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestForestParallelMatchesSequential checks the forest determinism contract:
// the fitted trees, predictions, and Gini importances are byte-identical for
// any worker count, because bootstrap samples and per-tree seeds are drawn up
// front and aggregation happens in tree order.
func TestForestParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 42, 1234} {
		train := threeClassData(240, seed)
		test := threeClassData(90, seed+1000)
		ref := &RandomForest{NumTrees: 24, MaxDepth: 8, Seed: seed, Workers: 1}
		if err := ref.Fit(train); err != nil {
			t.Fatalf("seed %d: sequential fit: %v", seed, err)
		}
		refBytes := forestBytes(t, ref)
		refImp := ref.GiniImportance()
		refPred := PredictAll(ref, test)

		for _, workers := range []int{2, 3, 8} {
			par := &RandomForest{NumTrees: 24, MaxDepth: 8, Seed: seed, Workers: workers}
			if err := par.Fit(train); err != nil {
				t.Fatalf("seed %d workers %d: fit: %v", seed, workers, err)
			}
			if !bytes.Equal(refBytes, forestBytes(t, par)) {
				t.Errorf("seed %d: workers=%d forest differs from workers=1", seed, workers)
			}
			for i, v := range par.GiniImportance() {
				if v != refImp[i] {
					t.Errorf("seed %d: workers=%d importance[%d] = %v, want %v", seed, workers, i, v, refImp[i])
				}
			}
			for i, p := range PredictAll(par, test) {
				if p != refPred[i] {
					t.Errorf("seed %d: workers=%d prediction[%d] = %d, want %d", seed, workers, i, p, refPred[i])
				}
			}
		}
	}
}

// TestPredictBatchMatchesPredict checks that every classifier's batch path
// returns exactly what per-sample Predict returns, including when the caller
// reuses an output buffer with spare capacity.
func TestPredictBatchMatchesPredict(t *testing.T) {
	train := threeClassData(180, 5)
	test := threeClassData(60, 6)
	classifiers := []Classifier{
		&DecisionTree{MaxDepth: 8},
		&RandomForest{NumTrees: 20, MaxDepth: 8, Seed: 5},
		&SVM{Kernel: LinearKernel, C: 1, Seed: 5},
		&SVM{Kernel: RBFKernel, C: 10, Gamma: 2, Seed: 5},
		&NeuralNet{Epochs: 60, Seed: 5},
	}
	for _, c := range classifiers {
		if err := c.Fit(train); err != nil {
			t.Fatalf("%s: fit: %v", c.Name(), err)
		}
		bp, ok := c.(BatchPredictor)
		if !ok {
			t.Fatalf("%s: does not implement BatchPredictor", c.Name())
		}
		got := bp.PredictBatch(test.X, nil)
		if len(got) != test.Len() {
			t.Fatalf("%s: batch returned %d predictions for %d rows", c.Name(), len(got), test.Len())
		}
		for i, x := range test.X {
			if want := c.Predict(x); got[i] != want {
				t.Errorf("%s: batch[%d] = %d, Predict = %d", c.Name(), i, got[i], want)
			}
		}
		// Reusing an oversized buffer must give the same answers in place.
		reused := make([]int, 0, 2*test.Len())
		reused = bp.PredictBatch(test.X, reused)
		for i, p := range got {
			if reused[i] != p {
				t.Errorf("%s: reused-buffer batch[%d] = %d, want %d", c.Name(), i, reused[i], p)
			}
		}
	}
}

// ExampleRandomForest_PredictBatch demonstrates the allocation-free batch
// inference path.
func ExampleRandomForest_PredictBatch() {
	train := threeClassData(120, 3)
	rf := &RandomForest{NumTrees: 15, Seed: 3}
	if err := rf.Fit(train); err != nil {
		panic(err)
	}
	out := rf.PredictBatch(train.X[:4], nil)
	fmt.Println(len(out))
	// Output: 4
}

// TestCrossValidateContextCanceled: a pre-canceled context stops the fold
// fan-out before any job starts and surfaces the context's error, for both
// single-shot and repeated cross-validation.
func TestCrossValidateContextCanceled(t *testing.T) {
	d := xorData(200, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	factory := func() Classifier { return &DecisionTree{MaxDepth: 4, Rng: rand.New(rand.NewSource(1))} }
	for _, reps := range []int{1, 3} {
		if _, err := cvOne(ctx, factory, d, 5, reps, rand.New(rand.NewSource(2))); !errors.Is(err, context.Canceled) {
			t.Errorf("reps %d: err = %v, want context.Canceled", reps, err)
		}
	}
}

// TestFanOut holds the pool to its contract: every index runs exactly once,
// at most workers jobs (GOMAXPROCS when workers <= 0) run at a time, a done
// ctx starts no further job, and FanOut returns ctx's error only after every
// job it started has returned.
func TestFanOut(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 3, 200} {
			limit := workers
			if limit <= 0 {
				limit = runtime.GOMAXPROCS(0)
			}
			runs := make([]atomic.Int32, n)
			var mu sync.Mutex
			running, peak := 0, 0
			err := FanOut(context.Background(), workers, n, func(i int) {
				mu.Lock()
				running++
				peak = max(peak, running)
				mu.Unlock()
				time.Sleep(50 * time.Microsecond)
				runs[i].Add(1)
				mu.Lock()
				running--
				mu.Unlock()
			})
			if err != nil {
				t.Errorf("n=%d workers=%d: err = %v", n, workers, err)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
			if peak > limit {
				t.Errorf("n=%d workers=%d: %d jobs ran at once, limit %d", n, workers, peak, limit)
			}
		}
	}

	t.Run("one worker stops at cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ran []int
		err := FanOut(ctx, 1, 10, func(i int) {
			ran = append(ran, i)
			if i == 3 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if fmt.Sprint(ran) != "[0 1 2 3]" {
			t.Errorf("ran %v, want [0 1 2 3]", ran)
		}
	})

	t.Run("several workers wait for jobs in flight", func(t *testing.T) {
		const n = 100
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var started, finished atomic.Int32
		err := FanOut(ctx, 4, n, func(i int) {
			started.Add(1)
			if i == 0 {
				cancel()
			}
			time.Sleep(2 * time.Millisecond)
			finished.Add(1)
		})
		s, f := started.Load(), finished.Load()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if f != s {
			t.Errorf("FanOut returned with %d of %d started jobs finished", f, s)
		}
		if s >= n {
			t.Errorf("all %d jobs started after the ctx was canceled", s)
		}
	})
}
