package ml

import (
	"context"
	"math"
	"math/rand"
	"sync"

	"github.com/libra-wlan/libra/internal/obs"
)

// RandomForest is a bagged ensemble of decision trees with per-split feature
// subsampling. The paper finds random forests to be the best 2-class model
// (98% accuracy/F1 in 5-fold CV) and uses a 3-class RF (BA/RA/NA) inside
// LiBRA (§6.2, §7).
type RandomForest struct {
	// NumTrees is the ensemble size (<=0 means 100).
	NumTrees int
	// MaxDepth bounds individual tree depth (<=0 means 8; at most 64).
	MaxDepth int
	// MinLeaf is the per-leaf minimum (<=0 means 2).
	MinLeaf int
	// Criterion is the impurity measure (Gini by default).
	Criterion Criterion
	// MaxFeatures limits features per split (<=0 means sqrt(#features)).
	MaxFeatures int
	// Seed makes training deterministic.
	Seed int64
	// Workers bounds the goroutines fitting trees (<=0 means GOMAXPROCS).
	// The fitted model is byte-identical for any worker count.
	Workers int

	trees      []*DecisionTree
	importance []float64
	numClasses int
}

// Name implements Classifier.
func (f *RandomForest) Name() string { return "random-forest" }

// Fit implements Classifier. Every tree's bootstrap sample and RNG seed are
// drawn up front from the single seeded stream, the feature columns are
// presorted and ranked once for the whole forest, then the trees fit on a
// bounded worker pool and aggregate (trees and Gini importances) in tree
// order — so the fitted forest does not depend on Workers, and matches a
// fully sequential fit bit for bit. Fit does not modify the exported
// configuration fields.
func (f *RandomForest) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if err := checkMaxDepth(f.MaxDepth); err != nil {
		return err
	}
	numTrees := f.NumTrees
	if numTrees <= 0 {
		numTrees = 100
	}
	maxFeat := f.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = int(math.Ceil(math.Sqrt(float64(d.NumFeatures()))))
	}
	rng := rand.New(rand.NewSource(f.Seed ^ 0x5eed))
	f.numClasses = d.NumClasses()

	n := d.Len()
	boots := make([][]int, numTrees)
	seeds := make([]int64, numTrees)
	for t := 0; t < numTrees; t++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		boots[t] = idx
		seeds[t] = rng.Int63()
	}

	rd := rankData(d)
	trees := make([]*DecisionTree, numTrees)
	FanOut(context.Background(), f.Workers, numTrees, func(t int) {
		tree := &DecisionTree{
			MaxDepth:    f.MaxDepth,
			MinLeaf:     f.MinLeaf,
			Criterion:   f.Criterion,
			MaxFeatures: maxFeat,
			Rng:         rand.New(rand.NewSource(seeds[t])),
		}
		obsFitWorkers.Inc()
		sw := obs.StartTimer()
		// The bootstrap fits through the indexed path, without
		// materializing the subset: bit-identical to
		// tree.Fit(d.Subset(boots[t])).
		tree.fitIndexed(rd, boots[t])
		sw.Observe(obsTreeFitSeconds)
		obsTreeFits.Inc()
		obsFitWorkers.Dec()
		trees[t] = tree
	})

	f.trees = trees
	f.importance = make([]float64, d.NumFeatures())
	for _, tree := range trees {
		for i, v := range tree.importance {
			f.importance[i] += v
		}
	}
	return nil
}

// Predict implements Classifier via majority vote. The walk over the flat
// trees and the stack-resident vote buffer make a call allocation-free.
func (f *RandomForest) Predict(x []float64) int {
	if len(f.trees) == 0 {
		return 0
	}
	var vbuf [16]int
	votes := vbuf[:]
	if f.numClasses > len(vbuf) {
		votes = make([]int, f.numClasses)
	}
	votes = votes[:f.numClasses]
	for _, t := range f.trees {
		votes[t.Predict(x)]++
	}
	return argmaxCount(votes)
}

// voteScratch holds the reusable vote buffer for the float64 batch path;
// pooled so concurrent batch callers don't contend on one buffer.
type voteScratch struct {
	votes []int32
}

var voteScratchPool = sync.Pool{New: func() any { return new(voteScratch) }}

// grow resizes the scratch to n zeroed int32s.
func (s *voteScratch) grow(n int) []int32 {
	if cap(s.votes) < n {
		s.votes = make([]int32, n)
	}
	votes := s.votes[:n]
	for i := range votes {
		votes[i] = 0
	}
	return votes
}

// PredictBatch implements BatchPredictor: it classifies every row of X into
// out (reused when its capacity suffices) with no per-sample allocation. The
// walk iterates trees in the outer loop so each tree's node slice stays
// cache-resident across the whole batch.
//
//lint:noalloc CV and quantized-parity reference path; votes come from the shared scratch pool
func (f *RandomForest) PredictBatch(X [][]float64, out []int) []int {
	out = resizeInts(out, len(X))
	if len(f.trees) == 0 || len(X) == 0 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	nc := f.numClasses
	s := voteScratchPool.Get().(*voteScratch)
	defer voteScratchPool.Put(s)
	votes := s.grow(len(X) * nc)
	for _, t := range f.trees {
		nodes := t.nodes
		for s, x := range X {
			i := int32(0)
			for {
				nd := &nodes[i]
				if nd.feature < 0 {
					votes[s*nc+int(nd.class)]++
					break
				}
				if x[nd.feature] <= nd.threshold {
					i = nd.left
				} else {
					i = nd.right
				}
			}
		}
	}
	for s := range X {
		row := votes[s*nc : (s+1)*nc]
		best, bestN := 0, int32(-1)
		for c, n := range row {
			if n > bestN {
				best, bestN = c, n
			}
		}
		out[s] = best
	}
	return out
}

// Proba returns the vote distribution over classes for x.
//
//lint:ignore deadexport the float64 vote reference that tests hold the quantized forest to
func (f *RandomForest) Proba(x []float64) []float64 {
	p := make([]float64, f.numClasses)
	if len(f.trees) == 0 {
		return p
	}
	for _, t := range f.trees {
		p[t.Predict(x)]++
	}
	for i := range p {
		p[i] /= float64(len(f.trees))
	}
	return p
}

// GiniImportance returns the normalized mean decrease in impurity per
// feature (summing to 1), the metric of Table 3.
func (f *RandomForest) GiniImportance() []float64 {
	out := make([]float64, len(f.importance))
	var total float64
	for _, v := range f.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range f.importance {
		out[i] = v / total
	}
	return out
}
