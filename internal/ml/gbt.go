package ml

import (
	"context"
	"math"
	"slices"
)

// GradientBoosting is a gradient-boosted-trees classifier (logistic loss,
// shallow regression trees, shrinkage). The paper evaluates DT, RF, SVM, and
// DNN; boosted trees are included as the natural next classical model for
// the ablation study of LiBRA's decision core. Multi-class problems use
// one-vs-rest.
type GradientBoosting struct {
	// Trees is the number of boosting rounds (<=0 means 100).
	Trees int
	// Depth bounds each regression tree (<=0 means 3).
	Depth int
	// LearningRate is the shrinkage factor (<=0 means 0.1).
	LearningRate float64
	// MinLeaf is the minimum samples per leaf (<=0 means 4).
	MinLeaf int

	ensembles  [][]regTree // one ensemble per class (1 for binary)
	base       []float64   // per-ensemble prior log-odds
	lr         float64     // resolved learning rate used at fit time
	numClasses int
}

// Name implements Classifier.
func (g *GradientBoosting) Name() string { return "gradient-boosting" }

// regSample is one (value, sample) pair of a presorted feature column.
type regSample struct {
	v float64
	i int32
}

// regBuilder grows one regression tree from presorted columns into its
// reused node slice. The feature matrix never changes across boosting
// rounds, so the presort happens once per Fit (the master columns) and each
// round only copies and partitions.
type regBuilder struct {
	x        [][]float64
	y        []float64 // residuals, rewritten every round
	maxDepth int
	minLeaf  int

	master   [][]regSample // pristine presorted columns (read-only, shared)
	cols     [][]regSample // working copy, partitioned down the tree
	idx      []int32       // node samples in ascending original order
	scratch  []regSample
	idxTmp   []int32
	goesLeft []bool
	nodes    regTree
}

func newRegBuilder(x [][]float64, master [][]regSample, maxDepth, minLeaf int) *regBuilder {
	n := len(x)
	rb := &regBuilder{
		x:        x,
		maxDepth: maxDepth,
		minLeaf:  minLeaf,
		master:   master,
		cols:     make([][]regSample, len(master)),
		idx:      make([]int32, n),
		scratch:  make([]regSample, n),
		idxTmp:   make([]int32, n),
		goesLeft: make([]bool, n),
	}
	for f := range master {
		rb.cols[f] = make([]regSample, n)
	}
	return rb
}

// fit grows one tree on the current residuals y and returns an exact-size
// copy of its node slice.
func (rb *regBuilder) fit(y []float64) regTree {
	rb.y = y
	for f := range rb.master {
		copy(rb.cols[f], rb.master[f])
	}
	for i := range rb.idx {
		rb.idx[i] = int32(i)
	}
	rb.nodes = rb.nodes[:0]
	rb.build(0, len(rb.idx), 0)
	t := make(regTree, len(rb.nodes))
	copy(t, rb.nodes)
	return t
}

// leaf appends a leaf carrying value and returns its index.
func (rb *regBuilder) leaf(value float64) int32 {
	rb.nodes = append(rb.nodes, flatRegNode{feature: -1, value: value})
	return int32(len(rb.nodes) - 1)
}

// build grows the tree over the column range [lo, hi), minimizing squared
// error, appends its nodes to rb.nodes in preorder, and returns the index
// of its root.
func (rb *regBuilder) build(lo, hi, depth int) int32 {
	ids := rb.idx[lo:hi]
	mean := 0.0
	for _, i := range ids {
		mean += rb.y[i]
	}
	mean /= float64(len(ids))
	if depth >= rb.maxDepth || len(ids) < 2*rb.minLeaf {
		return rb.leaf(mean)
	}

	var totalSum, totalSq float64
	for _, i := range ids {
		totalSum += rb.y[i]
		totalSq += rb.y[i] * rb.y[i]
	}
	n := float64(len(ids))
	parentSSE := totalSq - totalSum*totalSum/n

	bestFeat, bestThr, bestGain := -1, 0.0, 1e-12
	for f := range rb.cols {
		col := rb.cols[f][lo:hi]
		var leftSum, leftSq float64
		for k := 0; k < len(col)-1; k++ {
			yv := rb.y[col[k].i]
			leftSum += yv
			leftSq += yv * yv
			if col[k].v == col[k+1].v {
				continue
			}
			nl := float64(k + 1)
			nr := n - nl
			if int(nl) < rb.minLeaf || int(nr) < rb.minLeaf {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/nl) + (rightSq - rightSum*rightSum/nr)
			if gain := parentSSE - sse; gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (col[k].v + col[k+1].v) / 2
			}
		}
	}
	if bestFeat < 0 {
		return rb.leaf(mean)
	}
	nl := 0
	for _, s := range rb.cols[bestFeat][lo:hi] {
		gl := s.v <= bestThr
		rb.goesLeft[s.i] = gl
		if gl {
			nl++
		}
	}
	if nl < rb.minLeaf || (hi-lo)-nl < rb.minLeaf {
		return rb.leaf(mean)
	}
	for f := range rb.cols {
		partitionReg(rb.cols[f][lo:hi], rb.scratch, rb.goesLeft, nl)
	}
	partitionIdx(rb.idx[lo:hi], rb.idxTmp, rb.goesLeft, nl)
	idx := int32(len(rb.nodes))
	rb.nodes = append(rb.nodes, flatRegNode{feature: int32(bestFeat), threshold: bestThr})
	l := rb.build(lo, lo+nl, depth+1)
	r := rb.build(lo+nl, hi, depth+1)
	rb.nodes[idx].left, rb.nodes[idx].right = l, r
	return idx
}

// partitionReg stably splits col into left-going then right-going samples.
func partitionReg(col []regSample, scratch []regSample, goesLeft []bool, nl int) {
	scratch = scratch[:0]
	w := 0
	for _, s := range col {
		if goesLeft[s.i] {
			col[w] = s
			w++
		} else {
			scratch = append(scratch, s)
		}
	}
	copy(col[nl:], scratch)
}

// partitionIdx stably splits ids, preserving ascending order on both sides.
func partitionIdx(ids []int32, scratch []int32, goesLeft []bool, nl int) {
	scratch = scratch[:0]
	w := 0
	for _, i := range ids {
		if goesLeft[i] {
			ids[w] = i
			w++
		} else {
			scratch = append(scratch, i)
		}
	}
	copy(ids[nl:], scratch)
}

// presortReg sorts every feature column of d once.
func presortReg(d *Dataset) [][]regSample {
	n, nf := d.Len(), d.NumFeatures()
	master := make([][]regSample, nf)
	for f := 0; f < nf; f++ {
		col := make([]regSample, n)
		for i, row := range d.X {
			col[i] = regSample{v: row[f], i: int32(i)}
		}
		// Sample index breaks value ties: a deterministic total order, so
		// the presort is independent of the sort algorithm.
		slices.SortFunc(col, func(a, b regSample) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			default:
				return int(a.i) - int(b.i)
			}
		})
		master[f] = col
	}
	return master
}

// Fit implements Classifier. The feature columns are presorted once and
// shared by every boosting round and every one-vs-rest ensemble; the
// ensembles are independent and fit in parallel on a GOMAXPROCS-bounded pool
// with per-class state, so the fitted model is deterministic for any worker
// count. Fit does not modify the exported configuration fields.
func (g *GradientBoosting) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	rounds := g.Trees
	if rounds <= 0 {
		rounds = 100
	}
	depth := g.Depth
	if depth <= 0 {
		depth = 3
	}
	lr := g.LearningRate
	if lr <= 0 {
		lr = 0.1
	}
	minLeaf := g.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 4
	}
	g.lr = lr
	g.numClasses = d.NumClasses()
	ensembles := 1
	if g.numClasses > 2 {
		ensembles = g.numClasses
	}
	g.ensembles = make([][]regTree, ensembles)
	g.base = make([]float64, ensembles)

	master := presortReg(d)
	FanOut(context.Background(), 0, ensembles, func(c int) {
		g.ensembles[c], g.base[c] = fitEnsemble(d, master, c, ensembles, rounds, depth, lr, minLeaf)
	})
	return nil
}

// fitEnsemble fits the one-vs-rest ensemble for class c.
func fitEnsemble(d *Dataset, master [][]regSample, c, ensembles, rounds, depth int, lr float64, minLeaf int) ([]regTree, float64) {
	// Binary target for this ensemble.
	target := make([]float64, d.Len())
	pos := 0
	for i, y := range d.Y {
		hit := (ensembles == 1 && y == 1) || (ensembles > 1 && y == c)
		if hit {
			target[i] = 1
			pos++
		}
	}
	// Prior log-odds.
	p := (float64(pos) + 0.5) / (float64(d.Len()) + 1)
	base := math.Log(p / (1 - p))

	score := make([]float64, d.Len())
	for i := range score {
		score[i] = base
	}
	resid := make([]float64, d.Len())
	rb := newRegBuilder(d.X, master, depth, minLeaf)
	trees := make([]regTree, 0, rounds)
	for round := 0; round < rounds; round++ {
		for i := range resid {
			resid[i] = target[i] - sigmoid(score[i])
		}
		tree := rb.fit(resid)
		trees = append(trees, tree)
		for i := range score {
			score[i] += lr * tree.predict(d.X[i])
		}
	}
	return trees, base
}

// score returns the raw ensemble output for class c.
func (g *GradientBoosting) score(c int, x []float64) float64 {
	s := g.base[c]
	for _, t := range g.ensembles[c] {
		s += g.lr * t.predict(x)
	}
	return s
}

// Predict implements Classifier.
func (g *GradientBoosting) Predict(x []float64) int {
	if len(g.ensembles) == 0 {
		return 0
	}
	if len(g.ensembles) == 1 {
		if g.score(0, x) >= 0 {
			return 1
		}
		return 0
	}
	best, bestV := 0, math.Inf(-1)
	for c := range g.ensembles {
		if v := g.score(c, x); v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// PredictBatch implements BatchPredictor: it classifies every row of X into
// out (reused when its capacity suffices) with no per-sample allocation. The
// score accumulation visits trees in fit order per sample, so the result
// equals calling Predict per row.
func (g *GradientBoosting) PredictBatch(X [][]float64, out []int) []int {
	out = resizeInts(out, len(X))
	if len(g.ensembles) == 0 || len(X) == 0 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	ne := len(g.ensembles)
	scores := make([]float64, len(X)*ne)
	for c := 0; c < ne; c++ {
		for s := range X {
			scores[s*ne+c] = g.base[c]
		}
		for _, t := range g.ensembles[c] {
			for s, x := range X {
				scores[s*ne+c] += g.lr * t.predict(x)
			}
		}
	}
	for s := range X {
		row := scores[s*ne : (s+1)*ne]
		if ne == 1 {
			if row[0] >= 0 {
				out[s] = 1
			} else {
				out[s] = 0
			}
			continue
		}
		best, bestV := 0, math.Inf(-1)
		for c, v := range row {
			if v > bestV {
				best, bestV = c, v
			}
		}
		out[s] = best
	}
	return out
}
