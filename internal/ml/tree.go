package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
)

// Criterion selects the impurity measure used to grow trees. The paper tries
// both Gini index and entropy (§6.2).
type Criterion int

// Supported impurity criteria.
const (
	Gini Criterion = iota
	Entropy
)

// String returns the criterion name.
func (c Criterion) String() string {
	if c == Entropy {
		return "entropy"
	}
	return "gini"
}

// impurity computes the criterion value from class counts.
func (c Criterion) impurity(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	switch c {
	case Entropy:
		var h float64
		for _, n := range counts {
			if n == 0 {
				continue
			}
			p := float64(n) / float64(total)
			h -= p * math.Log2(p)
		}
		return h
	default:
		g := 1.0
		for _, n := range counts {
			p := float64(n) / float64(total)
			g -= p * p
		}
		return g
	}
}

// maxTreeDepth bounds the depth of every classification tree: Fit refuses a
// deeper MaxDepth, and ReadForestJSON refuses a deeper path, so every tree
// this package writes also loads. The forests here reach depth 20.
const maxTreeDepth = 64

// DecisionTree is a CART-style binary classification tree with bounded depth
// (the paper limits depth to reduce overfitting).
type DecisionTree struct {
	// MaxDepth bounds tree depth (<=0 means 8; at most 64).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (<=0 means 2).
	MinLeaf int
	// Criterion is the impurity measure.
	Criterion Criterion
	// MaxFeatures limits the number of features considered per split
	// (<=0 means all). Random forests set this to sqrt(#features).
	MaxFeatures int
	// Rng shuffles feature candidate order; nil means deterministic
	// full-feature scan.
	Rng *rand.Rand

	nodes      flatTree
	importance []float64
}

// Name implements Classifier.
func (t *DecisionTree) Name() string { return "decision-tree" }

// Fit implements Classifier. Each feature column is sorted once up front
// (see rankData); the sorted index arrays are then partitioned in place down
// the tree, so a node costs O(features·samples) instead of
// O(features·samples·log samples). Splits, thresholds, and importances are
// identical to a per-node re-sort: the scan accumulates integer class counts
// and only evaluates positions between distinct values, so tie order within
// a sorted run cannot affect the outcome. Fit does not modify the exported
// configuration fields.
func (t *DecisionTree) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if err := checkMaxDepth(t.MaxDepth); err != nil {
		return err
	}
	t.fitIndexed(rankData(d), nil)
	return nil
}

// checkMaxDepth refuses a MaxDepth beyond the bound every loader enforces.
func checkMaxDepth(d int) error {
	if d > maxTreeDepth {
		return fmt.Errorf("ml: MaxDepth %d exceeds %d", d, maxTreeDepth)
	}
	return nil
}

// fitIndexed fits the tree on the rows of rd selected by idx (with
// repetition — a bootstrap sample), or on every row when idx is nil,
// without materializing the subset. The fitted tree is bit-identical to
// Fit(d.Subset(idx)).
func (t *DecisionTree) fitIndexed(rd *rankedData, idx []int) {
	maxDepth := t.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 8
	}
	minLeaf := t.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 2
	}
	b := treeBuilderPool.Get().(*treeBuilder)
	b.init(rd, idx, maxDepth, minLeaf, t.Criterion, t.MaxFeatures, t.Rng)
	b.build(0, b.nSamples, 0)
	t.nodes = make(flatTree, len(b.nodes))
	copy(t.nodes, b.nodes)
	t.importance = make([]float64, len(b.importance))
	copy(t.importance, b.importance)
	b.release()
}

// rankedData is a validated dataset prepared for tree fits: column-major
// feature values and, per feature, each row's dense value rank. One presort
// builds it, and a forest shares it read-only across all its trees.
type rankedData struct {
	vals       [][]float64 // vals[f][j] == X[j][f]
	ranks      [][]int32   // ranks[f][j]: distinct values of feature f below X[j][f]
	nRanks     []int32     // distinct values per feature
	y          []int
	numClasses int
}

// colSample is one (value, row) pair of a presorted feature column.
type colSample struct {
	v float64
	i int32
}

// presort sorts every feature column of d once.
func presort(d *Dataset) [][]colSample {
	n, nf := d.Len(), d.NumFeatures()
	master := make([][]colSample, nf)
	for f := 0; f < nf; f++ {
		col := make([]colSample, n)
		for i, row := range d.X {
			col[i] = colSample{v: row[f], i: int32(i)}
		}
		// Row index breaks value ties: a deterministic total order, so
		// the presort is independent of the sort algorithm.
		slices.SortFunc(col, func(a, b colSample) int {
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

// rankData presorts every feature column of d once (presort, ties by row
// index) and numbers its distinct values in ascending order. Values that
// compare equal share a rank, -0 and +0 included; d holds no NaN.
func rankData(d *Dataset) *rankedData {
	master := presort(d)
	n := d.Len()
	rd := &rankedData{
		vals:       make([][]float64, len(master)),
		ranks:      make([][]int32, len(master)),
		nRanks:     make([]int32, len(master)),
		y:          d.Y,
		numClasses: max(d.NumClasses(), 2),
	}
	vals := make([]float64, len(master)*n)
	ranks := make([]int32, len(master)*n)
	for f, col := range master {
		v, rk := vals[f*n:(f+1)*n:(f+1)*n], ranks[f*n:(f+1)*n:(f+1)*n]
		r := int32(0)
		for k, s := range col {
			if k > 0 && s.v != col[k-1].v {
				r++
			}
			v[s.i] = s.v
			rk[s.i] = r
		}
		rd.vals[f], rd.ranks[f], rd.nRanks[f] = v, rk, r+1
	}
	return rd
}

// sortedSample is one (value, label, sample) triple of a presorted feature
// column.
type sortedSample struct {
	v float64
	y int32
	i int32
}

// treeBuilder holds one Fit invocation's state: resolved hyperparameters,
// presorted per-feature columns, the growing node slice, and reusable
// scratch. Builders are pooled so a forest fit reuses the same buffers
// across trees.
type treeBuilder struct {
	maxDepth   int
	minLeaf    int
	maxFeat    int
	criterion  Criterion
	rng        *rand.Rand
	numClasses int
	nSamples   int

	// cols[f] holds the node samples sorted ascending by feature f; every
	// node owns the same contiguous range [lo, hi) in all columns, which
	// splits partition stably in place.
	cols        [][]sortedSample
	scratch     []sortedSample
	goesLeft    []bool
	rows        []int
	rankStart   []int32
	features    []int
	counts      []int
	leftCounts  []int
	rightCounts []int
	importance  []float64
	nodes       flatTree
}

var treeBuilderPool = sync.Pool{New: func() any { return new(treeBuilder) }}

// init fills the presorted feature columns for one fit over the rows idx
// selects (a bootstrap sample, repetitions allowed), or every row of rd when
// idx is nil. Column f is a stable counting sort of the sample positions by
// the rank of their feature-f value: ascending value, and positions in
// ascending order among equal values. That is exactly the (value, position)
// order a comparison sort with position tie-breaks produces, so every
// downstream split is too.
func (b *treeBuilder) init(rd *rankedData, idx []int, maxDepth, minLeaf int, crit Criterion, maxFeat int, rng *rand.Rand) {
	if idx == nil {
		b.rows = growInts(b.rows, len(rd.y))
		for j := range b.rows {
			b.rows[j] = j
		}
		idx = b.rows
	}
	n := len(idx)
	nf := len(rd.vals)
	b.maxDepth = maxDepth
	b.minLeaf = minLeaf
	b.maxFeat = maxFeat
	b.criterion = crit
	b.rng = rng
	b.numClasses = rd.numClasses
	b.nSamples = n

	if cap(b.cols) < nf {
		b.cols = make([][]sortedSample, nf)
	}
	b.cols = b.cols[:nf]
	for f := 0; f < nf; f++ {
		col := growSamples(b.cols[f], n)
		b.cols[f] = col
		vals, ranks := rd.vals[f], rd.ranks[f]
		start := growInt32s(b.rankStart, int(rd.nRanks[f])+1)
		b.rankStart = start
		clear(start)
		for _, j := range idx {
			start[ranks[j]+1]++
		}
		for r := 1; r < len(start); r++ {
			start[r] += start[r-1]
		}
		for i, j := range idx {
			r := ranks[j]
			col[start[r]] = sortedSample{v: vals[j], y: int32(rd.y[j]), i: int32(i)}
			start[r]++
		}
	}
	b.scratch = growSamples(b.scratch, n)
	b.goesLeft = growBools(b.goesLeft, n)
	b.features = growInts(b.features, nf)
	b.counts = growInts(b.counts, b.numClasses)
	b.leftCounts = growInts(b.leftCounts, b.numClasses)
	b.rightCounts = growInts(b.rightCounts, b.numClasses)
	b.importance = growFloats(b.importance, nf)
	for i := range b.importance {
		b.importance[i] = 0
	}
	b.nodes = b.nodes[:0]
}

// release drops the dataset references and returns the builder to the pool.
func (b *treeBuilder) release() {
	b.rng = nil
	treeBuilderPool.Put(b)
}

func growSamples(s []sortedSample, n int) []sortedSample {
	if cap(s) < n {
		return make([]sortedSample, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func pure(counts []int) bool {
	nonzero := 0
	for _, n := range counts {
		if n > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

// argmaxCount returns the first class with the maximal count.
func argmaxCount(counts []int) int {
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// build grows the tree over the column range [lo, hi), appending its nodes
// to b.nodes in preorder, and returns the index of its root.
func (b *treeBuilder) build(lo, hi, depth int) int32 {
	n := hi - lo
	counts := b.counts
	for c := range counts {
		counts[c] = 0
	}
	for _, s := range b.cols[0][lo:hi] {
		counts[s.y]++
	}
	if depth >= b.maxDepth || n < 2*b.minLeaf || pure(counts) {
		return b.leaf(counts)
	}
	feat, thr, gain, ok := b.bestSplit(lo, hi, counts)
	if !ok {
		return b.leaf(counts)
	}
	nl := 0
	for _, s := range b.cols[feat][lo:hi] {
		gl := s.v <= thr
		b.goesLeft[s.i] = gl
		if gl {
			nl++
		}
	}
	if nl < b.minLeaf || n-nl < b.minLeaf {
		return b.leaf(counts)
	}
	// Weighted impurity decrease contributes to Gini importance.
	b.importance[feat] += gain * float64(n) / float64(b.nSamples)
	for f := range b.cols {
		b.partition(b.cols[f][lo:hi], nl)
	}
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, flatNode{feature: int32(feat), threshold: thr})
	l := b.build(lo, lo+nl, depth+1)
	r := b.build(lo+nl, hi, depth+1)
	b.nodes[idx].left, b.nodes[idx].right = l, r
	return idx
}

// leaf appends a leaf voting for the majority class of counts.
func (b *treeBuilder) leaf(counts []int) int32 {
	b.nodes = append(b.nodes, flatNode{feature: -1, class: int32(argmaxCount(counts))})
	return int32(len(b.nodes) - 1)
}

// partition stably splits col into left-going then right-going samples, so
// both halves remain sorted by the column's feature value.
func (b *treeBuilder) partition(col []sortedSample, nl int) {
	scratch := b.scratch[:0]
	w := 0
	for _, s := range col {
		if b.goesLeft[s.i] {
			col[w] = s
			w++
		} else {
			scratch = append(scratch, s)
		}
	}
	copy(col[nl:], scratch)
}

// bestSplit finds the (feature, threshold) pair with maximal impurity
// decrease via a single scan of each presorted column.
func (b *treeBuilder) bestSplit(lo, hi int, parentCounts []int) (feat int, thr, gain float64, ok bool) {
	n := hi - lo
	parentImp := b.criterion.impurity(parentCounts, n)

	features := b.features
	for f := range features {
		features[f] = f
	}
	if b.rng != nil {
		b.rng.Shuffle(len(features), func(a, c int) { features[a], features[c] = features[c], features[a] })
	}
	limit := len(features)
	if b.maxFeat > 0 && b.maxFeat < limit {
		limit = b.maxFeat
	}

	leftCounts, rightCounts := b.leftCounts, b.rightCounts
	bestGain := 1e-12
	found := false
	for _, f := range features[:limit] {
		col := b.cols[f][lo:hi]
		for c := range leftCounts {
			leftCounts[c] = 0
		}
		copy(rightCounts, parentCounts)
		for k := 0; k < n-1; k++ {
			y := col[k].y
			leftCounts[y]++
			rightCounts[y]--
			if col[k].v == col[k+1].v {
				continue
			}
			nl, nr := k+1, n-k-1
			if nl < b.minLeaf || nr < b.minLeaf {
				continue
			}
			imp := (float64(nl)*b.criterion.impurity(leftCounts, nl) +
				float64(nr)*b.criterion.impurity(rightCounts, nr)) / float64(n)
			g := parentImp - imp
			if g > bestGain {
				bestGain = g
				feat = f
				thr = (col[k].v + col[k+1].v) / 2
				found = true
			}
		}
	}
	if !found {
		return 0, 0, 0, false
	}
	return feat, thr, bestGain, true
}

// Predict implements Classifier. An unfitted tree predicts 0.
func (t *DecisionTree) Predict(x []float64) int {
	if len(t.nodes) == 0 {
		return 0
	}
	return t.nodes.predict(x)
}

// PredictBatch implements BatchPredictor: it classifies every row of X into
// out (reused when its capacity suffices) with no per-sample allocation.
func (t *DecisionTree) PredictBatch(X [][]float64, out []int) []int {
	out = resizeInts(out, len(X))
	for i, x := range X {
		out[i] = t.Predict(x)
	}
	return out
}

// ErrNotFitted is returned by operations requiring a fitted model.
var ErrNotFitted = errors.New("ml: model not fitted")
