package ml

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Quantized flat forests. A tree's float64 node slice (flat.go) is
// cache-resident on its own; at fleet scale the whole *ensemble* must
// stream through a small cache per batch, so Quantize reads those slices
// and packs the serving representation further:
//
//   - one contiguous 16-byte node array for the entire forest (float32
//     threshold, int16 feature, int16 leaf class, two int32 children —
//     4 nodes per cache line, ~2.6x denser than the float64 layout);
//   - leaves are absorbing (threshold +Inf, children pointing at
//     themselves), so a group of samples can walk a tree in lockstep with
//     no per-sample branch divergence;
//   - subtrees whose every leaf agrees on a class collapse to a single
//     leaf — the tree's class function (and so every vote) is unchanged,
//     the average walk just gets shorter;
//   - the batch kernel walks eight lanes in lockstep over a transposed
//     per-group key block (converted once per batch, reused across all
//     trees), overlapping the dependent node loads that serialize a
//     one-walk-at-a-time loop: eight samples through one tree, or a short
//     group on w < 8 lanes per tree through 8/w trees, so a one-row call
//     walks eight trees per step instead of one row eight times; features
//     and thresholds are encoded as order-preserving uint32 sort keys so
//     the split compare is branch-free integer mask arithmetic — no
//     float-compare mispredicts;
//   - the class-only path retires samples early once the leading class has
//     more votes than the remaining trees could overturn — provably the
//     same argmax, fewer tree walks.
//
// Thresholds quantize to the largest float32 not exceeding the float64
// split value, so for float32 inputs x the predicate x <= t32 is exactly
// equivalent to float64(x) <= t64: the quantized forest classifies float32
// feature vectors bit-identically to the float64 node slices. Serving
// verifies this on the fixed-seed campaign replay (libra-train
// -verify-quant and perfbench's decide set-up).

// qNode is one node of a quantized forest. The float32 threshold is stored
// as its monotonic uint32 sort key (sortKey32), so the walk compares
// integers and selects the child with mask arithmetic — no float compare,
// no branch, no mispredict. Leaves carry class >= 0 and absorb: both
// children point at the node itself, so a walker that reaches a leaf stays
// there for any further lockstep steps.
type qNode struct {
	key     uint32 // sortKey32 of the quantized float32 threshold
	feature int16
	class   int16 // leaf class, or -1 for split nodes
	left    int32
	right   int32
}

// QuantForest is a quantized, inference-only compilation of a fitted
// RandomForest. It is immutable and safe for concurrent use.
type QuantForest struct {
	nodes []qNode
	roots []int32
	// numClasses is the label-space width: every leaf class lies below it,
	// so it sizes the vote buffers and PredictProbaBatch rows.
	numClasses int
}

// quantThreshold returns the largest float32 whose float64 widening does
// not exceed t, making (x32 <= q) exactly equivalent to (float64(x32) <= t)
// for every float32 x32.
func quantThreshold(t float64) float32 {
	f := float32(t)
	if float64(f) > t {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// sortKey32 maps float32 to uint32 preserving numeric order: unsigned key
// comparison is exactly float comparison. -0 is canonicalized to +0 before
// mapping so x <= t keeps its IEEE "equal zeros" semantics.
func sortKey32(f float32) uint32 {
	if f != f {
		// NaN: above every threshold key, so comparisons send NaN features
		// right — the same child an IEEE x <= t (false for NaN) selects.
		return math.MaxUint32
	}
	if f == 0 {
		f = 0
	}
	b := math.Float32bits(f)
	if b>>31 != 0 {
		return ^b
	}
	return b | 0x80000000
}

// Quantize packs the fitted forest's node slices into its quantized
// serving form.
func (f *RandomForest) Quantize() (*QuantForest, error) {
	if len(f.trees) == 0 {
		return nil, ErrNotFitted
	}
	total := 0
	for _, t := range f.trees {
		total += len(t.nodes)
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("ml: forest too large to quantize (%d nodes)", total)
	}
	q := &QuantForest{
		nodes:      make([]qNode, 0, total),
		roots:      make([]int32, 0, len(f.trees)),
		numClasses: f.numClasses,
	}
	var uniform []int32
	for _, t := range f.trees {
		q.roots = append(q.roots, int32(len(q.nodes)))
		uniform = uniformClasses(t.nodes, uniform)
		q.add(t.nodes, uniform, 0)
	}
	return q, nil
}

// uniformClasses sets uniform[i] to the one class every leaf below node i
// carries, or -1 when the subtree can still go either way. Children follow
// their parent in preorder, so one backward pass sees both before it.
func uniformClasses(nodes flatTree, uniform []int32) []int32 {
	if cap(uniform) < len(nodes) {
		uniform = make([]int32, len(nodes))
	}
	uniform = uniform[:len(nodes)]
	for i := len(nodes) - 1; i >= 0; i-- {
		n := &nodes[i]
		switch {
		case n.feature < 0:
			uniform[i] = n.class
		case uniform[n.left] == uniform[n.right]:
			uniform[i] = uniform[n.left]
		default:
			uniform[i] = -1
		}
	}
	return uniform
}

// addLeaf appends an absorbing leaf and returns its index.
func (q *QuantForest) addLeaf(class int32) int32 {
	idx := int32(len(q.nodes))
	q.nodes = append(q.nodes, qNode{
		key:     math.MaxUint32,
		feature: 0,
		class:   int16(class),
		left:    idx,
		right:   idx,
	})
	return idx
}

// add appends the subtree at node i in preorder and returns its index.
// Subtrees whose every leaf agrees on a class collapse to a single
// absorbing leaf: the tree's class function is unchanged (whatever path the
// walk would have taken below ends in that class), so votes — and therefore
// predictions — stay bit-identical while the average walk gets shorter.
func (q *QuantForest) add(nodes flatTree, uniform []int32, i int32) int32 {
	if c := uniform[i]; c >= 0 {
		return q.addLeaf(c)
	}
	n := &nodes[i]
	idx := int32(len(q.nodes))
	q.nodes = append(q.nodes, qNode{
		key:     sortKey32(quantThreshold(n.threshold)),
		feature: int16(n.feature),
		class:   -1,
	})
	l := q.add(nodes, uniform, n.left)
	r := q.add(nodes, uniform, n.right)
	q.nodes[idx].left = l
	q.nodes[idx].right = r
	return idx
}

// Name implements the serving Predictor contract.
func (q *QuantForest) Name() string { return "random-forest-q32" }

// NumClasses returns the label-space width.
func (q *QuantForest) NumClasses() int { return q.numClasses }

// NumTrees returns the ensemble size.
func (q *QuantForest) NumTrees() int { return len(q.roots) }

// NumNodes returns the total node count across all trees.
func (q *QuantForest) NumNodes() int { return len(q.nodes) }

// predictTree walks one tree for one key-encoded row.
func (q *QuantForest) predictTree(root int32, x []uint32) int {
	nodes := q.nodes
	i := root
	for {
		n := &nodes[i]
		if n.class >= 0 {
			return int(n.class)
		}
		m := int32((int64(n.key) - int64(x[n.feature])) >> 63)
		i = n.left ^ ((n.left ^ n.right) & m)
	}
}

// qScratch holds reusable conversion and vote buffers for the float64
// entry points.
type qScratch struct {
	k     []uint32
	votes []int32
	idx   []int32
}

var qScratchPool = sync.Pool{New: func() any { return new(qScratch) }}

// convert packs X into s.k row-major with the given stride, narrowing each
// value to float32 and encoding it as its comparison sort key — the shared
// feature matrix every tree walks.
func (s *qScratch) convert(X [][]float64, stride int) []uint32 {
	need := len(X) * stride
	if cap(s.k) < need {
		s.k = make([]uint32, need)
	}
	s.k = s.k[:need]
	for i, row := range X {
		dst := s.k[i*stride : i*stride+stride]
		for j, v := range row {
			dst[j] = sortKey32(float32(v))
		}
	}
	return s.k
}

// PredictBatch classifies every row of X into out with the early-exit
// class kernel; answers match RandomForest.PredictBatch bit for bit on
// float32-representable inputs.
//
//lint:noalloc serving batch entry; conversion and vote buffers come from the scratch pool
func (q *QuantForest) PredictBatch(X [][]float64, out []int) []int {
	out = resizeInts(out, len(X))
	if len(X) == 0 {
		return out
	}
	s := qScratchPool.Get().(*qScratch)
	defer qScratchPool.Put(s)
	stride := len(X[0])
	xs := s.convert(X, stride)
	q.classifyKeys32(xs, stride, len(X), out, s)
	return out
}

// PredictProbaBatch returns per-class vote distributions for every row of X
// as a row-major len(X)*NumClasses() slice. Votes are exact (no early
// exit): on float32-representable inputs row s equals
// RandomForest.Proba(X[s]).
func (q *QuantForest) PredictProbaBatch(X [][]float64, out []float64) []float64 {
	nc := q.numClasses
	want := len(X) * nc
	if cap(out) < want {
		out = make([]float64, want)
	} else {
		out = out[:want]
	}
	if want == 0 {
		return out
	}
	s := qScratchPool.Get().(*qScratch)
	defer qScratchPool.Put(s)
	stride := len(X[0])
	xs := s.convert(X, stride)
	// One extra row: the group walker parks its padding lanes' votes there.
	votes := s.grow(len(X)*nc + nc)
	q.voteTrees(xs, stride, nil, len(X), votes, nc, 0, len(q.roots))
	nt := float64(len(q.roots))
	for i := 0; i < len(X); i++ {
		row := votes[i*nc : i*nc+nc]
		o := out[i*nc : i*nc+nc]
		for c := range o {
			o[c] = float64(row[c]) / nt
		}
	}
	return out
}

// grow resizes the scratch vote buffer to n zeroed int32s.
func (s *qScratch) grow(n int) []int32 {
	if cap(s.votes) < n {
		s.votes = make([]int32, n)
	}
	s.votes = s.votes[:n]
	for i := range s.votes {
		s.votes[i] = 0
	}
	return s.votes
}

// classifyKeys32 is the serving hot path: it classifies n rows of the
// row-major key-encoded matrix X (row i at X[i*stride:], each value a
// sortKey32 of the float32 feature) into out, walking trees in the outer
// loop so the node array streams once per batch, and retiring a sample as
// soon as its leading class holds more votes than the remaining trees
// could overturn (strictly more, so first-max tie-breaking is preserved
// exactly). s supplies the vote and index buffers.
//
//lint:noalloc quantized batch kernel; vote and index scratch grow behind warm-up guards
func (q *QuantForest) classifyKeys32(X []uint32, stride, n int, out []int, s *qScratch) {
	if n == 0 {
		return
	}
	vc := q.numClasses
	// One extra row: the group walker parks its padding lanes' votes there.
	votes := s.grow(n*vc + vc)
	if cap(s.idx) < n {
		s.idx = make([]int32, n)
	}
	active := s.idx[:n]
	for i := range active {
		active[i] = int32(i)
	}

	// checkEvery balances margin-scan cost against wasted tree walks; 32
	// trees is ~1% of a fleet-sized ensemble.
	const checkEvery = 32
	t := 0
	for t < len(q.roots) && len(active) > 0 {
		step := checkEvery
		if rest := len(q.roots) - t; rest < step {
			step = rest
		}
		q.voteTrees(X, stride, active, n, votes, vc, t, t+step)
		t += step
		remaining := int32(len(q.roots) - t)
		if remaining == 0 {
			break
		}
		// Retire samples whose winner is already decided.
		live := active[:0]
		for _, si := range active {
			row := votes[int(si)*vc : int(si)*vc+vc]
			best, bestN, second := 0, int32(-1), int32(-1)
			for c, v := range row {
				if v > bestN {
					second = bestN
					best, bestN = c, v
				} else if v > second {
					second = v
				}
			}
			if bestN-second > remaining {
				out[si] = best
				continue
			}
			live = append(live, si)
		}
		active = live
	}
	for _, si := range active {
		row := votes[int(si)*vc : int(si)*vc+vc]
		best, bestN := 0, int32(-1)
		for c, v := range row {
			if v > bestN {
				best, bestN = c, v
			}
		}
		out[si] = best
	}
}

// voteTrees accumulates votes for trees [t0, t1) over the rows named by
// active (or rows [0, n) when active is nil). Groups of up to eight samples
// walk the window's trees on eight lockstep lanes: leaves absorb, so the
// lanes advance unconditionally in 4-level strides and their eight
// dependent node-load chains overlap instead of serializing. A group of g
// rows takes w lanes per tree, w the next power of two >= g, so each
// lockstep step walks 8/w trees: lane k walks row k mod w through the
// step's tree k/w. Lanes whose k mod w >= g repeat row 0 and park their
// votes on the caller-provided spare row at votes[n*vc:]. For serving-width
// feature vectors (stride <= 8) each group's keys are first transposed into
// a 64-entry stack block, lane k's at xT[k*8:], so the inner walk indexes a
// constant-base array with a provably in-range offset — no slice-header
// loads and no bounds checks on the hottest loads.
func (q *QuantForest) voteTrees(X []uint32, stride int, active []int32, n int,
	votes []int32, vc int, t0, t1 int) {

	nodes := q.nodes
	roots := q.roots[t0:t1]
	m := n
	if active != nil {
		m = len(active)
	}
	if stride <= 8 {
		var xT [64]uint32
		var vb [8]int32
		spare := int32(n * vc)
		for s := 0; s < m; s += 8 {
			g := min(m-s, 8)
			sh := uint(bits.Len(uint(g - 1))) // w = 1 << sh lanes per tree
			for k := 0; k < 8; k++ {
				r := k & (1<<sh - 1)
				if r >= g {
					copy(xT[k*8:k*8+8], xT[0:8])
					vb[k] = spare
					continue
				}
				a := int32(s + r)
				if active != nil {
					a = active[s+r]
				}
				copy(xT[k*8:k*8+8], X[int(a)*stride:int(a)*stride+stride])
				vb[k] = a * int32(vc)
			}
			walkGroup8(nodes, roots, sh, &xT, &vb, spare, votes)
		}
		return
	}
	// Wide feature vectors (not the serving shape): plain scalar walks.
	for _, root := range roots {
		if active == nil {
			for s := 0; s < n; s++ {
				votes[s*vc+q.predictTree(root, X[s*stride:])]++
			}
			continue
		}
		for _, a := range active {
			votes[int(a)*vc+q.predictTree(root, X[int(a)*stride:])]++
		}
	}
}

// walkGroup8 walks one transposed eight-lane group through every tree in
// roots, 8>>sh trees per lockstep step: lane k walks tree k>>sh of the step
// and bumps votes[vb[k]+class_k]. Lane k's keys live at xT[k*8 : k*8+8];
// features are < 8 on this path, so the &7 lets the compiler drop every
// bounds check on the feature loads. When the window's tree count is not a
// multiple of 8>>sh, the last step's lanes past its final tree walk that
// step's first tree again and vote on the spare row.
//
// The child select is pure integer arithmetic: thresholds and features are
// sortKey32-encoded, so (x > t) is an unsigned key comparison, computed as
// the sign of the int64 difference and applied as an XOR mask. Split
// decisions are data-dependent coin flips — a branch here mispredicts
// constantly and flushes all eight walks; the mask form has no branch to
// mispredict, and the eight dependent load chains overlap.
func walkGroup8(nodes []qNode, roots []int32, sh uint, xT *[64]uint32, vb *[8]int32, spare int32, votes []int32) {
	per := 8 >> sh
	var tailRoots [8]int32
	var tailVB [8]int32
	for j := 0; j < len(roots); j += per {
		r, v := roots[j:], vb
		if len(r) < per {
			for k := range tailRoots {
				tailRoots[k] = r[0]
			}
			copy(tailRoots[:], r)
			tailVB = *vb
			for k := len(r) << sh; k < 8; k++ {
				tailVB[k] = spare
			}
			r, v = tailRoots[:], &tailVB
		}
		i0, i1, i2, i3 := r[0], r[1>>sh], r[2>>sh], r[3>>sh]
		i4, i5, i6, i7 := r[4>>sh], r[5>>sh], r[6>>sh], r[7>>sh]
		for {
			for step := 0; step < 4; step++ {
				n0 := &nodes[i0]
				m0 := int32((int64(n0.key) - int64(xT[n0.feature&7])) >> 63)
				i0 = n0.left ^ ((n0.left ^ n0.right) & m0)
				n1 := &nodes[i1]
				m1 := int32((int64(n1.key) - int64(xT[8+n1.feature&7])) >> 63)
				i1 = n1.left ^ ((n1.left ^ n1.right) & m1)
				n2 := &nodes[i2]
				m2 := int32((int64(n2.key) - int64(xT[16+n2.feature&7])) >> 63)
				i2 = n2.left ^ ((n2.left ^ n2.right) & m2)
				n3 := &nodes[i3]
				m3 := int32((int64(n3.key) - int64(xT[24+n3.feature&7])) >> 63)
				i3 = n3.left ^ ((n3.left ^ n3.right) & m3)
				n4 := &nodes[i4]
				m4 := int32((int64(n4.key) - int64(xT[32+n4.feature&7])) >> 63)
				i4 = n4.left ^ ((n4.left ^ n4.right) & m4)
				n5 := &nodes[i5]
				m5 := int32((int64(n5.key) - int64(xT[40+n5.feature&7])) >> 63)
				i5 = n5.left ^ ((n5.left ^ n5.right) & m5)
				n6 := &nodes[i6]
				m6 := int32((int64(n6.key) - int64(xT[48+n6.feature&7])) >> 63)
				i6 = n6.left ^ ((n6.left ^ n6.right) & m6)
				n7 := &nodes[i7]
				m7 := int32((int64(n7.key) - int64(xT[56+n7.feature&7])) >> 63)
				i7 = n7.left ^ ((n7.left ^ n7.right) & m7)
			}
			// class is -1 on split nodes, so the sign bit of the OR says
			// whether any lane is still walking.
			if nodes[i0].class|nodes[i1].class|nodes[i2].class|nodes[i3].class|
				nodes[i4].class|nodes[i5].class|nodes[i6].class|nodes[i7].class >= 0 {
				break
			}
		}
		votes[int(v[0])+int(nodes[i0].class)]++
		votes[int(v[1])+int(nodes[i1].class)]++
		votes[int(v[2])+int(nodes[i2].class)]++
		votes[int(v[3])+int(nodes[i3].class)]++
		votes[int(v[4])+int(nodes[i4].class)]++
		votes[int(v[5])+int(nodes[i5].class)]++
		votes[int(v[6])+int(nodes[i6].class)]++
		votes[int(v[7])+int(nodes[i7].class)]++
	}
}
