package ml

import (
	"math"
	"math/rand"
)

// NeuralNet is the paper's DNN model (§6.2): a fully connected network with
// 4 dense layers — ReLU activation in the first three, sigmoid (binary) or
// softmax (multi-class) in the last — with dropout after each hidden layer
// to reduce overfitting. Training uses mini-batch Adam on cross-entropy
// loss. Features are standardized internally.
type NeuralNet struct {
	// Hidden holds the three hidden layer widths (defaults 32/16/8).
	Hidden [3]int
	// Dropout is the drop probability after each hidden layer (default
	// 0.2 when zero; set negative to disable).
	Dropout float64
	// Epochs is the number of training epochs (<=0 means 200).
	Epochs int
	// BatchSize is the mini-batch size (<=0 means 32).
	BatchSize int
	// LearningRate is Adam's step size (<=0 means 1e-3).
	LearningRate float64
	// Seed makes training deterministic.
	Seed int64

	scaler  *Scaler
	weights [][][]float64 // weights[l][out][in]
	biases  [][]float64   // biases[l][out]
	outDim  int           // 1 for binary sigmoid, K for softmax
	classes int
}

// Name implements Classifier.
func (n *NeuralNet) Name() string { return "dnn" }

// nnScratch holds the per-layer activation buffers of single-sample
// inference, so a batch of predictions allocates them once.
type nnScratch struct {
	acts [][]float64 // acts[l] = post-activation output of layer l
}

func newNNScratch(weights [][][]float64) *nnScratch {
	sc := &nnScratch{acts: make([][]float64, len(weights))}
	for l := range weights {
		sc.acts[l] = make([]float64, len(weights[l]))
	}
	return sc
}

// Fit implements Classifier. Each mini-batch runs through nnBatch, a kernel
// over flat batch-by-width buffers allocated once per fit. Its arithmetic
// and the RNG call sequence (weight init, epoch shuffles, per-unit dropout
// draws) match a per-sample forward and backward pass exactly, so the
// fitted weights are bit-identical to one. Fit does not modify the exported
// configuration fields.
func (n *NeuralNet) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	hidden := n.Hidden
	if hidden == [3]int{} {
		hidden = [3]int{32, 16, 8}
	}
	dropout := n.Dropout
	if dropout == 0 {
		dropout = 0.2
	} else if dropout < 0 {
		dropout = 0
	}
	epochs := n.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	batchSize := n.BatchSize
	if batchSize <= 0 {
		batchSize = 32
	}
	learningRate := n.LearningRate
	if learningRate <= 0 {
		learningRate = 1e-3
	}
	n.scaler = FitScaler(d)
	scaled := n.scaler.ApplyAll(d)
	n.classes = d.NumClasses()
	if n.classes <= 2 {
		n.outDim = 1
	} else {
		n.outDim = n.classes
	}
	dims := []int{d.NumFeatures(), hidden[0], hidden[1], hidden[2], n.outDim}
	rng := rand.New(rand.NewSource(n.Seed ^ 0xdeed))

	// He initialization for the ReLU layers, Xavier for the output.
	n.weights = make([][][]float64, len(dims)-1)
	n.biases = make([][]float64, len(dims)-1)
	for l := 0; l < len(dims)-1; l++ {
		in, out := dims[l], dims[l+1]
		scale := math.Sqrt(2 / float64(in))
		if l == len(dims)-2 {
			scale = math.Sqrt(1 / float64(in))
		}
		n.weights[l] = allocRows(out, in)
		n.biases[l] = make([]float64, out)
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				n.weights[l][o][i] = rng.NormFloat64() * scale
			}
		}
	}

	// Adam state.
	mW, vW := zerosLike(n.weights), zerosLike(n.weights)
	mB, vB := zerosLikeB(n.biases), zerosLikeB(n.biases)
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0

	order := make([]int, scaled.Len())
	for i := range order {
		order[i] = i
	}
	nLayers := len(n.weights)
	gW, gB := zerosLike(n.weights), zerosLikeB(n.biases)
	k := newNNBatch(dims, min(batchSize, len(order)))
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < len(order); start += batchSize {
			end := start + batchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			k.gradients(n, scaled, batch, rng, dropout, gW, gB)
			step++
			bs := float64(len(batch))
			lr := learningRate
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			for l := 0; l < nLayers; l++ {
				wl, gWl, mWl, vWl := n.weights[l], gW[l], mW[l], vW[l]
				bl, gBl, mBl, vBl := n.biases[l], gB[l], mB[l], vB[l]
				for o := range wl {
					w, gr, mr, vr := wl[o], gWl[o], mWl[o], vWl[o]
					for i := range w {
						g := gr[i] / bs
						mr[i] = beta1*mr[i] + (1-beta1)*g
						vr[i] = beta2*vr[i] + (1-beta2)*g*g
						w[i] -= lr * (mr[i] / bc1) / (math.Sqrt(vr[i]/bc2) + eps)
					}
					g := gBl[o] / bs
					mBl[o] = beta1*mBl[o] + (1-beta1)*g
					vBl[o] = beta2*vBl[o] + (1-beta2)*g*g
					bl[o] -= lr * (mBl[o] / bc1) / (math.Sqrt(vBl[o]/bc2) + eps)
				}
			}
		}
	}
	return nil
}

// allocRows carves `out` row slices of length `in` from one contiguous block,
// so a layer's weights (and gradients, and Adam state) stay cache-dense.
func allocRows(out, in int) [][]float64 {
	buf := make([]float64, out*in)
	rows := make([][]float64, out)
	for o := range rows {
		rows[o] = buf[o*in : (o+1)*in : (o+1)*in]
	}
	return rows
}

func zerosLike(w [][][]float64) [][][]float64 {
	out := make([][][]float64, len(w))
	for l := range w {
		in := 0
		if len(w[l]) > 0 {
			in = len(w[l][0])
		}
		out[l] = allocRows(len(w[l]), in)
	}
	return out
}

func zerosLikeB(b [][]float64) [][]float64 {
	out := make([][]float64, len(b))
	for l := range b {
		out[l] = make([]float64, len(b[l]))
	}
	return out
}

// nnBatch is the mini-batch training kernel. Its buffers are flat
// unit-major matrices: unit u's values for the batch's samples sit at
// [u*B, (u+1)*B), so every inner loop reads contiguous memory.
//
// The kernel reproduces a per-sample pass bit for bit. Weights stay fixed
// within a batch, so the samples' forward passes are independent and can
// run layer by layer over the whole batch. Dropout masks are drawn up front
// in the per-sample order: sample, then layer, then unit. Every scalar keeps
// its summation order and expression shape: an output sums from its bias in
// input order, a weight or bias gradient from zero in sample order, and a
// back-propagated delta from zero in output order. The speed comes from
// running four such sums side by side as independent chains, and from
// keeping a gradient's sum in a register across the batch.
type nnBatch struct {
	dims   []int
	x      []float64     // scaled inputs
	acts   [][]float64   // acts[l]: layer l's outputs after ReLU and dropout
	masks  [][]float64   // masks[l]: hidden layer l's dropout multipliers
	deltas [][]float64   // deltas[l]: the loss gradient at layer l's output
	wt     [][][]float64 // wt[l][i][o] = weights[l][o][i], for l >= 1
	probs  []float64     // one sample's softmax outputs
}

func newNNBatch(dims []int, batch int) *nnBatch {
	nl := len(dims) - 1
	k := &nnBatch{
		dims:   dims,
		x:      make([]float64, batch*dims[0]),
		acts:   make([][]float64, nl),
		masks:  make([][]float64, nl-1),
		deltas: make([][]float64, nl),
		wt:     make([][][]float64, nl),
		probs:  make([]float64, dims[nl]),
	}
	for l := 0; l < nl; l++ {
		k.acts[l] = make([]float64, batch*dims[l+1])
		k.deltas[l] = make([]float64, batch*dims[l+1])
		if l < nl-1 {
			k.masks[l] = make([]float64, batch*dims[l+1])
		}
		if l > 0 {
			k.wt[l] = allocRows(dims[l], dims[l+1])
		}
	}
	return k
}

// gradients sets gW and gB to the loss gradients summed over the samples of
// d that batch selects, drawing their dropout masks from rng.
func (k *nnBatch) gradients(n *NeuralNet, d *Dataset, batch []int, rng *rand.Rand, dropout float64, gW [][][]float64, gB [][]float64) {
	bs := len(batch)
	dims := k.dims
	nLayers := len(n.weights)
	x := k.x[:bs*dims[0]]
	for s, idx := range batch {
		for f, v := range d.X[idx] {
			x[f*bs+s] = v
		}
	}

	scale := 1 / (1 - dropout)
	for s := 0; s < bs; s++ {
		for l, mask := range k.masks {
			for o := 0; o < dims[l+1]; o++ {
				m := 1.0
				if dropout > 0 {
					if rng.Float64() < dropout {
						m = 0
					} else {
						m = scale
					}
				}
				mask[o*bs+s] = m
			}
		}
	}

	in := x
	for l := 0; l < nLayers; l++ {
		no := dims[l+1]
		out := k.acts[l][:bs*no]
		denseForward(n.weights[l], n.biases[l], in, out, bs)
		switch {
		case l < nLayers-1:
			// ReLU + inverted dropout.
			for j, m := range k.masks[l][:bs*no] {
				if out[j] < 0 {
					out[j] = 0
				}
				out[j] *= m
			}
		case n.outDim == 1:
			for s := range out {
				out[s] = sigmoid(out[s])
			}
		default:
			p := k.probs
			for s := 0; s < bs; s++ {
				for o := range p {
					p[o] = out[o*bs+s]
				}
				softmaxInPlace(p)
				for o, v := range p {
					out[o*bs+s] = v
				}
			}
		}
		in = out
	}

	// Output delta for cross-entropy with sigmoid/softmax: p - y, where y
	// is the label's one-hot vector (the sigmoid's single 0/1 target).
	no := n.outDim
	delta := k.deltas[nLayers-1][:bs*no]
	copy(delta, k.acts[nLayers-1][:bs*no])
	for s, idx := range batch {
		switch label := d.Y[idx]; {
		case no == 1:
			if label == 1 {
				delta[s] -= 1
			}
		case label < no:
			delta[label*bs+s] -= 1
		}
	}

	for l := nLayers - 1; l >= 0; l-- {
		in := x
		if l > 0 {
			in = k.acts[l-1][:bs*dims[l]]
		}
		delta := k.deltas[l][:bs*dims[l+1]]
		denseGrad(gW[l], gB[l], delta, in, bs)
		if l > 0 {
			wt := k.wt[l]
			for o, row := range n.weights[l] {
				for i, v := range row {
					wt[i][o] = v
				}
			}
			// act > 0 implies both relu'(z)=1 and mask>0; in every other
			// case the gradient through a unit is zero.
			width := bs * dims[l]
			denseBackDelta(wt, delta, in, k.masks[l-1][:width], k.deltas[l-1][:width], bs)
		}
	}
}

// denseForward sets out[o*bs+s] = b[o] + Σ_i w[o][i]·in[i*bs+s] for each of
// the bs samples, summing from the bias in input order. Four samples share
// each weight load as independent accumulator chains.
func denseForward(w [][]float64, b, in, out []float64, bs int) {
	for o, wo := range w {
		row := out[o*bs : (o+1)*bs]
		s := 0
		for ; s+4 <= bs; s += 4 {
			z0, z1, z2, z3 := b[o], b[o], b[o], b[o]
			for i, wi := range wo {
				x := in[i*bs+s : i*bs+s+4 : i*bs+s+4]
				z0 += wi * x[0]
				z1 += wi * x[1]
				z2 += wi * x[2]
				z3 += wi * x[3]
			}
			row[s], row[s+1], row[s+2], row[s+3] = z0, z1, z2, z3
		}
		for ; s < bs; s++ {
			z := b[o]
			for i, wi := range wo {
				z += wi * in[i*bs+s]
			}
			row[s] = z
		}
	}
}

// denseGrad sets gw[o][i] = Σ_s d[o*bs+s]·in[i*bs+s] and gb[o] = Σ_s
// d[o*bs+s] over the bs samples, each summing from zero in sample order in
// a register. Four inputs run as independent accumulator chains.
func denseGrad(gw [][]float64, gb, d, in []float64, bs int) {
	for o, g := range gw {
		ds := d[o*bs : (o+1)*bs]
		var bsum float64
		for _, do := range ds {
			bsum += do
		}
		gb[o] = bsum
		i := 0
		for ; i+4 <= len(g); i += 4 {
			a0 := in[i*bs : (i+1)*bs][:len(ds)]
			a1 := in[(i+1)*bs : (i+2)*bs][:len(ds)]
			a2 := in[(i+2)*bs : (i+3)*bs][:len(ds)]
			a3 := in[(i+3)*bs : (i+4)*bs][:len(ds)]
			var g0, g1, g2, g3 float64
			for s, do := range ds {
				g0 += do * a0[s]
				g1 += do * a1[s]
				g2 += do * a2[s]
				g3 += do * a3[s]
			}
			g[i], g[i+1], g[i+2], g[i+3] = g0, g1, g2, g3
		}
		for ; i < len(g); i++ {
			a := in[i*bs : (i+1)*bs][:len(ds)]
			var gi float64
			for s, do := range ds {
				gi += do * a[s]
			}
			g[i] = gi
		}
	}
}

// denseBackDelta back-propagates d through the transposed weights wt
// (wt[i][o] = w[o][i]) to the previous layer: prev[i*bs+s] =
// (Σ_o w[o][i]·d[o*bs+s])·mask[i*bs+s] where act[i*bs+s] > 0 and 0
// elsewhere, summing from zero in output order. Four samples share each
// weight load as independent accumulator chains.
func denseBackDelta(wt [][]float64, d, act, mask, prev []float64, bs int) {
	for i, wi := range wt {
		a, m, p := act[i*bs:(i+1)*bs], mask[i*bs:(i+1)*bs], prev[i*bs:(i+1)*bs]
		s := 0
		for ; s+4 <= bs; s += 4 {
			// Four inactive samples of this unit back-propagate only zeros;
			// ReLU and dropout make such runs common.
			if !(a[s] > 0 || a[s+1] > 0 || a[s+2] > 0 || a[s+3] > 0) {
				p[s], p[s+1], p[s+2], p[s+3] = 0, 0, 0, 0
				continue
			}
			var p0, p1, p2, p3 float64
			for o, wv := range wi {
				q := d[o*bs+s : o*bs+s+4 : o*bs+s+4]
				p0 += wv * q[0]
				p1 += wv * q[1]
				p2 += wv * q[2]
				p3 += wv * q[3]
			}
			p[s] = gated(p0, a[s], m[s])
			p[s+1] = gated(p1, a[s+1], m[s+1])
			p[s+2] = gated(p2, a[s+2], m[s+2])
			p[s+3] = gated(p3, a[s+3], m[s+3])
		}
		for ; s < bs; s++ {
			var ps float64
			for o, wv := range wi {
				ps += wv * d[o*bs+s]
			}
			p[s] = gated(ps, a[s], m[s])
		}
	}
}

// gated is a back-propagated sum times the unit's dropout multiplier, or 0
// where the unit's activation is not positive.
func gated(sum, act, mask float64) float64 {
	if act > 0 {
		return sum * mask
	}
	return 0
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

func softmaxInPlace(v []float64) {
	maxV := math.Inf(-1)
	for _, x := range v {
		if x > maxV {
			maxV = x
		}
	}
	var sum float64
	for i := range v {
		v[i] = math.Exp(v[i] - maxV)
		sum += v[i]
	}
	for i := range v {
		v[i] /= sum
	}
}

// forwardInto runs inference (no dropout) using sc's activation buffers and
// returns the output layer's buffer.
func (n *NeuralNet) forwardInto(x []float64, sc *nnScratch) []float64 {
	act := x
	nLayers := len(n.weights)
	for l := 0; l < nLayers; l++ {
		out := sc.acts[l]
		wl, bl := n.weights[l], n.biases[l]
		for o := range wl {
			s := bl[o]
			w := wl[o]
			for i, wi := range w {
				s += wi * act[i]
			}
			if l < nLayers-1 && s < 0 {
				s = 0
			}
			out[o] = s
		}
		if l == nLayers-1 {
			if n.outDim == 1 {
				out[0] = sigmoid(out[0])
			} else {
				softmaxInPlace(out)
			}
		}
		act = out
	}
	return act
}

// forward runs inference (no dropout).
func (n *NeuralNet) forward(x []float64) []float64 {
	return n.forwardInto(x, newNNScratch(n.weights))
}

// argmaxProb maps an output activation vector to a class.
func (n *NeuralNet) argmaxProb(p []float64) int {
	if n.outDim == 1 {
		if p[0] >= 0.5 {
			return 1
		}
		return 0
	}
	best, bestV := 0, math.Inf(-1)
	for c, v := range p {
		if v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// Predict implements Classifier.
func (n *NeuralNet) Predict(x []float64) int {
	if n.scaler == nil {
		return 0
	}
	return n.argmaxProb(n.forward(n.scaler.Apply(x)))
}

// PredictBatch implements BatchPredictor: it classifies every row of X into
// out (reused when its capacity suffices), standardizing and forwarding
// through one reused set of activation buffers.
func (n *NeuralNet) PredictBatch(X [][]float64, out []int) []int {
	out = resizeInts(out, len(X))
	if n.scaler == nil {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	xs := make([]float64, len(n.scaler.Mean))
	sc := newNNScratch(n.weights)
	for i, x := range X {
		n.scaler.ApplyInto(x, xs)
		out[i] = n.argmaxProb(n.forwardInto(xs, sc))
	}
	return out
}
