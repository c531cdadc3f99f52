package ml

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// NeuralNet is the paper's DNN model (§6.2): a fully connected network with
// 4 dense layers — ReLU activation in the first three, sigmoid (binary) or
// softmax (multi-class) in the last — with dropout after each hidden layer
// to reduce overfitting. Training uses mini-batch Adam on cross-entropy
// loss. Features are standardized internally.
type NeuralNet struct {
	// Hidden holds the three hidden layer widths (all zero means
	// 32/16/8). Fit refuses a width below one unless all three are zero.
	Hidden [3]int
	// Dropout is the drop probability after each hidden layer (default
	// 0.2 when zero; set negative, -Inf included, to disable). Fit refuses
	// NaN and values of 1 or more, which would drop every hidden unit.
	Dropout float64
	// Epochs is the number of training epochs (<=0 means 200).
	Epochs int
	// BatchSize is the mini-batch size (<=0 means 32).
	BatchSize int
	// LearningRate is Adam's step size (<=0, -Inf included, means 1e-3).
	// Fit refuses NaN and +Inf, which fit non-finite weights.
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

// Fit implements Classifier. It refuses, naming the field, a Hidden width
// below one (unless all three are zero), a NaN Dropout or one of 1 or more,
// and a NaN or +Inf LearningRate. Each mini-batch runs through nnBatch,
// whose fitted weights match a per-sample forward and backward pass bit for
// bit. Fit does not modify the exported configuration fields.
func (n *NeuralNet) Fit(d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	switch h := n.Hidden; {
	case h != [3]int{} && min(h[0], h[1], h[2]) < 1:
		return fmt.Errorf("ml: NeuralNet.Hidden is %v, want three positive widths or all zero", h)
	case math.IsNaN(n.Dropout) || n.Dropout >= 1:
		return fmt.Errorf("ml: NeuralNet.Dropout is %v, want below 1", n.Dropout)
	case math.IsNaN(n.LearningRate) || math.IsInf(n.LearningRate, 1):
		return fmt.Errorf("ml: NeuralNet.LearningRate is %v", n.LearningRate)
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

	// n.weights views the kernel's parameter vector; n.biases is copied out
	// of it once training ends.
	k := newNNBatch(dims, min(batchSize, scaled.Len()), dropout)
	n.weights = make([][][]float64, len(dims)-1)
	n.biases = make([][]float64, len(dims)-1)
	for l, wl := range k.w {
		in := dims[l]
		n.weights[l] = make([][]float64, dims[l+1])
		for o := range n.weights[l] {
			n.weights[l][o] = wl[o*(in+1) : o*(in+1)+in : o*(in+1)+in]
		}
		n.biases[l] = make([]float64, dims[l+1])
	}

	// He initialization for the ReLU layers, Xavier for the output.
	for l, wl := range n.weights {
		scale := math.Sqrt(2 / float64(dims[l]))
		if l == len(n.weights)-1 {
			scale = math.Sqrt(1 / float64(dims[l]))
		}
		for _, row := range wl {
			for i := range row {
				row[i] = rng.NormFloat64() * scale
			}
		}
	}

	// Adam's two moment estimates, in the parameters' layout.
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	grads, params := k.grads, k.params[:len(k.grads)]
	moms := make([]float64, 2*len(grads))
	mom1, mom2 := moms[:len(grads)], moms[len(grads):]
	step := 0
	order := make([]int, scaled.Len())
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < len(order); start += batchSize {
			batch := order[start:min(start+batchSize, len(order))]
			k.gradients(scaled, batch, rng)
			step++
			bs := float64(len(batch))
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			// Adam updates each parameter from its own gradient and
			// moments alone, so one pass over the flat vectors does.
			for i, g := range grads {
				g /= bs
				mom1[i] = beta1*mom1[i] + (1-beta1)*g
				mom2[i] = beta2*mom2[i] + (1-beta2)*g*g
				params[i] -= learningRate * (mom1[i] / bc1) / (math.Sqrt(mom2[i]/bc2) + eps)
			}
		}
	}
	for l, wl := range k.w {
		for o := range n.biases[l] {
			n.biases[l][o] = wl[o*(dims[l]+1)+dims[l]]
		}
	}
	return nil
}

// nnBatch is the mini-batch training kernel. Its buffers are flat
// unit-major matrices: unit u's values for a batch of bs samples sit at
// [u*bs, (u+1)*bs), so every inner loop reads contiguous memory. Each
// layer's input matrix (the scaled features, or the previous layer's
// activations) ends in a row of ones, the input a bias multiplies, so a
// layer's weight rows [w_o0 ... w_o(in-1) b_o] and their gradients are
// in+1 wide, and the bias gradient Σ_s d_s·1 sums the same terms from zero
// in the same order as Σ_s d_s.
//
// The kernel reproduces a per-sample forward and backward pass bit for bit
// (fitReference, nn_ref_test.go, is that pass):
//
//   - Order. Weights stay fixed within a batch, so the samples' forward
//     passes are independent and run layer by layer over the whole batch.
//     Dropout masks are drawn up front in the per-sample order: sample,
//     then layer, then unit, one rng.Float64 per hidden unit while dropout
//     is on.
//   - Shape. Every scalar keeps its summation order and its acc += a*b
//     shape: an output sums from its bias in input order, a weight or bias
//     gradient from zero in sample order, and a back-propagated delta from
//     zero in output order. Eight such sums run side by side as independent
//     chains (eight samples, or eight inputs of one gradient row), and the
//     rest one at a time, so each sum rounds as it did alone.
//   - Selects. No branch depends on the data. A dropout multiplier is scale
//     or +0 by masking scale's bits with the sign of u-p: a difference of
//     two floats rounds to zero only when they are equal, so u-p is negative
//     exactly when u < p. ReLU (relu) and the back-propagation gate (gated)
//     read the activation's bits as an unsigned range, so each equals the
//     branch it replaces, z < 0 and act > 0, on every float64: NaN, ±Inf
//     and both zeros included. The argument needs no finiteness.
type nnBatch struct {
	dims          []int
	dropout       float64     // drop probability; 0 when off
	params, grads []float64   // the parameters and their gradients, layer by layer
	w, gw         [][]float64 // per layer: views of params and grads
	x             []float64   // scaled inputs, then the ones row
	acts          [][]float64 // acts[l]: hidden layer l's outputs after ReLU and dropout, then the ones row
	masks         []float64   // the hidden units' dropout multipliers, layer by layer
	deltas        [][]float64 // deltas[l]: the loss gradient at layer l's output
	probs         []float64   // one sample's softmax outputs
}

// newNNBatch sizes the kernel's buffers for batches of up to batch samples
// and its parameter and gradient vectors for layer widths dims. Both
// vectors hold, layer by layer, each unit's row of input weights followed
// by its bias; the parameters start at zero. With dropout off every mask
// stays 1.
func newNNBatch(dims []int, batch int, dropout float64) *nnBatch {
	nl := len(dims) - 1
	size := 0
	for l := 0; l < nl; l++ {
		size += dims[l+1] * (dims[l] + 1)
	}
	k := &nnBatch{
		dims:    dims,
		dropout: dropout,
		params:  make([]float64, size),
		grads:   make([]float64, size),
		x:       make([]float64, batch*(dims[0]+1)),
		acts:    make([][]float64, nl-1),
		deltas:  make([][]float64, nl),
		probs:   make([]float64, dims[nl]),
	}
	params, grads := k.params, k.grads
	for l := 0; l < nl; l++ {
		size := dims[l+1] * (dims[l] + 1)
		k.w, k.gw = append(k.w, params[:size:size]), append(k.gw, grads[:size:size])
		params, grads = params[size:], grads[size:]
		k.deltas[l] = make([]float64, batch*dims[l+1])
		if l < nl-1 {
			k.acts[l] = make([]float64, batch*(dims[l+1]+1))
		}
	}
	k.masks = make([]float64, batch*(dims[1]+dims[2]+dims[3]))
	ones(k.masks)
	return k
}

// gradients sets the gradient vector to the loss gradients summed over the
// samples of d that batch selects, drawing their dropout masks from rng.
//
//lint:noalloc per-batch DNN training kernel; every buffer is sized once per fit
func (k *nnBatch) gradients(d *Dataset, batch []int, rng *rand.Rand) {
	bs := len(batch)
	dims := k.dims
	nl := len(dims) - 1
	x := k.x[:bs*(dims[0]+1)]
	for s, idx := range batch {
		for f, v := range d.X[idx] {
			x[f*bs+s] = v
		}
	}
	ones(x[bs*dims[0]:])

	// Hidden unit u's multiplier for sample s sits at masks[u*bs+s], the
	// units numbered across the hidden layers in order.
	masks := k.masks[:bs*(dims[1]+dims[2]+dims[3])]
	if p := k.dropout; p > 0 {
		keep := math.Float64bits(1 / (1 - p))
		for s := 0; s < bs; s++ {
			for j := s; j < len(masks); j += bs {
				drop := uint64(int64(math.Float64bits(rng.Float64()-p)) >> 63)
				masks[j] = math.Float64frombits(keep &^ drop)
			}
		}
	}

	in, mask := x, masks
	for l, act := range k.acts {
		width := bs * dims[l+1]
		out := act[:width+bs]
		denseForward(k.w[l], in, out[:width], mask[:width], bs)
		ones(out[width:])
		in, mask = out, mask[width:]
	}

	// The output layer, and its delta for cross-entropy with sigmoid or
	// softmax: p - y, where y is the label's one-hot vector (the sigmoid's
	// single 0/1 target).
	no := dims[nl]
	delta := k.deltas[nl-1][:bs*no]
	denseForward(k.w[nl-1], in, delta, nil, bs)
	if no == 1 {
		for s, idx := range batch {
			delta[s] = sigmoid(delta[s]) - float64(d.Y[idx])
		}
	} else {
		p := k.probs
		for s, idx := range batch {
			for o := range p {
				p[o] = delta[o*bs+s]
			}
			softmaxInPlace(p)
			for o, v := range p {
				delta[o*bs+s] = v
			}
			delta[d.Y[idx]*bs+s] -= 1
		}
	}

	for l := nl - 1; l >= 0; l-- {
		in := x
		if l > 0 {
			in = k.acts[l-1][:bs*(dims[l]+1)]
		}
		delta := k.deltas[l][:bs*dims[l+1]]
		denseGrad(k.gw[l], delta, in, bs)
		if l > 0 {
			width := bs * dims[l]
			mask := masks[len(masks)-width:]
			masks = masks[:len(masks)-width]
			denseBackDelta(k.w[l], delta, in[:width], mask, k.deltas[l-1][:width], bs)
		}
	}
}

// ones sets every element of v to 1.
func ones(v []float64) {
	for i := range v {
		v[i] = 1
	}
}

// denseForward sets out[o*bs+s] = b_o + Σ_i w_oi·in[i*bs+s] for each of the
// bs samples, summing from the bias in input order, and with a mask (a
// hidden layer) stores relu of that times mask[o*bs+s]. w holds the weight
// rows [w_o0 ... w_o(in-1) b_o]; the sums read in's rows before the ones
// row. Eight samples share each weight load as independent chains; the
// batch's remaining samples run one at a time.
func denseForward(w, in, out, mask []float64, bs int) {
	nOut := len(out) / bs
	rowLen := len(w) / nOut
	for o := 0; o < nOut; o++ {
		wo := w[o*rowLen : (o+1)*rowLen]
		bo, wo := wo[rowLen-1], wo[:rowLen-1]
		row := out[o*bs : (o+1)*bs]
		s := 0
		for ; s+8 <= bs; s += 8 {
			z0, z1, z2, z3, z4, z5, z6, z7 := bo, bo, bo, bo, bo, bo, bo, bo
			j := s
			for _, wi := range wo {
				x := in[j : j+8 : j+8]
				z0 += wi * x[0]
				z1 += wi * x[1]
				z2 += wi * x[2]
				z3 += wi * x[3]
				z4 += wi * x[4]
				z5 += wi * x[5]
				z6 += wi * x[6]
				z7 += wi * x[7]
				j += bs
			}
			r := row[s : s+8 : s+8]
			r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = z0, z1, z2, z3, z4, z5, z6, z7
		}
		for ; s < bs; s++ {
			z := bo
			for i, wi := range wo {
				z += wi * in[i*bs+s]
			}
			row[s] = z
		}
		if mask != nil {
			m := mask[o*bs : (o+1)*bs][:len(row)]
			for s, z := range row {
				row[s] = relu(z) * m[s]
			}
		}
	}
}

// denseGrad sets each gradient row gw[o*rowLen+i] = Σ_s d[o*bs+s]·in[i*bs+s]
// over the bs samples, summing from zero in sample order in a register; in's
// last row is the ones row, so the row's last entry is the bias gradient.
// Eight inputs run as independent chains; the row's remaining inputs run
// one at a time.
func denseGrad(gw, d, in []float64, bs int) {
	nOut := len(d) / bs
	rowLen := len(gw) / nOut
	for o := 0; o < nOut; o++ {
		ds := d[o*bs : (o+1)*bs]
		g := gw[o*rowLen : (o+1)*rowLen]
		i := 0
		for ; i+8 <= rowLen; i += 8 {
			a := in[i*bs : (i+8)*bs]
			a0, a1, a2, a3 := a[:bs][:len(ds)], a[bs : 2*bs][:len(ds)], a[2*bs : 3*bs][:len(ds)], a[3*bs : 4*bs][:len(ds)]
			a4, a5, a6, a7 := a[4*bs : 5*bs][:len(ds)], a[5*bs : 6*bs][:len(ds)], a[6*bs : 7*bs][:len(ds)], a[7*bs:][:len(ds)]
			var g0, g1, g2, g3, g4, g5, g6, g7 float64
			for s, v := range ds {
				g0 += v * a0[s]
				g1 += v * a1[s]
				g2 += v * a2[s]
				g3 += v * a3[s]
				g4 += v * a4[s]
				g5 += v * a5[s]
				g6 += v * a6[s]
				g7 += v * a7[s]
			}
			r := g[i : i+8 : i+8]
			r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = g0, g1, g2, g3, g4, g5, g6, g7
		}
		for ; i < rowLen; i++ {
			a := in[i*bs : (i+1)*bs][:len(ds)]
			var gi float64
			for s, v := range ds {
				gi += v * a[s]
			}
			g[i] = gi
		}
	}
}

// denseBackDelta back-propagates d through the weight rows w to the
// previous layer's nIn units: prev[i*bs+s] = (Σ_o w_oi·d[o*bs+s]) ·
// mask[i*bs+s] where act[i*bs+s] > 0 and +0 elsewhere, summing from zero in
// output order. Eight samples share each weight load as independent chains;
// the batch's remaining samples run one at a time.
func denseBackDelta(w, d, act, mask, prev []float64, bs int) {
	nIn := len(prev) / bs
	rowLen := nIn + 1
	for i := 0; i < nIn; i++ {
		a, m, p := act[i*bs:(i+1)*bs], mask[i*bs:(i+1)*bs], prev[i*bs:(i+1)*bs]
		s := 0
		for ; s+8 <= bs; s += 8 {
			var p0, p1, p2, p3, p4, p5, p6, p7 float64
			for o, j := i, s; o < len(w); o, j = o+rowLen, j+bs {
				wv := w[o]
				q := d[j : j+8 : j+8]
				p0 += wv * q[0]
				p1 += wv * q[1]
				p2 += wv * q[2]
				p3 += wv * q[3]
				p4 += wv * q[4]
				p5 += wv * q[5]
				p6 += wv * q[6]
				p7 += wv * q[7]
			}
			a8, m8, r := a[s:s+8:s+8], m[s:s+8:s+8], p[s:s+8:s+8]
			r[0] = gated(p0, a8[0], m8[0])
			r[1] = gated(p1, a8[1], m8[1])
			r[2] = gated(p2, a8[2], m8[2])
			r[3] = gated(p3, a8[3], m8[3])
			r[4] = gated(p4, a8[4], m8[4])
			r[5] = gated(p5, a8[5], m8[5])
			r[6] = gated(p6, a8[6], m8[6])
			r[7] = gated(p7, a8[7], m8[7])
		}
		for ; s < bs; s++ {
			var ps float64
			for o, j := i, s; o < len(w); o, j = o+rowLen, j+bs {
				ps += w[o] * d[j]
			}
			p[s] = gated(ps, a[s], m[s])
		}
	}
}

// relu is z, or +0 where z < 0. It reads z's bits as an unsigned number:
// the negative values, from the smallest subnormal to -Inf, are the bits
// 0x8000000000000001 through 0xfff0000000000000, so z < 0 exactly when its
// bits less the first fall below 0x7ff0000000000000 (+Inf's bits). NaN and
// -0 stay as they are, as under the branch.
func relu(z float64) float64 {
	b := math.Float64bits(z)
	_, neg := bits.Sub64(b-0x8000000000000001, 0x7ff0000000000000, 0)
	return math.Float64frombits(b &^ -neg)
}

// gated is a back-propagated sum times the unit's dropout multiplier where
// the unit's activation is above zero, and +0 elsewhere. act > 0 exactly
// when its bits, less one, fall below +Inf's bits (the positive values are
// the bits 1 through 0x7ff0000000000000), so NaN and both zeros give +0, as
// under the branch.
func gated(sum, act, mask float64) float64 {
	_, pos := bits.Sub64(math.Float64bits(act)-1, 0x7ff0000000000000, 0)
	return math.Float64frombits(math.Float64bits(sum*mask) & -pos)
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
