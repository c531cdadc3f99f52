package ml

import (
	"math"
	"math/rand"
	"testing"
)

// fitReference is the trainer the mini-batch kernel replaced, kept as the
// reference its fitted weights must match bit for bit: it resolves the
// configuration as Fit does, then runs a plain forward and backward pass
// per sample, drawing each hidden unit's dropout as that unit's activation
// is computed, and sums the gradients of a batch sample by sample. Fit's
// refusals are not repeated here: callers pass configurations Fit accepts.
func (n *NeuralNet) fitReference(d *Dataset) error {
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
		n.weights[l] = make([][]float64, out)
		for o := range n.weights[l] {
			n.weights[l][o] = make([]float64, in)
		}
		n.biases[l] = make([]float64, out)
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				n.weights[l][o][i] = rng.NormFloat64() * scale
			}
		}
	}

	// Adam state.
	mW, vW := refZeros(n.weights), refZeros(n.weights)
	mB, vB := refZerosB(n.biases), refZerosB(n.biases)
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0

	order := make([]int, scaled.Len())
	for i := range order {
		order[i] = i
	}
	nLayers := len(n.weights)
	gW, gB := refZeros(n.weights), refZerosB(n.biases)
	sc := newRefScratch(n.weights)
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < len(order); start += batchSize {
			end := start + batchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			for l := range gW {
				for o := range gW[l] {
					clear(gW[l][o])
				}
				clear(gB[l])
			}
			for _, idx := range batch {
				n.backpropReference(scaled.X[idx], scaled.Y[idx], gW, gB, rng, dropout, sc)
			}
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

func refZeros(w [][][]float64) [][][]float64 {
	out := make([][][]float64, len(w))
	for l := range w {
		out[l] = make([][]float64, len(w[l]))
		for o := range w[l] {
			out[l][o] = make([]float64, len(w[l][o]))
		}
	}
	return out
}

func refZerosB(b [][]float64) [][]float64 {
	out := make([][]float64, len(b))
	for l := range b {
		out[l] = make([]float64, len(b[l]))
	}
	return out
}

// refScratch holds one sample's forward and backward buffers.
type refScratch struct {
	acts   [][]float64 // acts[l] = post-activation output of layer l
	masks  [][]float64 // dropout masks for the hidden layers
	deltas [][]float64 // deltas[l] = gradient at layer l's output
}

func newRefScratch(weights [][][]float64) *refScratch {
	nLayers := len(weights)
	sc := &refScratch{
		acts:   make([][]float64, nLayers),
		masks:  make([][]float64, nLayers),
		deltas: make([][]float64, nLayers),
	}
	for l := 0; l < nLayers; l++ {
		width := len(weights[l])
		sc.acts[l] = make([]float64, width)
		sc.deltas[l] = make([]float64, width)
		if l < nLayers-1 {
			sc.masks[l] = make([]float64, width)
		}
	}
	return sc
}

// backpropReference accumulates gradients for one sample into gW/gB,
// applying inverted dropout on hidden activations during training.
func (n *NeuralNet) backpropReference(x []float64, label int, gW [][][]float64, gB [][]float64, rng *rand.Rand, dropout float64, sc *refScratch) {
	nLayers := len(n.weights)
	in := x
	for l := 0; l < nLayers; l++ {
		out := sc.acts[l]
		wl, bl := n.weights[l], n.biases[l]
		for o := range wl {
			s := bl[o]
			w := wl[o]
			for i, wi := range w {
				s += wi * in[i]
			}
			out[o] = s
		}
		if l < nLayers-1 {
			// ReLU + inverted dropout.
			mask := sc.masks[l]
			keep := 1 - dropout
			for o := range out {
				if out[o] < 0 {
					out[o] = 0
				}
				m := 1.0
				if dropout > 0 {
					if rng.Float64() < dropout {
						m = 0
					} else {
						m = 1 / keep
					}
				}
				mask[o] = m
				out[o] *= m
			}
		} else if n.outDim == 1 {
			out[0] = sigmoid(out[0])
		} else {
			softmaxInPlace(out)
		}
		in = out
	}

	// Output delta for cross-entropy with sigmoid/softmax: p - y.
	last := sc.acts[nLayers-1]
	delta := sc.deltas[nLayers-1]
	if n.outDim == 1 {
		t := 0.0
		if label == 1 {
			t = 1
		}
		delta[0] = last[0] - t
	} else {
		copy(delta, last)
		if label < len(delta) {
			delta[label] -= 1
		}
	}

	for l := nLayers - 1; l >= 0; l-- {
		in := x
		if l > 0 {
			in = sc.acts[l-1]
		}
		wl, gWl, gBl := n.weights[l], gW[l], gB[l]
		for o := range wl {
			do := delta[o]
			gBl[o] += do
			gRow := gWl[o]
			for i, iv := range in {
				gRow[i] += do * iv
			}
		}
		if l == 0 {
			break
		}
		act := sc.acts[l-1]
		mask := sc.masks[l-1]
		prev := sc.deltas[l-1]
		for i := range prev {
			// act[i] > 0 implies both relu'(z)=1 and mask>0; in every
			// other case the gradient through this unit is zero.
			p := 0.0
			if act[i] > 0 {
				var s float64
				for o := range wl {
					s += wl[o][i] * delta[o]
				}
				p = s * mask[i]
			}
			prev[i] = p
		}
		delta = prev
	}
}

// TestNeuralNetKernelParityOnNaN: the kernel's branch-free ReLU and gate
// equal the reference's branches on NaN too. Two finite features of
// 1.5e308 overflow the scaler's mean, so every scaled value of that feature
// is x86's default NaN, whose sign bit is set; a ReLU that cleared every
// negative-signed value would zero it where the branch keeps it, and fit
// finite weights where the reference fits NaN. It reaches NaN only through
// FitScaler's overflow; TestNeuralNetSelectsMatchBranches pins the selects
// on named bit patterns, independent of both.
func TestNeuralNetKernelParityOnNaN(t *testing.T) {
	d := &Dataset{X: [][]float64{{1.5e308, 1}, {1.5e308, 2}, {0, 3}, {1, 4}}, Y: []int{0, 1, 0, 1}}
	got, want := NeuralNet{Epochs: 2, Seed: 1}, NeuralNet{Epochs: 2, Seed: 1}
	if err := got.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := want.fitReference(d); err != nil {
		t.Fatal(err)
	}
	if g, w := netDigest(&got), netDigest(&want); g != w {
		t.Errorf("kernel weights %s, reference %s", g, w)
	}
}

// TestNeuralNetSelectsMatchBranches: relu and gated give the bits of the
// branches they replace, z < 0 and act > 0, on the edges of the sign and
// exponent ranges, both zeros, both infinities and NaNs of either sign.
// It names its bit patterns, so it holds on any platform, whatever NaN its
// arithmetic makes.
func TestNeuralNetSelectsMatchBranches(t *testing.T) {
	edges := []uint64{
		0x0000000000000000, // +0
		0x8000000000000000, // -0
		0x0000000000000001, // +smallest subnormal
		0x8000000000000001, // -smallest subnormal
		0x000fffffffffffff, // +largest subnormal
		0x800fffffffffffff, // -largest subnormal
		0x3ff0000000000000, // +1
		0xbff0000000000000, // -1
		0x7fefffffffffffff, // +MaxFloat64
		0xffefffffffffffff, // -MaxFloat64
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		0x7ff0000000000001, // positive NaN, smallest payload
		0xfff0000000000001, // negative NaN, smallest payload
		0x7ff8000000000000, // positive quiet NaN
		0xfff8000000000000, // negative quiet NaN (x86's default)
		0x7fffffffffffffff, // positive NaN, all payload bits
		0xffffffffffffffff, // negative NaN, all payload bits
	}
	for _, zb := range edges {
		z := math.Float64frombits(zb)
		want := z
		if z < 0 {
			want = 0
		}
		if got := relu(z); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("relu(%#016x) = %#016x, the branch gives %#016x", zb, math.Float64bits(got), math.Float64bits(want))
		}
		for _, sum := range []float64{-1.5, 3, math.Inf(1)} {
			for _, mask := range []float64{0, 1.25} {
				want := 0.0
				if z > 0 {
					want = sum * mask
				}
				if got := gated(sum, z, mask); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("gated(%v, %#016x, %v) = %#016x, the branch gives %#016x",
						sum, zb, mask, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}
