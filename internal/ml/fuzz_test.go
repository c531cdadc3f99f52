package ml

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// FuzzReadForestJSON: any forest the loader accepts predicts on a 7-wide
// row without panicking, quantizes, and saves to bytes that load and save
// again unchanged. The seeds under testdata/fuzz/FuzzReadForestJSON are
// files that would crash or mislead predict if they loaded (a split on
// feature 99, a two-node cycle, leaf classes -1 and 7 of 3, a chain one
// split deeper than the bound) and a real two-tree model.
func FuzzReadForestJSON(f *testing.F) {
	rows := [][]float64{
		make([]float64, 7),
		{1, 2, 3, 4, 5, 6, 7},
		{-1e300, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0.5},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rf, err := ReadForestJSON(bytes.NewReader(data), 7)
		if err != nil {
			return
		}
		for _, x := range rows {
			rf.Predict(x)
		}
		rf.PredictBatch(rows, nil)
		q, err := rf.Quantize()
		if err != nil {
			t.Fatalf("loaded forest does not quantize: %v", err)
		}
		q.PredictBatch(rows, nil)
		q.PredictProbaBatch(rows, nil)
		var saved bytes.Buffer
		if err := rf.WriteJSON(&saved); err != nil {
			t.Fatal(err)
		}
		again, err := ReadForestJSON(bytes.NewReader(saved.Bytes()), 7)
		if err != nil {
			t.Fatalf("saved forest does not load: %v", err)
		}
		var resaved bytes.Buffer
		if err := again.WriteJSON(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatal("save(load(save(f))) differs from save(f)")
		}
	})
}

// fuzzStream reads a fuzz input front to back; once it runs dry every read
// is zero, which grows leaves, so any input builds a finite forest.
type fuzzStream []byte

func (s *fuzzStream) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *fuzzStream) float32() float32 {
	var b [4]byte
	for i := range b {
		b[i] = s.byte()
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
}

// threshold picks a finite split value at or one float64 step beside a
// palette value, where float32 quantization has to round exactly.
func (s *fuzzStream) threshold(palette []float32) float64 {
	t := float64(palette[int(s.byte())%len(palette)])
	if math.IsNaN(t) || math.IsInf(t, 0) {
		t = 0
	}
	switch s.byte() % 3 {
	case 1:
		t = math.Nextafter(t, math.Inf(1))
	case 2:
		t = math.Nextafter(t, math.Inf(-1))
	}
	return t
}

// tree appends a preorder tree of depth at most 6 to nodes.
func (s *fuzzStream) tree(nodes flatTree, depth, nf, nc int, palette []float32) flatTree {
	c := s.byte()
	if depth == 6 || c%3 == 0 {
		return append(nodes, flatNode{feature: -1, class: int32(int(c/3) % nc)})
	}
	idx := len(nodes)
	nodes = append(nodes, flatNode{feature: int32(int(s.byte()) % nf), threshold: s.threshold(palette)})
	nodes[idx].left = int32(len(nodes))
	nodes = s.tree(nodes, depth+1, nf, nc, palette)
	nodes[idx].right = int32(len(nodes))
	return s.tree(nodes, depth+1, nf, nc, palette)
}

// FuzzQuantParity builds a small valid forest and float32 rows from the
// input: up to 70 trees (enough for the early exit to retire rows), 1 to
// 12 features (both the eight-lane and the scalar walk), 2 or 3 classes,
// and thresholds on or one step beside the values the rows take. The
// quantized classes and probabilities must equal the float64 forest's.
func FuzzQuantParity(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 64, 512, 4096} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzStream(data)
		nf := 1 + int(s.byte())%12
		nc := 2 + int(s.byte())%2
		palette := make([]float32, 1+int(s.byte())%8)
		for i := range palette {
			palette[i] = s.float32()
		}
		rf := &RandomForest{numClasses: nc, trees: make([]*DecisionTree, 1+int(s.byte())%70)}
		for i := range rf.trees {
			rf.trees[i] = &DecisionTree{nodes: s.tree(nil, 0, nf, nc, palette)}
		}
		rows := make([][]float64, 1+int(s.byte())%20)
		for i := range rows {
			rows[i] = make([]float64, nf)
			for j := range rows[i] {
				rows[i][j] = float64(palette[int(s.byte())%len(palette)])
			}
		}
		q, err := rf.Quantize()
		if err != nil {
			t.Fatal(err)
		}
		want, got := rf.PredictBatch(rows, nil), q.PredictBatch(rows, nil)
		for i := range rows {
			if got[i] != want[i] {
				t.Fatalf("row %d %v: quant class %d, float64 class %d", i, rows[i], got[i], want[i])
			}
		}
		gotP := q.PredictProbaBatch(rows, nil)
		for i, x := range rows {
			for c, w := range rf.Proba(x) {
				if g := gotP[i*nc+c]; g != w {
					t.Fatalf("row %d class %d: quant proba %v, float64 %v", i, c, g, w)
				}
			}
		}
	})
}

// errDrawBudget stops a fit whose solver keeps drawing random partners.
var errDrawBudget = errors.New("draw budget spent")

// budgetSource is a random source that panics with errDrawBudget once it
// has served its budget of values.
type budgetSource struct {
	rand.Source
	left int
}

func (s *budgetSource) Int63() int64 {
	if s.left == 0 {
		panic(errDrawBudget)
	}
	s.left--
	return s.Source.Int63()
}

// fitBudgeted fits s on d with solve, every machine drawing from one stream
// seeded with seed in place of Fit's. SMO draws a partner at each KKT
// violation and a pass without one ends the fit, so the budget bounds the
// fit's work; a large C on rows no kernel separates would otherwise run to
// maxSMOPasses, far past a fuzz input's time. over reports a fit the budget
// stopped.
func fitBudgeted(s *SVM, d *Dataset, solve smoSolver, seed int64) (over bool, err error) {
	rng := rand.New(&budgetSource{Source: rand.NewSource(seed), left: 20000})
	defer func() {
		if r := recover(); r != nil {
			if r != errDrawBudget {
				panic(r)
			}
			over = true
		}
	}()
	err = s.fit(d, func(x [][]float64, y []float64, kernel Kernel, gamma, c, tol float64, maxPasses int, _ *rand.Rand) (*binarySVM, error) {
		return solve(x, y, kernel, gamma, c, tol, maxPasses, rng)
	})
	return over, err
}

// FuzzSVMSolverParity: trainBinary and the plain reference solver fit
// bit-identical machines (alpha_i*y_i, support vectors and bias of every
// one-vs-rest machine). The input builds 2 to 60 rows of 1 to 6 features,
// each an int8 times a power of two in [2^-16, 2^15], and labels from
// bytes; the kernel, C, Gamma, Tol, MaxPasses and the seed are fuzzed as
// they are, so both solvers must also refuse the same configurations. The
// seeds under testdata/fuzz/FuzzSVMSolverParity are a hard margin (C = +Inf,
// which both refuse), duplicate rows (the eta >= 0 exit), one label, a
// linear kernel on wide-scale features (max|K| >> 1), Tol 1e-12 and
// MaxPasses 1.
func FuzzSVMSolverParity(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, rbf bool, c, gamma, tol float64, maxPasses int, seed int64) {
		s := fuzzStream(data)
		nf := 1 + int(s.byte())%6
		rows := 2 + int(s.byte())%59
		labels := 1 + int(s.byte())%3
		d := &Dataset{}
		for i := 0; i < rows; i++ {
			x := make([]float64, nf)
			for j := range x {
				x[j] = math.Ldexp(float64(int8(s.byte())), int(s.byte()%32)-16)
			}
			d.X, d.Y = append(d.X, x), append(d.Y, int(s.byte())%labels)
		}
		kernel := LinearKernel
		if rbf {
			kernel = RBFKernel
		}
		cfg := SVM{Kernel: kernel, C: c, Gamma: gamma, Tol: tol, MaxPasses: maxPasses}
		got, want := cfg, cfg
		overGot, errGot := fitBudgeted(&got, d, trainBinary, seed)
		overWant, errWant := fitBudgeted(&want, d, trainBinaryReference, seed)
		if overGot != overWant {
			t.Fatalf("draw budget spent: trainBinary %v, reference %v", overGot, overWant)
		}
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("fit errors differ: trainBinary %v, reference %v", errGot, errWant)
		}
		if overGot || errGot != nil {
			return
		}
		if g, w := svmDigest(&got), svmDigest(&want); g != w {
			t.Fatalf("machines differ: trainBinary %s (support vectors %v), reference %s (%v)", g, svCounts(&got), w, svCounts(&want))
		}
	})
}

// netFuzzInput encodes a dataset shape for FuzzNeuralNetKernelParity's
// seeds: nf features, rows rows and labels labels, then pseudo-random
// feature and label bytes.
func netFuzzInput(nf, rows, labels int, seed int64) []byte {
	data := []byte{byte(nf - 1), byte(rows - 2), byte(labels - 1)}
	rnd := make([]byte, rows*(2*nf+1))
	rand.New(rand.NewSource(seed)).Read(rnd)
	return append(data, rnd...)
}

// FuzzNeuralNetKernelParity: NeuralNet.Fit's mini-batch kernel fits the
// weights of the per-sample reference trainer (fitReference,
// nn_ref_test.go), bit for bit. The input builds 2 to 80 rows of 1 to 8
// features, each an int8 times a power of two in [2^-8, 2^7], with 1 to 3
// labels; the net has hidden widths 1 to 12 (or the 32/16/8 default when
// the first width byte is a multiple of 13), a BatchSize from the default
// up to three past the row count, Dropout -1 (off), 0 (the 0.2 default)
// or a fraction, 1 to 3 epochs and any seed. The seeds are the four
// TestNeuralNetGoldenWeights configurations on 80-row sets, BatchSize 1,
// and a batch size that leaves a one-row last batch.
func FuzzNeuralNetKernelParity(f *testing.F) {
	f.Add(netFuzzInput(7, 80, 2, 1), uint8(0), uint8(0), uint8(0), 0, 0.0, uint8(2), int64(3))
	f.Add(netFuzzInput(2, 80, 2, 2), uint8(0), uint8(0), uint8(0), 5, 0.35, uint8(2), int64(4))
	f.Add(netFuzzInput(7, 80, 3, 3), uint8(12), uint8(5), uint8(4), 11, 0.0, uint8(2), int64(6))
	f.Add(netFuzzInput(7, 80, 3, 4), uint8(0), uint8(0), uint8(0), 0, 0.0, uint8(2), int64(8))
	f.Add(netFuzzInput(5, 23, 2, 5), uint8(9), uint8(6), uint8(2), 1, 0.5, uint8(1), int64(1))
	f.Add(netFuzzInput(3, 41, 3, 6), uint8(11), uint8(2), uint8(6), 8, -1.0, uint8(0), int64(2))
	f.Fuzz(func(t *testing.T, data []byte, h0, h1, h2 uint8, batchSize int, dropout float64, epochs uint8, seed int64) {
		s := fuzzStream(data)
		nf := 1 + int(s.byte())%8
		rows := 2 + int(s.byte())%79
		labels := 1 + int(s.byte())%3
		d := &Dataset{}
		for i := 0; i < rows; i++ {
			x := make([]float64, nf)
			for j := range x {
				x[j] = math.Ldexp(float64(int8(s.byte())), int(s.byte()%16)-8)
			}
			d.X, d.Y = append(d.X, x), append(d.Y, int(s.byte())%labels)
		}
		cfg := NeuralNet{Epochs: 1 + int(epochs)%3, Seed: seed}
		if h0%13 != 0 {
			cfg.Hidden = [3]int{int(h0 % 13), 1 + int(h1%12), 1 + int(h2%12)}
		}
		cfg.BatchSize = batchSize % (rows + 4)
		if cfg.BatchSize < 0 {
			cfg.BatchSize = -cfg.BatchSize
		}
		switch p := math.Abs(math.Mod(dropout, 1)); {
		case dropout < 0:
			cfg.Dropout = -1
		case p > 0:
			cfg.Dropout = p
		}
		name := fmt.Sprintf("Hidden %v BatchSize %d Dropout %v Epochs %d Seed %d on %d rows of %d features",
			cfg.Hidden, cfg.BatchSize, cfg.Dropout, cfg.Epochs, cfg.Seed, rows, nf)
		got, want := cfg, cfg
		if err := got.Fit(d); err != nil {
			t.Fatalf("%s: Fit: %v", name, err)
		}
		if err := want.fitReference(d); err != nil {
			t.Fatalf("%s: fitReference: %v", name, err)
		}
		if g, w := netDigest(&got), netDigest(&want); g != w {
			t.Fatalf("%s: kernel weights %s, reference %s", name, g, w)
		}
	})
}
