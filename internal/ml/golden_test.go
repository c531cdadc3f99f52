package ml

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// The goldens below pin fitted model bits as a per-sample forward/backward
// pass and a per-tree comparison sort with position tie-breaks produce them.
// The mini-batch DNN kernel and the rank presort must reproduce those bits.

// floatBitsHash appends every float's IEEE-754 bits to h in order.
func floatBitsHash(h []byte, vs ...[]float64) []byte {
	var b [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h = append(h, b[:]...)
		}
	}
	return h
}

// netDigest is the SHA-256 over a fitted net's weights (layer, unit, input
// order) then biases, as raw float64 bits.
func netDigest(n *NeuralNet) string {
	var buf []byte
	for l := range n.weights {
		for _, row := range n.weights[l] {
			buf = floatBitsHash(buf, row)
		}
	}
	for _, b := range n.biases {
		buf = floatBitsHash(buf, b)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// wideData builds an nf-feature, nc-class dataset whose label depends on a
// few of the features, so training moves every layer.
func wideData(n, nf, nc int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		row := make([]float64, nf)
		for f := range row {
			row[f] = rng.NormFloat64() * float64(f+1)
		}
		s := row[0] - 0.5*row[1]
		if nf > 2 {
			s += 0.25 * row[2]
		}
		label := 0
		if s > 0 {
			label = 1
		}
		if nc > 2 && s > 1.5 {
			label = 2
		}
		d.X, d.Y = append(d.X, row), append(d.Y, label)
	}
	return d
}

// TestNeuralNetGoldenWeights pins the fitted weights and biases of binary
// and 3-class nets with dropout on, across batch sizes that do and do not
// divide the sample count and layer widths that are not multiples of four.
func TestNeuralNetGoldenWeights(t *testing.T) {
	cases := []struct {
		name string
		d    *Dataset
		net  NeuralNet
		want string
	}{
		{"binary-7f", wideData(203, 7, 2, 1), NeuralNet{Epochs: 25, Seed: 3}, "d41e9b0655cc20a63f43fd08fd27bd8184a93ef97ee2465368ae5792b568f04e"},
		{"binary-xor-b5", xorData(97, 2), NeuralNet{Epochs: 15, BatchSize: 5, Dropout: 0.35, Seed: 4}, "6eeb99fbba4773a779ba2c0bceb9cf78a7ea7352611b38ec295032aa1c5c604e"},
		{"3class-7f-odd", wideData(151, 7, 3, 5), NeuralNet{Hidden: [3]int{13, 6, 5}, Epochs: 20, BatchSize: 11, Seed: 6}, "e143b94a293ba94165c9540de17915026b439d1bc53a87415dd7f89be29a7ddb"},
		{"3class-blobs", threeClassData(150, 7), NeuralNet{Epochs: 20, Seed: 8}, "a0ce21949956f66c703855610e636ff8972f32b6ba624a3779ed512b07bbd4fc"},
	}
	for _, tc := range cases {
		n := tc.net
		if err := n.Fit(tc.d); err != nil {
			t.Fatalf("%s: fit: %v", tc.name, err)
		}
		if got := netDigest(&n); got != tc.want {
			t.Errorf("%s: weights digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// svmDigest is the SHA-256 over each fitted machine's support-vector count,
// alpha_i*y_i values, support-vector rows and bias, as raw float64 bits.
func svmDigest(s *SVM) string {
	var buf []byte
	for _, m := range s.machines {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(m.sv)))
		buf = floatBitsHash(buf, m.alphaY)
		buf = floatBitsHash(buf, m.sv...)
		buf = floatBitsHash(buf, []float64{m.b})
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// svCounts lists each fitted machine's support-vector count.
func svCounts(s *SVM) []int {
	n := make([]int, len(s.machines))
	for i, m := range s.machines {
		n[i] = len(m.sv)
	}
	return n
}

// TestSVMGoldenMachine pins fitted SVMs bit for bit: binary RBF (the §6.2
// parameters), binary linear, a margin no alpha reaches (C = 1e300) and 3-class
// one-vs-rest fits, whose machines share one random stream.
func TestSVMGoldenMachine(t *testing.T) {
	cases := []struct {
		name string
		d    *Dataset
		svm  SVM
		want string
	}{
		{"binary-rbf", wideData(200, 4, 2, 1), SVM{Kernel: RBFKernel, C: 4, MaxPasses: 3, Seed: 3}, "e47a6fbf5ff566a5d97cea90d5eea2c96347e484488f5d3810866c1b6b410555"},
		{"binary-linear", wideData(200, 4, 2, 1), SVM{Kernel: LinearKernel, C: 1, Seed: 5}, "3400348b7f429be4e2f5d6c6331bb5911683031a88f34837adcd3938ee9018c6"},
		{"binary-rbf-hard-margin", wideData(200, 4, 2, 1), SVM{Kernel: RBFKernel, C: 1e300, Seed: 3}, "edc02a7faffc40653badd5985783981a5bfad642247529a17de334135c45b6c5"},
		{"3class-rbf", wideData(151, 5, 3, 5), SVM{Kernel: RBFKernel, Gamma: 0.5, Seed: 7}, "98aff967feed54a4536611327c90cd618b907444289dc0b2aec75aff2299635b"},
		{"3class-linear", wideData(151, 5, 3, 5), SVM{Kernel: LinearKernel, C: 10, MaxPasses: 2, Tol: 1e-4, Seed: 9}, "9b7c73a6bfb1b5ffacf96cf9408491479a7c478524ef8aee1604aae6985a37ad"},
	}
	for _, tc := range cases {
		s := tc.svm
		if err := s.Fit(tc.d); err != nil {
			t.Fatalf("%s: fit: %v", tc.name, err)
		}
		if got := svmDigest(&s); got != tc.want {
			t.Errorf("%s: machine digest %s (support vectors %v), want %s", tc.name, got, svCounts(&s), tc.want)
		}
	}
}

// tiedData builds a CDR-like dataset: an integer MCS-like column, one column
// that is zero for about 90% of rows (with some negative zeros), a column of
// a few repeated levels, and continuous columns.
func tiedData(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Copysign(0, -1)
	d := &Dataset{}
	for i := 0; i < n; i++ {
		mcs := float64(rng.Intn(9))
		cdr := 0.0
		switch r := rng.Float64(); {
		case r < 0.05:
			cdr = negZero
		case r > 0.9:
			cdr = rng.Float64()
		}
		level := float64(rng.Intn(4)) * 0.5
		snr := rng.NormFloat64()*3 + mcs
		tof := math.Round(rng.NormFloat64()*4) / 4
		label := 0
		if snr+2*cdr-mcs*0.8+level > 1 {
			label = 1
		}
		if cdr > 0.5 && i%3 == 0 {
			label = 2
		}
		d.X = append(d.X, []float64{snr, mcs, cdr, level, tof, rng.NormFloat64(), 0})
		d.Y = append(d.Y, label)
	}
	return d
}

// forestDigest is the SHA-256 over the forest's JSON serialization followed
// by its normalized importances as raw float64 bits.
func forestDigest(t *testing.T, f *RandomForest) string {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	sum := sha256.Sum256(floatBitsHash(buf.Bytes(), f.GiniImportance()))
	return hex.EncodeToString(sum[:])
}

// TestForestGoldenTies pins forests fitted on heavily tied columns, where
// the presort's tie order decides which bootstrap duplicates land on each
// side of a split.
func TestForestGoldenTies(t *testing.T) {
	cases := []struct {
		name string
		d    *Dataset
		rf   RandomForest
		want string
	}{
		{"rows", tiedData(400, 1), RandomForest{NumTrees: 30, MaxDepth: 10, Seed: 2}, "75460693e0c9c8958241cc45f525e8437f4dda0921a55668257c56b11cb8729b"},
		{"entropy-deep", tiedData(257, 3), RandomForest{NumTrees: 17, MaxDepth: 20, MinLeaf: 1, Criterion: Entropy, MaxFeatures: 3, Seed: 4}, "aa46325e9b005e72d0d93ed5aac85186c0160a317bd3613f1f1c75dd0e773264"},
	}
	for _, tc := range cases {
		rf := tc.rf
		if err := rf.Fit(tc.d); err != nil {
			t.Fatalf("%s: fit: %v", tc.name, err)
		}
		if got := forestDigest(t, &rf); got != tc.want {
			t.Errorf("%s: forest digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// treeDigest is the SHA-256 over a fitted tree's preorder nodes followed by
// its raw importances as float64 bits.
func treeDigest(t *testing.T, tree *DecisionTree) string {
	t.Helper()
	js, err := json.Marshal(tree.nodes.toJSON())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sum := sha256.Sum256(floatBitsHash(js, tree.importance))
	return hex.EncodeToString(sum[:])
}

// TestDecisionTreeGoldenTies pins single trees fitted on the tied dataset,
// where the presort alone orders every column.
func TestDecisionTreeGoldenTies(t *testing.T) {
	cases := []struct {
		name string
		tree DecisionTree
		want string
	}{
		{"gini", DecisionTree{MaxDepth: 12, MinLeaf: 1}, "5b64cb0eaea33fed7c7039f68de9a064cd82932d48b156d273d05f51665882a7"},
		{"entropy-rng", DecisionTree{MaxDepth: 8, Criterion: Entropy, MaxFeatures: 4, Rng: rand.New(rand.NewSource(9))}, "979a8f5ba6e43dcf9f1738b12adbb1d8f9fcd3aeee95b1e2cdceb662f2b67796"},
	}
	for _, tc := range cases {
		tree := tc.tree
		if err := tree.Fit(tiedData(333, 8)); err != nil {
			t.Fatalf("%s: fit: %v", tc.name, err)
		}
		if got := treeDigest(t, &tree); got != tc.want {
			t.Errorf("%s: tree digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestRepeatedCVGolden pins repeated cross-validation scores, as float64
// bits, for families whose folds differ in cost, so the fold schedule can
// change while the split order and the score reduction cannot.
func TestRepeatedCVGolden(t *testing.T) {
	d := tiedData(240, 12)
	cases := []struct {
		name    string
		factory func() Classifier
		want    [2]uint64
	}{
		{"DT", func() Classifier { return &DecisionTree{MaxDepth: 6} }, [2]uint64{0x3fecd667df3179f4, 0x3fecc63944592350}},
		{"RF", func() Classifier { return &RandomForest{NumTrees: 9, MaxDepth: 6, Seed: 1} }, [2]uint64{0x3fec2e41b850ae38, 0x3fec1e7abeff8ea7}},
		{"DNN", func() Classifier { return &NeuralNet{Epochs: 4, Seed: 1} }, [2]uint64{0x3fe4210294a0aeeb, 0x3fe3a1fb0ae9d1d0}},
		{"SVM", func() Classifier { return &SVM{Kernel: RBFKernel, C: 4, MaxPasses: 3, Seed: 1} }, [2]uint64{0x3fed6dd4f5469d67, 0x3fed6106d32c45e0}},
	}
	for _, tc := range cases {
		res, err := cvOne(context.Background(), tc.factory, d, 5, 3, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Folds != 15 {
			t.Errorf("%s: %d folds, want 15", tc.name, res.Folds)
		}
		got := [2]uint64{math.Float64bits(res.Accuracy), math.Float64bits(res.WeightedF1)}
		if got != tc.want {
			t.Errorf("%s: scores %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestQuantizeGolden pins a fixed forest's quantized node array (key,
// feature, class, left, right per node, little-endian) and its tree roots.
func TestQuantizeGolden(t *testing.T) {
	rf := &RandomForest{NumTrees: 25, MaxDepth: 12, MinLeaf: 1, Seed: 6}
	if err := rf.Fit(tiedData(400, 17)); err != nil {
		t.Fatal(err)
	}
	q, err := rf.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, n := range q.nodes {
		buf = binary.LittleEndian.AppendUint32(buf, n.key)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(n.feature))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(n.class))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.left))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n.right))
	}
	for _, r := range q.roots {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	sum := sha256.Sum256(buf)
	const want = "dcd23e6832a1c551ac9f905c39cdc2a75c9e96da371a75ecb8f16a566b009428"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("quantized forest digest %s (%d nodes), want %s", got, q.NumNodes(), want)
	}
}
