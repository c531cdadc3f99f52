package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n^2) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			out[k] += x[j] * cmplx.Rect(1, ang)
		}
	}
	return out
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		if err := FFT(got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-7*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTNonPowerOfTwo(t *testing.T) {
	x := make([]complex128, 3)
	if err := FFT(x); err != ErrNotPowerOfTwo {
		t.Errorf("err = %v, want ErrNotPowerOfTwo", err)
	}
}

func TestFFTEmpty(t *testing.T) {
	if err := FFT(nil); err != nil {
		t.Errorf("empty FFT: %v", err)
	}
}

func TestIFFTRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 128)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := append([]complex128(nil), x...)
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	// The inverse transform is conj(FFT(conj(y)))/n.
	for i := range y {
		y[i] = cmplx.Conj(y[i])
	}
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		y[i] = cmplx.Conj(y[i]) / complex(float64(len(y)), 0)
	}
	for i := range x {
		if cmplx.Abs(y[i]-x[i]) > 1e-9 {
			t.Fatalf("roundtrip bin %d: %v vs %v", i, y[i], x[i])
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, 64)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += cmplx.Abs(v) * cmplx.Abs(v)
	}
	freqEnergy /= 64
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Errorf("Parseval violated: %v vs %v", timeEnergy, freqEnergy)
	}
}

func TestFFTRealImpulse(t *testing.T) {
	// A delta function has a flat magnitude spectrum.
	x := make([]float64, 16)
	x[0] = 1
	mag := FFTRealInto(nil, x)
	for i, v := range mag {
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("bin %d: %v", i, v)
		}
	}
}

func TestFFTRealPads(t *testing.T) {
	if got := len(FFTRealInto(nil, make([]float64, 5))); got != 8 {
		t.Errorf("padded length = %d, want 8", got)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 255: 256, 256: 256, 257: 512}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if got := Pearson(x, x); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %v", got)
	}
	y := []float64{5, 4, 3, 2, 1}
	if got := Pearson(x, y); math.Abs(got+1) > 1e-12 {
		t.Errorf("anti correlation = %v", got)
	}
	// Affine invariance: corr(x, a*x+b) = 1 for a > 0.
	z := make([]float64, len(x))
	for i, v := range x {
		z[i] = 3*v + 7
	}
	if got := Pearson(x, z); math.Abs(got-1) > 1e-12 {
		t.Errorf("affine correlation = %v", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("constant input correlation = %v", got)
	}
	if got := Pearson([]float64{1, 2}, []float64{1}); got != 0 {
		t.Errorf("length mismatch = %v", got)
	}
	if got := Pearson([]float64{1}, []float64{1}); got != 0 {
		t.Errorf("too short = %v", got)
	}
}

func TestPearsonBounded(t *testing.T) {
	f := func(a, b, c, d, e, f2, g, h float64) bool {
		x := []float64{a, b, c, d}
		y := []float64{e, f2, g, h}
		for _, v := range append(x, y...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		r := Pearson(x, y)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := Quantile(x, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if got := Median(x); got != 3 {
		t.Errorf("Median = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	x := []float64{3, 1, 2}
	Quantile(x, 0.5)
	if x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{2, 1, 3, 2})
	if !slices.Equal(c.sorted, []float64{1, 2, 2, 3}) {
		t.Errorf("sorted sample = %v", c.sorted)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(1); got != 3 {
		t.Errorf("Quantile(1) = %v", got)
	}
}

func TestCDFPoints(t *testing.T) {
	sample := make([]float64, 100)
	for i := range sample {
		sample[i] = float64(i)
	}
	c := NewCDF(sample)
	vals, probs := c.Points(10)
	if len(vals) != len(probs) {
		t.Fatal("length mismatch")
	}
	if len(vals) > 12 {
		t.Errorf("too many points: %d", len(vals))
	}
	if probs[len(probs)-1] != 1 {
		t.Errorf("last prob = %v", probs[len(probs)-1])
	}
	for i := 1; i < len(probs); i++ {
		if probs[i] < probs[i-1] || vals[i] < vals[i-1] {
			t.Fatal("points not monotone")
		}
	}
}

func TestBox(t *testing.T) {
	b := Box([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if b.Min != 1 || b.Max != 9 || b.Median != 5 || b.Q1 != 3 || b.Q3 != 7 {
		t.Errorf("Box = %+v", b)
	}
	if b.N != 9 || math.Abs(b.Mean-5) > 1e-12 {
		t.Errorf("Box mean/n = %+v", b)
	}
	empty := Box(nil)
	if !math.IsNaN(empty.Median) {
		t.Error("empty box should be NaN")
	}
}

func TestDBLin(t *testing.T) {
	if got := DB(1); got != 0 {
		t.Errorf("DB(1) = %v", got)
	}
	if got := DB(100); math.Abs(got-20) > 1e-12 {
		t.Errorf("DB(100) = %v", got)
	}
	if !math.IsInf(DB(0), -1) || !math.IsInf(DB(-3), -1) {
		t.Error("non-positive DB should be -Inf")
	}
	for _, db := range []float64{-30, -3, 0, 3, 30} {
		if got := DB(Lin(db)); math.Abs(got-db) > 1e-9 {
			t.Errorf("roundtrip %v -> %v", db, got)
		}
	}
}
