package dsp

import (
	"math"
	"slices"
	"testing"
)

// FuzzPearson hardens the similarity metric against arbitrary float input:
// it must never panic and must stay within [-1, 1] for finite inputs.
func FuzzPearson(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
	f.Add(math.MaxFloat64, -math.MaxFloat64, 1.0, 2.0, 3.0, 4.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		x := []float64{a, b, c}
		y := []float64{d, e, g}
		r := Pearson(x, y)
		finite := true
		for _, v := range append(x, y...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
		}
		if finite && !math.IsNaN(r) && (r < -1.0000001 || r > 1.0000001) {
			t.Fatalf("Pearson out of range: %v", r)
		}
	})
}

// FuzzQuantile hardens the quantile estimator: no panics, result within
// the sample range for finite inputs and q in [0,1].
func FuzzQuantile(f *testing.F) {
	f.Add(1.0, 5.0, 3.0, 0.5)
	f.Add(-1.0, -1.0, -1.0, 0.0)
	f.Fuzz(func(t *testing.T, a, b, c, q float64) {
		x := []float64{a, b, c}
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if math.IsNaN(q) {
			return
		}
		got := Quantile(x, q)
		if q >= 0 && q <= 1 {
			if got < slices.Min(x)-1e-9 || got > slices.Max(x)+1e-9 {
				t.Fatalf("Quantile(%v, %v) = %v outside range", x, q, got)
			}
		}
	})
}

// FuzzFFTReal hardens the padding FFT path: arbitrary lengths and values
// must not panic, and the output length is the next power of two.
func FuzzFFTReal(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{})
	f.Add([]byte{255, 0, 128, 7, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4096 {
			return
		}
		x := make([]float64, len(raw))
		for i, b := range raw {
			x[i] = float64(b) - 128
		}
		out := FFTRealInto(nil, x)
		if len(x) > 0 && len(out) != NextPow2(len(x)) {
			t.Fatalf("length %d for input %d", len(out), len(x))
		}
		for _, v := range out {
			if v < 0 {
				t.Fatal("negative magnitude")
			}
		}
	})
}
