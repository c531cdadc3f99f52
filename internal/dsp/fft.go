// Package dsp provides the signal-processing and statistics primitives used
// throughout the simulator: a radix-2 FFT (to convert power delay profiles to
// frequency-domain CSI estimates, as in §6.1 of the paper), Pearson
// correlation (the PDP/CSI similarity metric), and descriptive statistics for
// building the CDFs and boxplots in the evaluation figures.
package dsp

import (
	"errors"
	"math"
	"math/cmplx"
	"sync"
)

// ErrNotPowerOfTwo is returned by FFT when the input length is not a power of
// two.
var ErrNotPowerOfTwo = errors.New("dsp: FFT length must be a power of two")

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// twiddles caches the FFT twiddle factors per transform length
// (int -> []complex128 of length n/2, entry k = exp(-2*pi*i*k/n)).
var twiddles sync.Map

// twiddleTable returns the twiddle factors for an n-point FFT, computing and
// caching them on first use. Each factor comes directly from Sincos, avoiding
// the numerical drift of the incremental w *= wl recurrence (and its two
// complex multiplies per butterfly).
func twiddleTable(n int) []complex128 {
	if v, ok := twiddles.Load(n); ok {
		return v.([]complex128)
	}
	obsTwiddleBuilds.Inc()
	tw := make([]complex128, n/2)
	for k := range tw {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		tw[k] = complex(c, s)
	}
	v, _ := twiddles.LoadOrStore(n, tw)
	return v.([]complex128)
}

// FFT computes the in-place radix-2 decimation-in-time fast Fourier transform
// of x. len(x) must be a power of two.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return ErrNotPowerOfTwo
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	if n < 2 {
		return nil
	}
	// Danielson-Lanczos butterflies with precomputed twiddle factors: the
	// stage with butterfly span `length` uses every (n/length)-th entry of
	// the n-point table. Every j==0 butterfly has twiddle exp(-0i) = 1, so
	// its multiply is elided — for finite inputs the product differs from
	// the operand at most in the sign of zero-valued components, which no
	// add/multiply chain or magnitude downstream can surface. The whole
	// first stage is j==0 butterflies, so it runs as a dedicated
	// multiply-free pass; later stages peel j==0 out of the inner loop.
	for i := 0; i < n; i += 2 {
		u, v := x[i], x[i+1]
		x[i] = u + v
		x[i+1] = u - v
	}
	tw := twiddleTable(n)
	for length := 4; length <= n; length <<= 1 {
		half := length >> 1
		stride := n / length
		for i := 0; i < n; i += length {
			blk := x[i : i+length : i+length]
			u, v := blk[0], blk[half]
			blk[0] = u + v
			blk[half] = u - v
			for j := 1; j < half; j++ {
				u := blk[j]
				v := blk[j+half] * tw[j*stride]
				blk[j] = u + v
				blk[j+half] = u - v
			}
		}
	}
	return nil
}

// cbufPool recycles the complex scratch buffers of FFTRealInto so that
// transform-heavy paths (CSI featurization measures two 256-tap PDPs per
// entry) do not allocate per call.
var cbufPool = sync.Pool{New: func() any { return new([]complex128) }}

// FFTRealInto zero-pads x to the next power of two n, runs an FFT on a pooled
// scratch buffer, and writes the magnitude spectrum into dst, growing it if
// its capacity is below n. It returns dst (re-sliced to length n). dst may
// alias x: x is consumed before dst is written.
func FFTRealInto(dst, x []float64) []float64 {
	n := NextPow2(len(x))
	obsFFTs.Inc()
	bp := cbufPool.Get().(*[]complex128)
	buf := *bp
	if cap(buf) < n {
		obsFFTGrows.Inc()
		buf = make([]complex128, n)
	}
	buf = buf[:n]
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	for i := len(x); i < n; i++ {
		buf[i] = 0
	}
	// Length is a power of two by construction; error is impossible.
	_ = FFT(buf)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i, c := range buf {
		dst[i] = cmplx.Abs(c)
	}
	*bp = buf
	cbufPool.Put(bp)
	return dst
}
